import pytest

from cobord import checks, fgl
from cobord import geometry as geo
from cobord.series import BPoly, TruncSeries
from conftest import exp_series, graded_degree

TRUNC = 12


def b(*parts):
    return BPoly({tuple(parts): 1}, trunc=TRUNC)


def test_exp_and_log_low_degrees(ctx):
    exp = exp_series(ctx)
    assert exp.coeff((1,)) == BPoly.one(trunc=TRUNC)
    assert exp.coeff((3,)) == b(2)
    assert ctx.log.coeff((1,)) == BPoly.one(trunc=TRUNC)
    assert ctx.log.coeff((2,)) == -b(1)
    # degree 3: 2 b_1^2 - b_2; certified by the composition identity below
    assert ctx.log.coeff((3,)) == BPoly({(1, 1): 2, (2,): -1}, trunc=TRUNC)


def test_exp_log_are_mutually_inverse(ctx):
    t, exp = ctx.t_var(), exp_series(ctx)
    assert exp.compose(ctx.log) == t
    assert ctx.log.compose(exp) == t


def test_exp_is_graded_of_degree_one(ctx):
    assert graded_degree(exp_series(ctx)) == 1
    assert graded_degree(ctx.log) == 1
    assert graded_degree(ctx.fgl_sum) == 1


def test_group_law_axioms(ctx):
    F = ctx.fgl_sum
    for i in range(1, ctx.cap + 1):
        assert F.coeff((i, 0)) == (
            BPoly.one(trunc=TRUNC) if i == 1 else BPoly.zero(trunc=TRUNC)
        )
        assert F.coeff((0, i)) == (
            BPoly.one(trunc=TRUNC) if i == 1 else BPoly.zero(trunc=TRUNC)
        )
    for (i, j) in F.terms:
        assert F.coeff((i, j)) == F.coeff((j, i))


def test_doubling_oracle_fixes_xy_coefficient(ctx):
    # F(t, t) = [2](t): the t^2 coefficient of [2] equals
    # F_{2,0} + F_{1,1} + F_{0,2}, and the diagonal terms vanish.
    t = ctx.t_var()
    assert ctx.apply_sum(t, t) == ctx.n_series(2)
    expected_xy = (
        ctx.n_series(2).coeff((2,)) - ctx.fgl_sum.coeff((2, 0))
        - ctx.fgl_sum.coeff((0, 2))
    )
    assert ctx.fgl_sum.coeff((1, 1)) == expected_xy
    assert expected_xy == BPoly({(1,): 2}, trunc=TRUNC)


def test_associativity_to_total_degree_six(ctx):
    deg = 6
    vars3 = ("x", "y", "z")

    def var(name):
        return TruncSeries.variable(name, vars3, deg, trunc=TRUNC)

    x, y, z = var("x"), var("y"), var("z")
    assert ctx.apply_sum(ctx.apply_sum(x, y), z) == ctx.apply_sum(
        x, ctx.apply_sum(y, z)
    )


def test_n_series_base_cases(ctx):
    assert ctx.n_series(0).is_zero()
    assert ctx.n_series(1) == ctx.t_var()
    assert ctx.n_series(2).coeff((2,)) == BPoly({(1,): 2}, trunc=TRUNC)


def test_n_series_recursion(ctx):
    # [n+1](t) = F([n](t), t)
    t = ctx.t_var()
    for n in range(0, 5):
        assert ctx.apply_sum(ctx.n_series(n), t) == ctx.n_series(n + 1)


def test_formal_inverse(ctx):
    t = ctx.t_var()
    assert ctx.apply_sum(t, ctx.n_series(-1)).is_zero()
    assert ctx.n_series(-1) == checks.formal_inverse(ctx)


def test_composition_multiplicativity(ctx):
    for a in range(-4, 5):
        for bb in range(-4, 5):
            assert ctx.n_series(a).compose(ctx.n_series(bb)) == ctx.n_series(a * bb)


def test_landweber_coefficients(ctx):
    for p in (2, 3, 5):
        u = ctx.landweber_coeffs(p)
        assert u[0] == BPoly.const(p, trunc=TRUNC)
        assert all(x.divisible_by(p) for x in u)
        assert len(u) == TRUNC
    u2 = ctx.landweber_coeffs(2)
    assert u2[1] == BPoly({(1,): 2}, trunc=TRUNC)
    assert ctx.v(2, 1) == u2[1]
    assert ctx.v(2, 0) == BPoly.const(2, trunc=TRUNC)


def test_u_m_are_homogeneous(ctx):
    for p in (2, 3):
        for m, u in enumerate(ctx.landweber_coeffs(p)):
            if not u.is_zero():
                assert u.homogeneous_weight() == m


def test_v_top_chern_value(ctx):
    # c_(m)(u_m) = p(p^m - 1): the functional on the [p]-series coefficients
    for p in (2, 3):
        for m in range(1, 9):
            u_m = ctx.landweber_coeffs(p)[m]
            assert u_m.coeff((m,)) == p * (p ** m - 1)


@pytest.mark.parametrize("n", [0, 1, 6, 10, 12, 14])
def test_log_read_off_projective_spaces_is_the_inverse_of_exp(n):
    ctx = fgl.FglContext(n)
    assert ctx.log == exp_series(ctx).comp_inverse()


# -- the closed forms against the series routes they replace --------------


@pytest.mark.parametrize("n", [0, 1, 2, 6, 12, 14])
def test_log_power_closed_form_equals_the_series_power(n):
    ctx = fgl.FglContext(n)
    assert ctx.cap == n + 1  # t^m has weight m - 1, so t^(N+1) is the last
    for k in range(1, n + 2):
        power = ctx.log ** k
        for m in range(k, n + 2):
            assert geo.log_power_coeff(k, m, n) == power.coeff((m,)), (k, m)


@pytest.mark.parametrize("n", [0, 1, 2, 6, 12, 14])
def test_n_series_equals_exp_of_n_log(n):
    ctx = fgl.FglContext(n)
    exp = exp_series(ctx)
    for k in range(-16, 17):
        assert ctx.n_series(k) == exp.compose(ctx.log * k), k
        assert ctx.n_series(k).total_cap == ctx.cap


@pytest.mark.parametrize("n", [0, 1, 2, 6, 12, 14])
def test_formal_sum_equals_exp_of_log_x_plus_log_y(n, embed):
    ctx = fgl.FglContext(n)
    u = embed(ctx.log, 0) + embed(ctx.log, 1)
    assert ctx.fgl_sum == exp_series(ctx).compose(u)


def _formal_inverse_by_substitution(ctx):
    """i(t) by substituting the partial inverse into F at every degree."""
    t = ctx.t_var()
    inv = -t
    for k in range(2, ctx.cap + 1):
        fk = ctx.fgl_sum.truncate_total(k)
        h = fk.substitute([t.truncate_total(k), inv.truncate_total(k)])
        e = h.coeff((k,))
        if not e.is_zero():
            inv = inv + t._shell({(k,): -e})
    return inv


@pytest.mark.parametrize("n", [0, 1, 2, 6, 12, 14])
def test_formal_inverse_equals_the_substitution_solve(n):
    ctx = fgl.FglContext(n)
    inv = checks.formal_inverse(ctx)
    assert inv == _formal_inverse_by_substitution(ctx)
    assert inv.total_cap == ctx.cap
