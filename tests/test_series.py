import pytest
from hypothesis import given, settings, strategies as st

from cobord import fgl
from cobord.partitions import codec
from cobord.series import BPoly, CoefficientError, TruncSeries, packed_terms
from conftest import b_gen, exp_series, graded_degree

N = 10

PARTITION_POOL = [
    (),
    (1,),
    (2,),
    (1, 1),
    (3,),
    (2, 1),
    (1, 1, 1),
    (4,),
    (2, 2),
    (5,),
]

bpolys = st.builds(
    lambda d: BPoly(d, trunc=N),
    st.dictionaries(st.sampled_from(PARTITION_POOL), st.integers(-9, 9), max_size=5),
)


def b(i):
    return b_gen(i, N)


def one():
    return BPoly.one(trunc=N)


def t_series(cap=N):
    return TruncSeries.variable("t", ("t",), cap, trunc=N)


def test_mul_examples():
    assert (b(1) * b(2)).terms == {(2, 1): 1}
    x = BPoly({(2, 1): 3, (1,): -1}, trunc=N)
    assert x * one() == x
    assert (one() + b(1)) * (one() - b(1)) == one() - BPoly({(1, 1): 1}, trunc=N)


def test_truncation_drops_heavy_terms():
    x = BPoly({(6,): 1}, trunc=N)
    y = BPoly({(5,): 1}, trunc=N)
    assert (x * y).is_zero()


def test_truncation_mismatch_raises():
    with pytest.raises(CoefficientError, match="truncation mismatch: 10 vs 8"):
        BPoly({(1,): 1}, trunc=N) * BPoly({(1,): 1}, trunc=8)
    with pytest.raises(CoefficientError):
        BPoly.one(trunc=N) + BPoly.one(trunc=8)


def test_equality_and_hash_ignore_the_truncation_codec():
    # packed keys differ between truncations; the polynomial does not
    x = BPoly({(3, 2, 1): 4, (2, 1): -1}, trunc=N)
    y = BPoly({(2, 1): -1, (1, 2, 3): 4}, trunc=20)
    assert x == y and hash(x) == hash(y)
    assert x != BPoly({(3, 2, 1): 4}, trunc=20)
    assert x.terms == y.terms == {(3, 2, 1): 4, (2, 1): -1}


@settings(max_examples=60, deadline=None)
@given(bpolys, bpolys, bpolys)
def test_ring_axioms(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x + y == y + x
    assert x - x == BPoly.zero(trunc=N)


def test_grading_multiplicative():
    x = BPoly({(2,): 5, (1, 1): -2}, trunc=N)  # weight 2
    y = BPoly({(3,): 1, (2, 1): 4}, trunc=N)  # weight 3
    assert (x * y).homogeneous_weight() == 5


def test_pow_and_inverse():
    x = one() + b(1)
    assert x ** 3 == x * x * x
    assert (x * x.inverse()) == one()
    assert ((-one() + b(2)).inverse() * (-one() + b(2))) == one()
    with pytest.raises(ZeroDivisionError):
        b(1).inverse()


def test_packed_terms_reduces_then_drops_zero_and_heavy_terms():
    pack = codec(N).pack
    terms = {(3, 1): 7, (2,): 6, (): -1, (6, 5): 1, (1,): 0}  # (6, 5) is heavier than N
    assert packed_terms(terms, N) == {pack((3, 1)): 7, pack((2,)): 6, 0: -1}
    assert packed_terms(terms, N, 3) == {pack((3, 1)): 1, 0: 2}


def test_bpoly_json():
    x = BPoly({(3, 1): 12345678901234567890, (1,): -7}, trunc=N)
    assert x.to_obj() == {
        "modulus": None,
        "terms": [{"partition": [1], "coeff": "-7"},
                  {"partition": [3, 1], "coeff": "12345678901234567890"}],
    }


def test_series_mul_respects_caps():
    s = TruncSeries(("h",), 2, {(1,): one()}, trunc=N)
    assert (s * s).coeff((2,)) == one()
    assert ((s * s) * s).is_zero()


def test_the_fgl_suite_makes_one_compose_per_inner_series(monkeypatch):
    from cobord import checks
    calls = []
    compose = TruncSeries.compose

    def counted(self, g):
        calls.append(g)
        return compose(self, g)

    monkeypatch.setattr(TruncSeries, "compose", counted)
    assert checks.fgl_laws(2, 12).ok
    assert len(calls) == 9  # one ten-slot composition per [b](t), |b| <= 4


def test_compose_identity_and_square():
    t = t_series()
    g = TruncSeries(("t",), N, {(1,): BPoly.const(2, trunc=N)}, trunc=N)
    assert t.compose(g) == g
    f2 = t * t
    assert f2.compose(g).coeff((2,)) == BPoly.const(4, trunc=N)


def test_compose_requires_zero_constant():
    t = t_series()
    bad = t + 1
    with pytest.raises(ValueError):
        t.compose(bad)


def test_comp_inverse_identity():
    t = t_series()
    assert t.comp_inverse() == t


def test_comp_inverse_quadratic_example():
    # f = t + b_1 t^2; its inverse starts t - b_1 t^2 + 2 b_1^2 t^3.
    t = t_series(6)
    f = t + t._shell({(2,): b_gen(1, N)})
    g = f.comp_inverse()
    assert g.coeff((1,)) == one()
    assert g.coeff((2,)) == -b(1)
    assert g.coeff((3,)) == BPoly({(1, 1): 2}, trunc=N)
    # the defining identity is the oracle
    assert f.compose(g) == t
    assert g.compose(f) == t


coeff_lists = st.lists(
    st.builds(
        lambda d: BPoly(d, trunc=N),
        st.dictionaries(
            st.sampled_from(PARTITION_POOL[:7]), st.integers(-4, 4), max_size=3
        ),
    ),
    min_size=0,
    max_size=4,
)


@settings(max_examples=25, deadline=None)
@given(coeff_lists, st.sampled_from([1, -1]))
def test_comp_inverse_round_trip_random(coeffs, unit):
    cap = 8
    t = t_series(cap)
    f = t * unit
    for k, c in enumerate(coeffs, start=2):
        f = f + t._shell({(k,): c})
    g = f.comp_inverse()
    assert f.compose(g) == t
    assert g.compose(f) == t


def test_graded_degree():
    t = t_series()
    exp_like = t._shell(
        {(1,): one(), (2,): b(1), (3,): b(2)}
    )
    assert graded_degree(exp_like) == 1
    bad = t._shell({(1,): one(), (3,): b(1)})
    with pytest.raises(ValueError):
        graded_degree(bad)


def test_series_inverse():
    t = t_series()
    s = t + 1
    assert (s * s.inverse()).coeff((0,)) == one()
    assert (s * s.inverse()) == t.constant(1)
    assert (1 - t).inverse() == sum((t ** k for k in range(N + 1)), t.constant(0))
    x, y = (TruncSeries.variable(v, ("x", "y"), 6, trunc=N) for v in "xy")
    for unit in (t - 1, t.constant(one() + b(1)) + t * b(2), 1 + x * b(1) - 3 * x * y,
                 x.constant(-one() + b(2)) + y * y):  # constants -1, 1 + b_1, 1, -1 + b_2
        inv = unit.inverse()
        assert unit * inv == inv * unit == unit.constant(1), unit
    for c in (2, b(1)):
        with pytest.raises(ZeroDivisionError, match="is not a unit"):
            (t + c).inverse()
    with pytest.raises(ZeroDivisionError, match="constant coefficient 0 is not a unit"):
        t.inverse()
    with pytest.raises(ZeroDivisionError, match="constant coefficient 2 is not a unit"):
        BPoly.const(2, trunc=N).inverse()


def horner_compose(f, g):
    """f(g) from the top degree down: one series product per degree."""
    result = g.constant(0)
    for k in range(f.total_cap, -1, -1):
        result = result * g
        if not f.coeff((k,)).is_zero():
            result = result + f.coeff((k,))
    return result


def test_compose_matches_horner_on_n_series():
    ctx = fgl.FglContext(8)
    for a in range(-4, 5):
        for bb in range(-4, 5):
            f, g = ctx.n_series(a), ctx.n_series(bb)
            assert f.compose(g) == horner_compose(f, g), (a, bb)


def test_compose_matches_horner_on_the_formal_sum(ctx, embed):
    u = embed(ctx.log, 0) + embed(ctx.log, 1)
    assert ctx.fgl_sum == horner_compose(exp_series(ctx), u)


@settings(max_examples=25, deadline=None)
@given(coeff_lists, coeff_lists)
def test_compose_matches_horner_random(fs, gs):
    # f may have a constant term; g is two-variable with none
    cap = 6
    f = TruncSeries(("t",), cap, {(k,): c for k, c in enumerate(fs)},
                    trunc=N)
    g = TruncSeries(("x", "y"), cap,
                    {(1 + k // 2, k % 2): c for k, c in enumerate(gs)}, trunc=N)
    assert f.compose(g) == horner_compose(f, g)


def test_compose_rejects_mismatched_coefficients():
    t = t_series()
    g = TruncSeries(("t",), N, {(1,): BPoly.const(1, trunc=8)}, trunc=8)
    with pytest.raises(CoefficientError, match="truncation mismatch"):
        t.compose(g)


# -- TruncSeries.powers: the memoized power table ---------------------------


def reference_powers(g, top):
    """g^0 .. g^top by repeated products, stopping before a zero power."""
    out = [g.constant(1)]
    while len(out) <= top and not (out[-1] * g).is_zero():
        out.append(out[-1] * g)
    return out


@settings(max_examples=25, deadline=None)
@given(st.lists(coeff_lists, min_size=2, max_size=4), coeff_lists)
def test_composing_many_series_with_one_memoized_inner_series(fss, gs):
    cap = 6
    g = TruncSeries(("x", "y"), cap,
                    {(1 + k // 2, k % 2): c for k, c in enumerate(gs)}, trunc=N)
    for fs in fss:
        f = TruncSeries(("t",), cap, {(k,): c for k, c in enumerate(fs)},
                        trunc=N)
        assert f.compose(g) == horner_compose(f, g)
    table = g.powers(cap)
    assert all(p is q for p, q in zip(table, g.powers(cap)))


def test_powers_stop_at_the_first_zero_power():
    t = t_series(5)
    assert [p.coeff((k,)) for k, p in enumerate(t.powers(9))] == [one()] * 6
    assert len(t.powers(9)) == 6  # t^6 is past the cap
    square = t * t
    assert square.powers(9) == [t.constant(1), square, t * t * t * t]
    assert square.powers(1) == [t.constant(1), square]
    assert square.powers(0) == [t.constant(1)]
    assert t.constant(0).powers(4) == [t.constant(1)]
    # weight truncation kills powers too: (b_4 t)^3 has weight 12 > N
    heavy = TruncSeries(("t",), 9, {(1,): b(4)}, trunc=N)
    assert len(heavy.powers(9)) == 3


def test_derived_series_never_share_a_memo():
    t = t_series(6)
    g = t + t * t
    g.powers(6)
    low = g.truncate_total(3)
    assert low.powers(6) == reference_powers(low, 6)
    assert len(low.powers(6)) == 4  # g^4 starts at t^4, past the cap of 3
    for derived in (g + g, g + t, -g, g * 3, g * b(1), g * t):
        assert derived.powers(6) == reference_powers(derived, 6)
    assert g.powers(6) == reference_powers(g, 6)


# -- the shared operand protocol ---------------------------------------------


def test_a_bpoly_and_a_series_combine_in_either_order():
    t = t_series()
    x = BPoly({(1,): 3, (2,): -1}, trunc=N)
    assert x + t == t + x == t + t.constant(x)
    assert x - t == -(t - x)
    assert 1 - t == -(t - 1) and 2 + t == t + 2
    assert x * t == t * x == t.scaled(x)


def test_constants_compare_as_constants():
    t = t_series()
    assert BPoly.const(3, trunc=N) == 3 and BPoly.zero(trunc=N) == 0
    assert t.constant(2) == 2 and t.constant(b(1)) == b(1)
    assert t != 0 and t.constant(0) == 0
    assert t.constant(0).is_zero() and t.constant(BPoly.zero(trunc=N)).is_zero()


def test_rings_without_constants_reject_ints(basis):
    from cobord.equivariant import MPoly
    from cobord.lazard import GenPoly

    a = MPoly.variable(1, (1,), trunc=N)
    g = GenPoly({(2,): 1}, None, basis)
    for bad in (lambda: a + 1, lambda: 1 - a, lambda: g + 0, lambda: g - 0):
        with pytest.raises(TypeError):
            bad()
    assert a != 1 and g != 0
    assert a * 2 == a + a and g * 2 == g + g


def test_different_shapes_do_not_combine_and_compare_unequal(basis):
    from cobord import lazard
    from cobord.equivariant import MPoly
    from cobord.lazard import GenPoly

    pairs = [
        (t_series(), t_series(N - 1)),
        (t_series(), TruncSeries.variable("s", ("s",), N, trunc=N)),
        (t_series(), TruncSeries.variable("t", ("t",), N, trunc=N - 1)),
        (GenPoly({(2,): 1}, None, basis), GenPoly({(2,): 1}, 3, basis)),
        (GenPoly({(2,): 1}, 3, basis),
         GenPoly({(2,): 1}, 3, lazard.adapted_basis(3, 2, basis.trunc))),
        (MPoly.variable(1, (1,), "a", N), MPoly.variable(1, (1,), "p", N)),
        (MPoly.variable(1, (1,), "a", N), MPoly.variable(1, (1,), "a", N - 1)),
    ]
    for x, y in pairs:
        assert x != y and y != x
        for op in (lambda: x + y, lambda: x - y, lambda: x * y):
            with pytest.raises(CoefficientError):
                op()
    # a coefficient of another truncation has packed keys of another codec
    t, light = t_series(), b_gen(2, N - 2)
    assert t.constant(b_gen(2, N)) != light
    for op in (lambda: t + light, lambda: light - t, lambda: t.constant(light)):
        with pytest.raises(CoefficientError, match="truncation mismatch"):
            op()
    # a BPoly is the one exception: its truncation only picks the key codec
    assert b_gen(1, N) == b_gen(1, N - 2)
    with pytest.raises(CoefficientError, match="truncation mismatch"):
        b_gen(1, N) + b_gen(1, N - 2)
