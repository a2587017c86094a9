import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from cobord import actions as ac
from cobord import bounds as bd
from cobord import geometry as geo
from cobord import lazard as lz
from cobord.lazard import NEG_INF
from cobord.partitions import full_key, partitions_of, pi_q, refines
from cobord.series import BPoly
from conftest import sweep_inputs

TRUNC = 12


def cls(expr):
    return geo.evaluate(expr, TRUNC)


G2 = ac.GroupDescriptor(2, (1,))
G4 = ac.GroupDescriptor(2, (2,))
G22 = ac.GroupDescriptor(2, (1, 1))
G3 = ac.GroupDescriptor(3, (1,))


def test_forced_fixed_points():
    # odd Chern number -> fixed point for p = 2, any rank
    p2 = cls(geo.Proj(2))
    assert bd.has_forced_fixed_point(p2, G2)
    assert bd.has_forced_fixed_point(p2, G22)

    # the rank-ideal generators admit fixed-point-free actions
    for (p, s, group) in [(2, 0, G2), (2, 1, G22), (3, 0, G3)]:
        ys = cls(geo.Hyp(p, p ** s - 1))
        assert not bd.has_forced_fixed_point(ys, group)

    point = cls(geo.Point())
    for group in (G2, G4, G22, G3):
        assert bd.has_forced_fixed_point(point, group)

    # trivial group: any nonzero class, but not the zero class
    triv = ac.GroupDescriptor(2, ())
    assert bd.has_forced_fixed_point(p2, triv)
    zero = lz.CobordismClass(BPoly.zero(trunc=TRUNC))
    assert not bd.has_forced_fixed_point(zero, triv)


def test_lower_bound_projective_four_space():
    rep = bd.fixed_dim_lower_bound(cls(geo.Proj(4)), G2)
    assert rep.lower_bound == 2
    assert not rep.in_ideal
    beta, coeff = rep.certificate
    assert pi_q(beta, 2) == 2
    assert coeff % 2 == 1


def test_lower_bound_ideal_members():
    y0 = cls(geo.Hyp(2, 0))
    for group in (G2, G4, G22):
        rep = bd.fixed_dim_lower_bound(y0, group)
        assert rep.lower_bound == NEG_INF
        assert rep.in_ideal
        assert rep.certificate is None


def test_intro_hypersurface_bounds():
    # p | n+2 and p does not divide d: the bound is exactly floor(n/q)
    cases = [
        (geo.Hyp(3, 4), G2, 2),
        (geo.Hyp(3, 6), G4, 1),
        (geo.Hyp(2, 7), G3, 2),
    ]
    for expr, group, expect in cases:
        rep = bd.fixed_dim_lower_bound(cls(expr), group)
        assert rep.lower_bound == expect, (expr, group)


def test_trivial_group_bound_is_top_dimension():
    triv = ac.GroupDescriptor(2, ())
    for n in (1, 2, 3, 5):
        rep = bd.fixed_dim_lower_bound(cls(geo.Proj(n)), triv)
        assert rep.lower_bound == n
    mixed = cls(geo.DisjointUnion((geo.Proj(1), geo.Proj(3))))
    assert bd.fixed_dim_lower_bound(mixed, triv).lower_bound == 3


def test_chern_bound_branches():
    h34 = cls(geo.Hyp(3, 4))
    assert bd.chern_bound(h34, (4,), G2) == 2  # 225 is odd
    # parts below q certify nothing beyond 0
    assert bd.chern_bound(cls(geo.Product((geo.Proj(1), geo.Proj(1)))), (1, 1), G2) in (0, None)
    # vanishing hypothesis: even Chern number, gcd test also fails
    sq = cls(geo.Product((geo.Proj(1), geo.Proj(1))))
    assert bd.chern_bound(sq, (2,), G2) is None  # c_(2) of P1xP1 is 0 mod 2... decomposable

    # second branch: c = 6 is even but lies outside p * (image gcd) = 4Z
    y2 = cls(geo.Hyp(2, 3))
    assert y2.c_alpha((3,)) == 6
    assert bd.chern_bound(y2, (3,), G2) == 1

    # trivial group: any nonzero Chern number certifies the full weight
    triv = ac.GroupDescriptor(2, ())
    assert bd.chern_bound(h34, (4,), triv) == 4
    assert bd.chern_bound(h34, (3, 1), triv) in (4, None)


def test_chern_bound_requires_admissible_partition():
    # alpha = (3) is not admissible for p=2, r=3 (3 = 2^2 - 1)
    y2 = cls(geo.Hyp(2, 3))
    g23 = ac.GroupDescriptor(2, (1, 1, 1))
    assert bd.chern_bound(y2, (3,), g23) is None


def test_a_zero_chern_number_bounds_nothing_without_a_gcd(monkeypatch):
    # 0 lies in p times every value group, so no gcd can change the answer;
    # at weight 30 the gcd would scan 5,604 monomial images
    def no_gcd(*args):
        raise AssertionError("c_alpha_image_gcd called")

    monkeypatch.setattr(lz, "c_alpha_image_gcd", no_gcd)
    monkeypatch.setattr(bd, "c_alpha_image_gcd", no_gcd)
    assert bd.chern_bound(geo.evaluate(geo.Hyp(3, 4), 30), (30,), G2) is None


def test_the_image_gcd_stops_once_it_reaches_one(monkeypatch):
    # c_(5)(P^5) = -6 is even, and c_(5)(g_5) = 1 already makes the gcd 1
    calls = []
    c_entry = lz.GeneratorBasis.c_entry

    def counted(self, alpha, beta):
        calls.append(beta)
        return c_entry(self, alpha, beta)

    monkeypatch.setattr(lz.GeneratorBasis, "c_entry", counted)
    assert bd.chern_bound(cls(geo.Proj(5)), (5,), G2) is None
    assert calls == [(5,)]


def test_the_image_gcd_reads_only_monomials_that_alpha_refines(monkeypatch):
    # c_(7)(P^7) = 8 and c_(7)(g_7) = 2: the gcd stays 2, and c_(7) vanishes
    # on the 14 decomposable monomials of weight 7, which are not read
    calls = []
    c_entry = lz.GeneratorBasis.c_entry

    def counted(self, alpha, beta):
        calls.append(beta)
        return c_entry(self, alpha, beta)

    monkeypatch.setattr(lz.GeneratorBasis, "c_entry", counted)
    assert bd.chern_bound(cls(geo.Proj(7)), (7,), G2) is None
    assert calls == [(7,)]


def test_the_image_gcd_is_the_gcd_over_every_monomial():
    basis = lz.base_basis(TRUNC)
    for n in range(9):
        for alpha in partitions_of(n):
            every = 0
            for beta in partitions_of(n):
                every = math.gcd(every, basis.c_entry(alpha, beta))
            assert lz.c_alpha_image_gcd(alpha, basis) == every, alpha


def test_main_bound_refines_chern_bounds():
    exprs = [
        geo.Proj(2),
        geo.Proj(4),
        geo.Proj(6),
        geo.Hyp(2, 3),
        geo.Hyp(3, 4),
        geo.Hyp(2, 5),
        geo.Milnor(2, 3),
        geo.CompInt((2, 2), 4),
        geo.Product((geo.Proj(2), geo.Proj(2))),
    ]
    groups = [G2, G4, G22, G3]
    for expr in exprs:
        z = cls(expr)
        dim = expr.dimension()
        for group in groups:
            main = bd.fixed_dim_lower_bound(z, group).lower_bound
            for alpha in partitions_of(dim):
                cb = bd.chern_bound(z, alpha, group)
                if cb is not None:
                    assert main >= cb, (expr, group, alpha)


def test_bound_monotone_in_group_order():
    # larger q weakly decreases every certifying level
    for alpha in partitions_of(6):
        assert pi_q(alpha, 4) <= pi_q(alpha, 2)
    z = cls(geo.Proj(6))
    b2 = bd.fixed_dim_lower_bound(z, G2).lower_bound
    b4 = bd.fixed_dim_lower_bound(z, G4).lower_bound
    assert b4 <= b2


def test_landweber_ideals_increase_with_rank():
    # I_p(r) is inside I_p(r + 1) for r = 0..3, on the generator witnesses
    # X_i^+ and X_i^-, and on Y_s = Hyp(p, p^s - 1), which enters at r = s + 1
    for p in (2, 3):
        group = ac.GroupDescriptor(p, (1,))
        witnesses = [w.variety for i in range(1, TRUNC + 1)
                     for w in ac.generator_action(i, group, TRUNC) if w.variety.parts]
        for expr in witnesses:
            members = [lz.in_landweber_ideal(cls(expr), p, r) for r in range(5)]
            assert members == sorted(members), (p, expr, members)
        for s in range(4):
            if p ** s - 1 <= TRUNC:
                ys = cls(geo.Hyp(p, p ** s - 1))
                members = [lz.in_landweber_ideal(ys, p, r) for r in range(5)]
                assert members == [False] * (s + 1) + [True] * (4 - s), (p, s)


def test_d_alpha_base_cases(basis):
    assert bd.d_alpha((), basis) == {(): 1}
    for n in (1, 2, 3, 4):
        f = bd.d_alpha((n,), basis)
        assert set(f) == {(n,)}
        val = bd.evaluate_functional(f, basis.image_of_monomial((n,)))
        assert val != 0


def test_d_alpha_orthogonality_weight_6(basis):
    for w in range(0, 7):
        for alpha in partitions_of(w):
            f = bd.d_alpha(alpha, basis)
            # the combination only involves coarsenings of alpha
            for beta in f:
                assert refines(alpha, beta)
            for beta in partitions_of(w):
                val = bd.evaluate_functional(f, basis.image_of_monomial(beta))
                if beta == alpha:
                    assert val != 0, (alpha, beta)
                else:
                    assert val == 0, (alpha, beta)


def test_d_alpha_kills_other_weights(basis):
    f = bd.d_alpha((2, 1), basis)
    for beta in partitions_of(4):
        assert bd.evaluate_functional(f, basis.image_of_monomial(beta)) == 0


def test_filtration_members_stay_in_level():
    for group in (G2, G22, G3):
        for d in (0, 1, 2):
            for w in ac.filtration_family(d, group, 5, TRUNC):
                rep = bd.fixed_dim_lower_bound(w.cobordism_class(TRUNC), group)
                assert rep.lower_bound <= d


def test_report_serialization():
    rep = bd.fixed_dim_lower_bound(cls(geo.Proj(4)), G2)
    obj = rep.to_obj()
    assert obj["lower_bound"] == 2
    assert obj["in_ideal"] is False
    assert obj["certificate"]["partition"] == [4]

    rep0 = bd.fixed_dim_lower_bound(cls(geo.Hyp(2, 0)), G2)
    assert rep0.to_obj()["lower_bound"] is None


# -- metamorphic laws of the bound, over random expressions -----------------
#
# Products add: the quotient by I_p(r) is a polynomial ring over F_p, a
# domain, and the q-degree pi_q adds over monomials.  A subgroup bounds
# no lower: the ideal of a smaller rank is smaller and pi_q of a smaller
# order is larger.  A disjoint union of one dimension bounds no higher
# than its larger summand, since the reduction is additive, and exactly
# as high when the two bounds differ: no monomial of the larger q-degree
# can cancel.

SMALL = 8
SMALL_CONSTRUCTORS = (
    [geo.Point()] + [geo.Proj(n) for n in range(1, SMALL + 1)]
    + [geo.Hyp(d, n) for d in range(1, 5) for n in range(1, SMALL + 1)]
    + [geo.CompInt((2, 3), n) for n in range(2, SMALL + 1)]
    + [geo.Milnor(m, n) for n in range(1, SMALL + 1) for m in range(1, n + 1)
       if m + n - 1 <= SMALL]
)
SMALL_GROUPS = [ac.GroupDescriptor(p, exps) for p in (2, 3)
                for exps in [(1,), (2,), (1, 1), (1, 1, 1)]]


def small_bound(expr, group):
    return bd.fixed_dim_lower_bound(geo.evaluate(expr, SMALL), group).lower_bound


@st.composite
def small_varieties(draw, max_dim=SMALL, dim=None):
    """A constructor, a scaled one, or a disjoint union of two of one
    dimension, of dimension at most ``max_dim`` (exactly ``dim`` if given)."""
    pool = [e for e in SMALL_CONSTRUCTORS
            if e.dimension() <= max_dim and dim in (None, e.dimension())]
    expr = draw(st.sampled_from(pool))
    kind = draw(st.sampled_from(["plain", "scaled", "union"]))
    if kind == "scaled":
        return geo.Scaled(draw(st.integers(-6, 6)), expr)
    if kind == "union":
        same = [e for e in pool if e.dimension() == expr.dimension()]
        return geo.DisjointUnion((expr, draw(st.sampled_from(same))))
    return expr


@st.composite
def small_pairs(draw):
    x = draw(small_varieties(SMALL - 1))
    return x, draw(small_varieties(SMALL - x.dimension()))


@settings(max_examples=60, deadline=None)
@given(small_pairs(), st.sampled_from(SMALL_GROUPS))
def test_the_bound_of_a_product_is_the_sum_of_the_bounds(pair, group):
    x, y = pair
    bx, by = small_bound(x, group), small_bound(y, group)
    both = small_bound(geo.Product((x, y)), group)
    assert both == bx + by, (x, y, group)
    if NEG_INF in (bx, by):
        assert both == NEG_INF


SUBGROUPS = [(ac.GroupDescriptor(p, small), ac.GroupDescriptor(p, large))
             for p in (2, 3)
             for small, large in [((1,), (2,)), ((1,), (1, 1)), ((1, 1), (1, 1, 1))]]


@settings(max_examples=60, deadline=None)
@given(small_varieties(), st.sampled_from(SUBGROUPS))
def test_a_larger_group_never_has_a_larger_bound(expr, groups):
    h, g = groups
    assert small_bound(expr, g) <= small_bound(expr, h), (expr, h, g)


@settings(max_examples=100, deadline=None)
@given(small_varieties(), st.sampled_from(SMALL_GROUPS))
def test_the_report_at_the_class_dimension_is_the_report_at_16(expr, group):
    # the bound reads a class in degrees up to its own dimension, so a
    # higher truncation only guards the query
    own = bd.fixed_dim_lower_bound(geo.evaluate(expr, expr.dimension()), group)
    wide = bd.fixed_dim_lower_bound(geo.evaluate(expr, 16), group)
    assert own.to_obj() == wide.to_obj()


@st.composite
def same_dim_pairs(draw):
    x = draw(small_varieties())
    return x, draw(small_varieties(dim=x.dimension()))


@settings(max_examples=60, deadline=None)
@given(same_dim_pairs(), st.sampled_from(SMALL_GROUPS))
def test_a_union_never_bounds_higher_than_its_larger_summand(pair, group):
    x, y = pair
    bx, by = small_bound(x, group), small_bound(y, group)
    union = small_bound(geo.DisjointUnion((x, y)), group)
    assert union <= max(bx, by), (x, y, group)
    if bx != by:
        assert union == max(bx, by), (x, y, group)


@pytest.mark.parametrize("x, y, p, exps, expected", [
    (geo.Proj(4), geo.Hyp(2, 3), 2, (1,), (2, 1, 2)),
    (geo.Product((geo.Proj(2), geo.Proj(2))), geo.Proj(4), 3, (1,), (0, 1, 1)),
    (geo.Proj(4), geo.Proj(4), 2, (1, 1), (1, 1, NEG_INF)),  # 2 P^4 is in I_2(2)
    (geo.Proj(4), geo.Proj(4), 3, (1,), (1, 1, 1)),
])
def test_union_law_on_hand_cases(x, y, p, exps, expected):
    group = ac.GroupDescriptor(p, exps)
    union = geo.DisjointUnion((x, y))
    assert tuple(small_bound(e, group) for e in (x, y, union)) == expected


@pytest.mark.parametrize("x, y, exps, expected", [
    (geo.Proj(2), geo.Proj(4), (1,), 3),
    (geo.Proj(4), geo.Proj(4), (1, 1), 2),
    (geo.Proj(2), geo.Proj(4), (1, 1), 1),
    (geo.Hyp(2, 0), geo.Proj(3), (1, 1), NEG_INF),  # Y_0 is in I_2(2)
    (geo.Hyp(2, 1), geo.Hyp(2, 1), (1, 1), NEG_INF),
])
def test_product_law_on_hand_cases(x, y, exps, expected):
    group = ac.GroupDescriptor(2, exps)
    assert small_bound(x, group) + small_bound(y, group) == expected
    assert small_bound(geo.Product((x, y)), group) == expected


# -- the packed scan against the partition loop on lib-sweep reductions ------


def _partition_scan(reduced, q):
    """The q-degree and certificate by pi_q and ``full_key`` over partitions."""
    bound, best = NEG_INF, None
    coeffs = reduced.terms
    for beta in coeffs:
        level = pi_q(beta, q)
        if level > bound or level == bound and full_key(beta) < full_key(best):
            bound, best = level, beta
    return bound, None if best is None else (best, coeffs[best])


def test_the_bound_scan_is_the_partition_loop_on_lib_sweep_round_0():
    inputs, trunc, checked = sweep_inputs(), 14, 0
    for p, rank in itertools.product(inputs.PRIMES, inputs.RANKS):
        for n in range(1, trunc + 1):  # the sweep's set-up
            bd.fixed_dim_lower_bound(geo.evaluate(geo.Proj(n), trunc),
                                     ac.GroupDescriptor(p, (1,) * rank))
    for seed in (1, 2, 3, 901):
        for q in inputs.sweep_round(seed, 0, 240):
            group = ac.GroupDescriptor(q["p"], tuple(q["exponents"]))
            report = bd.fixed_dim_lower_bound(
                geo.evaluate(geo.parse_expr(q["expr"]), trunc), group)
            expect = _partition_scan(report.reduced, group.order)
            assert (report.lower_bound, report.certificate) == expect, q
            checked += report.certificate is not None
    assert checked > 500
