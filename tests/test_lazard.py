import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cobord import actions as ac
from cobord import bounds as bd
from cobord import cli, fgl, partitions
from cobord import geometry as geo
from cobord import lazard as lz
from cobord.partitions import codec, partitions_of, pi_q, refines, union
from cobord.series import BPoly
from conftest import b_gen

TRUNC = 12


def cls(expr):
    return geo.evaluate(expr, TRUNC)


def to_image(g):
    """The Z[b] image of integer generator coordinates, monomial by monomial."""
    assert g.modulus is None
    img = BPoly.zero(trunc=g.trunc)
    for beta, c in g.terms.items():
        img = img + g.basis.image_of_monomial(beta).scaled(c)
    return img


class AdaptedFamily(lz.GeneratorBasis):
    """The integer basis whose generators are a quotient's: the reference
    in which the reduction mod I_p(r) is the coordinates free of killed
    degrees, reduced mod p.  Images and the solve are inherited."""

    def __init__(self, quotient):
        super().__init__(quotient.trunc)
        self.quotient, self.killed = quotient, quotient.killed

    def gen(self, i):
        return self.quotient.gen(i)


_FAMILIES = {}


def adapted_family(p, r, trunc=TRUNC):
    """The shared ``AdaptedFamily`` of ``lz.adapted_basis(p, r, trunc)``."""
    quotient = lz.adapted_basis(p, r, trunc)
    if quotient not in _FAMILIES:
        _FAMILIES[quotient] = AdaptedFamily(quotient)
    return _FAMILIES[quotient]


# -- helpers for the generator criterion --------------------------------


def binomial_gcd(i):
    g = 0
    for j in range(1, (i + 1) // 2 + 1):
        g = math.gcd(g, math.comb(i + 1, j))
    return g


def test_prime_power_helper():
    assert lz.prime_power(8) == (2, 3)
    assert lz.prime_power(9) == (3, 2)
    assert lz.prime_power(7) == (7, 1)
    assert lz.prime_power(6) is None
    assert lz.prime_power(1) is None


def test_xgcd_list():
    for values in [[-2], [4, 6], [-4, 6], [10, 45, 120, 210, 252], [0, 5]]:
        g, coeffs = lz.xgcd_list(values)
        assert g == math.gcd(*values) if len(values) > 1 else abs(values[0])
        assert sum(c * v for c, v in zip(coeffs, values)) == g


def test_c_alpha_examples(basis):
    p1 = cls(geo.Proj(1))
    assert p1.c_alpha((1,)) == -2
    point = cls(geo.Point())
    assert point.c_alpha(()) == 1
    assert p1.c_alpha((2,)) == 0


def test_base_generator_criterion(basis):
    for i in range(1, 11):
        c = basis.gen(i).c_alpha((i,))
        assert abs(c) == binomial_gcd(i), i
        pp = lz.prime_power(i + 1)
        assert abs(c) == (pp[0] if pp else 1), i


def test_base_generator_examples(basis):
    assert abs(basis.gen(1).c_alpha((1,))) == 2
    assert abs(basis.gen(3).c_alpha((3,))) == math.gcd(4, 6) == 2
    assert abs(basis.gen(4).c_alpha((4,))) == math.gcd(5, 10) == 5


def test_generators_are_milnor_combinations(basis):
    # the recorded split must reproduce the generator image exactly
    for i in range(1, TRUNC + 1):
        img = BPoly.zero(trunc=TRUNC)
        for (m, n, c) in lz.milnor_split(i)[1]:
            assert m + n - 1 == i and m != 1
            img = img + cls(geo.Milnor(m, n)).image.scaled(c)
        assert img == basis.gen(i).image


# -- lazy generators and closed-form splits -------------------------------


@pytest.fixture
def fresh_bases():
    """Empty the basis, split and FGL caches before and after a test that
    inspects or perturbs their construction."""
    caches = (lz.base_basis, lz.adapted_basis, lz.milnor_split, fgl.context)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_closed_form_top_chern_numbers_match_evaluation():
    cases = [(i, m, n) for i in range(1, 21) for m, n in lz.milnor_candidates(i)]
    assert len(cases) == 110
    for i, m, n in cases:
        assert lz.milnor_top_chern(m, n) == geo.evaluate(
            geo.Milnor(m, n), 20).c_alpha((i,)), (m, n)


def test_v_i_from_the_smallest_context_matches_truncation_20():
    cases = [(p, i) for p in range(2, 21) if lz.is_prime(p)
             for i in range(1, 5) if p ** i - 1 <= 20]
    assert len(cases) == 12
    wide = fgl.context(20)
    for p, i in cases:
        small = fgl.context(p ** i - 1).v(p, i)
        assert BPoly(small.terms, 20) == wide.v(p, i), (p, i)
        for trunc in (p ** i - 1, 20, 30):  # v_i as ``GeneratorBasis.gen`` reads it
            v_i = lz.n_series_coeff(p, p ** i, trunc)
            assert BPoly(v_i.terms, 20) == wide.v(p, i), (p, i, trunc)


def test_a_generator_degree_outside_the_truncation_is_rejected():
    for basis in (lz.base_basis(TRUNC), lz.adapted_basis(2, 3, TRUNC)):
        with pytest.raises(geo.TruncationError,
                           match="dimension 13 exceeds truncation 12; raise"):
            basis.gen(TRUNC + 1)
        for i in (0, -1):
            with pytest.raises(ValueError, match=f"must lie in 1..12, got {i}") as err:
                basis.gen(i)
            assert err.type is ValueError


def test_a_cold_bound_builds_only_the_degrees_of_its_class(fresh_bases, capsys):
    basis = lz.base_basis(4)  # the CLI computes at the class's own weight
    assert set(basis.describe()) == {"flavor", "p", "r"}
    assert not basis._built
    assert cli.main(["bound", '{"hyp":[3,4]}', "--p", "2", "--group", "1,1",
                     "--trunc", "30"]) == 0
    assert capsys.readouterr().out
    assert sorted(basis._built) == [1, 2, 3, 4]
    assert sorted(lz.adapted_basis(2, 2, 4)._built) == [1]  # its one killed degree
    assert lz.base_basis.cache_info().currsize == 1  # no truncation-30 basis
    assert fgl.context.cache_info().currsize == 0  # v_1, v_2 need no FGL context


def test_a_cold_rank_three_bound_builds_one_adapted_basis(fresh_bases, capsys):
    assert cli.main(["bound", '{"hyp":[3,4]}', "--p", "2", "--group", "1,1,1"]) == 0
    assert capsys.readouterr().out
    assert lz.adapted_basis.cache_info().currsize == 1
    basis = lz.adapted_basis(2, 3, 4)  # the CLI computes at the class's own weight
    assert basis.killed == {1, 3} and sorted(basis._built) == [1]


def test_a_bound_at_a_large_truncation_builds_only_the_degrees_of_its_class(
        fresh_bases):
    # the library is keyed by the truncation it is given, not the class's weight
    basis = lz.base_basis(30)
    assert not basis._built
    bd.fixed_dim_lower_bound(geo.evaluate(geo.Hyp(3, 4), 30),
                             ac.GroupDescriptor(2, (1, 1)))
    assert sorted(basis._built) == [1, 2, 3, 4]
    assert sorted(lz.adapted_basis(2, 2, 30)._built) == [1]  # its one killed degree
    assert fgl.context.cache_info().currsize == 0


def test_a_basis_splits_only_the_degrees_it_builds(fresh_bases):
    lz.GeneratorBasis(1000)
    assert lz.milnor_split.cache_info().currsize == 0
    lz.GeneratorBasis(TRUNC).gen(3)
    assert lz.milnor_split.cache_info().currsize == 1
    misses = lz.milnor_split.cache_info().misses
    lz.milnor_split(3)
    assert lz.milnor_split.cache_info().misses == misses  # the one split is degree 3


@pytest.mark.parametrize("degree", [1, 4, 9])
def test_a_wrong_closed_form_fails_validation_when_its_degree_is_built(
        degree, fresh_bases, monkeypatch):
    exact = lz.milnor_top_chern

    def off_by_one(m, n):
        return exact(m, n) + (m == 0 and n == degree + 1)

    monkeypatch.setattr(lz, "milnor_top_chern", off_by_one)
    basis = lz.base_basis(TRUNC)
    assert basis.gen(degree + 1).dim == degree + 1  # other degrees still build
    with pytest.raises(lz.BasisValidationError, match=f"degree {degree}:"):
        basis.gen(degree)


@pytest.mark.parametrize("p, r", [(2, 2), (2, 4), (3, 3), (5, 2), (13, 2)])
def test_an_adapted_basis_shares_every_generator_it_does_not_replace(p, r):
    adapted, base = lz.adapted_basis(p, r, TRUNC), lz.base_basis(TRUNC)
    kept = [i for i in range(1, TRUNC + 1) if i not in adapted.killed]
    assert len(kept) == TRUNC - len(adapted.killed) > 0
    for i in kept:
        assert adapted.gen(i) is base.gen(i), i
    for i in adapted.killed:
        assert adapted.gen(i) is not base.gen(i), i


@pytest.mark.parametrize("shift, text", [
    # b_1^3 leaves c_(3) alone but makes a coefficient of g'_3 odd
    ({(1, 1, 1): 1}, "adapted generator in degree 3 is not in the mod-2 kernel"),
    # 4 b_3 keeps g'_3 even but makes its c_(3) +2, and g_3 = D_3 - g'_3 needs -2
    ({(3,): 4}, r"degree 3: c_\(i\) = 2, but the construction gives -2"),
], ids=["odd", "top"])
def test_a_wrong_adapted_generator_fails_validation_when_its_degree_is_built(
        shift, text, fresh_bases, monkeypatch):
    # v_2 = [t^4] [2](t) shifted by ``shift``
    exact = lz.n_series_coeff

    def shifted(n, m, trunc):
        return exact(n, m, trunc) + (BPoly(shift, trunc) if (n, m) == (2, 4) else 0)

    monkeypatch.setattr(lz, "n_series_coeff", shifted)
    basis = lz.adapted_basis(2, 3, TRUNC)
    assert basis.killed == {1, 3}
    assert basis.gen(1).image.divisible_by(2)  # other degrees still build
    with pytest.raises(lz.BasisValidationError, match=f"^{text}$"):
        basis.gen(3)


def test_the_base_basis_takes_no_ideal_and_a_quotient_solves_nothing():
    with pytest.raises(TypeError):
        lz.GeneratorBasis(14, 2, 3)
    quotient = lz.adapted_basis(2, 3, 14)
    for name in ("solve", "image_of_monomial", "c_entry", "_columns", "_mono_images"):
        assert not hasattr(quotient, name), name


def _count_solves(monkeypatch, images=False):
    """Record the basis of every ``GeneratorBasis.solve`` call from now on,
    paired with the solved image if ``images``."""
    solved, solve = [], lz.GeneratorBasis.solve

    def counted(basis, image):
        solved.append((basis, image) if images else basis)
        return solve(basis, image)

    monkeypatch.setattr(lz.GeneratorBasis, "solve", counted)
    return solved


def test_one_class_under_three_rank_one_groups_is_solved_once_at_its_own_weight(
        fresh_bases, monkeypatch, capsys):
    # Z/2, Z/3 and Z/4 kill no degree, so they and ``class`` share the base
    # solve, and the CLI computes at the class's own weight 4 at every --trunc
    solved = _count_solves(monkeypatch)
    for trunc in ("12", "14", "30"):
        for p, group in (("2", "1"), ("3", "1"), ("2", "2")):
            assert cli.main(["bound", '{"hyp":[3,4]}', "--p", p, "--group", group,
                             "--trunc", trunc]) == 0
        assert cli.main(["class", '{"hyp":[3,4]}', "--trunc", trunc]) == 0
    assert capsys.readouterr().out
    assert solved == [lz.base_basis(4)]


def test_complete_intersections_in_either_degree_order_are_solved_once(
        fresh_bases, monkeypatch):
    geo.evaluate.cache_clear()  # no cached coordinates or reductions
    solved = _count_solves(monkeypatch)
    assert (geo.evaluate(geo.CompInt((3, 2), 5), TRUNC)
            is geo.evaluate(geo.CompInt((2, 3), 5), TRUNC))
    group = ac.GroupDescriptor(3, (1,))
    reports = [bd.fixed_dim_lower_bound(geo.evaluate(geo.CompInt(ds, 5), TRUNC), group)
               for ds in ((3, 2), (2, 3))]
    assert reports[0] == reports[1]
    assert solved == [lz.base_basis(TRUNC)]
    geo.evaluate.cache_clear()


def test_ranks_that_kill_the_same_degrees_share_one_solve(fresh_bases, monkeypatch):
    # ranks 4 and 6 both kill {1, 3, 7} at truncation 12; the product is
    # reduced from its factors, each factor is solved once, in the base
    # basis, and each basis solves the one killed generator the supports meet
    solved = _count_solves(monkeypatch, images=True)
    z = cls(geo.Product((geo.Proj(2), geo.Hyp(3, 4))))
    high, low = lz.reduce_mod_landweber(z, 2, 6), lz.reduce_mod_landweber(z, 2, 4)
    bases = [lz.adapted_basis(2, r, TRUNC) for r in (6, 4)]
    assert [sorted(basis._built) for basis in bases] == [[1], [1]]
    assert [basis for basis, _ in solved] == [lz.base_basis(TRUNC)] * 4
    assert [image for _, image in solved] == [cls(geo.Proj(2)).image,
                                              cls(geo.Hyp(3, 4)).image] + [
        basis.gen(1).image for basis in bases]
    assert high.terms == low.terms == {(4, 2): 1}
    assert high.basis is lz.adapted_basis(2, 6, TRUNC)
    assert high.to_obj()["basis"] == {"flavor": "adapted", "p": 2, "r": 6}


def test_one_class_under_six_groups_is_solved_once_in_the_base_basis(
        fresh_bases, monkeypatch):
    # the class once, and in each basis each killed generator its support
    # meets: one base solve each
    solved = _count_solves(monkeypatch, images=True)
    image = cls(geo.Hyp(3, 12)).image
    z = geo.CobordismClass(image, 12)  # no cached coordinates or reductions
    for p in (2, 3):
        for r in (1, 2, 3):
            bd.fixed_dim_lower_bound(z, ac.GroupDescriptor(p, (1,) * r))
    bases = [lz.adapted_basis(p, r, TRUNC) for p in (2, 3) for r in (2, 3)]
    assert [sorted(basis._built) for basis in bases] == [[1], [1, 3], [2], [2, 8]]
    assert [sorted(basis._residues) for basis in bases] == [[1], [1, 3], [2], [2, 8]]
    generators = [basis.gen(n).image for basis in bases for n in sorted(basis._built)]
    assert [basis for basis, _ in solved] == [lz.base_basis(TRUNC)] * 7
    assert [image for _, image in solved] == [image] + generators


def test_a_zero_residue_in_a_lower_degree_spares_the_higher_generators(fresh_bases):
    # mod 2 (mod 3) every monomial of Hyp(2, 12) with a 3 (an 8) also holds a
    # 1 (a 2), whose residue is zero, so neither g'_3 nor g'_8 is built
    z = geo.CobordismClass(cls(geo.Hyp(2, 12)).image, 12)
    for p in (2, 3):
        bd.fixed_dim_lower_bound(z, ac.GroupDescriptor(p, (1, 1, 1)))
    bases = [lz.adapted_basis(p, 3, TRUNC) for p in (2, 3)]
    assert [sorted(basis.killed) for basis in bases] == [[1, 3], [2, 8]]
    assert [sorted(basis._built) for basis in bases] == [[1], [2]]
    assert [sorted(basis._residues) for basis in bases] == [[1], [2]]


def test_a_rank_five_bound_builds_no_killed_generator_above_its_class(fresh_bases):
    fresh = lz.adapted_basis(2, 4, 30)
    assert not fresh._built and not fresh._residues  # a new basis holds none
    report = bd.fixed_dim_lower_bound(geo.evaluate(geo.Hyp(3, 4), 30),
                                      ac.GroupDescriptor(2, (1,) * 5))
    basis = report.reduced.basis
    assert basis is lz.adapted_basis(2, 5, 30) and basis.killed == {1, 3, 7, 15}
    assert sorted(basis._built) == sorted(basis._residues) == [1]
    assert not fresh._built and not fresh._residues  # no other rank is read


def test_a_solve_across_truncations_refuses_a_heavier_image():
    basis = lz.base_basis(TRUNC)
    heavy = geo.evaluate(geo.Proj(13), 14)
    with pytest.raises(geo.TruncationError, match="dimension 13 exceeds truncation 12; raise"):
        basis.solve(heavy.image)
    with pytest.raises(geo.TruncationError, match="dimension 13 exceeds truncation 12; raise"):
        heavy.gen_coords(basis)
    light = geo.evaluate(geo.Proj(3), 14)
    assert light.gen_coords(basis).terms == cls(geo.Proj(3)).gen_coords(basis).terms
    assert cls(geo.Proj(3)).gen_coords(lz.base_basis(14)).terms == light.gen_coords(
        lz.base_basis(14)).terms


def test_triangularity_to_weight_8(basis):
    for w in range(1, 9):
        for alpha in partitions_of(w):
            for beta in partitions_of(w):
                if not refines(alpha, beta):
                    assert basis.c_entry(alpha, beta) == 0, (alpha, beta)
    # and the diagonal never vanishes
    for w in range(1, 9):
        for alpha in partitions_of(w):
            assert basis.c_entry(alpha, alpha) != 0


def test_c_entry_matches_convolution_oracle(basis):
    # c_alpha(l_beta) decomposes over splittings of alpha into |beta| blocks
    def oracle(alpha, beta):
        if not beta:
            return 1 if not alpha else 0
        total = 0
        from cobord.partitions import _sub_multisets

        seen = set()
        for chosen, left in _sub_multisets(alpha):
            if sum(chosen) != beta[0] or (chosen, left) in seen:
                continue
            seen.add((chosen, left))
            c = basis.gen(beta[0]).c_alpha(chosen) if chosen else 0
            if c:
                total += c * oracle(left, beta[1:])
        return total

    for w in range(1, 7):
        for alpha in partitions_of(w):
            for beta in partitions_of(w):
                assert basis.c_entry(alpha, beta) == oracle(alpha, beta), (
                    alpha,
                    beta,
                )


def test_gen_coords_examples(basis):
    point = cls(geo.Point())
    assert point.gen_coords(basis).terms == {(): 1}

    mono = basis.image_of_monomial((2, 1))
    z = lz.CobordismClass(mono, dim=3)
    assert z.gen_coords(basis).terms == {(2, 1): 1}

    p2 = cls(geo.Proj(2))
    coords = p2.gen_coords(basis)
    assert set(coords.terms) <= {(2,), (1, 1)}
    assert to_image(coords) == p2.image

    # an image at another truncation is re-keyed into the basis's codec
    image = geo.evaluate(geo.Hyp(3, 4), 16).image
    assert basis.solve(image) == cls(geo.Hyp(3, 4)).gen_coords(basis)


def test_round_trip_constructor_classes(basis):
    exprs = [
        geo.Proj(n) for n in range(1, 9)
    ] + [
        geo.Hyp(2, 3),
        geo.Hyp(3, 4),
        geo.Hyp(2, 7),
        geo.Milnor(2, 2),
        geo.Milnor(2, 5),
        geo.Milnor(3, 4),
        geo.CompInt((2, 2), 4),
        geo.CompInt((2, 3), 5),
        geo.Product((geo.Proj(2), geo.Proj(3))),
        geo.Product((geo.Proj(1), geo.Hyp(2, 3))),
        geo.DisjointUnion((geo.Proj(3), geo.Scaled(-2, geo.Hyp(2, 3)))),
    ]
    for e in exprs:
        z = cls(e)
        coords = z.gen_coords(basis)
        assert to_image(coords) == z.image, e


def test_solve_rejects_non_lazard_input(basis):
    # b_1 alone has c_(1) = 1, impossible for a genuine class
    with pytest.raises(lz.NotInLazardImage):
        lz.CobordismClass(b_gen(1, TRUNC)).gen_coords(basis)


@pytest.mark.parametrize("terms, text", [
    ({(1,): 1}, "weight 1: coordinate at (1,) is -1/2, not an integer"),
    ({(1,): -3}, "weight 1: coordinate at (1,) is 3/2, not an integer"),
    ({(2,): 1}, "weight 2: coordinate at (2,) is 1/3, not an integer"),
    ({(1, 1): 6}, "weight 2: coordinate at (1, 1) is 3/2, not an integer"),
    ({(2, 1): 4}, "weight 3: coordinate at (2, 1) is -2/3, not an integer"),
    ({(2, 1): -4}, "weight 3: coordinate at (2, 1) is 2/3, not an integer"),
    ({(2, 1): 9}, "weight 3: coordinate at (2, 1) is -3/2, not an integer"),
])
def test_not_in_lazard_image_prints_the_reduced_quotient(terms, text):
    # in the I_2(2)-adapted family the weight-1 diagonal entry is -2, so
    # (2, 1) has diagonal 3 * -2 = -6: the sign moves to the numerator
    basis = adapted_family(2, 2)
    (alpha, c), = terms.items()
    diagonal = basis.image_of_monomial(alpha).coeff(alpha)
    assert text.split(" is ")[1] == f"{Fraction(c, diagonal)}, not an integer"
    with pytest.raises(lz.NotInLazardImage) as err:
        lz.CobordismClass(BPoly(terms, TRUNC)).gen_coords(basis)
    assert str(err.value) == text


def test_decomposability():
    # a homogeneous class of weight n is decomposable iff c_(n) vanishes
    p1 = cls(geo.Proj(1))
    assert p1.c_alpha((1,)) != 0
    sq = geo.CobordismClass(p1.image * p1.image)
    assert sq.c_alpha((2,)) == 0

    h32 = cls(geo.Hyp(3, 2))  # c_(2) = 15 = 3 * 5
    assert lz.is_indecomposable_mod_p(h32, 3)
    assert lz.is_indecomposable_mod_p(h32, 2)
    assert not lz.is_indecomposable_mod_p(sq, 2)


def test_generators_indecomposable_mod_every_prime(basis):
    # c_(i) is +-1 or a prime power p^1, so reduction mod any prime stays
    # indecomposable
    for p in (2, 3, 5):
        for i in range(1, 11):
            assert lz.is_indecomposable_mod_p(basis.gen(i), p), (p, i)


def test_v_n_indecomposable(ctx):
    for (p, nmax) in [(2, 3), (3, 2)]:
        for n in range(1, nmax + 1):
            vn = lz.CobordismClass(ctx.v(p, n))
            assert lz.is_indecomposable_mod_p(vn, p), (p, n)


def test_adapted_basis_p2_r2():
    ab = lz.adapted_basis(2, 2, TRUNC)
    g1 = ab.gen(1)
    assert g1.c_alpha((1,)) == -2
    assert g1.image.divisible_by(2)
    # untouched degrees agree with the base basis
    base = lz.base_basis(TRUNC)
    for i in range(2, TRUNC + 1):
        assert ab.gen(i) == base.gen(i)


def test_adapted_basis_r1_is_base():
    ab = lz.adapted_basis(2, 1, TRUNC)
    base = lz.base_basis(TRUNC)
    assert ab.killed == frozenset()
    assert all(ab.gen(i) == base.gen(i) for i in range(1, TRUNC + 1))


def test_adapted_basis_p3_r2_matches_v1_mod_decomposables(ctx):
    ab = lz.adapted_basis(3, 2, TRUNC)
    diff = ab.gen(2).image - ctx.v(3, 1)
    # no linear b_n term survives mod 3: every coefficient of a term of
    # length < 2 is divisible by 3
    assert all(c % 3 == 0 for alpha, c in diff.terms.items() if len(alpha) < 2)


# -- primality ------------------------------------------------------------


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_miller_rabin_agrees_with_trial_division_below_10_5():
    assert [n for n in range(-3, 10 ** 5) if lz.is_prime(n) != _trial_division(n)] == []


def test_strong_pseudoprimes_are_rejected():
    # 3215031751 passes bases 2, 3, 5, 7; 3825123056546413051 every prime base
    # up to 23 (Jaeschke; Zhang & Tang)
    for n in (3215031751, 3825123056546413051):
        assert not _trial_division(n) and not lz.is_prime(n)
    assert lz.is_prime(10 ** 18 + 3) and lz.is_prime(2 ** 61 - 1)


def test_the_least_strong_pseudoprime_to_the_first_twelve_prime_bases_is_rejected():
    # psi_12 passes every base up to 37; base 41 witnesses it, because the
    # least strong pseudoprime to the first 13 prime bases is MR_LIMIT
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441 and not lz.is_prime(psi_12)
    assert lz.MR_BASES[-1] == 41 and len(lz.MR_BASES) == 13


def test_primality_above_the_limit_is_decided_only_for_composites():
    assert not lz.is_prime(2 ** 89 + 1) and not lz.is_prime(10 ** 30 + 1)
    # the limit itself is the least composite that passes all thirteen bases
    for n in (lz.MR_LIMIT, 2 ** 89 - 1):
        with pytest.raises(ValueError,
                           match="exact only below 3317044064679887385961981$"):
            lz.is_prime(n)


# -- adapted bases over the base basis ---------------------------------------


def test_an_adapted_basis_builds_only_its_killed_degrees(fresh_bases):
    # every other generator is the base basis's object
    rank3 = adapted_family(2, 3, 14)
    for w in range(15):
        for beta in partitions_of(w):
            rank3.image_of_monomial(beta)
    assert sorted(rank3.quotient._built) == [1, 3] and not rank3.quotient._residues
    assert lz.adapted_basis.cache_info().currsize == 1  # no other rank is built


def test_a_rank_past_the_truncation_answers_like_the_largest_that_fits(fresh_bases):
    high, low = adapted_family(3, 5), adapted_family(3, 3)
    assert high.killed == low.killed == {2, 8}
    z = geo.evaluate(geo.Product((geo.Hyp(3, 2), geo.Proj(8))), TRUNC)
    assert z.gen_coords(high).terms == z.gen_coords(low).terms
    assert (lz.reduce_mod_landweber(z, 3, 5).terms
            == lz.reduce_mod_landweber(z, 3, 3).terms)
    for beta in ((8,), (8, 2), (2, 2, 1)):
        assert high.image_of_monomial(beta) == low.image_of_monomial(beta)
    assert high.gen(8) == low.gen(8) and high.gen(2) == low.gen(2)
    assert high.quotient.residue(8).terms == low.quotient.residue(8).terms != {}


def test_rank_2000_answers_like_rank_4(fresh_bases):
    # ranks 4 and 2000 both kill {1, 3, 7} at truncation 12
    group, rank4 = ac.GroupDescriptor(2, (1,) * 2000), ac.GroupDescriptor(2, (1,) * 4)
    for expr, beta in ((geo.Proj(12), (12,)),
                       (geo.Product((geo.Proj(2), geo.Hyp(3, 4))), (4, 2))):
        report = bd.fixed_dim_lower_bound(geo.evaluate(expr, TRUNC), group)
        assert (report.in_ideal, report.lower_bound, report.certificate) == (
            False, 0, (beta, 1))
        assert report.reduced.terms == {beta: 1}
        assert report.reduced.basis.describe() == {"flavor": "adapted", "p": 2,
                                                   "r": 2000}
        low = bd.fixed_dim_lower_bound(geo.evaluate(expr, TRUNC), rank4)
        assert (low.in_ideal, low.lower_bound, low.certificate) == (
            report.in_ideal, report.lower_bound, report.certificate)
        assert low.reduced.terms == report.reduced.terms


@pytest.mark.parametrize("p", [2, 3])
def test_every_monomial_image_is_the_product_of_its_generators(p):
    for r in (1, 2, 3, 4):
        basis = adapted_family(p, r)
        for w in range(9):
            for beta in partitions_of(w):
                # multiplied smallest part first, the reverse of the cache's order
                expect = BPoly.one(TRUNC)
                for i in reversed(beta):
                    expect = expect * basis.gen(i).image
                assert basis.image_of_monomial(beta) == expect, (p, r, beta)


def test_adapted_basis_out_of_range():
    # I_2(6) and I_2(4) agree in degrees <= 12: v_4, v_5 sit in 15 and 31
    high, low = lz.adapted_basis(2, 6, TRUNC), lz.adapted_basis(2, 4, TRUNC)
    for i in range(1, TRUNC + 1):
        assert high.gen(i) == low.gen(i), i
    assert high.killed == low.killed == {1, 3, 7}
    with pytest.raises(ValueError):
        lz.adapted_basis(4, 2, TRUNC)  # 4 is not prime


def test_ideal_membership_examples(ctx):
    two = lz.CobordismClass(BPoly.const(2, trunc=TRUNC), dim=0)
    for n in (1, 2, 3):
        assert lz.in_landweber_ideal(two, 2, n)
    assert not lz.in_landweber_ideal(two, 2, 0)
    assert two.image.divisible_by(2)

    # zero is in every level
    zero = lz.CobordismClass(BPoly.zero(trunc=TRUNC))
    assert lz.in_landweber_ideal(zero, 2, 0)


def test_ideal_chain_strict(ctx):
    # v_n witnesses that level n is strictly inside level n + 1
    for (p, nmax) in [(2, 3), (3, 2)]:
        for n in range(0, nmax + 1):
            vn = lz.CobordismClass(ctx.v(p, n))
            assert not lz.in_landweber_ideal(vn, p, n), (p, n)
            assert lz.in_landweber_ideal(vn, p, n + 1), (p, n)


def test_finite_membership_implies_mod_p(ctx):
    samples = [
        cls(geo.Hyp(2, 1)),
        cls(geo.Hyp(2, 3)),
        cls(geo.Proj(1)),
        lz.CobordismClass(ctx.v(2, 2)),
        cls(geo.Scaled(2, geo.Proj(2))),
    ]
    for z in samples:
        for n in (1, 2, 3):
            if lz.in_landweber_ideal(z, 2, n):
                assert z.image.divisible_by(2)


def test_reduce_examples():
    p1 = cls(geo.Proj(1))
    assert lz.reduce_mod_landweber(p1, 2, 2).is_zero()

    p2 = cls(geo.Proj(2))
    red = lz.reduce_mod_landweber(p2, 2, 2)
    assert set(red.terms) == {(2,)}
    assert red.terms[(2,)] % 2 == 1

    # members of the ideal reduce to zero
    y1 = cls(geo.Hyp(2, 1))
    assert lz.reduce_mod_landweber(y1, 2, 2).is_zero()


def test_reduce_r0_is_integer_identity(basis):
    p3 = cls(geo.Proj(3))
    red = lz.reduce_mod_landweber(p3, 2, 0)
    assert red.modulus is None
    assert to_image(red) == p3.image


def test_reduce_is_ring_homomorphism():
    pairs = [
        (cls(geo.Proj(2)), cls(geo.Proj(3))),
        (cls(geo.Hyp(2, 2)), cls(geo.Proj(1))),
        (cls(geo.Milnor(2, 2)), cls(geo.Hyp(3, 2))),
        (cls(geo.Proj(4)), cls(geo.Hyp(2, 3))),
    ]
    for (p, r) in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        for z, w in pairs:
            # a class built from the image product has no parts to combine
            left = lz.reduce_mod_landweber(geo.CobordismClass(z.image * w.image), p, r)
            right = lz.reduce_mod_landweber(z, p, r) * lz.reduce_mod_landweber(
                w, p, r
            )
            assert left == right, (p, r, z, w)


def _constructors(n):
    """Constructors of dimension n."""
    if n == 0:
        return [geo.Point()]
    return [geo.Proj(n), geo.Hyp(2, n), geo.Hyp(3, n), geo.CompInt((2, 3), n)] + [
        geo.Milnor(m, k) for m, k in lz.milnor_candidates(n)]


@st.composite
def expr_trees(draw, budget, depth=3):
    """A variety expression of weight at most ``budget``: products, unions
    (empty ones and mixed dimensions included) and scalings of constructors."""
    kind = draw(st.sampled_from(("leaf", "prod", "sum", "scale") if depth else ("leaf",)))
    if kind == "leaf":
        return draw(st.sampled_from(_constructors(draw(st.integers(0, budget)))))
    if kind == "scale":
        return geo.Scaled(draw(st.sampled_from((-3, 0, 2, 5))),
                          draw(expr_trees(budget, depth - 1)))
    if kind == "sum":
        return geo.DisjointUnion(draw(st.lists(expr_trees(budget, depth - 1), max_size=3)))
    factors = []
    for _ in range(draw(st.integers(0, 3))):
        left = budget - sum(f.weight() for f in factors)
        factors.append(draw(expr_trees(left, depth - 1)))
    return geo.Product(factors)


@settings(max_examples=120, deadline=None)
@given(expr_trees(TRUNC), st.sampled_from((2, 3)), st.integers(1, 4))
def test_a_composite_reduces_as_the_ring_map_of_its_parts(expr, p, r):
    # the same image without parts takes the solve at the composite's weight
    cl = cls(expr)
    solved = lz.reduce_mod_landweber(geo.CobordismClass(cl.image, cl.dim), p, r)
    reduced = lz.reduce_mod_landweber(cl, p, r)
    assert reduced == solved
    assert reduced.to_obj() == solved.to_obj()
    # and the integer solve in the adapted family, reduced here
    basis = adapted_family(p, r)
    coords = basis.solve(cl.image).terms
    assert reduced.modulus == p and reduced.basis is basis.quotient
    assert reduced.terms == {beta: c % p for beta, c in coords.items()
                              if basis.killed.isdisjoint(beta) and c % p}


@settings(max_examples=40, deadline=None)
@given(expr_trees(TRUNC), st.sampled_from((2, 3)), st.integers(1, 4))
def test_a_second_bound_on_a_class_reads_its_cached_reduction(expr, p, r):
    group = ac.GroupDescriptor(p, (1,) * r)
    cl = cls(expr)
    first = bd.fixed_dim_lower_bound(cl, group)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for owner, name in ((lz.GeneratorBasis, "solve"), (lz.GenPoly, "__mul__"),
                            (lz.GenPoly, "__add__"), (lz.GenPoly, "scaled")):
            def counted(*args, _name=name, _original=getattr(owner, name)):
                calls.append(_name)
                return _original(*args)

            mp.setattr(owner, name, counted)
        assert bd.fixed_dim_lower_bound(cl, group) == first
    assert calls == []


# -- lazy composite images ----------------------------------------------

NESTED = geo.Scaled(-3, geo.DisjointUnion((
    geo.Product((geo.Proj(2), geo.Hyp(3, 4))),
    geo.Product((geo.Milnor(2, 3), geo.Proj(2))),
)))


@pytest.fixture
def fresh_classes():
    """Empty the ``evaluate`` cache before and after the test."""
    geo.evaluate.cache_clear()
    yield
    geo.evaluate.cache_clear()


def test_bounding_a_composite_over_warm_leaves_multiplies_no_images(
        fresh_classes, monkeypatch):
    group = ac.GroupDescriptor(2, (1, 1))
    for leaf in (geo.Proj(2), geo.Hyp(3, 4), geo.Milnor(2, 3)):
        bd.fixed_dim_lower_bound(cls(leaf), group)
    calls = []
    mul = BPoly._mul  # every image product; GenPoly products also reach the kernel

    def counted(*args):
        calls.append(args)
        return mul(*args)

    monkeypatch.setattr(BPoly, "_mul", counted)
    composite = cls(NESTED)
    report = bd.fixed_dim_lower_bound(composite, group)
    assert calls == [] and composite._image is None
    assert report.class_dim == 6 and report.lower_bound >= 0


def test_bounding_a_composite_over_warm_leaves_builds_no_partition_tuple(
        fresh_classes, monkeypatch):
    # GenPoly products add packed keys in the kernel: no multiset union
    group = ac.GroupDescriptor(2, (1, 1))
    for leaf in (geo.Proj(2), geo.Hyp(3, 4), geo.Milnor(2, 3)):
        bd.fixed_dim_lower_bound(cls(leaf), group)
    calls, real = [], partitions.union
    for name, module in list(sys.modules.items()):  # wherever it was imported to
        if name.split(".")[0] == "cobord" and getattr(module, "union", None) is real:
            monkeypatch.setattr(module, "union", lambda a, b: calls.append((a, b)) or real(a, b))
    report = bd.fixed_dim_lower_bound(cls(NESTED), group)
    assert calls == []
    assert report.lower_bound >= 0 and not report.reduced.is_zero()


def test_reading_trunc_and_dim_builds_no_image(fresh_classes):
    cl = cls(NESTED)
    assert (cl.trunc, cl.dim) == (TRUNC, 6)
    assert cl._image is None
    image = cl.image
    assert cl._image is image and cl.image is image


def _eager_image(expr):
    """The image of ``expr`` built at once from its constructors' images."""
    if isinstance(expr, geo.Product):
        img = BPoly.one(trunc=TRUNC)
        for f in expr.factors:
            img = img * _eager_image(f)
        return img
    if isinstance(expr, geo.DisjointUnion):
        return sum((_eager_image(part) for part in expr.parts), BPoly.zero(trunc=TRUNC))
    if isinstance(expr, geo.Scaled):
        return _eager_image(expr.expr).scaled(expr.k)
    return cls(expr).image


@settings(max_examples=80, deadline=None)
@given(expr_trees(TRUNC))
def test_the_first_image_read_of_a_composite_is_its_eager_image(expr):
    geo.evaluate.cache_clear()  # every composite below is new, its image unread
    cl = cls(expr)
    assert (cl.trunc, cl.dim) == (TRUNC, expr.dimension())
    # a mixed-dimension product reads its factors' images, never its own
    composite = isinstance(expr, (geo.Product, geo.DisjointUnion, geo.Scaled))
    assert (cl._image is None) == composite
    expect = _eager_image(expr)
    assert cl.image == expect
    assert cl.image.sorted_terms() == expect.sorted_terms()
    assert cl.image.trunc == TRUNC


def test_a_heavy_mixed_dimension_product_fails_in_evaluate(fresh_classes):
    light = geo.DisjointUnion((geo.Point(), geo.Proj(6)))
    heavy = geo.Product((geo.DisjointUnion((geo.Proj(2), geo.Proj(7))), light))
    with pytest.raises(geo.TruncationError, match="exceeds truncation 12"):
        cls(heavy)
    fits = cls(geo.Product((geo.DisjointUnion((geo.Proj(2), geo.Proj(6))), light)))
    assert fits.dim is None and max(fits.image.weights()) == 12


# one of each composite kind: a mixed-dimension factor, a repeated part, a
# scaling by -3 and by 0, a nesting, and the empty product and union
FOLD_CASES = [
    geo.Product((geo.Proj(2), geo.Hyp(3, 4))),
    geo.Product((geo.DisjointUnion((geo.Point(), geo.Proj(3))), geo.Milnor(2, 3))),
    geo.DisjointUnion((geo.Proj(3), geo.Hyp(2, 3), geo.Proj(3), geo.Proj(3))),
    geo.Scaled(-3, geo.Milnor(2, 5)),
    geo.Scaled(0, geo.Proj(4)),
    NESTED,
    geo.Product(()),
    geo.DisjointUnion(()),
]


@pytest.mark.parametrize("expr", FOLD_CASES, ids=lambda e: str(e.to_obj()))
def test_integer_coordinates_fold_the_parts_to_the_solve_of_the_image(
        fresh_classes, expr):
    cl, base = cls(expr), lz.base_basis(TRUNC)
    coords = cl.gen_coords(base)
    assert cl._image is None  # the fold reads its parts' coordinates only
    image = _eager_image(expr)
    expect = base.solve(image)  # the image solved as one class without parts
    assert coords == expect and coords.to_obj() == expect.to_obj()
    assert coords.modulus is None and coords.basis is base
    for p in (2, 3):
        assert lz.reduce_mod_landweber(cl, p, 0) is coords
        assert lz.in_landweber_ideal(cl, p, 0) == image.is_zero()
        reduced = lz.reduce_mod_landweber(geo.CobordismClass(image), p, 2)
        assert lz.reduce_mod_landweber(cl, p, 2).to_obj() == reduced.to_obj()


def test_a_product_s_coordinates_solve_nothing_at_its_own_weight(
        fresh_bases, fresh_classes):
    product = geo.evaluate(geo.Product((geo.Hyp(3, 9), geo.Proj(9))), 18)
    basis = lz.base_basis(18)
    coords = product.gen_coords(basis)
    assert 18 not in basis._columns and product._image is None
    assert coords == basis.solve(product.image)


def test_reducing_a_product_mod_the_zero_ideal_builds_no_image(fresh_classes):
    product = cls(geo.Product((geo.Proj(2), geo.Hyp(3, 4))))
    reduced = lz.reduce_mod_landweber(product, 2, 0)
    assert product._image is None
    assert reduced == lz.base_basis(TRUNC).solve(product.image)


def test_every_spelling_of_the_default_truncation_is_one_class(
        fresh_bases, fresh_classes, monkeypatch):
    solved = _count_solves(monkeypatch)
    e, default = geo.Hyp(3, 6), geo.DEFAULT_TRUNCATION
    classes = [geo.evaluate(e), geo.evaluate(e, default), geo.evaluate(e, trunc=default)]
    assert classes[0] is classes[1] is classes[2]
    group = ac.GroupDescriptor(2, (1,))
    reports = [bd.fixed_dim_lower_bound(cl, group) for cl in classes]
    assert reports[0] == reports[1] == reports[2]
    assert solved == [lz.base_basis(default)]


ORACLE_TRUNC = 14
ORACLE_CONSTRUCTORS = (
    [geo.Proj(n) for n in range(ORACLE_TRUNC + 1)]
    + [geo.Hyp(d, n) for d in (2, 3, 4, 5) for n in range(ORACLE_TRUNC + 1)]
    + [geo.CompInt(ds, n) for ds in ((2, 2), (2, 3), (3, 3))
       for n in range(ORACLE_TRUNC + 1)]
    + [geo.Milnor(m, n) for n in range(1, ORACLE_TRUNC + 2) for m in range(n + 1)
       if m != 1 and m + n - 1 <= ORACLE_TRUNC]
)


def _reductions_against_the_adapted_solve(p, r, fresh=False):
    """(constructor, reduction, the adapted solve filtered and reduced mod p)
    for every constructor of weight <= 14; ``fresh`` reduces a copy of each
    class, past any cached coordinates and reductions."""
    basis = adapted_family(p, r, ORACLE_TRUNC)
    for e in ORACLE_CONSTRUCTORS:
        z = geo.evaluate(e, ORACLE_TRUNC)
        coords = basis.solve(z.image).terms
        expect = {beta: c % p for beta, c in coords.items()
                  if basis.killed.isdisjoint(beta) and c % p}
        if fresh:
            z = geo.CobordismClass(z.image, z.dim)
        yield e, lz.reduce_mod_landweber(z, p, r), lz.GenPoly(expect, p, basis.quotient)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_reduction_is_the_adapted_solve_on_every_constructor_to_weight_14(p):
    assert len(ORACLE_CONSTRUCTORS) == 177
    for r in range(1, 6):
        for e, red, expect in _reductions_against_the_adapted_solve(p, r):
            assert red.modulus == p and red.basis is expect.basis, (e, r)
            assert red.terms == expect.terms, (e, r)


def test_only_degree_8_at_p_3_has_a_nonzero_residue_to_truncation_14():
    residues = {(p, n): lz.adapted_basis(p, 5, ORACLE_TRUNC).residue(n).terms
                for p in (2, 3, 5) for n in lz.adapted_basis(p, 5, ORACLE_TRUNC).killed}
    assert sorted(residues) == [(2, 1), (2, 3), (2, 7), (3, 2), (3, 8), (5, 4)]
    assert residues.pop((3, 8)) == {(4, 4): 2, (4, 3, 1): 1, (5, 1, 1, 1): 2,
                                    (3, 3, 1, 1): 2, (3, 1, 1, 1, 1, 1): 1}
    assert all(residue == {} for residue in residues.values())


def test_a_zero_residue_in_degree_8_fails_the_oracle(monkeypatch):
    # the negative control of the oracle above: g_8 = 0 mod I_3(3) is wrong
    residue = lz.LandweberQuotient.residue

    def zero_at_8(basis, i):
        return lz.GenPoly({}, 3, basis) if (basis.p, i) == (3, 8) else residue(basis, i)

    monkeypatch.setattr(lz.LandweberQuotient, "residue", zero_at_8)
    wrong = [e for e, red, expect in _reductions_against_the_adapted_solve(3, 3, fresh=True)
             if red != expect]
    assert geo.Hyp(3, 8) in wrong and len(wrong) > 10


def q_degree(g, q):
    """Max of pi_q over the partitions of ``g``'s support, -inf for zero:
    the tuple-keyed reference of the scan in ``bounds.fixed_dim_lower_bound``."""
    return max((pi_q(beta, q) for beta in g.terms), default=lz.NEG_INF)


def test_q_degree_examples(basis):
    zero = lz.GenPoly({}, 2, basis)
    assert q_degree(zero, 2) == lz.NEG_INF

    g = lz.GenPoly({(3, 1): 1}, 2, basis)
    assert q_degree(g, 2) == 1

    h = lz.GenPoly({(4,): 1, (2, 2): 1}, 2, basis)
    assert q_degree(h, 2) == 2


def test_q_degree_submultiplicative(basis):
    import random

    rng = random.Random(3)
    pool = [alpha for w in range(0, 7) for alpha in partitions_of(w)]
    for _ in range(40):
        g = lz.GenPoly(
            {rng.choice(pool): rng.randint(1, 2) for _ in range(3)}, None, basis
        )
        h = lz.GenPoly(
            {rng.choice(pool): rng.randint(1, 2) for _ in range(3)}, None, basis
        )
        prod = g * h
        for q in (1, 2, 3, 4):
            if not prod.is_zero():
                assert q_degree(prod, q) <= q_degree(g, q) + q_degree(h, q)


# -- packed GenPoly arithmetic against the partition-tuple oracle -----------


def _tuple_clean(terms, modulus):
    """Nonzero coefficients, reduced mod ``modulus`` unless it is None."""
    if modulus is not None:
        terms = {beta: c % modulus for beta, c in terms.items()}
    return {beta: c for beta, c in terms.items() if c}


def _tuple_product(x, y, trunc, modulus):
    """The partition-union product of two partition-keyed dicts, weight <= trunc."""
    out = {}
    for a, u in x.items():
        for b, v in y.items():
            if sum(a) + sum(b) <= trunc:
                gamma = union(a, b)
                out[gamma] = out.get(gamma, 0) + u * v
    return _tuple_clean(out, modulus)


def _tuple_sum(x, y, modulus):
    out = dict(x)
    for beta, c in y.items():
        out[beta] = out.get(beta, 0) + c
    return _tuple_clean(out, modulus)


@st.composite
def _gen_poly_pairs(draw):
    trunc = draw(st.integers(8, 14))
    modulus = draw(st.sampled_from((None, 2, 3)))
    pool = [alpha for w in range(trunc + 1) for alpha in partitions_of(w)]
    terms = st.dictionaries(st.sampled_from(pool), st.integers(-20, 20), max_size=8)
    return trunc, modulus, draw(terms), draw(terms), draw(st.integers(-4, 4))


@settings(max_examples=150, deadline=None)
@given(_gen_poly_pairs())
def test_packed_gen_poly_arithmetic_is_the_partition_tuple_arithmetic(case):
    trunc, modulus, x, y, k = case
    basis = lz.base_basis(trunc)
    g, h = lz.GenPoly(x, modulus, basis), lz.GenPoly(y, modulus, basis)
    x, y = _tuple_clean(x, modulus), _tuple_clean(y, modulus)
    assert g.terms == x and h.terms == y
    assert (g * h).terms == _tuple_product(x, y, trunc, modulus)
    assert (g + h).terms == _tuple_sum(x, y, modulus)
    assert (g - h).terms == _tuple_sum(x, {b: -c for b, c in y.items()}, modulus)
    assert g.scaled(k).terms == _tuple_clean({b: c * k for b, c in x.items()}, modulus)
    assert (-g).terms == _tuple_clean({b: -c for b, c in x.items()}, modulus)
    # every stored key is the kernel's canonical int of its value
    canonical = codec(trunc).canonical
    for poly in (g, h, g * h, g + h, g.scaled(k)):
        assert all(canonical.get(key) is key for key in poly._terms)


def test_integer_gen_poly_product_is_the_image_product(basis):
    # the partition-union product against the kernel product of the images
    import random

    rng = random.Random(11)
    pool = [alpha for w in range(0, 7) for alpha in partitions_of(w)]

    def random_coords():
        return lz.GenPoly(
            {rng.choice(pool): rng.randint(-9, 9) for _ in range(4)}, None, basis
        )

    for _ in range(30):
        g, h = random_coords(), random_coords()
        assert to_image(g * h) == to_image(g) * to_image(h)
    # past the truncation both products vanish
    heavy = lz.GenPoly({(7,): 1}, None, basis)
    light = lz.GenPoly({(3, 3): 2}, None, basis)
    assert (heavy * light).is_zero()
    assert (to_image(heavy) * to_image(light)).is_zero()


def test_c_alpha_image_gcd(basis):
    assert lz.c_alpha_image_gcd((1,), basis) == 2
    for n in (5, 9):
        assert lz.c_alpha_image_gcd((n,), basis) == 1
    assert lz.c_alpha_image_gcd((1, 1), basis) % 2 == 0
    # brute force against all weight-2 monomials
    expected = math.gcd(
        basis.c_entry((1, 1), (2,)), basis.c_entry((1, 1), (1, 1))
    )
    assert lz.c_alpha_image_gcd((1, 1), basis) == expected


def test_random_lazard_elements_round_trip(basis):
    # coordinates -> image -> coordinates is the identity, exactly
    import random

    from cobord.series import BPoly

    rng = random.Random(17)
    pool = [alpha for w in range(0, 7) for alpha in partitions_of(w)]
    for _ in range(25):
        coords = {
            rng.choice(pool): rng.randint(-10 ** 6, 10 ** 6) for _ in range(5)
        }
        coords = {k: v for k, v in coords.items() if v}
        image = BPoly.zero(trunc=TRUNC)
        for beta, c in coords.items():
            image = image + basis.image_of_monomial(beta).scaled(c)
        solved = lz.CobordismClass(image).gen_coords(basis)
        assert solved.terms == coords


def test_basis_describe_and_genpoly_json(basis):
    desc = basis.describe()
    assert desc == {"flavor": "base", "p": None, "r": None}
    g = lz.GenPoly({(2, 1): 5, (3,): -1}, None, basis)
    obj = g.to_obj()
    assert obj["basis"] == desc
    assert obj["terms"][0]["partition"] == [3]


# -- solve against a row-oriented Fraction reference ----------------------


SOLVE_BASES = [(None, None)] + [(p, r) for p in (2, 3) for r in (1, 2, 3)]


def _solve_basis(p, r):
    return lz.base_basis(TRUNC) if p is None else adapted_family(p, r)


@pytest.mark.parametrize("p, r", SOLVE_BASES)
def test_an_adapted_basis_shares_every_killed_free_monomial_image(p, r):
    # g'_1 = -g_1 (weight 1 holds no decomposable), so its even powers agree too
    adapted, base, shared, differ = _solve_basis(p, r), lz.base_basis(TRUNC), 0, 0
    killed = frozenset() if p is None else adapted.killed
    for beta in (beta for w in range(TRUNC + 1) for beta in partitions_of(w)):
        same = adapted.image_of_monomial(beta) == base.image_of_monomial(beta)
        if killed.isdisjoint(beta):
            assert same, beta
            shared += 1
        else:
            differ += not same
    assert shared > 0 and (differ > 0) == bool(killed)


def reference_solve(basis, image):
    """Row by row in Fractions: lam_alpha is c_alpha minus the earlier
    coordinates' contributions, over the diagonal entry; integrality is
    checked once the whole weight is solved."""
    coords = {}
    for n in sorted(image.weights()):
        parts = partitions_of(n)
        lam = {}
        for idx, alpha in enumerate(parts):
            acc = Fraction(image.coeff(alpha))
            for beta in parts[:idx]:
                if lam[beta]:
                    acc -= lam[beta] * basis.c_entry(alpha, beta)
            lam[alpha] = acc / basis.c_entry(alpha, alpha)
        for beta, v in lam.items():
            if v.denominator != 1:
                raise lz.NotInLazardImage(
                    f"weight {n}: coordinate at {beta} is {v}, not an integer"
                )
            if v:
                coords[beta] = int(v)
    return lz.GenPoly(coords, None, basis)


def _outcome(solve, basis, image):
    try:
        return solve(basis, image).terms
    except lz.NotInLazardImage as e:
        return str(e)


def _both(basis, image):
    return (_outcome(reference_solve, basis, image),
            _outcome(lz.GeneratorBasis.solve, basis, image))


SOLVE_CONSTRUCTORS = (
    [geo.Point()]
    + [geo.Proj(n) for n in range(TRUNC + 1)]
    + [geo.Hyp(d, n) for d in (1, 2, 3, 5) for n in range(TRUNC + 1)]
    + [geo.CompInt(ds, n) for ds in ((2, 2), (2, 3), (1, 4, 2)) for n in range(TRUNC + 1)]
    + [geo.Milnor(m, n) for n in range(1, TRUNC + 2) for m in range(n + 1)
       if m != 1 and m + n - 1 <= TRUNC]
)


@pytest.mark.parametrize("p, r", SOLVE_BASES)
def test_solve_matches_reference_on_every_constructor(p, r):
    basis = _solve_basis(p, r)
    for e in SOLVE_CONSTRUCTORS:
        ref, got = _both(basis, cls(e).image)
        assert isinstance(ref, dict) and got == ref, e


@st.composite
def _composites(draw):
    small = [e for e in SOLVE_CONSTRUCTORS if 1 <= e.dimension() <= 6]
    factors = draw(st.lists(st.sampled_from(small), min_size=2, max_size=3).filter(
        lambda fs: sum(f.dimension() for f in fs) <= TRUNC))
    prod = geo.Product(tuple(factors))
    same = [e for e in SOLVE_CONSTRUCTORS if e.dimension() == prod.dimension()]
    k = draw(st.integers(-3, 3))
    return geo.DisjointUnion((prod, geo.Scaled(k, draw(st.sampled_from(same)))))


@settings(max_examples=25, deadline=None)
@given(_composites(), st.sampled_from(SOLVE_BASES))
def test_solve_matches_reference_on_composites(expr, pr):
    basis = _solve_basis(*pr)
    ref, got = _both(basis, cls(expr).image)
    assert isinstance(ref, dict) and got == ref


@pytest.mark.parametrize("p, r", SOLVE_BASES)
def test_solve_rejects_perturbed_images_like_the_reference(p, r):
    # one extra monomial b_alpha: both solves accept with equal coordinates
    # or reject with the same text, naming the same first coordinate
    basis = _solve_basis(p, r)
    rejected = 0
    for e in (geo.Proj(6), geo.Hyp(3, 4), geo.Milnor(3, 5), geo.CompInt((2, 3), 5),
              geo.Product((geo.Proj(2), geo.Hyp(3, 3)))):
        image = cls(e).image
        for alpha in partitions_of(e.dimension()):
            for c in (1, -2):
                ref, got = _both(basis, image + BPoly({alpha: c}, trunc=TRUNC))
                assert got == ref, (e, alpha, c)
                rejected += isinstance(ref, str)
    assert rejected > 0


# -- the positional solve at the truncation of lib-sweep -------------------


# every constructor to dimension 12 and every other one of dimensions 13 and
# 14, where the Fraction reference takes most of its time
POSITIONAL_CONSTRUCTORS = [e for i, e in enumerate(ORACLE_CONSTRUCTORS)
                           if e.dimension() <= 12 or i % 2 == 0]


def test_the_positional_solve_matches_the_reference_at_truncation_14():
    basis = lz.base_basis(ORACLE_TRUNC)
    families = {type(e) for e in POSITIONAL_CONSTRUCTORS}
    weights = {e.dimension() for e in POSITIONAL_CONSTRUCTORS}
    assert families == {geo.Proj, geo.Hyp, geo.CompInt, geo.Milnor}
    assert weights == set(range(ORACLE_TRUNC + 1))
    for e in POSITIONAL_CONSTRUCTORS:
        image = geo.evaluate(e, ORACLE_TRUNC).image
        ref, got = _both(basis, image)
        assert isinstance(ref, dict) and got == ref, e


def test_the_positional_solve_takes_a_mixed_weight_image_in_one_call():
    # a disjoint union of dimensions 5 and 9 keeps one residual per weight
    basis = lz.base_basis(ORACLE_TRUNC)
    image = (geo.evaluate(geo.Hyp(3, 5), ORACLE_TRUNC).image
             + geo.evaluate(geo.Milnor(4, 6), ORACLE_TRUNC).image.scaled(-2))
    assert image.weights() == {5, 9}
    ref, got = _both(basis, image)
    assert isinstance(ref, dict) and got == ref
    assert {sum(beta) for beta in got} == {5, 9}
    parts = [lz.base_basis(ORACLE_TRUNC).solve(geo.evaluate(e, ORACLE_TRUNC).image)
             for e in (geo.Hyp(3, 5), geo.Milnor(4, 6))]
    assert lz.GenPoly(got, None, basis) == parts[0] + parts[1].scaled(-2)


def test_a_column_keeps_one_byte_per_entry_in_the_order_of_its_image():
    basis = lz.base_basis(ORACLE_TRUNC)
    basis.solve(geo.evaluate(geo.Hyp(3, ORACLE_TRUNC), ORACLE_TRUNC).image)
    unsorted = built = 0
    for n, columns in basis._columns.items():
        assert len(columns) == len(partitions_of(n))
        for j, column in enumerate(columns):
            if column is None:
                continue
            built += 1
            key, diagonal, at, image = column
            alpha, keys = partitions_of(n)[j], lz._place_table(n, ORACLE_TRUNC)[0]
            assert key is keys[j] and key == codec(ORACLE_TRUNC).pack(alpha)
            assert image is basis.image_of_monomial(alpha)._terms
            assert diagonal == basis.c_entry(alpha, alpha) != 0
            assert type(at) is bytes and len(at) == len(image)  # p(n) < 256 to weight 16
            placed = [keys[i] for i in at]
            assert placed == list(image)
            unsorted += placed != sorted(placed) and placed != sorted(placed, reverse=True)
    assert built > 0
    assert unsorted > 0  # dict order is not a sorted order, so alignment matters


def test_a_solve_at_weight_17_reads_two_byte_places(fresh_bases):
    # p(16) = 231 and p(17) = 297
    trunc = 17
    assert [lz._place_table(n, trunc)[2] for n in (0, 16, 17)] == [None, None, "H"]
    keys, index, fmt, encoded = lz._place_table(trunc, trunc)
    assert all(memoryview(encoded[k]).cast(fmt).tolist() == [j] for k, j in index.items())
    basis = lz.base_basis(trunc)
    image = geo.evaluate(geo.Hyp(2, trunc), trunc).image
    assert to_image(basis.solve(image)) == image
    wide = [column for column in basis._columns[trunc] if column is not None]
    assert wide
    for key, _, at, column in wide:
        assert at.format == "H" and at.nbytes == 2 * len(column)
        assert [keys[i] for i in at] == list(column), key


def test_a_second_solve_at_a_weight_builds_no_column(fresh_bases, monkeypatch):
    basis = lz.base_basis(ORACLE_TRUNC)
    image = geo.evaluate(geo.Hyp(3, 10), ORACLE_TRUNC).image
    first = basis.solve(image)
    columns = [list(cols) for cols in basis._columns.values()]
    calls = []
    real = lz.GeneratorBasis.image_of_monomial
    monkeypatch.setattr(lz.GeneratorBasis, "image_of_monomial",
                        lambda self, beta: calls.append(beta) or real(self, beta))
    assert basis.solve(image.scaled(-3)) == first.scaled(-3)
    assert basis.solve(image) == first
    assert calls == []
    assert [list(cols) for cols in basis._columns.values()] == columns
    # a weight not met before builds its columns on the first solve only
    other = geo.evaluate(geo.Milnor(4, 8), ORACLE_TRUNC).image
    basis.solve(other)
    met = len(calls)
    assert met > 0
    basis.solve(other)
    assert len(calls) == met
