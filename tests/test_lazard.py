import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cobord import cli, fgl
from cobord import geometry as geo
from cobord import lazard as lz
from cobord.partitions import partitions_of, refines
from cobord.series import BPoly
from conftest import b_gen

TRUNC = 12


def cls(expr):
    return geo.evaluate(expr, TRUNC)


def to_image(g):
    """The Z[b] image of integer generator coordinates, monomial by monomial."""
    assert g.modulus is None
    img = BPoly.zero(trunc=g.trunc)
    for beta, c in g.coeffs.items():
        img = img + g.basis.image_of_monomial(beta).scaled(c)
    return img


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
        for (m, n, c) in basis.splits[i]:
            assert m + n - 1 == i and m != 1
            img = img + cls(geo.Milnor(m, n)).image.scaled(c)
        assert img == basis.gen(i).image


# -- lazy generators and closed-form splits -------------------------------


@pytest.fixture
def fresh_bases():
    """Empty the basis and FGL caches before and after a test that inspects
    or perturbs their construction."""
    caches = (lz.base_basis, lz.adapted_basis, fgl.context)
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
    basis = lz.base_basis(30)
    assert basis.describe()["signs"] == [1] * 30
    assert not basis._built
    assert cli.main(["bound", '{"hyp":[3,4]}', "--p", "2", "--group", "1,1",
                     "--trunc", "30"]) == 0
    assert capsys.readouterr().out
    assert sorted(basis._built) == [1, 2, 3, 4]
    assert sorted(lz.adapted_basis(2, 2, 30)._built) == [1, 2, 3, 4]
    assert fgl.context.cache_info().currsize == 0  # v_1, v_2 need no FGL context


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


def test_a_killed_generator_outside_the_mod_p_kernel_fails_validation(
        fresh_bases, monkeypatch):
    # v_2 = [t^4] [2](t) shifted by b_1^3: c_(3) is unchanged, but the
    # adapted generator in degree 3 gets an odd coefficient
    exact = lz.n_series_coeff

    def shifted(n, m, trunc):
        shift = BPoly({(1, 1, 1): 1}, trunc) if (n, m) == (2, 4) else 0
        return exact(n, m, trunc) + shift

    monkeypatch.setattr(lz, "n_series_coeff", shifted)
    basis = lz.adapted_basis(2, 3, TRUNC)
    assert basis.killed == {1, 3}
    assert basis.gen(1).image.divisible_by(2)  # other degrees still build
    with pytest.raises(lz.BasisValidationError, match="degree 3 is not in the mod-2"):
        basis.gen(3)


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
    assert point.gen_coords(basis).coeffs == {(): 1}

    mono = basis.image_of_monomial((2, 1))
    z = lz.CobordismClass(mono, dim=3)
    assert z.gen_coords(basis).coeffs == {(2, 1): 1}

    p2 = cls(geo.Proj(2))
    coords = p2.gen_coords(basis)
    assert set(coords.coeffs) <= {(2,), (1, 1)}
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
    # in the I_2(2)-adapted basis the weight-1 diagonal entry is -2, so
    # (2, 1) has diagonal 3 * -2 = -6: the sign moves to the numerator
    basis = lz.adapted_basis(2, 2, TRUNC)
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
    sq = p1 * p1
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
    assert ab.killed == base.killed == frozenset()
    assert all(ab.gen(i) == base.gen(i) for i in range(1, TRUNC + 1))


def test_adapted_basis_p3_r2_matches_v1_mod_decomposables(ctx):
    ab = lz.adapted_basis(3, 2, TRUNC)
    diff = ab.gen(2).image - ctx.v(3, 1)
    # no linear b_n term survives mod 3: every coefficient of a term of
    # length < 2 is divisible by 3
    assert all(c % 3 == 0 for alpha, c in diff.terms.items() if len(alpha) < 2)


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
    assert set(red.coeffs) == {(2,)}
    assert red.coeffs[(2,)] % 2 == 1

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
            left = lz.reduce_mod_landweber(z * w, p, r)
            right = lz.reduce_mod_landweber(z, p, r) * lz.reduce_mod_landweber(
                w, p, r
            )
            assert left == right, (p, r, z, w)


def test_q_degree_examples(basis):
    zero = lz.GenPoly({}, 2, basis)
    assert zero.q_degree(2) == lz.NEG_INF

    g = lz.GenPoly({(3, 1): 1}, 2, basis)
    assert g.q_degree(2) == 1

    h = lz.GenPoly({(4,): 1, (2, 2): 1}, 2, basis)
    assert h.q_degree(2) == 2


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
                assert prod.q_degree(q) <= g.q_degree(q) + h.q_degree(q)


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
        assert solved.coeffs == coords


def test_basis_describe_and_genpoly_json(basis):
    desc = basis.describe()
    assert desc["flavor"] == "base"
    assert set(desc["signs"]) <= {1, -1}
    g = lz.GenPoly({(2, 1): 5, (3,): -1}, None, basis)
    obj = g.to_obj()
    assert obj["basis"]["flavor"] == "base"
    assert obj["terms"][0]["partition"] == [3]


# -- solve against a row-oriented Fraction reference ----------------------


SOLVE_BASES = [(None, None)] + [(p, r) for p in (2, 3) for r in (1, 2, 3)]


def _solve_basis(p, r):
    return lz.base_basis(TRUNC) if p is None else lz.adapted_basis(p, r, TRUNC)


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
        return solve(basis, image).coeffs
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
