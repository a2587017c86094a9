import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cobord import geometry as geo
from cobord import lazard as lz
from cobord.partitions import partitions_of, refines
from cobord.series import BPoly

TRUNC = 12


def cls(expr):
    return geo.evaluate(expr, TRUNC)


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
    assert lz.c_alpha(p1, (1,)) == -2
    point = cls(geo.Point())
    assert lz.c_alpha(point, ()) == 1
    assert lz.c_alpha(p1, (2,)) == 0


def test_base_generator_criterion(basis):
    for i in range(1, 11):
        c = basis.gens[i].c_alpha((i,))
        assert abs(c) == binomial_gcd(i), i
        pp = lz.prime_power(i + 1)
        assert abs(c) == (pp[0] if pp else 1), i


def test_base_generator_examples(basis):
    assert abs(basis.gens[1].c_alpha((1,))) == 2
    assert abs(basis.gens[3].c_alpha((3,))) == math.gcd(4, 6) == 2
    assert abs(basis.gens[4].c_alpha((4,))) == math.gcd(5, 10) == 5


def test_generators_are_milnor_combinations(basis):
    # the recorded split must reproduce the generator image exactly
    for i in range(1, TRUNC + 1):
        img = BPoly.zero(trunc=TRUNC)
        for (m, n, c) in basis.splits[i]:
            assert m + n - 1 == i and m != 1
            img = img + cls(geo.Milnor(m, n)).image.scaled(c)
        assert img == basis.gens[i].image


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
            c = basis.gens[beta[0]].c_alpha(chosen) if chosen else 0
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
    assert coords.to_image() == p2.image

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
        assert coords.to_image() == z.image, e


def test_solve_rejects_non_lazard_input(basis):
    # b_1 alone has c_(1) = 1, impossible for a genuine class
    with pytest.raises(lz.NotInLazardImage):
        lz.CobordismClass(BPoly.gen(1, trunc=TRUNC)).gen_coords(basis)


def test_decomposability():
    p1 = cls(geo.Proj(1))
    assert not lz.is_decomposable(p1)
    sq = p1 * p1
    assert lz.is_decomposable(sq)

    h32 = cls(geo.Hyp(3, 2))  # c_(2) = 15 = 3 * 5
    assert lz.is_indecomposable_mod_p(h32, 3)
    assert lz.is_indecomposable_mod_p(h32, 2)
    assert not lz.is_indecomposable_mod_p(sq, 2)


def test_generators_indecomposable_mod_every_prime(basis):
    # c_(i) is +-1 or a prime power p^1, so reduction mod any prime stays
    # indecomposable
    for p in (2, 3, 5):
        for i in range(1, 11):
            assert lz.is_indecomposable_mod_p(basis.gens[i], p), (p, i)


def test_v_n_indecomposable(ctx):
    for (p, nmax) in [(2, 3), (3, 2)]:
        for n in range(1, nmax + 1):
            vn = lz.CobordismClass(ctx.v(p, n))
            assert lz.is_indecomposable_mod_p(vn, p), (p, n)


def test_adapted_basis_p2_r2():
    ab = lz.adapted_basis(2, 2, TRUNC)
    g1 = ab.gens[1]
    assert g1.c_alpha((1,)) == -2
    assert g1.image.divisible_by(2)
    # untouched degrees agree with the base basis
    base = lz.base_basis(TRUNC)
    for i in range(2, TRUNC + 1):
        assert ab.gens[i] == base.gens[i]


def test_adapted_basis_r1_is_base():
    ab = lz.adapted_basis(2, 1, TRUNC)
    base = lz.base_basis(TRUNC)
    assert all(ab.gens[i] == base.gens[i] for i in range(1, TRUNC + 1))


def test_adapted_basis_p3_r2_matches_v1_mod_decomposables(ctx):
    ab = lz.adapted_basis(3, 2, TRUNC)
    diff = ab.gens[2].image - ctx.v(3, 1)
    # no linear b_n term survives mod 3: every coefficient of a term of
    # length < 2 is divisible by 3
    assert all(c % 3 == 0 for alpha, c in diff.terms.items() if len(alpha) < 2)


def test_adapted_basis_out_of_range():
    # I_2(6) and I_2(4) agree in degrees <= 12: v_4, v_5 sit in 15 and 31
    high, low = lz.adapted_basis(2, 6, TRUNC), lz.adapted_basis(2, 4, TRUNC)
    assert high.gens == low.gens
    assert high.killed_parts() == low.killed_parts() == {1, 3, 7}
    with pytest.raises(ValueError):
        lz.adapted_basis(4, 2, TRUNC)  # 4 is not prime


def test_ideal_membership_examples(ctx):
    two = lz.CobordismClass(BPoly.const(2, trunc=TRUNC), dim=0)
    for n in (1, 2, 3):
        assert lz.in_landweber_ideal(two, 2, n)
    assert not lz.in_landweber_ideal(two, 2, 0)
    assert lz.in_landweber_ideal(two, 2, math.inf)

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
                assert lz.in_landweber_ideal(z, 2, math.inf)


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
    assert red.to_image() == p3.image


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
        assert (g * h).to_image() == g.to_image() * h.to_image()
    # past the truncation both products vanish
    heavy = lz.GenPoly({(7,): 1}, None, basis)
    light = lz.GenPoly({(3, 3): 2}, None, basis)
    assert (heavy * light).is_zero()
    assert (heavy.to_image() * light.to_image()).is_zero()


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


def test_reduce_rejects_unrelated_basis(basis):
    z = cls(geo.Proj(2))
    with pytest.raises(ValueError):
        lz.reduce_mod_landweber(z, 2, 2, basis=basis)  # base, not adapted
    other = lz.adapted_basis(3, 2, TRUNC)
    with pytest.raises(ValueError):
        lz.reduce_mod_landweber(z, 2, 2, basis=other)  # wrong prime
    shallow = lz.adapted_basis(2, 1, TRUNC)
    with pytest.raises(ValueError):
        lz.reduce_mod_landweber(z, 2, 2, basis=shallow)  # r' < r


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
                ref, got = _both(basis, image + BPoly.monomial(alpha, c, trunc=TRUNC))
                assert got == ref, (e, alpha, c)
                rejected += isinstance(ref, str)
    assert rejected > 0
