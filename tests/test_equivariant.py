from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from cobord import equivariant as eq
from cobord import geometry as geo
from cobord.series import BPoly

TRUNC = 12

G = (1, 0)
H = (0, 1)


def proj_class(n):
    return geo.evaluate(geo.Proj(n), TRUNC).image


def test_character_labels():
    assert eq.char_label((1, 0)) == "1,0"
    assert eq.is_trivial((0, 0))
    assert not eq.is_trivial(G)


def test_q_class_over_point():
    E = eq.SplitBundleDescriptor((0,), (((0,), G),))
    q = eq.q_class(E, TRUNC)
    assert set(q.terms) == {((0, G),)}
    # and pushing forward gives the plain variable a[0, g]
    assert eq.push_class(E, TRUNC) == eq.MPoly.variable(0, G, trunc=TRUNC)


def test_q_class_multiplicative():
    single1 = eq.SplitBundleDescriptor((1,), (((1,), G),))
    single2 = eq.SplitBundleDescriptor((1,), (((0,), H),))
    both = eq.SplitBundleDescriptor((1,), (((1,), G), ((0,), H)))
    assert eq.q_class(both, TRUNC) == eq.q_class(single1, TRUNC) * eq.q_class(
        single2, TRUNC
    )


def test_q_class_over_p1_has_nilpotent_tail():
    E = eq.SplitBundleDescriptor((1,), (((1,), G),))
    q = eq.q_class(E, TRUNC)
    # Q = a[0,g] + h*a[1,g]; h^2 = 0 on P^1
    assert set(q.terms) == {((0, G),), ((1, G),)}
    assert q.terms[((0, G),)].coeff((0,)) == BPoly.one(trunc=TRUNC)
    assert q.terms[((1, G),)].coeff((1,)) == BPoly.one(trunc=TRUNC)


def _chow_mul(x, y, dims):
    """Product of integer dicts exponent -> coefficient in Z[h]/(h_j^(dims_j + 1))."""
    out = {}
    for ea, ca in x.items():
        for eb, cb in y.items():
            e = tuple(map(add, ea, eb))
            if all(k <= n for k, n in zip(e, dims)):
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ref_q_class(E):
    """a-monomial -> Chow coefficient of prod_k sum_i c_1(L_k)^i a[i, g_k],
    each factor expanded and multiplied term by term in the Chow ring."""
    dims = E.base
    unit = {(0,) * len(dims): 1}
    result = {(): unit}
    for multidegree, g in E.summands:
        c1 = _chow_mul(unit, {tuple(int(j == k) for k in range(len(dims))): d
                              for j, d in enumerate(multidegree)}, dims)
        factor, power, i = {}, unit, 0
        while power:
            factor[((i, g),)] = power
            power, i = _chow_mul(power, c1, dims), i + 1
        new = {}
        for ka, ca in result.items():
            for kb, cb in factor.items():
                acc = new.setdefault(tuple(sorted(ka + kb)), {})
                for e, c in _chow_mul(ca, cb, dims).items():
                    acc[e] = acc.get(e, 0) + c
        result = {k: nz for k, v in new.items()
                  if (nz := {e: c for e, c in v.items() if c})}
    return result


@st.composite
def split_bundles(draw):
    base = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    characters = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any)
    summands = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(-2, 3)] * len(base)), characters),
        min_size=1, max_size=3))
    return eq.SplitBundleDescriptor(base, summands)


@settings(max_examples=60, deadline=None)
@given(split_bundles())
def test_q_class_matches_a_term_by_term_chow_ring_reference(E):
    # every Chow coefficient, with h_j^(n_j + 1) = 0 applied at every step
    got = {key: chow.terms for key, chow in eq.q_class(E, TRUNC).terms.items()}
    assert got == {key: {e: BPoly.const(c, TRUNC) for e, c in chow.items()}
                   for key, chow in _ref_q_class(E).items()}


def test_trivial_character_rejected():
    with pytest.raises(ValueError):
        eq.SplitBundleDescriptor((1,), (((1,), (0, 0)),))
    with pytest.raises(ValueError):
        eq.SplitBundleDescriptor((1, 2), (((1,), G),))  # multidegree mismatch


def test_push_generator_formula():
    # p[i, g] = a[i, g] + P^1 a[i-1, g] + ... + P^i a[0, g]
    for i in range(0, 7):
        expanded = eq.push_generator(i, G, TRUNC)
        expected = eq.MPoly.zero("a", TRUNC)
        for j in range(0, i + 1):
            expected = expected + eq.MPoly.variable(j, G, trunc=TRUNC) * proj_class(
                i - j
            )
        assert expanded == expected, i


def test_push_trivial_line_bundle_over_p1():
    E = eq.SplitBundleDescriptor((1,), (((0,), G),))
    push = eq.push_class(E, TRUNC)
    assert push == eq.MPoly.variable(0, G, trunc=TRUNC) * proj_class(1)


def _homogeneous_degree(poly):
    """-(sum of a-indices + coefficient weight), one value for every term."""
    degs = {-(sum(i for i, _ in key) + w)
            for key, coeff in poly.terms.items() for w in coeff.weights()}
    assert len(degs) == 1, degs
    return degs.pop()


def test_push_grading_matches_base_dimension():
    cases = [
        eq.SplitBundleDescriptor((2,), (((1,), G),)),
        eq.SplitBundleDescriptor((3,), (((2,), G), ((1,), H))),
        eq.SplitBundleDescriptor((1, 2), (((1, 1), G),)),
    ]
    for E in cases:
        push = eq.push_class(E, TRUNC)
        assert _homogeneous_degree(push) == -sum(E.base)


def test_push_multiplicative_over_product_base():
    # a bundle split across the two factors pushes to the product of pushes
    E = eq.SplitBundleDescriptor((1, 2), (((1, 0), G), ((0, 1), H)))
    push = eq.push_class(E, TRUNC)
    E1 = eq.SplitBundleDescriptor((1,), (((1,), G),))
    E2 = eq.SplitBundleDescriptor((2,), (((1,), H),))
    assert push == eq.push_class(E1, TRUNC) * eq.push_class(E2, TRUNC)


def test_a_p_round_trip():
    for i in range(0, 11):
        in_p = eq.a_in_p(i, G, TRUNC)
        back = eq.p_to_a(in_p, TRUNC)
        assert back == eq.MPoly.variable(i, G, trunc=TRUNC), i


def test_a_in_p_computes_each_degree_once():
    eq.a_in_p.cache_clear()
    eq.a_in_p(12, (1,), 12)
    assert eq.a_in_p.cache_info().misses == 13


def test_p_to_a_rejects_wrong_kind():
    with pytest.raises(ValueError):
        eq.p_to_a(eq.MPoly.variable(1, G, "a", TRUNC), TRUNC)


def test_mpoly_json():
    m = eq.push_generator(2, G, TRUNC)
    obj = m.to_obj()
    assert obj["kind"] == "a"
    assert all(len(t["a"]) >= 1 for t in obj["terms"])
