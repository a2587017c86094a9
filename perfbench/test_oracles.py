"""Hand-value tests for the benchmark's oracles.

    python3 -m pytest perfbench/test_oracles.py -q

The Chern-number lists are the Z[b] images of the stable normal bundle,
expanded by hand: for a degree-d hypersurface of dimension n it is d times
the h^n coefficient of B(h)^-(n+2) B(d h), with B(h) = sum_i b_i h^i.
"""

from fractions import Fraction

import pytest

import oracles

P2 = {"proj": 2}
CUBIC_SURFACE = {"hyp": [3, 2]}
K3 = {"hyp": [4, 2]}
QUINTIC = {"hyp": [5, 3]}
MILNOR_23 = {"milnor": [2, 3]}

CHERN = {
    "P2": [((2,), -3), ((1, 1), 6)],
    "cubic": [((2,), 15), ((1, 1), -6)],
    "K3": [((2,), 48), ((1, 1), -24)],
    "quintic": [((3,), 600), ((2, 1), -600), ((1, 1, 1), 200)],
    "milnor23": [((4,), 10), ((3, 1), -28), ((2, 2), -3), ((2, 1, 1), 14),
                 ((1, 1, 1, 1), 16)],
}

HAND = [
    # name, expression, chi, chi(O)
    ("P2", P2, 3, 1),
    ("cubic", CUBIC_SURFACE, 9, 1),
    ("K3", K3, 24, 2),
    ("quintic", QUINTIC, -200, 0),
    ("milnor23", MILNOR_23, 9, 1),
]


@pytest.mark.parametrize("name,expr,chi,todd", HAND)
def test_closed_forms(name, expr, chi, todd):
    assert oracles.euler_characteristic(expr) == chi
    assert oracles.todd_genus(expr) == todd


@pytest.mark.parametrize("name,expr,chi,todd", HAND)
def test_genus_substitution(name, expr, chi, todd):
    assert oracles.genus_euler(CHERN[name]) == chi
    assert oracles.genus_todd(CHERN[name]) == Fraction(todd)
    assert oracles.check_class(expr, oracles.dimension(expr), CHERN[name]) == []


@pytest.mark.parametrize("name,expr,chi,todd", HAND)
def test_altered_chern_number_fails(name, expr, chi, todd):
    altered = list(CHERN[name])
    part, value = altered[0]
    altered[0] = (part, value + 1)
    assert oracles.check_class(expr, oracles.dimension(expr), altered)


def test_complete_intersections():
    for d in range(1, 6):
        for n in range(0, 6):
            hyp, ci = {"hyp": [d, n]}, {"ci": [[d], n]}
            assert oracles.euler_characteristic(ci) == oracles.euler_characteristic(hyp)
            assert oracles.todd_genus(ci) == oracles.todd_genus(hyp)
    k3 = {"ci": [[2, 3], 2]}
    assert (oracles.euler_characteristic(k3), oracles.todd_genus(k3)) == (24, 2)
    del_pezzo_4 = {"ci": [[2, 2], 2]}
    assert oracles.euler_characteristic(del_pezzo_4) == 8
    assert oracles.todd_genus(del_pezzo_4) == 1


def test_composites():
    p1 = {"proj": 1}
    assert oracles.euler_characteristic({"prod": [p1, p1]}) == 4
    assert oracles.euler_characteristic({"disj": [K3, CUBIC_SURFACE]}) == 33
    assert oracles.todd_genus({"scale": [-3, K3]}) == -6
    assert oracles.euler_characteristic({"prod": [QUINTIC, "point"]}) == -200
    assert oracles.dimension({"prod": [MILNOR_23, K3]}) == 6


def test_milnor_witness():
    assert oracles.milnor_witness_fixed_dim(2, 2, 2) == 1
    assert oracles.milnor_witness_fixed_dim(2, 3, 2) == 2
    assert oracles.milnor_witness_fixed_dim(0, 5, 3) == 1
    assert oracles.milnor_witness_fixed_dim(3, 3, 3) == 1
    prod = {"prod": [{"milnor": [2, 2]}, {"milnor": [2, 3]}]}
    assert oracles.witness_fixed_dim(prod, 2, [1]) == 3


def test_landweber_free():
    assert oracles.is_landweber_free({"hyp": [2, 1]}, 2, 2)
    assert not oracles.is_landweber_free({"hyp": [2, 1]}, 2, 1)
    assert oracles.is_landweber_free({"hyp": [2, 3]}, 2, 3)
    assert oracles.is_landweber_free({"hyp": [3, 2]}, 3, 2)
    assert not oracles.is_landweber_free({"hyp": [3, 4]}, 2, 3)
    free = {"prod": [{"hyp": [2, 1]}, K3]}
    assert oracles.witness_fixed_dim(free, 2, [1, 1]) == oracles.NEG_INF
    assert oracles.check_fixedpoint(free, 2, [1, 1], True)
    assert oracles.check_bound(free, 2, [1, 1], 3, 0)


def test_bound_properties():
    hyp34 = {"hyp": [3, 4]}
    assert oracles.check_bound(hyp34, 2, [1], 4, 2) == []
    assert oracles.check_bound(hyp34, 2, [1], 4, 1)  # the paper's example is 2
    assert oracles.check_bound(P2, 2, [1], 2, None)  # chi = 3 forces a point
    assert oracles.check_bound(P2, 2, [1], 2, 3)  # above the dimension
    assert oracles.check_fixedpoint(P2, 2, [1], False)
