import math

import pytest

from cobord import geometry as geo
from cobord.series import BPoly

TRUNC = 12


def cls(expr):
    return geo.evaluate(expr, TRUNC)


def test_point_and_projective_line():
    assert cls(geo.Point()).image == BPoly.one(trunc=TRUNC)
    p1 = cls(geo.Proj(1))
    assert p1.c_alpha((1,)) == -2
    assert p1.c_alpha(()) == 0
    assert p1.c_alpha((2,)) == 0


def test_projective_space_top_chern():
    for n in range(1, 9):
        assert cls(geo.Proj(n)).c_alpha((n,)) == -(n + 1)


def test_hypersurface_formula():
    for n in range(1, 7):
        for d in range(1, 5):
            assert cls(geo.Hyp(d, n)).c_alpha((n,)) == d * (d ** n - n - 2)


def test_degree_one_hypersurface_is_hyperplane():
    # O(1) cuts out P^(n-1)
    for n in range(1, 6):
        assert cls(geo.Hyp(1, n)).image == cls(geo.Proj(n)).image


def test_milnor_top_chern():
    # positive-dimensional cases: m + n >= 2
    for m in range(0, 5):
        for n in range(max(m, 2 - m, 1), 6):
            if m == 1:
                continue
            c = cls(geo.Milnor(m, n)).c_alpha((m + n - 1,))
            expect = -n if m == 0 else math.comb(m + n, m)
            assert c == expect, (m, n)


def test_milnor_m0_is_projective_space():
    for n in range(1, 7):
        assert cls(geo.Milnor(0, n)).image == cls(geo.Proj(n - 1)).image


def test_milnor_m1_warns_but_evaluates():
    with pytest.warns(UserWarning):
        w = geo.evaluate(geo.Milnor(1, 3), TRUNC)
    assert w.dim == 3


def test_complete_intersection_formula():
    for c in range(1, 4):
        for n in range(1, 6):
            for d in (1, 2, 3):
                degrees = (d,) * c
                expect = d ** c * (c * d ** n - n - c - 1)
                assert cls(geo.CompInt(degrees, n)).c_alpha((n,)) == expect


def test_complete_intersection_single_matches_hypersurface():
    for d in (2, 3):
        for n in (2, 3, 4):
            assert cls(geo.CompInt((d,), n)).image == cls(geo.Hyp(d, n)).image


def test_product_two_path_and_disjoint_union():
    e = geo.Product((geo.Proj(1), geo.Proj(1)))
    rep = geo.euler_like_checks(e, TRUNC)
    assert rep.ok, rep.to_obj()
    assert cls(e).c_alpha((1, 1)) == 4

    e2 = geo.Product((geo.Proj(2), geo.Hyp(2, 2)))
    assert geo.euler_like_checks(e2, TRUNC).ok

    du = geo.DisjointUnion((geo.Proj(1), geo.Proj(1)))
    assert cls(du).image == cls(geo.Proj(1)).image.scaled(2)
    assert geo.euler_like_checks(du, TRUNC).ok


def test_scaled():
    e = geo.Scaled(-3, geo.Proj(2))
    assert cls(e).image == cls(geo.Proj(2)).image.scaled(-3)
    assert geo.euler_like_checks(e, TRUNC).ok


def test_homogeneity_of_constructors():
    exprs = [
        geo.Proj(4),
        geo.Hyp(3, 4),
        geo.Milnor(2, 3),
        geo.CompInt((2, 2), 3),
        geo.Product((geo.Proj(2), geo.Proj(3))),
    ]
    for e in exprs:
        image = cls(e).image
        assert image.weights() == {e.dimension()}


def test_degree_p_hypersurfaces_have_divisible_chern_numbers():
    for (p, s) in [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)]:
        ys = cls(geo.Hyp(p, p ** s - 1))
        assert ys.image.divisible_by(p), (p, s)


def test_y0_is_p_points():
    for p in (2, 3):
        assert cls(geo.Hyp(p, 0)).image == BPoly.const(p, trunc=TRUNC)


def test_truncation_guard():
    with pytest.raises(geo.TruncationError):
        geo.evaluate(geo.Proj(13), TRUNC)
    with pytest.raises(geo.TruncationError):
        geo.evaluate(geo.Product((geo.Proj(7), geo.Proj(7))), TRUNC)


def test_parse_round_trip():
    exprs = [
        geo.Point(),
        geo.Proj(2),
        geo.Hyp(3, 4),
        geo.Milnor(2, 3),
        geo.CompInt((2, 2), 2),
        geo.Product((geo.Proj(2), geo.Hyp(3, 4))),
        geo.DisjointUnion((geo.Proj(1), geo.Proj(1))),
        geo.Scaled(-2, geo.Proj(1)),
    ]
    for e in exprs:
        assert geo.parse_expr(e.to_obj()) == e


def test_parse_rejects_garbage():
    for bad in [
        42,
        {"proj": 1, "hyp": [1, 2]},
        {"sphere": 3},
        [],
        {"prod": 5},
        {"hyp": [True, 2]},
        {"scale": [2.5, "point"]},
        {"proj": "3"},
    ]:
        with pytest.raises(ValueError):
            geo.parse_expr(bad)


def test_constructor_validation():
    with pytest.raises(ValueError):
        geo.evaluate(geo.Hyp(0, 2), TRUNC)
    with pytest.raises(ValueError):
        geo.evaluate(geo.Milnor(3, 2), TRUNC)
    with pytest.raises(ValueError):
        geo.evaluate(geo.CompInt((), 2), TRUNC)
