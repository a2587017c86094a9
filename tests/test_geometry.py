import functools
import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cobord import geometry as geo
from cobord.partitions import _sub_multisets, partitions_of
from cobord.series import BPoly, TruncSeries
from conftest import b_gen

TRUNC = 12


def cls(expr):
    return geo.evaluate(expr, TRUNC)


def convolve_coeff(x, y, alpha):
    """Independent product oracle: sum of c_beta(x) c_gamma(y) over the
    distinct splittings beta cup gamma = alpha."""
    return sum(x.coeff(beta) * y.coeff(gamma) for beta, gamma in _sub_multisets(alpha))


def euler_like_checks(expr, trunc=TRUNC):
    """Structural checks on an evaluated expression.

    Homogeneity (c_alpha = 0 off the dimension), the two-path product
    identity against the convolution oracle, additivity over disjoint
    unions, scaling, and the normalization of the point class.
    """
    entries = []
    cl = geo.evaluate(expr, trunc)
    dim = expr.dimension()
    if dim is not None:
        ws = cl.image.weights()
        entries.append(("homogeneous", ws <= {dim}, f"weights {sorted(ws)} vs dimension {dim}"))
    if isinstance(expr, geo.Point):
        entries.append(("point-unit", cl.image == BPoly.one(trunc=trunc), ""))
    if isinstance(expr, geo.Product) and len(expr.factors) == 2:
        x = geo.evaluate(expr.factors[0], trunc).image
        y = geo.evaluate(expr.factors[1], trunc).image
        keys, y_keys = set(cl.image.terms), y.terms  # decode each image once
        for kx in x.terms:
            for ky in y_keys:
                if sum(kx) + sum(ky) <= trunc:
                    keys.add(tuple(sorted(kx + ky, reverse=True)))
        ok = all(convolve_coeff(x, y, a) == cl.image.coeff(a) for a in keys)
        entries.append(("product-convolution", ok, f"{len(keys)} coefficients"))
    if isinstance(expr, geo.DisjointUnion):
        total = BPoly.zero(trunc=trunc)
        for part in expr.parts:
            total = total + geo.evaluate(part, trunc).image
        entries.append(("disjoint-additivity", total == cl.image, ""))
    if isinstance(expr, geo.Scaled):
        inner = geo.evaluate(expr.expr, trunc).image
        entries.append(("scaling", inner.scaled(expr.k) == cl.image, ""))
    return geo.CheckReport(entries)


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


def test_milnor_m1_evaluates_without_a_warning():
    # Milnor(1, n) is decomposable (c_(n) = 0 for n >= 2), which is why
    # milnor_candidates keeps it out of the generators; evaluating it is
    # fine.  __wrapped__ bypasses the cache, so the evaluation really runs.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = geo.evaluate.__wrapped__(geo.Milnor(1, 4), TRUNC)
    assert w.dim == 4 and w.c_alpha((4,)) == 0
    assert w.image == geo.evaluate(geo.Milnor(1, 4), TRUNC).image


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
    rep = euler_like_checks(e, TRUNC)
    assert rep.ok, rep.to_obj()
    assert cls(e).c_alpha((1, 1)) == 4

    e2 = geo.Product((geo.Proj(2), geo.Hyp(2, 2)))
    assert euler_like_checks(e2, TRUNC).ok

    du = geo.DisjointUnion((geo.Proj(1), geo.Proj(1)))
    assert cls(du).image == cls(geo.Proj(1)).image.scaled(2)
    assert euler_like_checks(du, TRUNC).ok


def test_scaled():
    e = geo.Scaled(-3, geo.Proj(2))
    assert cls(e).image == cls(geo.Proj(2)).image.scaled(-3)
    assert euler_like_checks(e, TRUNC).ok


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


def test_truncation_guard_on_a_mixed_dimension_product():
    mixed = geo.DisjointUnion((geo.Proj(1), geo.Proj(2)))
    prod = geo.Product((mixed, geo.Proj(2)))
    assert prod.dimension() is None
    with pytest.raises(geo.TruncationError, match="dimension 4 exceeds truncation 3"):
        geo.evaluate(prod, 3)
    # at truncation 4 both components survive, exactly as the two products
    whole = geo.evaluate(prod, 4).image
    parts = [geo.evaluate(geo.Product((geo.Proj(k), geo.Proj(2))), 4).image for k in (1, 2)]
    assert whole == parts[0] + parts[1]
    assert whole.weights() == {3, 4}
    # a factor whose top component cancels is not heavier than it looks
    cancelled = geo.DisjointUnion((geo.Proj(1), geo.Proj(2), geo.Scaled(-1, geo.Proj(2))))
    light = geo.evaluate(geo.Product((cancelled, geo.Proj(2))), 3)
    assert light.image == geo.evaluate(geo.Product((geo.Proj(1), geo.Proj(2))), 3).image
    # a zero factor makes the whole product zero
    zero = geo.Scaled(0, mixed)
    assert geo.evaluate(geo.Product((zero, geo.Proj(3))), 3).is_zero()


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
        {"point": 5},
        {"point": None},
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
    with pytest.raises(ValueError):
        geo.evaluate(geo.CompInt((2,), -1), TRUNC)
    with pytest.raises(ValueError):
        geo.evaluate(geo.CompInt((2, 3), -2), TRUNC)


# -- an independent reference: the bivariate Chow ring of the ambient space --


def _ref_line_class(dims, multidegree, trunc):
    """sum_i c_1(O(k))^i b_i in Z[b][h_j] truncated at total degree sum(dims).

    The Chow ring of the product of the P^(dims_j) is its quotient by the
    monomial ideal of the h_j^(dims_j + 1), so a coefficient read inside
    that box is the Chow ring's.  The reference inverts and raises these
    classes as bivariate series, a route independent of geometry's
    univariate rows.
    """
    names = tuple(f"h{j}" for j in range(len(dims)))
    total_cap = sum(dims)

    def var(j):
        return TruncSeries.variable(names[j], names, total_cap, trunc=trunc)

    c1 = TruncSeries.zero(names, total_cap, trunc=trunc)
    for j, k in enumerate(multidegree):
        c1 = c1 + var(j) * k
    total = c1.constant(1)
    power = c1.constant(1)
    for i in range(1, min(total_cap, trunc) + 1):
        power = power * c1
        total = total + power * b_gen(i, trunc)
    return total


def _ref_image(expr, trunc):
    if isinstance(expr, geo.Proj):
        expr = geo.CompInt((), expr.n)
    if isinstance(expr, geo.Hyp):
        expr = geo.CompInt((expr.d,), expr.n)
    if isinstance(expr, geo.CompInt):
        n, degrees = expr.n, expr.degrees
        dims = (n + len(degrees),)
        s = _ref_line_class(dims, (1,), trunc).inverse() ** (n + len(degrees) + 1)
        for d in degrees:
            s = s * _ref_line_class(dims, (d,), trunc)
        return s.coeff((n,)).scaled(math.prod(degrees))
    m, n = expr.m, expr.n
    dims = (m, n)
    s = (
        (_ref_line_class(dims, (1, 0), trunc).inverse() ** (m + 1))
        * (_ref_line_class(dims, (0, 1), trunc).inverse() ** (n + 1))
        * _ref_line_class(dims, (1, 1), trunc)
    )
    img = s.coeff((m, n - 1))
    if m >= 1:
        img = img + s.coeff((m - 1, n))
    return img


def _image(expr, trunc):
    return geo.evaluate(expr, trunc).image


REF_N = 10
CI_DEGREES = [(2,), (3, 2), (1, 2, 2), (2, 1, 3, 2)]


def test_every_chern_number_matches_the_bivariate_reference():
    exprs = [geo.Proj(n) for n in range(REF_N + 1)]
    exprs += [geo.Hyp(d, n) for d in (1, 2, 3, 5) for n in range(REF_N + 1)]
    exprs += [geo.CompInt(ds, n) for ds in CI_DEGREES for n in range(REF_N + 1)]
    exprs += [
        geo.Milnor(m, n)
        for n in range(1, REF_N + 2)
        for m in range(n + 1)
        if m + n - 1 <= REF_N
    ]
    for e in exprs:
        assert _image(e, REF_N) == _ref_image(e, REF_N), e


@pytest.mark.parametrize("degrees", [(2, 3), (1, 4, 2, 3)])
def test_complete_intersection_needs_powers_beyond_the_truncation(degrees):
    # A^(n+c+1) with n = trunc = 12: k = 15 and 17, past trunc + 2
    e = geo.CompInt(degrees, 12)
    assert _image(e, 12) == _ref_image(e, 12)


def test_zero_dimensional_constructors():
    assert _image(geo.Proj(0), TRUNC) == BPoly.one(trunc=TRUNC)
    for d in (1, 2, 5):
        assert _image(geo.Hyp(d, 0), TRUNC) == BPoly.const(d, trunc=TRUNC)


def test_power_rows_invert_powers_of_the_line_class():
    # rows of A^k times L^k, L = sum_i b_i h^i, is 1 + O(h^k)
    for k in range(1, 7):
        rows = [BPoly._raw(r, TRUNC) for r in geo._power_rows(k, TRUNC)]
        assert len(rows) == k
        line = [b_gen(i, TRUNC) for i in range(k)]
        power = [BPoly.one(trunc=TRUNC)] + [BPoly.zero(trunc=TRUNC)] * (k - 1)
        for _ in range(k):
            power = [
                sum((power[j - i] * line[i] for i in range(j + 1)),
                    BPoly.zero(trunc=TRUNC))
                for j in range(k)
            ]
        for j in range(k):
            prod = sum((rows[i] * power[j - i] for i in range(j + 1)),
                       BPoly.zero(trunc=TRUNC))
            assert prod == (1 if j == 0 else 0), (k, j)
    assert len(geo._power_rows(20, TRUNC)) == TRUNC + 1


# -- genus oracles: chi and chi(O) from every Chern number ------------------

GENUS_N = 14


def _genus(image, value):
    total = 0
    for key, c in image.terms.items():
        term = Fraction(c)
        for i in key:
            term *= value(i)
        total += term
    return total


def _euler(expr):
    return _genus(_image(expr, GENUS_N), lambda i: (-1) ** i)


def _todd(expr):
    return _genus(_image(expr, GENUS_N), lambda i: Fraction((-1) ** i, math.factorial(i + 1)))


def _chi_proj_twist(big_n, k):
    # chi(P^N, O(k)) = C(k + N, N) as a polynomial in k
    return math.prod(Fraction(k + i, i) for i in range(1, big_n + 1))


def _closed_forms(expr):
    """(chi, chi(O)) of an expression from closed forms."""
    if isinstance(expr, geo.Proj):
        return expr.n + 1, 1
    if isinstance(expr, geo.Hyp):
        d, n = expr.d, expr.n
        return ((1 - d) ** (n + 2) - 1) // d + n + 2, 1 + (-1) ** n * math.comb(d - 1, n + 1)
    if isinstance(expr, geo.CompInt):
        n, degrees = expr.n, expr.degrees
        big_n = n + len(degrees)
        # [h^n] (1 + h)^(N+1) prod d_i / prod (1 + d_i h)
        series = [math.comb(big_n + 1, j) for j in range(n + 1)]
        for d in degrees:
            for j in range(1, n + 1):
                series[j] -= d * series[j - 1]
        chi = series[n] * math.prod(degrees)
        # Koszul: chi(O_X) = sum over subsets S of (-1)^|S| chi(P^N, O(-sum_S d))
        todd = Fraction(0)
        for mask in range(1 << len(degrees)):
            chosen = [d for i, d in enumerate(degrees) if mask >> i & 1]
            todd += (-1) ** len(chosen) * _chi_proj_twist(big_n, -sum(chosen))
        return chi, todd
    if isinstance(expr, geo.Milnor):
        return (expr.m + 1) * expr.n, 1
    if isinstance(expr, geo.Product):
        chi, todd = 1, 1
        for f in expr.factors:
            c, t = _closed_forms(f)
            chi, todd = chi * c, todd * t
        return chi, todd
    if isinstance(expr, geo.DisjointUnion):
        forms = [_closed_forms(p) for p in expr.parts]
        return sum(c for c, _ in forms), sum(t for _, t in forms)
    raise TypeError(expr)


def _constructors(max_dim):
    out = [geo.Proj(n) for n in range(max_dim + 1)]
    out += [geo.Hyp(d, n) for d in range(1, 6) for n in range(max_dim + 1)]
    out += [geo.CompInt(ds, n) for ds in CI_DEGREES for n in range(max_dim + 1)]
    out += [
        geo.Milnor(m, n)
        for n in range(1, max_dim + 2)
        for m in range(n + 1)
        if m + n - 1 <= max_dim
    ]
    return out


CONSTRUCTORS = _constructors(GENUS_N)


def test_genera_of_every_constructor():
    for e in CONSTRUCTORS:
        assert (_euler(e), _todd(e)) == _closed_forms(e), e


def _of_dim(dim):
    return st.sampled_from([e for e in CONSTRUCTORS if e.dimension() == dim])


@st.composite
def _varieties(draw, dim):
    """A constructor, or a product of two, of the given dimension."""
    if dim >= 2 and draw(st.booleans()):
        first = draw(st.integers(1, dim - 1))
        return geo.Product((draw(_of_dim(first)), draw(_of_dim(dim - first))))
    return draw(_of_dim(dim))


@st.composite
def _products(draw):
    dims = draw(st.lists(st.integers(1, 7), min_size=2, max_size=3).filter(
        lambda ds: sum(ds) <= GENUS_N))
    return geo.Product(tuple(draw(_of_dim(d)) for d in dims))


@st.composite
def _unions(draw):
    dim = draw(st.integers(0, GENUS_N))
    return geo.DisjointUnion(tuple(draw(st.lists(_varieties(dim), min_size=2, max_size=3))))


@settings(max_examples=40, deadline=None)
@given(st.one_of(_products(), _unions()))
def test_genera_of_products_and_unions(expr):
    assert (_euler(expr), _todd(expr)) == _closed_forms(expr)


# -- the L-genus: the signature from every Chern number ---------------------
#
# b_i -> [t^(i+1)] tanh t, the exponential of the signature's formal group
# law (x + y) / (1 + xy); sigma(P^2) = 1 fixes the sign (tan t would give -1).
# The closed forms are Hirzebruch's: the L-class of the ambient space over
# that of the normal bundle, as exact Fraction power series.

_LEN = GENUS_N + 2


def _fmul(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(_LEN)]


def _finv(a):
    out = [Fraction(1) / a[0]]
    for k in range(1, _LEN):
        out.append(-sum(a[i] * out[k - i] for i in range(1, k + 1)) / a[0])
    return out


def _fpow(a, k):
    out = [Fraction(1)] + [Fraction(0)] * (_LEN - 1)
    for _ in range(k):
        out = _fmul(out, a)
    return out


_SINH = [Fraction(k % 2, math.factorial(k)) for k in range(_LEN)]
_COSH = [Fraction(1 - k % 2, math.factorial(k)) for k in range(_LEN)]
TANH = _fmul(_SINH, _finv(_COSH)) + [Fraction(0)]  # [t^k] tanh t, k <= _LEN
# [h^k] tanh(h) / h and its inverse, the characteristic series h / tanh h
_TANH_OVER_H = TANH[1:]
_L_SERIES = _finv(_TANH_OVER_H)


def _signature(expr):
    return _genus(_image(expr, GENUS_N), lambda i: TANH[i + 1])


def _hirzebruch_signature(n, degrees):
    """[h^n] (h / tanh h)^(N+1) prod_d tanh(d h) / h, with N = n + len(degrees)."""
    series = _fpow(_L_SERIES, n + len(degrees) + 1)
    for d in degrees:
        series = _fmul(series, [c * d ** (k + 1) for k, c in enumerate(_TANH_OVER_H)])
    return series[n]


def _milnor_signature(m, n):
    """[x^m y^n] (x / tanh x)^(m+1) (y / tanh y)^(n+1) tanh(x + y)."""
    a, b = _fpow(_L_SERIES, m + 1), _fpow(_L_SERIES, n + 1)
    return sum(
        a[m - i] * b[n - j] * TANH[i + j] * math.comb(i + j, i)
        for i in range(m + 1)
        for j in range(n + 1)
    )


def _signature_closed_form(expr):
    if isinstance(expr, geo.Proj):
        return _hirzebruch_signature(expr.n, ())
    if isinstance(expr, geo.Hyp):
        return _hirzebruch_signature(expr.n, (expr.d,))
    if isinstance(expr, geo.CompInt):
        return _hirzebruch_signature(expr.n, expr.degrees)
    if isinstance(expr, geo.Milnor):
        return _milnor_signature(expr.m, expr.n)
    if isinstance(expr, geo.Product):
        return math.prod(_signature_closed_form(f) for f in expr.factors)
    if isinstance(expr, geo.DisjointUnion):
        return sum(_signature_closed_form(p) for p in expr.parts)
    raise TypeError(expr)


def test_signature_hand_values():
    assert TANH[:6] == [0, 1, 0, Fraction(-1, 3), 0, Fraction(2, 15)]
    assert _signature(geo.Proj(2)) == 1
    assert _signature(geo.Hyp(4, 2)) == -16  # a quartic K3 surface
    assert _signature(geo.Hyp(3, 2)) == -5  # a cubic surface, P^2 blown up at 6 points
    assert _hirzebruch_signature(2, (4,)) == -16


def test_signature_of_projective_spaces():
    for n in range(GENUS_N + 1):
        assert _signature(geo.Proj(n)) == _hirzebruch_signature(n, ()) == (n + 1) % 2


def test_signature_of_every_constructor():
    for e in CONSTRUCTORS:
        assert _signature(e) == _signature_closed_form(e), e


@settings(max_examples=40, deadline=None)
@given(st.one_of(_products(), _unions()))
def test_signature_of_products_and_unions(expr):
    assert _signature(expr) == _signature_closed_form(expr)


# -- the chi_y genus: chi, chi(O) and the signature in one family -----------
#
# chi_y(X) = sum_p chi(X, Omega^p) y^p (Hirzebruch, *Topological Methods in
# Algebraic Geometry*, 15.5).  Its characteristic series is
# Q_y(t) = t (1 + y e^(-st)) / (1 - e^(-st)) with s = 1 + y, so its
# exponential is f_y(t) = t / Q_y(t) and b_i -> [t^(i+1)] f_y(t).  Writing
# g = (1 - e^(-st)) / (st) gives Q_y(t) = t + e^(-st) / g, whose
# coefficients are polynomials in y.  A polynomial in y is a list of
# Fractions indexed by the power of y, with no trailing zero; a series is a
# list of _LEN polynomials.


def _ptrim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    return _ptrim([c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)])


def _pmul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return _ptrim(out)


def _pscale(a, c):
    return _ptrim([x * c for x in a])


def _pat(a, y):
    return sum(c * y ** k for k, c in enumerate(a))


def _ymul(a, b, upto=_LEN - 1):
    """The product of two series, up to t^upto."""
    out = []
    for k in range(upto + 1):
        acc = []
        for i in range(k + 1):
            acc = _padd(acc, _pmul(a[i], b[k - i]))
        out.append(acc)
    return out + [[]] * (_LEN - 1 - upto)


def _yinv(a):
    """The inverse of a series with constant term 1."""
    assert a[0] == [1]
    out = [[Fraction(1)]]
    for k in range(1, _LEN):
        acc = []
        for i in range(1, k + 1):
            acc = _padd(acc, _pmul(a[i], out[k - i]))
        out.append(_pscale(acc, -1))
    return out


def _s_power(k):
    """(-s)^k = (-1 - y)^k as a polynomial in y."""
    return [Fraction((-1) ** k * math.comb(k, j)) for j in range(k + 1)]


_EXP_ST = [_pscale(_s_power(k), Fraction(1, math.factorial(k))) for k in range(_LEN)]
_G = [_pscale(_s_power(k), Fraction(1, math.factorial(k + 1))) for k in range(_LEN)]
Q_Y = _ymul(_EXP_ST, _yinv(_G))  # e^(-st) / g, then plus t
Q_Y[1] = _padd(Q_Y[1], [Fraction(1)])
F_OVER_T = _yinv(Q_Y)  # [t^i] f_y(t) / t, the image of b_i


@functools.lru_cache(maxsize=None)
def _mono(key):
    """The product of F_OVER_T[i] over the parts i of a partition."""
    return _pmul(_mono(key[1:]), F_OVER_T[key[0]]) if key else [Fraction(1)]


@functools.lru_cache(maxsize=None)
def _denominator(w):
    return math.lcm(*(c.denominator for alpha in partitions_of(w) for c in _mono(alpha)))


def _chi_y(expr):
    """sum_alpha c_alpha _mono(alpha), summed in integers over one
    denominator per weight."""
    sums = {}
    for key, c in _image(expr, GENUS_N).terms.items():
        w = sum(key)
        acc = sums.setdefault(w, [0] * (w + 1))
        for k, m in enumerate(_mono(key)):
            acc[k] += c * m.numerator * (_denominator(w) // m.denominator)
    polys = ([Fraction(a, _denominator(w)) for a in acc] for w, acc in sums.items())
    return functools.reduce(_padd, polys, [])


@functools.lru_cache(maxsize=None)
def _q_power(k):
    return [[Fraction(1)]] + [[]] * (_LEN - 1) if k == 0 else _ymul(_q_power(k - 1), Q_Y)


def _chi_y_chow(n, degrees):
    """[h^n] Q_y(h)^(N+1) prod_d f_y(d h) / h in the Chow ring of P^N,
    N = n + len(degrees)."""
    series = _q_power(n + len(degrees) + 1)
    for d in degrees:
        series = _ymul(series, [_pscale(c, d ** (k + 1)) for k, c in enumerate(F_OVER_T)],
                       n)
    return series[n]


def _chi_y_milnor(m, n):
    """[u^m v^n] Q_y(u)^(m+1) Q_y(v)^(n+1) f_y(u + v) on P^m x P^n."""
    a, b = _q_power(m + 1), _q_power(n + 1)
    total = []
    for i in range(m + 1):
        for j in range(n + 1):
            if i + j:
                f = _pscale(F_OVER_T[i + j - 1], math.comb(i + j, i))
                total = _padd(total, _pmul(_pmul(a[m - i], b[n - j]), f))
    return total


def _chi_y_closed_form(expr):
    if isinstance(expr, geo.Proj):
        return _chi_y_chow(expr.n, ())
    if isinstance(expr, geo.Hyp):
        return _chi_y_chow(expr.n, (expr.d,))
    if isinstance(expr, geo.CompInt):
        return _chi_y_chow(expr.n, expr.degrees)
    if isinstance(expr, geo.Milnor):
        return _chi_y_milnor(expr.m, expr.n)
    if isinstance(expr, geo.Product):
        return functools.reduce(_pmul, (_chi_y_closed_form(f) for f in expr.factors))
    if isinstance(expr, geo.DisjointUnion):
        return functools.reduce(_padd, (_chi_y_closed_form(p) for p in expr.parts))
    raise TypeError(expr)


def _specializes(chi_y, expr):
    """chi_y at y = -1, 0 and 1 against chi, chi(O) and the signature."""
    expected = [_euler(expr), _todd(expr), _signature(expr)]
    return [_pat(chi_y, y) for y in (-1, 0, 1)] == expected


def test_chi_y_hand_values():
    assert Q_Y[:3] == [[1], [Fraction(1, 2), Fraction(-1, 2)],
                       [Fraction(1, 12), Fraction(1, 6), Fraction(1, 12)]]
    assert F_OVER_T[:2] == [[1], [Fraction(-1, 2), Fraction(1, 2)]]
    assert _chi_y(geo.Hyp(3, 1)) == []  # an elliptic curve
    assert _chi_y(geo.Hyp(4, 2)) == [2, -20, 2]  # K3: h^(1,1) = 20
    assert _chi_y(geo.Hyp(3, 2)) == [1, -7, 1]  # a cubic surface: h^(1,1) = 7


def test_chi_y_of_projective_spaces():
    for n in range(GENUS_N + 1):
        expected = [(-1) ** k for k in range(n + 1)]
        assert _chi_y(geo.Proj(n)) == _chi_y_chow(n, ()) == expected, n


def test_chi_y_of_every_constructor():
    for e in CONSTRUCTORS:
        chi_y = _chi_y(e)
        assert chi_y == _chi_y_closed_form(e), e
        assert _specializes(chi_y, e), e


@settings(max_examples=40, deadline=None)
@given(st.one_of(_products(), _unions()))
def test_chi_y_of_products_and_unions(expr):
    chi_y = _chi_y(expr)
    parts = [_chi_y(e) for e in getattr(expr, "factors", getattr(expr, "parts", ()))]
    combine = _pmul if isinstance(expr, geo.Product) else _padd
    assert chi_y == functools.reduce(combine, parts) == _chi_y_closed_form(expr)
    assert _specializes(chi_y, expr)


def test_weight_is_the_top_weight_of_the_class():
    mixed = geo.DisjointUnion((geo.Proj(3), geo.Scaled(-2, geo.Hyp(2, 5))))
    cases = [
        (geo.Point(), 0),
        (geo.Milnor(2, 4), 5),
        (geo.CompInt((2, 3), 4), 4),
        (mixed, 5),
        (geo.Product((mixed, geo.Proj(2), geo.Point())), 7),
        (geo.DisjointUnion(()), 0),
    ]
    for expr, weight in cases:
        assert expr.weight() == weight, expr
        image = geo.evaluate(expr, 10).image
        assert max(image.weights(), default=0) <= weight, expr
    assert geo.Proj(-1).weight() == 0  # evaluation rejects it at any truncation
