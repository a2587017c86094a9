"""Cobordism classes of standard varieties.

Each constructor has a tangent bundle that restricts from split bundles
over (products of) projective spaces, so its full Chern-number package
can be computed inside a truncated Chow ring Z[h]/h^(m+1): the total
class of a line bundle is sum_i c_1^i b_i, virtual classes invert the
series, and the degree map pairs against the pushforward of the
fundamental class (d*h for a degree-d hypersurface, h_1 + h_2 for the
(1,1)-divisor defining a Milnor hypersurface).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Union

from .lazard import CobordismClass
from .partitions import _sub_multisets
from .series import BPoly, TruncSeries, DEFAULT_TRUNCATION


class TruncationError(ValueError):
    """The requested dimension exceeds the configured truncation weight."""


# -- expression AST -----------------------------------------------------


@dataclass(frozen=True)
class Point:
    def dimension(self):
        return 0

    def to_obj(self):
        return "point"


@dataclass(frozen=True)
class Proj:
    n: int

    def dimension(self):
        return self.n

    def to_obj(self):
        return {"proj": self.n}


@dataclass(frozen=True)
class Hyp:
    d: int
    n: int

    def dimension(self):
        return self.n

    def to_obj(self):
        return {"hyp": [self.d, self.n]}


@dataclass(frozen=True)
class CompInt:
    degrees: tuple
    n: int

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(self.degrees))

    def dimension(self):
        return self.n

    def to_obj(self):
        return {"ci": [list(self.degrees), self.n]}


@dataclass(frozen=True)
class Milnor:
    m: int
    n: int

    def dimension(self):
        return self.m + self.n - 1

    def to_obj(self):
        return {"milnor": [self.m, self.n]}


@dataclass(frozen=True)
class Product:
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    def dimension(self):
        dims = [f.dimension() for f in self.factors]
        return None if any(d is None for d in dims) else sum(dims)

    def to_obj(self):
        return {"prod": [f.to_obj() for f in self.factors]}


@dataclass(frozen=True)
class DisjointUnion:
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))

    def dimension(self):
        dims = {p.dimension() for p in self.parts}
        return dims.pop() if len(dims) == 1 else None

    def to_obj(self):
        return {"disj": [p.to_obj() for p in self.parts]}


@dataclass(frozen=True)
class Scaled:
    k: int
    expr: "VarietyExpr"

    def dimension(self):
        return self.expr.dimension()

    def to_obj(self):
        return {"scale": [self.k, self.expr.to_obj()]}


VarietyExpr = Union[Point, Proj, Hyp, CompInt, Milnor, Product, DisjointUnion, Scaled]


def _int(x) -> int:
    # bool is a subclass of int, but JSON true/false is not an integer
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def _array(key, val, length=None) -> list:
    if not isinstance(val, list) or (length is not None and len(val) != length):
        shape = "an array" if length is None else f"an array of {length}"
        raise ValueError(f"{key!r} needs {shape}, got {val!r}")
    return val


def parse_expr(obj) -> VarietyExpr:
    """Parse the compact JSON grammar; raises ValueError on malformed input.

    Integer fields accept only JSON integers, and the array-valued
    constructors only JSON arrays, so nothing is silently coerced.
    """
    if obj == "point":
        return Point()
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"not a variety expression: {obj!r}")
    key, val = next(iter(obj.items()))
    if key == "point":
        return Point()
    if key == "proj":
        return Proj(_int(val))
    if key == "hyp":
        d, n = _array(key, val, 2)
        return Hyp(_int(d), _int(n))
    if key == "milnor":
        m, n = _array(key, val, 2)
        return Milnor(_int(m), _int(n))
    if key in ("ci", "compint"):
        degs, n = _array(key, val, 2)
        return CompInt(tuple(_int(d) for d in _array(key, degs)), _int(n))
    if key == "prod":
        return Product(tuple(parse_expr(v) for v in _array(key, val)))
    if key == "disj":
        return DisjointUnion(tuple(parse_expr(v) for v in _array(key, val)))
    if key == "scale":
        k, e = _array(key, val, 2)
        return Scaled(_int(k), parse_expr(e))
    raise ValueError(f"unknown constructor {key!r}")


# -- Chow-ring helpers ---------------------------------------------------


def _chow(caps, trunc):
    names = tuple(f"h{i}" for i in range(len(caps)))
    return TruncSeries.zero(names, tuple(caps), sum(caps), trunc=trunc)


def _line_total_class(chow: TruncSeries, multidegree, trunc: int) -> TruncSeries:
    """sum_i c_1(O(k))^i b_i with c_1 = sum_j k_j h_j, inside the Chow ring."""
    c1 = chow.constant(0)
    for j, k in enumerate(multidegree):
        if k:
            var = TruncSeries.variable(
                chow.vars[j], chow.vars, chow.caps, chow.total_cap, trunc=trunc
            )
            c1 = c1 + var * k
    total = chow.constant(1)
    power = chow.constant(1)
    for i in range(1, min(chow.total_cap, trunc) + 1):
        power = power * c1
        if power.is_zero():
            break
        total = total + power * BPoly.gen(i, trunc=trunc)
    return total


@lru_cache(maxsize=None)
def _proj_image(n: int, trunc: int) -> BPoly:
    chow = _chow((n,), trunc)
    total = _line_total_class(chow, (1,), trunc)
    return (total.inverse() ** (n + 1)).coeff((n,))


@lru_cache(maxsize=None)
def _hyp_image(d: int, n: int, trunc: int) -> BPoly:
    # Ambient P^(n+1); the fundamental class pushes to d*h.
    chow = _chow((n + 1,), trunc)
    ample = _line_total_class(chow, (1,), trunc)
    s = (ample.inverse() ** (n + 2)) * _line_total_class(chow, (d,), trunc)
    return s.coeff((n,)).scaled(d)


@lru_cache(maxsize=None)
def _ci_image(degrees: tuple, n: int, trunc: int) -> BPoly:
    c = len(degrees)
    chow = _chow((n + c,), trunc)
    ample = _line_total_class(chow, (1,), trunc)
    s = ample.inverse() ** (n + c + 1)
    mult = 1
    for d in degrees:
        s = s * _line_total_class(chow, (d,), trunc)
        mult *= d
    return s.coeff((n,)).scaled(mult)


@lru_cache(maxsize=None)
def _milnor_image(m: int, n: int, trunc: int) -> BPoly:
    # A (1,1)-divisor in P^m x P^n; multiplying by h_1 + h_2 before taking
    # the top bidegree coefficient implements the pushforward.
    chow = _chow((m, n), trunc)
    p1 = _line_total_class(chow, (1, 0), trunc)
    p2 = _line_total_class(chow, (0, 1), trunc)
    diag = _line_total_class(chow, (1, 1), trunc)
    s = (p1.inverse() ** (m + 1)) * (p2.inverse() ** (n + 1)) * diag
    img = s.coeff((m, n - 1))
    if m >= 1:
        img = img + s.coeff((m - 1, n))
    return img


# -- evaluation ----------------------------------------------------------


@lru_cache(maxsize=None)
def evaluate(expr: VarietyExpr, trunc: int = DEFAULT_TRUNCATION) -> CobordismClass:
    """Hurewicz image (all Chern numbers) of a variety expression."""
    dim = expr.dimension()
    if dim is not None and dim > trunc:
        raise TruncationError(
            f"dimension {dim} exceeds truncation {trunc}; raise the truncation"
        )
    if isinstance(expr, Point):
        return CobordismClass(BPoly.one(trunc=trunc), dim=0)
    if isinstance(expr, Proj):
        if expr.n < 0:
            raise ValueError("projective space needs n >= 0")
        return CobordismClass(_proj_image(expr.n, trunc), dim=expr.n)
    if isinstance(expr, Hyp):
        if expr.d < 1 or expr.n < 0:
            raise ValueError("hypersurface needs degree >= 1 and n >= 0")
        return CobordismClass(_hyp_image(expr.d, expr.n, trunc), dim=expr.n)
    if isinstance(expr, CompInt):
        if not expr.degrees or any(d < 1 for d in expr.degrees):
            raise ValueError("complete intersection needs degrees >= 1")
        return CobordismClass(_ci_image(expr.degrees, expr.n, trunc), dim=expr.n)
    if isinstance(expr, Milnor):
        if not (0 <= expr.m <= expr.n) or expr.n < 1:
            raise ValueError("Milnor hypersurface needs 0 <= m <= n, n >= 1")
        if expr.m == 1:
            warnings.warn(
                "Milnor(1, n) evaluates but is excluded from generator "
                "construction",
                stacklevel=2,
            )
        return CobordismClass(_milnor_image(expr.m, expr.n, trunc), dim=dim)
    if isinstance(expr, Product):
        factors = [evaluate(f, trunc) for f in expr.factors]
        one = CobordismClass(BPoly.one(trunc=trunc), dim=0)
        return reduce(lambda a, b: a * b, factors, one)
    if isinstance(expr, DisjointUnion):
        total = CobordismClass(BPoly.zero(trunc=trunc), dim=dim)
        for part in expr.parts:
            total = CobordismClass(
                total.image + evaluate(part, trunc).image, dim
            )
        return total
    if isinstance(expr, Scaled):
        return evaluate(expr.expr, trunc) * expr.k
    raise TypeError(f"not a variety expression: {expr!r}")


# -- sanity harness -------------------------------------------------------


def convolve_coeff(x: BPoly, y: BPoly, alpha) -> int:
    """Independent product oracle: sum of c_beta(x) c_gamma(y) over the
    distinct splittings beta cup gamma = alpha."""
    total = 0
    for beta, gamma in _sub_multisets(tuple(alpha)):
        total += x.coeff(beta) * y.coeff(gamma)
    return total


@dataclass
class CheckReport:
    entries: list

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.entries)

    def __bool__(self):
        return self.ok

    def to_obj(self):
        return {
            "ok": self.ok,
            "checks": [
                {"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in self.entries
            ],
        }


def euler_like_checks(expr: VarietyExpr, trunc: int = DEFAULT_TRUNCATION) -> CheckReport:
    """Structural sanity checks on an evaluated expression.

    Verifies homogeneity (c_alpha = 0 off the dimension), the two-path
    product identity against the convolution oracle, additivity over
    disjoint unions, and the normalization of the point class.
    """
    entries = []
    cl = evaluate(expr, trunc)
    dim = expr.dimension()
    if dim is not None:
        ws = cl.image.weights()
        entries.append(
            (
                "homogeneous",
                ws <= {dim},
                f"weights {sorted(ws)} vs dimension {dim}",
            )
        )
    if isinstance(expr, Point):
        entries.append(("point-unit", cl.image == BPoly.one(trunc=trunc), ""))
    if isinstance(expr, Product) and len(expr.factors) == 2:
        x = evaluate(expr.factors[0], trunc).image
        y = evaluate(expr.factors[1], trunc).image
        keys = set(cl.image.terms)
        for kx in x.terms:
            for ky in y.terms:
                if sum(kx) + sum(ky) <= trunc:
                    keys.add(tuple(sorted(kx + ky, reverse=True)))
        ok = all(convolve_coeff(x, y, a) == cl.image.coeff(a) for a in keys)
        entries.append(("product-convolution", ok, f"{len(keys)} coefficients"))
    if isinstance(expr, DisjointUnion):
        total = BPoly.zero(trunc=trunc)
        for part in expr.parts:
            total = total + evaluate(part, trunc).image
        entries.append(("disjoint-additivity", total == cl.image, ""))
    if isinstance(expr, Scaled):
        inner = evaluate(expr.expr, trunc).image
        entries.append(("scaling", inner.scaled(expr.k) == cl.image, ""))
    return CheckReport(entries)
