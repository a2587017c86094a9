"""Cobordism classes of standard varieties.

Each constructor has a tangent bundle that restricts from sums of line
bundles over (products of) projective spaces, so its full Chern-number
package is a coefficient of one variable h, the hyperplane class.  The
total class of O(d) is L(d h) with L(x) = sum_i b_i x^i (b_0 = 1), so
everything is read off the rows [h^j] A^k of A = L(h)^(-1): row j has
weight exactly j and needs no truncation beyond the partition weight.
Miller's recurrence for powers of a power series (Knuth, TAOCP vol. 2,
4.7) builds the rows of each A^k by one-part products and an exact
division, cached per (k, truncation).  Products of rows go through the
sparse kernel.

- P^n is [A^(n+1)]_n.
- A complete intersection of degrees d_1..d_c in P^(n+c) is
  (prod d_i) sum_k [prod_i L(d_i h)]_k [A^(n+c+1)]_(n-k); a hypersurface
  is the case c = 1.
- A Milnor hypersurface, a (1,1)-divisor in P^m x P^n, pairs rows of
  A^(m+1) and A^(n+1) through the expansion of L(h_1 + h_2).

The same rows carry the universal formal group law: exp(t) = t L(t), so
Lagrange inversion reads [t^m] (log t)^k and [t^m] [n](t) off A^m
(Stanley, *Enumerative Combinatorics 2*, Thm 5.4.2).
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import _backend
from .partitions import codec
from .series import BPoly, DEFAULT_TRUNCATION


class TruncationError(ValueError):
    """The requested dimension exceeds the configured truncation weight."""


# -- cobordism classes ------------------------------------------------


class CobordismClass:
    """A class in the Lazard ring: its Z[b] image plus dimension metadata.

    A class holds its image from the start, or has the ``parts`` that
    ``evaluate`` gives a ``Product``, ``DisjointUnion`` or ``Scaled``:
    ("prod", factors) or the combination ("sum", ((k, class), ...)), where
    a scaling is one term and a union's part repeated k times one term
    with k.  Its maps to Z[b] and to generator coordinates are ring maps,
    so ``_fold`` combines the parts' values for both: for ``image`` on its
    first read, so a caller that only bounds never builds it, and for
    ``gen_coords`` in any basis, cached there.  A class without parts
    reads ``basis.leaf_coords``: a ``lazard.GeneratorBasis`` solves its
    image, and integrality certifies that it lies in the Lazard subring; a
    ``lazard.LandweberQuotient`` replaces each killed g_n in the base
    coordinates by D-bar_n.  Classes have no arithmetic: they combine
    through expressions or through their images.
    """

    __slots__ = ("_image", "dim", "trunc", "_coords", "_parts")

    def __init__(self, image: BPoly = None, dim=None, parts=None, trunc=None):
        self._image = image
        self.dim = dim
        self.trunc = image.trunc if trunc is None else trunc
        self._coords = {}
        self._parts = parts

    @property
    def image(self) -> BPoly:
        if self._image is None:
            self._image = self._fold(lambda part: part.image,
                                     lambda: BPoly.one(trunc=self.trunc))
        return self._image

    def gen_coords(self, basis):
        coords = self._coords.get(basis)
        if coords is None:
            if self._parts is None:
                coords = basis.leaf_coords(self)
            else:
                coords = self._fold(lambda part: part.gen_coords(basis), basis.unit)
            self._coords[basis] = coords
        return coords

    def _fold(self, value, unit):
        # unit() is called only for no parts: the empty product, or 0 * it
        kind, parts = self._parts
        if not parts:
            return unit() if kind == "prod" else unit().scaled(0)
        total = None
        if kind == "prod":
            for part in parts:
                term = value(part)
                total = term if total is None else total * term
            return total
        for k, part in parts:
            term = value(part) if k == 1 else value(part).scaled(k)
            total = term if total is None else total + term
        return total

    def c_alpha(self, alpha) -> int:
        return self.image.coeff(alpha)

    def is_zero(self) -> bool:
        return self.image.is_zero()

    def __eq__(self, other):
        if not isinstance(other, CobordismClass):
            return NotImplemented
        return self.image == other.image

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        return f"CobordismClass(dim={self.dim}, image={self.image!r})"


# -- value records --------------------------------------------------------


class Record:
    """A frozen value class whose fields are its ``__slots__``.

    Positional and keyword arguments fill the fields in slot order, a
    missing one from the class's ``_defaults``; a ``__post_init__``, if the
    class has one, then normalizes or validates them.  Two records are
    equal only if they have the same type and equal fields, equal records
    hash alike, no field can be reassigned, and the ``repr`` reads
    ``Proj(n=3)``; an expression is the one node of its value, compared by
    identity (see ``Expr``).  ``copy``, ``deepcopy`` and ``pickle``
    rebuild a record from its fields through its constructor.
    """

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, "
                            f"got {len(args)}")
        given = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in given:
                raise TypeError(f"{type(self).__name__}: unexpected or repeated "
                                f"field {name!r}")
            given[name] = value
        for name in names:
            if name in given:
                object.__setattr__(self, name, given[name])
            elif name in self._defaults:
                object.__setattr__(self, name, self._defaults[name])
            else:
                raise TypeError(f"{type(self).__name__}: missing field {name!r}")
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash((type(self), self._fields()))

    def __reduce__(self):
        # the constructor assigns no field by ``__setattr__``
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


# -- expression AST -----------------------------------------------------


class _OneNodePerValue(type):
    def __call__(cls, *args, **kwargs):
        node = super().__call__(*args, **kwargs)
        return cls._by_value.setdefault((cls, *node._fields()), node)


class Expr(Record, metaclass=_OneNodePerValue):
    """A variety expression.  ``dimension()`` is None for a disjoint union
    of mixed dimensions; ``weight()`` is the top weight of the class, the
    largest degree any of its Chern numbers can have.

    There is one node per value: a constructor given the fields of a node
    that exists, in any spelling or through ``copy``, ``deepcopy`` or
    ``pickle``, returns that node, so expressions compare and hash by
    identity and a lookup in ``_by_value`` compares no fields.  Integer
    fields (``_ints``) take only ints, checked before the lookup, where
    2.0 or True would find the node of 2 or 1.
    """

    __slots__ = ()
    _ints = ()
    _by_value = {}  # (type, *fields) -> the one node of that value
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self):
        for name in self._ints:
            _int(getattr(self, name))

    def weight(self) -> int:
        return max(self.dimension(), 0)  # 0 for an invalid negative dimension


class Point(Expr):
    __slots__ = ()

    def dimension(self):
        return 0

    def to_obj(self):
        return "point"


class Proj(Expr):
    __slots__ = _ints = ("n",)

    def dimension(self):
        return self.n

    def to_obj(self):
        return {"proj": self.n}


class Hyp(Expr):
    __slots__ = _ints = ("d", "n")

    def dimension(self):
        return self.n

    def to_obj(self):
        return {"hyp": [self.d, self.n]}


class CompInt(Expr):
    __slots__ = ("degrees", "n")

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(map(_int, self.degrees)))
        _int(self.n)

    def dimension(self):
        return self.n

    def to_obj(self):
        return {"ci": [list(self.degrees), self.n]}


class Milnor(Expr):
    __slots__ = _ints = ("m", "n")

    def dimension(self):
        return self.m + self.n - 1

    def to_obj(self):
        return {"milnor": [self.m, self.n]}


class Product(Expr):
    __slots__ = ("factors",)

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    def dimension(self):
        dims = [f.dimension() for f in self.factors]
        return None if any(d is None for d in dims) else sum(dims)

    def weight(self):
        return sum(f.weight() for f in self.factors)

    def to_obj(self):
        return {"prod": [f.to_obj() for f in self.factors]}


class DisjointUnion(Expr):
    __slots__ = ("parts",)

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))

    def dimension(self):
        dims = {p.dimension() for p in self.parts}
        return dims.pop() if len(dims) == 1 else None

    def weight(self):
        return max((p.weight() for p in self.parts), default=0)

    def to_obj(self):
        return {"disj": [p.to_obj() for p in self.parts]}


class Scaled(Expr):
    __slots__ = ("k", "expr")
    _ints = ("k",)

    def dimension(self):
        return self.expr.dimension()

    def weight(self):
        return self.expr.weight()

    def to_obj(self):
        return {"scale": [self.k, self.expr.to_obj()]}


VarietyExpr = Point | Proj | Hyp | CompInt | Milnor | Product | DisjointUnion | Scaled


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

    Integer fields accept only JSON integers (see ``Expr``), and the
    array-valued constructors only JSON arrays, so nothing is silently
    coerced.  A constructor returns the one node of its value, so a
    factor parsed again is the node ``evaluate``'s cache already holds.
    """
    if obj == "point":
        return Point()
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"not a variety expression: {obj!r}")
    key, val = next(iter(obj.items()))
    if key == "proj":
        return Proj(val)
    if key == "hyp":
        return Hyp(*_array(key, val, 2))
    if key == "milnor":
        return Milnor(*_array(key, val, 2))
    if key in ("ci", "compint"):
        degs, n = _array(key, val, 2)
        return CompInt(_array(key, degs), n)
    if key == "prod":
        return Product([parse_expr(v) for v in _array(key, val)])
    if key == "disj":
        return DisjointUnion([parse_expr(v) for v in _array(key, val)])
    if key == "scale":
        k, e = _array(key, val, 2)
        return Scaled(_int(k), parse_expr(e))  # k is reported before e is parsed
    raise ValueError(f"unknown constructor {key!r}")


# -- graded Chow engine --------------------------------------------------


def _merged(triples, trunc) -> dict:
    """The term dict of sum c * b^beta * row over (key, c, row) triples.

    ``key`` is the packed key of the monomial b^beta, so each product adds
    it to every row key (``codec(trunc).units`` has those of the single
    b_i; 0 is the unit).  A key new to the sum is stored as its
    ``codec(trunc).canonical`` int, as ``_backend.mul_into`` stores it.
    """
    canonical = codec(trunc).canonical.setdefault
    out = {}
    get = out.get
    for part, c, row in triples:
        for key, v in row.items():
            kk = key + part
            acc = get(kk)
            if acc is None:
                acc = c * v
                if acc:
                    out[canonical(kk, kk)] = acc
            else:
                acc += c * v
                if acc:
                    out[kk] = acc
                else:
                    del out[kk]
    return out


def _divided(row: dict, j: int, what: str) -> dict:
    """The term dict row / j; raises ArithmeticError unless the division is exact."""
    out = {}
    for key, v in row.items():
        q, r = divmod(v, j)
        if r:
            raise ArithmeticError(f"{what} is not divisible by {j}")
        out[key] = q
    return out


@lru_cache(maxsize=None)
def _power_rows(k: int, trunc: int) -> tuple:
    """The term dicts [h^j] A^k for j <= min(k - 1, trunc).

    Row j of A^k = (sum_i b_i h^i)^(-k) has weight exactly j.  Miller's
    recurrence j Q_j = sum_{i=1..j} ((1 - k) i - j) b_i Q_{j-i} builds each
    row from the ones below it; the division by j is exact.  The cached
    rows are shared by every caller, so they are read only, and their keys
    are the kernel's canonical ints, which ``_merged`` stores.
    """
    parts = codec(trunc).units
    rows = [{0: 1}]
    for j in range(1, min(k - 1, trunc) + 1):
        acc = _merged(((parts[i], (1 - k) * i - j, rows[j - i]) for i in range(1, j + 1)),
                      trunc)
        rows.append(_divided(acc, j, f"row {j} of A^{k}"))
    return tuple(rows)


def log_power_coeff(k: int, m: int, trunc: int) -> BPoly:
    """[t^m] (log t)^k = (k/m) [h^(m-k)] A^m, for 1 <= k <= m.

    Rows exist up to min(m - 1, trunc); a larger m - k gives zero.
    """
    rows = _power_rows(m, trunc)
    row = rows[m - k] if m - k < len(rows) else {}
    return BPoly._raw(_divided({key: k * v for key, v in row.items()}, m,
                               f"[t^{m}] (log t)^{k}"), trunc)


def n_series_coeff(n: int, m: int, trunc: int) -> BPoly:
    """[t^m] [n](t) = (1/m) sum_k k n^k b_(k-1) [h^(m-k)] A^m, m <= trunc + 1.

    [n](t) = exp(n log t) = sum_k n^k b_(k-1) (log t)^k, one merge and
    one exact division; only the k with a row m - k contribute.
    """
    rows, parts = _power_rows(m, trunc), codec(trunc).units
    acc = _merged(((parts[k - 1], k * n ** k, rows[m - k])
                   for k in range(m - len(rows) + 1, m + 1)), trunc)
    return BPoly._raw(_divided(acc, m, f"[t^{m}] [{n}](t)"), trunc)


def _proj_image(n: int, trunc: int) -> BPoly:
    return BPoly._raw(dict(_power_rows(n + 1, trunc)[n]), trunc)


def _ci_image(degrees: tuple, n: int, trunc: int) -> BPoly:
    """sum_j [(prod d_i) prod_i L(d_i h)]_j [A^(n+c+1)]_(n-j), in one merge.

    The ambient space is P^(n+c); the fundamental class pushes to
    (prod d_i) h^c, and the normal bundle sum O(d_i) contributes
    prod_i L(d_i h) with L(x) = sum_i b_i x^i.  Line j of that product
    times prod d_i is (prod d_i) d_1^j b_j for the first degree; each
    further degree folds in by one-part products.  The image then pairs
    every term of line j with row n - j, one (monomial, coefficient, row)
    triple each.
    """
    parts = codec(trunc).units
    first, *rest = degrees
    top = math.prod(degrees)
    lines = [{parts[j]: top * first ** j} for j in range(n + 1)]
    for d in rest:
        lines = [_merged(((parts[t], d ** t, lines[j - t]) for t in range(j + 1)), trunc)
                 for j in range(n + 1)]
    rows = _power_rows(n + len(degrees) + 1, trunc)
    return BPoly._raw(_merged(((key, v, rows[n - j]) for j, line in enumerate(lines)
                               for key, v in line.items()), trunc), trunc)


def _milnor_image(m: int, n: int, trunc: int) -> BPoly:
    # A (1,1)-divisor in P^m x P^n: the pushforward multiplies by h_1 + h_2,
    # so the image is [h_1^m h_2^(n-1) + h_1^(m-1) h_2^n] of
    # A(h_1)^(m+1) A(h_2)^(n+1) L(h_1 + h_2).  Expanding L(h_1 + h_2) and
    # folding the two coefficients by Pascal's rule pairs row a of A^(m+1)
    # with row c of A^(n+1) and b_k C(k+1, m-a), where k = m+n-1-a-c.
    rows_m = _power_rows(m + 1, trunc)
    rows_n = _power_rows(n + 1, trunc)
    parts, top = codec(trunc).units, m + n - 1
    out = {}
    for a in range(m + 1):
        partner = _merged(
            ((parts[top - a - c], math.comb(top - a - c + 1, m - a), rows_n[c])
             for c in range(min(n, top - a) + 1)),
            trunc,
        )
        _backend.mul_into(out, rows_m[a], partner, trunc)
    return BPoly._raw(out, trunc)


# -- evaluation ----------------------------------------------------------


def _check_truncation(dim: int, trunc: int):
    if dim > trunc:
        raise TruncationError(
            f"dimension {dim} exceeds truncation {trunc}; raise the truncation"
        )


def evaluate(expr: VarietyExpr, trunc: int = DEFAULT_TRUNCATION) -> CobordismClass:
    """Hurewicz image (all Chern numbers) of a variety expression.

    One class per (expression, truncation), however the truncation is
    spelled.  A ``Product``, ``DisjointUnion`` or ``Scaled`` class has
    parts and builds its image on first read (see ``CobordismClass``);
    every error is still raised here.
    """
    return _evaluate(expr, trunc)


@lru_cache(maxsize=None)
def _evaluate(expr: VarietyExpr, trunc: int) -> CobordismClass:
    # recursion goes through ``evaluate``, the boundary that tracing wraps
    dim = expr.dimension()
    if dim is not None:
        _check_truncation(dim, trunc)
    if isinstance(expr, (Point, Proj)):  # a point is P^0
        if dim < 0:
            raise ValueError("projective space needs n >= 0")
        return CobordismClass(_proj_image(dim, trunc), dim=dim)
    if isinstance(expr, Hyp):
        if expr.d < 1 or expr.n < 0:
            raise ValueError("hypersurface needs degree >= 1 and n >= 0")
        return CobordismClass(_ci_image((expr.d,), expr.n, trunc), dim=expr.n)
    if isinstance(expr, CompInt):
        if not expr.degrees or any(d < 1 for d in expr.degrees) or expr.n < 0:
            raise ValueError("complete intersection needs degrees >= 1 and n >= 0")
        if list(expr.degrees) != sorted(expr.degrees):  # one class per degree multiset
            return evaluate(CompInt(sorted(expr.degrees), expr.n), trunc)
        return CobordismClass(_ci_image(expr.degrees, expr.n, trunc), dim=expr.n)
    if isinstance(expr, Milnor):
        if not (0 <= expr.m <= expr.n) or expr.n < 1:
            raise ValueError("Milnor hypersurface needs 0 <= m <= n, n >= 1")
        return CobordismClass(_milnor_image(expr.m, expr.n, trunc), dim=dim)
    if isinstance(expr, Product):
        factors = tuple(evaluate(f, trunc) for f in expr.factors)
        if dim is None:
            # a mixed-dimension factor: Z[b] is a domain, so the factors' top
            # components multiply to a nonzero class of the summed weight
            weights = [f.image.weights() for f in factors]
            if all(weights):
                _check_truncation(sum(map(max, weights)), trunc)
        return CobordismClass(None, dim, ("prod", factors), trunc)
    if isinstance(expr, DisjointUnion):
        counts = {}  # a part repeated k times is one term with k
        for part in expr.parts:
            counts[part] = counts.get(part, 0) + 1
        terms = tuple([(k, evaluate(part, trunc)) for part, k in counts.items()])
        return CobordismClass(None, dim, ("sum", terms), trunc)
    if isinstance(expr, Scaled):
        return CobordismClass(None, dim, ("sum", ((expr.k, evaluate(expr.expr, trunc)),)), trunc)
    raise TypeError(f"not a variety expression: {expr!r}")


evaluate.cache_info = _evaluate.cache_info
evaluate.cache_clear = _evaluate.cache_clear


# -- check reports --------------------------------------------------------


class CheckReport(Record):
    """The (name, ok, detail) entries of a check suite; true iff all passed.

    ``entries`` is a list that a suite may extend, so a report has no hash.
    """

    __slots__ = ("entries",)

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
