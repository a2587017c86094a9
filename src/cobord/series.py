"""Exact sparse algebra: Z[b], truncated graded power series, and their core.

``SparseAlgebra`` is the one sparse-dict algebra of the package: a dict
``_terms`` of nonzero coefficients keyed by monomials, with addition,
negation, scaling, comparison and repr defined once.  Its subclasses are
``BPoly`` and ``TruncSeries`` here, ``lazard.GenPoly`` and
``equivariant.MPoly``; each supplies only its hooks and its own product.
``BPoly`` and ``GenPoly`` are ``PackedPoly``s: one monomial representation,
the packed ints of ``partitions.codec`` made by ``packed_terms``, and one
product, in the kernel.  ``BPoly`` and ``TruncSeries`` share one inverse.

``BPoly`` is a sparse polynomial in generators b_1, b_2, ... with deg(b_i)
= -i.  The monomial b_alpha = b_{a_1}...b_{a_n} is the partition
``(a_1, ..., a_n)`` at the API and its packed int ``partitions.codec(N)``
inside, so a monomial product is one addition.  Everything is truncated at
a maximum partition weight N, which makes all positive-weight elements
nilpotent and keeps every computation exact and finite.  Coefficients are
always integers: reduction modulo p happens only in the generator
coordinates of ``lazard.GenPoly``, after a class has been solved over Z.

``TruncSeries`` is a truncated power series in up to three auxiliary
degree-1 variables with BPoly coefficients, capped in total degree by its
caller: the FGL series of ``fgl`` stop at t^(N+1), the last degree with a
coefficient of weight at most N.  It doubles as the Chow ring of a product
of projective spaces P^(n_j), capped at the total degree sum(n_j); the
relations h_j^(n_j+1) = 0 span a monomial ideal, so ``equivariant.q_class``
applies them once, to its result.
"""

from __future__ import annotations

from operator import add

from . import _backend
from .partitions import codec, full_key

DEFAULT_TRUNCATION = 12


class CoefficientError(ValueError):
    """Operands of different shapes: truncation, variables, basis or kind."""


def _check_trunc(x, y):
    if x.trunc != y.trunc:
        raise CoefficientError(f"truncation mismatch: {x.trunc} vs {y.trunc}")


def _negated(terms):
    return {k: -v for k, v in terms.items()}


class SparseAlgebra:
    """A sparse dict ``_terms``: monomial key -> nonzero coefficient.

    Coefficients are ints, or BPoly / TruncSeries for series and bundle
    polynomials; every merge is ``_backend.iadd_terms``.  Elements are
    read-only once built, so ``x + 0`` may return ``x`` itself.  Two
    operands combine only when their ``trunc`` and ``_shape`` agree
    (otherwise ``CoefficientError``) and compare unequal otherwise.
    A subclass supplies the hooks:

    - ``trunc``, and ``_shape``: what else two operands must share;
    - ``_shell(terms)``: a sibling of the same shape over a trusted dict;
    - ``_lift(c)``: the term dict of the constant ``c``, or NotImplemented
      when ``c`` is not a constant of this ring (the default);
    - ``_scalars``: the types that ``*`` and ``scaled`` multiply
      coefficientwise;
    - ``_mul(terms)``: the term dict of a product;
    - ``_mono(key)``: the monomial as text, "" for the unit, for repr.

    ``terms`` is the term dict itself; ``PackedPoly`` reads it by partition.
    """

    __slots__ = ("_terms",)
    _scalars = (int,)
    _shape = ()  # a property where there is more to share

    def _lift(self, c):
        return NotImplemented

    def _operand(self, other):
        """The term dict of ``other``, or NotImplemented for a foreign type.

        Raises CoefficientError when ``other`` has another shape.
        """
        if not isinstance(other, type(self)):
            return self._lift(other)
        _check_trunc(self, other)
        if self._shape != other._shape:
            raise CoefficientError(
                f"{type(self).__name__} shapes do not match: "
                f"{self._shape} vs {other._shape}"
            )
        return other._terms

    def _add(self, terms):
        if not terms:
            return self
        out = dict(self._terms)
        _backend.iadd_terms(out, terms)
        return self._shell(out)

    def __add__(self, other):
        terms = self._operand(other)
        return terms if terms is NotImplemented else self._add(terms)

    __radd__ = __add__

    def __sub__(self, other):
        terms = self._operand(other)
        return terms if terms is NotImplemented else self._add(_negated(terms))

    def __rsub__(self, other):
        terms = self._operand(other)
        return terms if terms is NotImplemented else (-self)._add(terms)

    def __neg__(self):
        return self._shell(_negated(self._terms))

    def scaled(self, c):
        """Every coefficient times ``c``, an instance of ``_scalars``."""
        return self._shell({k: cv for k, v in self._terms.items() if (cv := v * c)})

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return self.scaled(other)
        terms = self._operand(other)
        return terms if terms is NotImplemented else self._shell(self._mul(terms))

    def __rmul__(self, other):
        if isinstance(other, self._scalars):
            return self.scaled(other)
        return NotImplemented

    def __pow__(self, n: int):
        one = self._lift(1)
        if one is NotImplemented:
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result, base = self._shell(one), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    @property
    def terms(self) -> dict:
        return self._terms

    def __eq__(self, other):
        try:
            terms = self._operand(other)
        except CoefficientError:  # another shape: unequal
            return False
        return terms if terms is NotImplemented else self._terms == terms

    def __repr__(self):
        if not self._terms:
            return "0"
        bits = []
        for key in sorted(self._terms)[:8]:
            c, mono = self._terms[key], self._mono(key)
            c = c if isinstance(c, int) else f"({c})"
            bits.append(f"{c}*{mono}" if mono else f"{c}")
        tail = " + ..." if len(self._terms) > 8 else ""
        return " + ".join(bits) + tail


def packed_terms(terms, trunc, modulus=None):
    """A partition-keyed dict as a term dict of the canonical
    ``codec(trunc)`` ints, each coefficient reduced mod ``modulus`` if one
    is given; zero coefficients and partitions heavier than ``trunc`` go."""
    pack, canonical = codec(trunc).pack, codec(trunc).canonical.setdefault
    out = {}
    for alpha, c in terms.items():
        if modulus is not None:
            c %= modulus
        if c and sum(alpha) <= trunc:
            key = pack(alpha)
            out[canonical(key, key)] = c
    return out


class PackedPoly(SparseAlgebra):
    """Integer polynomial in generators x_1, x_2, ..., named ``_letter``.

    ``_terms`` is keyed by the canonical ``codec(trunc)`` ints
    (``packed_terms``), so a product is one kernel call; ``terms``,
    ``coeff``, ``sorted_terms`` and the JSON term list speak partitions.
    """

    __slots__ = ()

    def _mul(self, y):
        return _backend.mul_terms(self._terms, y, self.trunc)

    def _mono(self, key):
        return "*".join(f"{self._letter}{i}" for i in codec(self.trunc).unpack(key))

    @property
    def terms(self) -> dict:
        """A partition-keyed copy of ``_terms``."""
        unpack = codec(self.trunc).unpack
        return {unpack(k): v for k, v in self._terms.items()}

    def coeff(self, alpha) -> int:
        if sum(alpha) > self.trunc:
            return 0
        return self._terms.get(codec(self.trunc).pack(alpha), 0)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: full_key(kv[0]))

    def _term_list(self):
        return [{"partition": list(k), "coeff": str(v)} for k, v in self.sorted_terms()]


def _inverse(self):
    """Multiplicative inverse of an element whose constant coefficient c0
    is a unit: an int +-1, or a BPoly with an inverse.

    The tail x - c0 is nilpotent under truncation, so the geometric series
    1/x = c0^-1 * sum_k (-c0^-1 (x - c0))^k ends at its first zero term.
    """
    (unit,) = self._lift(1)  # the key of the unit monomial
    c0 = self._terms.get(unit, 0)
    if not isinstance(c0, int):
        c0_inv = c0.inverse()
    elif c0 in (1, -1):
        c0_inv = c0
    else:
        raise ZeroDivisionError(f"constant coefficient {c0} is not a unit")
    tail = self - c0
    result = term = self._shell({unit: c0_inv})
    while term:
        term = (term * tail) * -c0_inv
        result = result + term
    return result


class BPoly(PackedPoly):
    """Sparse graded polynomial with exact integer coefficients."""

    __slots__ = ("trunc",)
    _letter = "b"

    def __init__(self, terms=None, trunc=DEFAULT_TRUNCATION):
        self._terms = packed_terms(terms or {}, trunc)
        self.trunc = trunc

    @classmethod
    def _raw(cls, terms, trunc):
        # Trusted constructor: a packed term dict, e.g. from a kernel call.
        self = object.__new__(cls)
        self._terms = terms
        self.trunc = trunc
        return self

    def _shell(self, terms):
        return BPoly._raw(terms, self.trunc)

    def _lift(self, c):
        if isinstance(c, int):
            return {0: c} if c else {}  # the unit monomial packs to 0
        return NotImplemented

    # own entries, so that perfbench's tracer times them per class
    __mul__ = SparseAlgebra.__mul__
    inverse = _inverse

    @classmethod
    def zero(cls, trunc=DEFAULT_TRUNCATION):
        return cls._raw({}, trunc)

    @classmethod
    def const(cls, c, trunc=DEFAULT_TRUNCATION):
        return cls({(): c}, trunc)

    @classmethod
    def one(cls, trunc=DEFAULT_TRUNCATION):
        return cls.const(1, trunc)

    def weights(self) -> set[int]:
        shift = codec(self.trunc).shift
        return {k >> shift for k in self._terms}

    def homogeneous_weight(self):
        """The common weight of all terms, None for 0, error if mixed."""
        ws = self.weights()
        if not ws:
            return None
        if len(ws) > 1:
            raise ValueError(f"not homogeneous, weights {sorted(ws)}")
        return ws.pop()

    def divisible_by(self, k: int) -> bool:
        return all(v % k == 0 for v in self._terms.values())

    def __eq__(self, other):
        if isinstance(other, BPoly) and self.trunc != other.trunc:
            return self.terms == other.terms  # the codecs differ, not the polynomials
        return SparseAlgebra.__eq__(self, other)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def to_obj(self):
        # integers; only GenPoly coordinates carry p
        return {"modulus": None, "terms": self._term_list()}


class TruncSeries(SparseAlgebra):
    """Truncated graded power series with BPoly coefficients.

    ``total_cap`` bounds the total auxiliary degree; coefficients are
    keyed by exponent tuples.  Ints and BPolys are its constants and its
    scalars.

    A series is read-only once built.  ``powers`` memoizes g^0, g^1, ...
    in a slot of the series itself, so ``substitute`` builds each power
    once per series; every operation returns a new series with an empty
    memo.
    """

    __slots__ = ("vars", "total_cap", "trunc", "_powers")
    _scalars = (int, BPoly)

    def __init__(self, vars, total_cap, coeffs=None, trunc=DEFAULT_TRUNCATION):
        self.vars = tuple(vars)
        self.total_cap = total_cap
        self.trunc = trunc
        self._powers = None
        clean = {}
        if coeffs:
            for exps, c in coeffs.items():
                exps = tuple(exps)
                if len(exps) != len(self.vars):
                    raise ValueError("exponent vector length mismatch")
                if c and sum(exps) <= total_cap:
                    clean[exps] = c
        self._terms = clean

    def _shell(self, coeffs):
        s = object.__new__(TruncSeries)
        s.vars, s.total_cap = self.vars, self.total_cap
        s.trunc, s._terms, s._powers = self.trunc, coeffs, None
        return s

    @property
    def _shape(self):
        return (self.vars, self.total_cap)

    def _lift(self, c):
        if isinstance(c, int):
            c = BPoly.const(c, self.trunc)
        elif not isinstance(c, BPoly):
            return NotImplemented
        _check_trunc(self, c)
        return {(0,) * len(self.vars): c} if c else {}

    def _mono(self, exps):
        return "*".join(
            f"{v}^{e}" if e > 1 else v for v, e in zip(self.vars, exps) if e
        )

    @classmethod
    def zero(cls, vars, total_cap, trunc=DEFAULT_TRUNCATION):
        return cls(vars, total_cap, {}, trunc)

    @classmethod
    def variable(cls, name, vars, total_cap, trunc=DEFAULT_TRUNCATION):
        idx = tuple(vars).index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(vars)))
        return cls(vars, total_cap, {exps: BPoly.one(trunc)}, trunc)

    def constant(self, c) -> "TruncSeries":
        """A constant series over the same variable space."""
        return self._shell(self._lift(c))

    def coeff(self, exps) -> BPoly:
        return self._terms.get(tuple(exps), BPoly.zero(self.trunc))

    def _mul(self, y):
        total = self.total_cap
        xs = sorted((sum(e), e, c) for e, c in self._terms.items())
        ys = sorted((sum(e), e, c) for e, c in y.items())
        buckets = {}
        for da, ea, ca in xs:
            lim = total - da
            for db, eb, cb in ys:
                if db > lim:
                    break
                exps = tuple(map(add, ea, eb))
                acc = buckets.get(exps)
                if acc is None:
                    acc = buckets[exps] = {}
                _backend.mul_into(acc, ca._terms, cb._terms, self.trunc)
        return {exps: BPoly._raw(terms, self.trunc)
                for exps, terms in buckets.items() if terms}

    # own entries, so that perfbench's tracer times them per class
    __mul__ = SparseAlgebra.__mul__
    __pow__ = SparseAlgebra.__pow__
    inverse = _inverse

    def truncate_total(self, k: int) -> "TruncSeries":
        """Copy with the total-degree cap lowered to ``k``."""
        return TruncSeries(self.vars, min(self.total_cap, k), self._terms, self.trunc)

    def powers(self, top: int) -> list["TruncSeries"]:
        """[g^0, g^1, ..., g^top], stopping before the first zero power.

        Memoized on the series: each power is one product with g, made
        the first time any caller needs it.
        """
        memo = self._powers
        if memo is None:
            memo = self._powers = [self.constant(1)]
        while len(memo) <= top and memo[-1] is not None:
            nxt = memo[-1] * self
            memo.append(None if nxt.is_zero() else nxt)  # None: zero from here on
        return [p for p in memo[:top + 1] if p is not None]

    def substitute(self, values: list["TruncSeries"]) -> "TruncSeries":
        """f(v_1, ..., v_n): the power sum of f_e v_1^(e_1) ... v_n^(e_n).

        The values share one variable space, the result's, and need a zero
        constant term wherever their exponents are unbounded (here the
        total cap bounds them).  Each v_i^(e_i) comes from the ``powers``
        memo of v_i, and each f_e is multiplied into the coefficients of
        its power product through the kernel, one accumulating term dict
        per exponent.  A term stops counting at the first power that the
        truncation kills.
        """
        if len(values) != len(self.vars):
            raise ValueError("need one series per variable")
        model = values[0]
        for v in values:
            model._operand(v)  # one variable space
        _check_trunc(self, model)
        powers = [
            v.powers(max((exps[i] for exps in self._terms), default=0))
            for i, v in enumerate(values)
        ]
        acc = {}
        for exps, f in self._terms.items():
            if any(e >= len(pw) for e, pw in zip(exps, powers)):
                continue  # a zero power of some value kills the term
            factors = [pw[e] for e, pw in zip(exps, powers) if e]
            prod = factors[0] if factors else powers[0][0]
            for factor in factors[1:]:
                prod = prod * factor
            for e, c in prod._terms.items():
                _backend.mul_into(acc.setdefault(e, {}), f._terms, c._terms,
                                  self.trunc)
        return model._shell({
            e: BPoly._raw(terms, self.trunc) for e, terms in acc.items() if terms
        })

    def compose(self, g: "TruncSeries") -> "TruncSeries":
        """f(g) for a one-variable f; g must have zero constant term."""
        if len(self.vars) != 1:
            raise ValueError("compose needs a one-variable outer series")
        if g.coeff((0,) * len(g.vars)):
            raise ValueError("inner series must have zero constant term")
        return self.substitute([g])

    def comp_inverse(self) -> "TruncSeries":
        """Compositional inverse of f = u*t + O(t^2) with u a unit.

        Degree-by-degree undetermined coefficients: if g matches through
        degree k-1, then f(g) = t + e_k t^k + ... and the correction is
        g_k = -e_k / u.
        """
        if len(self.vars) != 1:
            raise ValueError("compositional inverse needs one variable")
        if not self.coeff((0,)).is_zero():
            raise ValueError("series must have zero constant term")
        u_inv = self.coeff((1,)).inverse()
        g = self._shell({(1,): u_inv})
        for k in range(2, self.total_cap + 1):
            fk = self.truncate_total(k)
            e = fk.compose(g.truncate_total(k)).coeff((k,))
            if not e.is_zero():
                g = g + self._shell({(k,): -(u_inv * e)})
        return g
