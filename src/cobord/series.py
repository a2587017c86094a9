"""Exact sparse arithmetic in Z[b] and truncated graded power series.

``BPoly`` is a sparse polynomial in generators b_1, b_2, ... with deg(b_i)
= -i.  The monomial b_alpha = b_{a_1}...b_{a_n} is the partition
``(a_1, ..., a_n)`` at the API and its packed int ``partitions.codec(N)``
inside, so a monomial product is one addition.  Everything is truncated at
a maximum partition weight N, which makes all positive-weight elements
nilpotent and keeps every computation exact and finite.  Coefficients are
always integers: reduction modulo p happens only in the generator
coordinates of ``lazard.GenPoly``, after a class has been solved over Z.

``TruncSeries`` is a truncated power series in up to three auxiliary
degree-1 variables with BPoly coefficients.  It doubles as the truncated
Chow ring of (products of) projective spaces, where the variables are
hyperplane classes with per-variable caps h_j^(n_j+1) = 0.
"""

from __future__ import annotations

from . import _backend
from .partitions import codec, full_key

DEFAULT_TRUNCATION = 12


def aux_cap(trunc: int) -> int:
    # A degree-1 graded series has its t^k coefficient of weight k-1, so
    # exponents beyond trunc+2 can never carry a nonzero coefficient.
    return trunc + 2


class CoefficientError(ValueError):
    """Incompatible truncation between operands."""


class BPoly:
    """Sparse graded polynomial with exact integer coefficients.

    ``_terms`` is keyed by ``codec(trunc)``; ``terms`` is a partition-keyed copy.
    """

    __slots__ = ("_terms", "trunc")

    def __init__(self, terms=None, trunc=DEFAULT_TRUNCATION):
        pack = codec(trunc)[0]
        clean = {}
        if terms:
            for key, coeff in terms.items():
                if coeff and sum(key) <= trunc:
                    clean[pack(key)] = coeff
        self._terms = clean
        self.trunc = trunc

    @classmethod
    def _raw(cls, terms, trunc):
        # Trusted constructor: a packed term dict, e.g. from a kernel call.
        self = object.__new__(cls)
        self._terms = terms
        self.trunc = trunc
        return self

    @property
    def terms(self) -> dict:
        unpack = codec(self.trunc)[1]
        return {unpack(k): v for k, v in self._terms.items()}

    @classmethod
    def zero(cls, trunc=DEFAULT_TRUNCATION):
        return cls._raw({}, trunc)

    @classmethod
    def const(cls, c, trunc=DEFAULT_TRUNCATION):
        return cls({(): c}, trunc)

    @classmethod
    def one(cls, trunc=DEFAULT_TRUNCATION):
        return cls.const(1, trunc)

    @classmethod
    def gen(cls, i, trunc=DEFAULT_TRUNCATION):
        """The generator b_i (b_0 is the unit)."""
        if i == 0:
            return cls.one(trunc)
        return cls({(i,): 1}, trunc)

    @classmethod
    def monomial(cls, alpha, coeff=1, trunc=DEFAULT_TRUNCATION):
        return cls({tuple(alpha): coeff}, trunc)

    def _check_compat(self, other):
        if self.trunc != other.trunc:
            raise CoefficientError(
                f"truncation mismatch: {self.trunc} vs {other.trunc}"
            )

    def coeff(self, alpha) -> int:
        if sum(alpha) > self.trunc:
            return 0
        return self._terms.get(codec(self.trunc)[0](alpha), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def weights(self) -> set[int]:
        shift = codec(self.trunc)[2]
        return {k >> shift for k in self._terms}

    def homogeneous_weight(self):
        """The common weight of all terms, None for 0, error if mixed."""
        ws = self.weights()
        if not ws:
            return None
        if len(ws) > 1:
            raise ValueError(f"not homogeneous, weights {sorted(ws)}")
        return ws.pop()

    def __add__(self, other):
        if isinstance(other, int):
            other = BPoly.const(other, self.trunc)
        self._check_compat(other)
        out = dict(self._terms)
        _backend.iadd_terms(out, other._terms)
        return BPoly._raw(out, self.trunc)

    __radd__ = __add__

    def __neg__(self):
        return BPoly._raw({k: -v for k, v in self._terms.items()}, self.trunc)

    def __sub__(self, other):
        if isinstance(other, int):
            other = BPoly.const(other, self.trunc)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        if not isinstance(other, BPoly):
            return NotImplemented
        self._check_compat(other)
        out = _backend.mul_terms(self._terms, other._terms, self.trunc)
        return BPoly._raw(out, self.trunc)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, c: int) -> "BPoly":
        if c == 0:
            return BPoly.zero(self.trunc)
        return BPoly._raw({k: v * c for k, v in self._terms.items()}, self.trunc)

    def __pow__(self, n: int) -> "BPoly":
        if n < 0:
            return self.inverse() ** (-n)
        result = BPoly.one(self.trunc)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def inverse(self) -> "BPoly":
        """Multiplicative inverse in the weight-truncated ring.

        Requires the constant coefficient to be a unit, +-1; the
        positive-weight part is nilpotent under truncation.
        """
        c0 = self.coeff(())
        if c0 not in (1, -1):
            raise ZeroDivisionError(f"constant coefficient {c0} is not a unit")
        tail = self - BPoly.const(c0, self.trunc)
        result = BPoly.const(c0, self.trunc)
        term = result
        for _ in range(self.trunc):
            term = term * tail
            term = term.scaled(-c0)
            if term.is_zero():
                break
            result = result + term
        return result

    def divisible_by(self, k: int) -> bool:
        return all(v % k == 0 for v in self._terms.values())

    def __eq__(self, other):
        if isinstance(other, int):
            other = BPoly.const(other, self.trunc)
        if not isinstance(other, BPoly):
            return NotImplemented
        if self.trunc == other.trunc:
            return self._terms == other._terms
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: full_key(kv[0]))

    def __repr__(self):
        if not self._terms:
            return "0"
        bits = []
        for key, val in self.sorted_terms()[:8]:
            mono = "*".join(f"b{i}" for i in key) if key else "1"
            bits.append(f"{val}*{mono}")
        tail = " + ..." if len(self._terms) > 8 else ""
        return " + ".join(bits) + tail

    def to_obj(self):
        return {
            "modulus": None,  # integers; only GenPoly coordinates carry p
            "terms": [
                {"partition": list(k), "coeff": str(v)}
                for k, v in self.sorted_terms()
            ],
        }

    @classmethod
    def from_obj(cls, obj, trunc=DEFAULT_TRUNCATION):
        if obj.get("modulus") is not None:
            raise ValueError(f"BPoly is integral, got modulus {obj['modulus']}")
        terms = {
            tuple(t["partition"]): int(t["coeff"]) for t in obj.get("terms", [])
        }
        return cls(terms, trunc)


class TruncSeries:
    """Truncated graded power series with BPoly coefficients.

    ``caps`` bounds each variable's exponent, ``total_cap`` the total
    auxiliary degree; coefficients are keyed by exponent tuples.

    A series is read-only once built.  ``powers`` memoizes g^0, g^1, ...
    in a slot of the series itself, so ``compose`` and ``substitute``
    build each power once per series; every operation returns a new
    series with an empty memo.
    """

    __slots__ = ("vars", "caps", "total_cap", "coeffs", "trunc", "_powers")

    def __init__(self, vars, caps, total_cap, coeffs=None,
                 trunc=DEFAULT_TRUNCATION):
        self.vars = tuple(vars)
        self.caps = tuple(caps)
        self.total_cap = total_cap
        self.trunc = trunc
        self._powers = None
        clean = {}
        if coeffs:
            for exps, c in coeffs.items():
                exps = tuple(exps)
                if len(exps) != len(self.vars):
                    raise ValueError("exponent vector length mismatch")
                if sum(exps) > total_cap or any(
                    e > cap for e, cap in zip(exps, self.caps)
                ):
                    continue
                if not c.is_zero():
                    clean[exps] = c
        self.coeffs = clean

    def _shell(self, coeffs):
        s = object.__new__(TruncSeries)
        s.vars = self.vars
        s.caps = self.caps
        s.total_cap = self.total_cap
        s.coeffs = coeffs
        s.trunc = self.trunc
        s._powers = None
        return s

    @classmethod
    def zero(cls, vars, caps, total_cap, trunc=DEFAULT_TRUNCATION):
        return cls(vars, caps, total_cap, {}, trunc)

    @classmethod
    def variable(cls, name, vars, caps, total_cap, trunc=DEFAULT_TRUNCATION):
        idx = tuple(vars).index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(vars)))
        return cls(vars, caps, total_cap, {exps: BPoly.one(trunc)}, trunc)

    def constant(self, c) -> "TruncSeries":
        """A constant series over the same variable space."""
        if isinstance(c, int):
            c = BPoly.const(c, self.trunc)
        zero_exp = (0,) * len(self.vars)
        coeffs = {} if c.is_zero() else {zero_exp: c}
        return self._shell(coeffs)

    def coeff(self, exps) -> BPoly:
        return self.coeffs.get(tuple(exps), BPoly.zero(self.trunc))

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_compat(self, other):
        if (
            self.vars != other.vars
            or self.caps != other.caps
            or self.total_cap != other.total_cap
            or self.trunc != other.trunc
        ):
            raise CoefficientError("series shapes do not match")

    def __add__(self, other):
        if isinstance(other, (int, BPoly)):
            other = self.constant(other)
        self._check_compat(other)
        out = dict(self.coeffs)
        for exps, c in other.coeffs.items():
            acc = out.get(exps)
            acc = c if acc is None else acc + c
            if acc.is_zero():
                out.pop(exps, None)
            else:
                out[exps] = acc
        return self._shell(out)

    __radd__ = __add__

    def __neg__(self):
        return self._shell({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, BPoly)):
            other = self.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return self._shell({})
            return self._shell({e: c.scaled(other) for e, c in self.coeffs.items()})
        if isinstance(other, BPoly):
            out = {}
            for exps, c in self.coeffs.items():
                prod = c * other
                if not prod.is_zero():
                    out[exps] = prod
            return self._shell(out)
        self._check_compat(other)
        caps, total = self.caps, self.total_cap
        xs = sorted((sum(e), e, c) for e, c in self.coeffs.items())
        ys = sorted((sum(e), e, c) for e, c in other.coeffs.items())
        buckets = {}
        for da, ea, ca in xs:
            lim = total - da
            for db, eb, cb in ys:
                if db > lim:
                    break
                exps = tuple(x + y for x, y in zip(ea, eb))
                if any(e > cap for e, cap in zip(exps, caps)):
                    continue
                acc = buckets.get(exps)
                if acc is None:
                    acc = buckets[exps] = {}
                _backend.mul_into(acc, ca._terms, cb._terms, self.trunc)
        out = {}
        for exps, terms in buckets.items():
            if terms:
                out[exps] = BPoly._raw(terms, self.trunc)
        return self._shell(out)

    def __rmul__(self, other):
        if isinstance(other, (int, BPoly)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "TruncSeries":
        if n < 0:
            return self.inverse() ** (-n)
        result = self.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            half = n >> 1
            if half:
                base = base * base
            n = half
        return result

    def inverse(self) -> "TruncSeries":
        """Inverse of a series whose constant coefficient is a unit."""
        zero_exp = (0,) * len(self.vars)
        c0 = self.coeff(zero_exp)
        c0_inv = c0.inverse()
        tail = self - c0
        result = self.constant(c0_inv)
        term = result
        for _ in range(self.total_cap):
            term = (term * tail) * (-c0_inv)
            if term.is_zero():
                break
            result = result + term
        return result

    def truncate_total(self, k: int) -> "TruncSeries":
        """Copy with the total-degree cap lowered to ``k``."""
        s = TruncSeries(
            self.vars,
            tuple(min(c, k) for c in self.caps),
            min(self.total_cap, k),
            trunc=self.trunc,
        )
        for exps, c in self.coeffs.items():
            if sum(exps) <= k:
                s.coeffs[exps] = c
        return s

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
        """Evaluate at the given series, one per variable.

        All substituted series must live in a common variable space and
        have zero constant term whenever the exponent can be arbitrarily
        large (guaranteed here by the total cap).  Each value's powers
        come from its ``powers`` memo.
        """
        if len(values) != len(self.vars):
            raise ValueError("need one series per variable")
        model = values[0]
        powers = [
            v.powers(max((exps[i] for exps in self.coeffs), default=0))
            for i, v in enumerate(values)
        ]
        total = model.constant(0)
        for exps, c in sorted(self.coeffs.items(), key=lambda kv: sum(kv[0])):
            if any(e >= len(pw) for e, pw in zip(exps, powers)):
                continue  # a zero power of some value kills the term
            term = model.constant(c)
            for e, pw in zip(exps, powers):
                if e:
                    term = term * pw[e]
            total = total + term
        return total

    def compose(self, g: "TruncSeries") -> "TruncSeries":
        """f(g) for a one-variable f; g must have zero constant term.

        The power sum sum_k f_k g^k: the powers of g come from its
        ``powers`` memo, and each f_k is multiplied into the coefficients
        of g^k through the kernel, one accumulating term dict per
        exponent.  The sum stops at the last nonzero f_k, or at the first
        power of g that the truncation kills.
        """
        if len(self.vars) != 1:
            raise ValueError("compose needs a one-variable outer series")
        zero_exp = (0,) * len(g.vars)
        if not g.coeff(zero_exp).is_zero():
            raise ValueError("inner series must have zero constant term")
        if self.trunc != g.trunc:
            raise CoefficientError(
                f"truncation mismatch: {self.trunc} vs {g.trunc}"
            )
        acc = {}
        top = max((k for (k,) in self.coeffs), default=-1)
        for k, power in enumerate(g.powers(top)):
            fk = self.coeffs.get((k,))
            if fk is not None:
                for exps, c in power.coeffs.items():
                    _backend.mul_into(acc.setdefault(exps, {}), fk._terms, c._terms,
                                      self.trunc)
        return g._shell({
            exps: BPoly._raw(terms, self.trunc)
            for exps, terms in acc.items() if terms
        })

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
        u = self.coeff((1,))
        u_inv = u.inverse()
        g = self._shell({(1,): u_inv})
        for k in range(2, self.total_cap + 1):
            fk = self.truncate_total(k)
            h = fk.compose(g.truncate_total(k))
            e = h.coeff((k,))
            if e.is_zero():
                continue
            corr = -(u_inv * e)
            g = g + self._shell({(k,): corr})
        return g

    def graded_degree(self):
        """If each t^k coefficient is homogeneous of weight k-d, return d.

        Returns None for the zero series; raises if the series is not
        graded-homogeneous.
        """
        degree = None
        for exps, c in self.coeffs.items():
            w = c.homogeneous_weight()
            d = sum(exps) - w
            if degree is None:
                degree = d
            elif degree != d:
                raise ValueError("series is not graded-homogeneous")
        return degree

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.vars == other.vars and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for exps, c in sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))[:6]:
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, exps)
                if e
            )
            bits.append(f"({c})*{mono}" if mono else f"({c})")
        tail = " + ..." if len(self.coeffs) > 6 else ""
        return " + ".join(bits) + tail
