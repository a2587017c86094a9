"""Exact sparse arithmetic in Z[b] / F_p[b] and truncated graded power series.

``BPoly`` is a sparse polynomial in generators b_1, b_2, ... with deg(b_i)
= -i, keyed by partitions: the monomial b_alpha = b_{a_1}...b_{a_n} is the
key ``(a_1, ..., a_n)``.  Everything is truncated at a maximum partition
weight N, which makes all positive-weight elements nilpotent and keeps
every computation exact and finite.

``TruncSeries`` is a truncated power series in up to three auxiliary
degree-1 variables with BPoly coefficients.  It doubles as the truncated
Chow ring of (products of) projective spaces, where the variables are
hyperplane classes with per-variable caps h_j^(n_j+1) = 0.
"""

from __future__ import annotations

from . import _backend
from .partitions import full_key

DEFAULT_TRUNCATION = 12


def aux_cap(trunc: int) -> int:
    # A degree-1 graded series has its t^k coefficient of weight k-1, so
    # exponents beyond trunc+2 can never carry a nonzero coefficient.
    return trunc + 2


class CoefficientError(ValueError):
    """Incompatible modulus or truncation between operands."""


class BPoly:
    """Sparse graded polynomial with exact (or mod-p) integer coefficients."""

    __slots__ = ("terms", "modulus", "trunc")

    def __init__(self, terms=None, modulus=None, trunc=DEFAULT_TRUNCATION):
        clean = {}
        if terms:
            for key, coeff in terms.items():
                if modulus is not None:
                    coeff %= modulus
                if not coeff or sum(key) > trunc:
                    continue
                clean[tuple(sorted(key, reverse=True))] = coeff
        self.terms = clean
        self.modulus = modulus
        self.trunc = trunc

    @classmethod
    def _raw(cls, terms, modulus, trunc):
        # Trusted constructor: terms already normalized by a kernel call.
        self = object.__new__(cls)
        self.terms = terms
        self.modulus = modulus
        self.trunc = trunc
        return self

    @classmethod
    def zero(cls, modulus=None, trunc=DEFAULT_TRUNCATION):
        return cls._raw({}, modulus, trunc)

    @classmethod
    def const(cls, c, modulus=None, trunc=DEFAULT_TRUNCATION):
        return cls({(): c}, modulus, trunc)

    @classmethod
    def one(cls, modulus=None, trunc=DEFAULT_TRUNCATION):
        return cls.const(1, modulus, trunc)

    @classmethod
    def gen(cls, i, modulus=None, trunc=DEFAULT_TRUNCATION):
        """The generator b_i (b_0 is the unit)."""
        if i == 0:
            return cls.one(modulus, trunc)
        return cls({(i,): 1}, modulus, trunc)

    @classmethod
    def monomial(cls, alpha, coeff=1, modulus=None, trunc=DEFAULT_TRUNCATION):
        return cls({tuple(alpha): coeff}, modulus, trunc)

    def _check_compat(self, other):
        if self.modulus != other.modulus:
            raise CoefficientError(
                f"modulus mismatch: {self.modulus} vs {other.modulus}"
            )
        if self.trunc != other.trunc:
            raise CoefficientError(
                f"truncation mismatch: {self.trunc} vs {other.trunc}"
            )

    def coeff(self, alpha) -> int:
        return self.terms.get(tuple(sorted(alpha, reverse=True)), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def weights(self) -> set[int]:
        return {sum(k) for k in self.terms}

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
            other = BPoly.const(other, self.modulus, self.trunc)
        self._check_compat(other)
        out = dict(self.terms)
        _backend.iadd_terms(out, other.terms, self.modulus)
        return BPoly._raw(out, self.modulus, self.trunc)

    __radd__ = __add__

    def __neg__(self):
        if self.modulus is not None:
            return BPoly(
                {k: -v for k, v in self.terms.items()}, self.modulus, self.trunc
            )
        return BPoly._raw(
            {k: -v for k, v in self.terms.items()}, self.modulus, self.trunc
        )

    def __sub__(self, other):
        if isinstance(other, int):
            other = BPoly.const(other, self.modulus, self.trunc)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        if not isinstance(other, BPoly):
            return NotImplemented
        self._check_compat(other)
        out = _backend.mul_terms(self.terms, other.terms, self.trunc, self.modulus)
        return BPoly._raw(out, self.modulus, self.trunc)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, c: int) -> "BPoly":
        if c == 0:
            return BPoly.zero(self.modulus, self.trunc)
        if self.modulus is not None:
            return BPoly(
                {k: v * c for k, v in self.terms.items()}, self.modulus, self.trunc
            )
        return BPoly._raw(
            {k: v * c for k, v in self.terms.items()}, self.modulus, self.trunc
        )

    def __pow__(self, n: int) -> "BPoly":
        if n < 0:
            return self.inverse() ** (-n)
        result = BPoly.one(self.modulus, self.trunc)
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

        Requires the constant coefficient to be a unit (+-1, or prime to p
        mod p); the positive-weight part is nilpotent under truncation.
        """
        c0 = self.coeff(())
        if self.modulus is None:
            if c0 not in (1, -1):
                raise ZeroDivisionError(f"constant coefficient {c0} is not a unit")
            c0_inv = c0
        else:
            c0_inv = pow(c0, -1, self.modulus)
        tail = self - BPoly.const(c0, self.modulus, self.trunc)
        result = BPoly.const(c0_inv, self.modulus, self.trunc)
        term = result
        for _ in range(self.trunc):
            term = term * tail
            term = term.scaled(-c0_inv)
            if term.is_zero():
                break
            result = result + term
        return result

    def reduce_mod(self, p: int) -> "BPoly":
        if self.modulus is not None:
            if self.modulus != p:
                raise CoefficientError("already reduced mod a different prime")
            return self
        return BPoly(self.terms, p, self.trunc)

    def divisible_by(self, k: int) -> bool:
        return all(v % k == 0 for v in self.terms.values())

    def __eq__(self, other):
        if isinstance(other, int):
            other = BPoly.const(other, self.modulus, self.trunc)
        if not isinstance(other, BPoly):
            return NotImplemented
        return self.modulus == other.modulus and self.terms == other.terms

    def __hash__(self):
        return hash((self.modulus, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: full_key(kv[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key, val in self.sorted_terms()[:8]:
            mono = "*".join(f"b{i}" for i in key) if key else "1"
            bits.append(f"{val}*{mono}")
        tail = " + ..." if len(self.terms) > 8 else ""
        return " + ".join(bits) + tail

    def to_obj(self):
        return {
            "modulus": self.modulus,
            "terms": [
                {"partition": list(k), "coeff": str(v)}
                for k, v in self.sorted_terms()
            ],
        }

    @classmethod
    def from_obj(cls, obj, trunc=DEFAULT_TRUNCATION):
        terms = {
            tuple(t["partition"]): int(t["coeff"]) for t in obj.get("terms", [])
        }
        return cls(terms, obj.get("modulus"), trunc)


class TruncSeries:
    """Truncated graded power series with BPoly coefficients.

    ``caps`` bounds each variable's exponent, ``total_cap`` the total
    auxiliary degree; coefficients are keyed by exponent tuples.
    """

    __slots__ = ("vars", "caps", "total_cap", "coeffs", "modulus", "trunc")

    def __init__(self, vars, caps, total_cap, coeffs=None, modulus=None,
                 trunc=DEFAULT_TRUNCATION):
        self.vars = tuple(vars)
        self.caps = tuple(caps)
        self.total_cap = total_cap
        self.modulus = modulus
        self.trunc = trunc
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
        s.modulus = self.modulus
        s.trunc = self.trunc
        return s

    @classmethod
    def zero(cls, vars, caps, total_cap, modulus=None, trunc=DEFAULT_TRUNCATION):
        return cls(vars, caps, total_cap, {}, modulus, trunc)

    @classmethod
    def variable(cls, name, vars, caps, total_cap, modulus=None,
                 trunc=DEFAULT_TRUNCATION):
        idx = tuple(vars).index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(vars)))
        one = BPoly.one(modulus, trunc)
        return cls(vars, caps, total_cap, {exps: one}, modulus, trunc)

    def constant(self, c) -> "TruncSeries":
        """A constant series over the same variable space."""
        if isinstance(c, int):
            c = BPoly.const(c, self.modulus, self.trunc)
        zero_exp = (0,) * len(self.vars)
        coeffs = {} if c.is_zero() else {zero_exp: c}
        return self._shell(coeffs)

    def coeff(self, exps) -> BPoly:
        return self.coeffs.get(tuple(exps), BPoly.zero(self.modulus, self.trunc))

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_compat(self, other):
        if (
            self.vars != other.vars
            or self.caps != other.caps
            or self.total_cap != other.total_cap
            or self.modulus != other.modulus
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
            other = BPoly.const(other, self.modulus, self.trunc)
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
                _backend.mul_into(acc, ca.terms, cb.terms, self.trunc, self.modulus)
        out = {}
        for exps, terms in buckets.items():
            if terms:
                out[exps] = BPoly._raw(terms, self.modulus, self.trunc)
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
            modulus=self.modulus,
            trunc=self.trunc,
        )
        for exps, c in self.coeffs.items():
            if sum(exps) <= k:
                s.coeffs[exps] = c
        return s

    def substitute(self, values: list["TruncSeries"]) -> "TruncSeries":
        """Evaluate at the given series, one per variable.

        All substituted series must live in a common variable space and
        have zero constant term whenever the exponent can be arbitrarily
        large (guaranteed here by the total cap).
        """
        if len(values) != len(self.vars):
            raise ValueError("need one series per variable")
        model = values[0]
        powers = [
            {0: model.constant(1)} for _ in values
        ]

        def power(i, e):
            cache = powers[i]
            if e not in cache:
                cache[e] = power(i, e - 1) * values[i]
            return cache[e]

        total = model.constant(0)
        for exps, c in sorted(self.coeffs.items(), key=lambda kv: sum(kv[0])):
            term = model.constant(c)
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            total = total + term
        return total

    def compose(self, g: "TruncSeries") -> "TruncSeries":
        """f(g) for a one-variable f; g must have zero constant term."""
        if len(self.vars) != 1:
            raise ValueError("compose needs a one-variable outer series")
        zero_exp = (0,) * len(g.vars)
        if not g.coeff(zero_exp).is_zero():
            raise ValueError("inner series must have zero constant term")
        # Horner from the top degree down: one series product per degree.
        result = g.constant(0)
        for k in range(self.total_cap, -1, -1):
            result = result * g
            ck = self.coeff((k,))
            if not ck.is_zero():
                result = result + ck
        return result

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
        return (
            self.vars == other.vars
            and self.modulus == other.modulus
            and self.coeffs == other.coeffs
        )

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
