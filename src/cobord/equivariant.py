"""Symbolic classes of character-graded vector bundles.

The ring here is polynomial over the cobordism coefficients in variables
a[i, g], one family per nontrivial character g, with a[i, g] of degree
-i.  A split bundle with trivial-action base contributes the product over
its summands of sum_i c_1(L)^i a[i, g]; pushing forward to the point
multiplies Chow monomials by projective-space classes, since h^j on P^n
pushes to the class of P^(n-j).  Characters are abstract index vectors:
nothing here consults roots of unity, only which characters are trivial.
"""

from __future__ import annotations

from functools import lru_cache

from . import _backend, fgl
from .geometry import CheckReport, CobordismClass, Proj, Record, evaluate
from .lazard import in_landweber_ideal, reduce_mod_landweber
from .series import BPoly, DEFAULT_TRUNCATION, SparseAlgebra, TruncSeries

Character = tuple


def char_label(g: Character) -> str:
    return ",".join(str(x) for x in g)


def char_from_label(s: str) -> Character:
    return tuple(int(x) for x in s.split(","))


def is_trivial(g: Character) -> bool:
    return not any(g)


class MPoly(SparseAlgebra):
    """Polynomial in the a[i, g] with coefficients in Z[b] (``BPoly``) or
    in the Chow ring of a bundle's base (``TruncSeries``).

    A monomial is the sorted tuple of its variables (i, g).  ``kind``
    distinguishes the raw a-variables from the pushforward generators
    p[i, g] used for the change of basis; the two kinds never mix in one
    polynomial.  Ints and BPolys scale it; it has no constants.
    """

    __slots__ = ("kind", "trunc")
    _scalars = (int, BPoly)

    def __init__(self, terms=None, kind="a", trunc=DEFAULT_TRUNCATION):
        self._terms = {}
        for key, coeff in (terms or {}).items():
            key = tuple(sorted(tuple(v) for v in key))
            _backend.iadd_terms(self._terms, {key: coeff})
        self.kind = kind
        self.trunc = trunc

    def _shell(self, terms):
        s = object.__new__(MPoly)
        s._terms, s.kind, s.trunc = terms, self.kind, self.trunc
        return s

    @property
    def _shape(self):
        return self.kind

    def _mul_keys(self, a, b):
        return tuple(sorted(a + b))

    def _mono(self, key):
        return "*".join(f"{self.kind}[{i},{char_label(g)}]" for i, g in key)

    @property
    def terms(self) -> dict:
        return self._terms

    @classmethod
    def zero(cls, kind="a", trunc=DEFAULT_TRUNCATION):
        return cls({}, kind, trunc)

    @classmethod
    def unit(cls, kind="a", trunc=DEFAULT_TRUNCATION):
        return cls({(): BPoly.one(trunc=trunc)}, kind, trunc)

    @classmethod
    def variable(cls, i: int, g: Character, kind="a", trunc=DEFAULT_TRUNCATION):
        return cls({((i, tuple(g)),): BPoly.one(trunc=trunc)}, kind, trunc)

    def coeff(self, key) -> BPoly:
        key = tuple(sorted(tuple(v) for v in key))
        return self._terms.get(key, BPoly.zero(trunc=self.trunc))

    def homogeneous_degree(self):
        """Degree when homogeneous: -(sum of a-indices + coefficient weight)."""
        degs = set()
        for key, coeff in self._terms.items():
            base = sum(i for i, _ in key)
            for w in coeff.weights():
                degs.add(-(base + w))
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def to_obj(self):
        out = []
        for key in sorted(self._terms):
            out.append(
                {
                    self.kind: [[i, char_label(g)] for i, g in key],
                    "coeff": self._terms[key].to_obj(),
                }
            )
        return {"kind": self.kind, "terms": out}


class SplitBundleDescriptor(Record):
    """A sum of line bundles L_j tensor (character g_j) over a product of
    projective spaces; every character must be nontrivial."""

    __slots__ = ("base", "summands")

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(self.base))
        object.__setattr__(
            self,
            "summands",
            tuple((tuple(k), tuple(g)) for k, g in self.summands),
        )
        for k, g in self.summands:
            if len(k) != len(self.base):
                raise ValueError("multidegree length must match the base")
            if is_trivial(g):
                raise ValueError("summands must carry nontrivial characters")


def q_class(E: SplitBundleDescriptor, trunc: int = DEFAULT_TRUNCATION) -> MPoly:
    """Multiplicative class of the bundle: an a-polynomial whose
    coefficients lie in the Chow ring of its base.  A summand with first
    Chern class c_1 and character g contributes sum_i c_1^i a[i, g]."""
    caps = E.base
    names = tuple(f"h{i}" for i in range(len(caps)))
    chow_zero = TruncSeries.zero(names, caps, sum(caps), trunc=trunc)
    result = MPoly({(): chow_zero.constant(1)}, "a", trunc)
    for multidegree, g in E.summands:
        c1 = chow_zero
        for name, k in zip(names, multidegree):
            c1 = c1 + TruncSeries.variable(name, names, caps, sum(caps), trunc) * k
        powers = enumerate(c1.powers(sum(caps)))
        result = result * MPoly({((i, g),): c for i, c in powers}, "a", trunc)
    return result


def push_class(E: SplitBundleDescriptor, trunc: int = DEFAULT_TRUNCATION) -> MPoly:
    """Pushforward of the bundle class to the point.

    Pairing a Chow monomial h^e against the base pushes it to the product
    of the classes of P^(n_j - e_j).
    """
    terms = {}
    for key, chow in q_class(E, trunc).terms.items():
        terms[key] = BPoly.zero(trunc=trunc)
        for exps, coeff in chow.coeffs.items():
            for nj, ej in zip(E.base, exps):
                coeff = coeff * evaluate(Proj(nj - ej), trunc).image
            terms[key] = terms[key] + coeff
    return MPoly(terms, "a", trunc)


def push_generator(i: int, g: Character, trunc: int = DEFAULT_TRUNCATION) -> MPoly:
    """p[i, g]: the pushforward of O(1) tensor (character g) over P^i."""
    E = SplitBundleDescriptor((i,), (((1,), tuple(g)),))
    return push_class(E, trunc)


# -- the a <-> p change of basis -----------------------------------------


@lru_cache(maxsize=None)
def a_in_p(i: int, g: Character, trunc: int = DEFAULT_TRUNCATION) -> MPoly:
    """a[i, g] written as a polynomial in the p[j, g] (kind 'p')."""
    g = tuple(g)
    result = MPoly.variable(i, g, "p", trunc)
    for j in range(1, i + 1):
        result = result - a_in_p(i - j, g, trunc) * evaluate(Proj(j), trunc).image
    return result


def p_to_a(poly: MPoly, trunc: int = DEFAULT_TRUNCATION) -> MPoly:
    """Expand a polynomial in the p[i, g] back into the a-variables."""
    if poly.kind != "p":
        raise ValueError("expected a polynomial in the pushforward generators")
    out = MPoly.zero("a", trunc)
    for key, coeff in poly.terms.items():
        term = MPoly.unit("a", trunc) * coeff
        for (i, g) in key:
            term = term * push_generator(i, g, trunc)
        out = out + term
    return out


# -- desk verification of the quotient model ------------------------------


def verify_presentation(
    p: int, cases, trunc: int = DEFAULT_TRUNCATION
) -> CheckReport:
    """Leading-term identities for multiplication by prime powers.

    For each case (a, n) with q = p^a: modulo the n-th Landweber ideal,
    the series [q](t) starts v_n^((q^n-1)/(p^n-1)) t^(q^n), so all lower
    coefficients reduce to zero and the t^(q^n) coefficient reduces to
    the stated power of v_n, which is not zero.  Also checks u_m
    membership below v_n.

    v_n is read off the p-fold formal sum t +_F ... +_F t, not off [p](t)
    itself, so that for q = p the leading term is not compared with itself;
    the sum is taken at v_n's own weight, where the formal sum is small.
    """
    ctx = fgl.context(trunc)
    entries = []
    for (a, n) in cases:
        q = p ** a
        qn = q ** n
        label = f"q={q},n={n}"
        if qn - 1 > trunc:
            entries.append(
                (label, False, f"t^{qn} coefficient has weight beyond {trunc}")
            )
            continue
        series = ctx.n_series(q)
        low_ok = True
        for k in range(1, qn):
            coeff = series.coeff((k,))
            red = reduce_mod_landweber(CobordismClass(coeff), p, n)
            if not red.is_zero():
                low_ok = False
                break
        entries.append((f"{label}: vanishing below t^{qn}", low_ok, ""))
        lead = reduce_mod_landweber(CobordismClass(series.coeff((qn,))), p, n)
        e = (qn - 1) // (p ** n - 1)
        small = fgl.context(p ** n - 1)
        t = total = small.t_var()
        for _ in range(p - 1):
            total = small.apply_sum(total, t)
        v_n = BPoly(total.coeff((p ** n,)).terms, trunc)
        expected = reduce_mod_landweber(CobordismClass(v_n ** e), p, n)
        entries.append(
            (
                f"{label}: t^{qn} coefficient is v_{n}^{e}",
                lead == expected and not lead.is_zero(),
                "",
            )
        )
        mem_ok = all(
            in_landweber_ideal(CobordismClass(u_m), p, n)
            for u_m in ctx.landweber_coeffs(p)[: p ** n - 1]
        )
        entries.append((f"{label}: u_m membership below v_{n}", mem_ok, ""))
    return CheckReport(entries)
