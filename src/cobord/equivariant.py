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
from operator import le

from . import _backend
from .checks import verify_presentation  # perfbench/tracer.py times the suite by this name
from .geometry import Proj, Record, evaluate
from .series import BPoly, DEFAULT_TRUNCATION, SparseAlgebra, TruncSeries

Character = tuple


def char_label(g: Character) -> str:
    return ",".join(str(x) for x in g)


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

    def _mul(self, y):
        # Monomial keys form a cancellative monoid, so the products of one
        # left monomial have distinct keys and merge as one dict.
        out = {}
        for ka, va in self._terms.items():
            _backend.iadd_terms(out, {tuple(sorted(ka + kb)): va * vb for kb, vb in y.items()})
        return out

    def _mono(self, key):
        return "*".join(f"{self.kind}[{i},{char_label(g)}]" for i, g in key)

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
    Chern class c_1 and character g contributes sum_i c_1^i a[i, g].  It is
    computed at the total cap sum(n_j); the h_j^(n_j+1) span a monomial
    ideal, so they are set to zero once, on the result."""
    dim = sum(E.base)
    names = tuple(f"h{i}" for i in range(len(E.base)))
    chow_zero = TruncSeries.zero(names, dim, trunc=trunc)
    result = MPoly({(): chow_zero.constant(1)}, "a", trunc)
    for multidegree, g in E.summands:
        c1 = chow_zero
        for name, k in zip(names, multidegree):
            c1 = c1 + TruncSeries.variable(name, names, dim, trunc) * k
        powers = enumerate(c1.powers(dim))
        result = result * MPoly({((i, g),): c for i, c in powers}, "a", trunc)
    return MPoly({key: chow._shell({e: c for e, c in chow.terms.items()
                                    if all(map(le, e, E.base))})
                  for key, chow in result.terms.items()}, "a", trunc)


def push_class(E: SplitBundleDescriptor, trunc: int = DEFAULT_TRUNCATION) -> MPoly:
    """Pushforward of the bundle class to the point.

    Pairing a Chow monomial h^e against the base pushes it to the product
    of the classes of P^(n_j - e_j).
    """
    terms = {}
    for key, chow in q_class(E, trunc).terms.items():
        terms[key] = BPoly.zero(trunc=trunc)
        for exps, coeff in chow.terms.items():
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
