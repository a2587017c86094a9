"""Polynomial generators of the Lazard ring and the Landweber ideals.

The Lazard ring embeds into Z[b] via the map classifying the universal
formal group law; a cobordism class is represented by that image, a
BPoly whose b_alpha coefficient is the Chern number c_alpha.
``GeneratorBasis(trunc, p, r)`` fixes one generator per degree, built
from Milnor hypersurface classes via an extended-gcd combination, or
adapted to a Landweber ideal when p and r are given; ``gen(i)`` builds
degree i on first use.  Expressing classes in generator coordinates is a
lower-triangular exact solve, because c_alpha(l_beta) vanishes unless
alpha refines beta and a strict refinement strictly increases length.
The solve is integer forward substitution by columns: each coordinate is
an exact quotient by a diagonal entry, and only the nonzero entries of
that generator monomial's image are subtracted from the residual.

Ideal membership and reduction for the Landweber ideal I_p(n) use the
adapted basis, in which the generators in degrees p^i - 1 (i < n) are
replaced by classes of the form v_i + p*a_i; the ideal is then generated
by p together with those generators, so membership is visible monomial
by monomial.  ``CobordismClass`` lives in ``geometry``, which creates
every class; it is imported here, so ``lazard.CobordismClass`` resolves.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import takewhile

from .geometry import CobordismClass, Milnor, _check_truncation, evaluate, n_series_coeff
from .partitions import Partition, codec, full_key, make, partitions_of, pi_q, union
from .series import BPoly, DEFAULT_TRUNCATION, SparseAlgebra

NEG_INF = float("-inf")


class NotInLazardImage(ValueError):
    """The input BPoly is not the image of a genuine cobordism class."""


class BasisValidationError(AssertionError):
    """A constructed generator family violates its defining criteria."""


# -- small arithmetic helpers -----------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_power(n: int):
    """Return (p, k) with n = p**k (k >= 1), or None."""
    if n < 2:
        return None
    for p in range(2, n + 1):
        if p * p > n:
            return (n, 1)
        if n % p:
            continue
        k = 0
        m = n
        while m % p == 0:
            m //= p
            k += 1
        return (p, k) if m == 1 else None
    return None


def xgcd_list(values):
    """gcd g > 0 of the values plus coefficients with sum(c*v) = g."""
    if not values:
        raise ValueError("need at least one value")
    g, coeffs = 0, []
    for v in values:
        g, x, y = _xgcd(g, v)
        coeffs = [c * x for c in coeffs]
        coeffs.append(y)
    return g, coeffs


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


# -- generator bases ---------------------------------------------------


def milnor_candidates(i: int):
    """Pairs (m, n), m <= n, m + n - 1 = i, m != 1, defining degree-i classes."""
    out = []
    for m in range(0, (i + 1) // 2 + 1):
        n = i + 1 - m
        if m == 1 or m > n:
            continue
        out.append((m, n))
    return out


def milnor_top_chern(m: int, n: int) -> int:
    """c_(m+n-1) of the Milnor hypersurface H(m, n), for m = 0 or m >= 2.

    H(0, n) is P^(n-1), whose top Chern number is -n in this
    normalisation; for m >= 2 it is the binomial C(m+n, m) (Stong,
    *Notes on Cobordism Theory*).  The tests check both against
    ``geometry.evaluate``.
    """
    return -n if m == 0 else math.comb(m + n, m)


class GeneratorBasis:
    """Polynomial generators l_1, ..., l_N of the Lazard ring, N = ``trunc``.

    ``GeneratorBasis(trunc)`` is the base basis.  The achievable c_(i) in
    degree i are the closed-form top Chern numbers of the Milnor
    hypersurfaces, -(i+1) for m = 0 (a projective space) and C(i+1, m) for
    2 <= m <= n, and ``splits[i]`` lists the extended-gcd combination
    (m, n, coefficient) that realizes the minimal value +-1 or +-p.

    ``GeneratorBasis(trunc, p, r)``, p prime and r >= 1, is adapted to
    I_p(r).  Each degree n = p^i - 1 <= trunc with i < r (``killed``)
    holds v_i - p^n * l_n: both summands are divisible by p, and as the
    xgcd makes c_(n)(l_n) = +p, its c_(n) is p(p^n - 1) - p^n * p = -p, so
    the family still generates and I_p(r) is p plus these members.
    ``geometry.n_series_coeff`` gives v_i = [t^(n+1)] [p](t) at trunc.
    Only degrees <= trunc are replaced, so every rank is accepted.
    Every other degree holds the base basis's own generator object.

    ``tops`` maps each degree to the c_(i) of its generator, known before
    any generator is built.  ``gen(i)`` builds degree i on its first call
    and checks it against ``tops`` and the generator criteria then, so a
    query pays only for the degrees in its support.
    """

    def __init__(self, trunc: int, p=None, r=None):
        self.trunc, self.p, self.r = trunc, p, r
        self.flavor = "base" if p is None else "adapted"
        if p is None:
            self.tops, self.splits = {}, {}
            for i in range(1, trunc + 1):
                cands = milnor_candidates(i)
                values = [milnor_top_chern(m, n) for m, n in cands]
                self.tops[i], coeffs = xgcd_list(values)
                self.splits[i] = [(m, n, c) for (m, n), c in zip(cands, coeffs) if c]
            self.killed = frozenset()
        else:
            self._base = base_basis(trunc)
            self.splits = self._base.splits
            self.killed = frozenset(takewhile(lambda n: n <= trunc,
                                              (p ** i - 1 for i in range(1, r))))
            self.tops = {n: (-p if n in self.killed else c)
                         for n, c in self._base.tops.items()}
        self._built = {}
        self._mono_images = {(): BPoly.one(trunc=trunc)}

    def __repr__(self):
        return f"GeneratorBasis({self.trunc}, p={self.p}, r={self.r})"

    def gen(self, i: int) -> CobordismClass:
        """The degree-i generator, 1 <= i <= trunc, built and validated once."""
        g = self._built.get(i)
        if g is not None:
            return g
        if i < 1:
            raise ValueError(f"generator degree must lie in 1..{self.trunc}, got {i}")
        _check_truncation(i, self.trunc)
        if self.p is None:
            image = BPoly.zero(trunc=self.trunc)
            for m, n, c in self.splits[i]:
                image = image + evaluate(Milnor(m, n), self.trunc).image.scaled(c)
            g = CobordismClass(image, dim=i)
        else:
            g = self._base.gen(i)
            if i in self.killed:  # v_s = [t^(i+1)] [p](t) for i = p^s - 1
                v = n_series_coeff(self.p, i + 1, self.trunc)
                g = CobordismClass(v, dim=i) - self.p ** i * g
        self._validate(i, g)
        self._built[i] = g
        return g

    def _validate(self, i, g):
        c = g.c_alpha((i,))
        pp = prime_power(i + 1)
        expect = pp[0] if pp else 1
        if abs(c) != expect:
            raise BasisValidationError(
                f"degree {i}: |c_(i)| = {abs(c)}, expected {expect}"
            )
        if c != self.tops[i]:
            raise BasisValidationError(
                f"degree {i}: c_(i) = {c}, but the construction gives {self.tops[i]}"
            )
        if i in self.killed and not g.image.divisible_by(self.p):
            raise BasisValidationError(
                f"adapted generator in degree {i} is not in the mod-{self.p} kernel"
            )

    def describe(self):
        """The flavor, p, r and sign(c_(i)) per degree; builds nothing."""
        return {
            "flavor": self.flavor,
            "p": self.p,
            "r": self.r,
            "signs": [1 if c > 0 else -1 for c in self.tops.values()],
        }

    def image_of_monomial(self, beta: Partition) -> BPoly:
        """Z[b] image of the generator monomial indexed by ``beta``."""
        beta = tuple(beta)
        cached = self._mono_images.get(beta)
        if cached is None:
            cached = self.image_of_monomial(beta[1:]) * self.gen(beta[0]).image
            self._mono_images[beta] = cached
        return cached

    def c_entry(self, alpha: Partition, beta: Partition) -> int:
        return self.image_of_monomial(beta).coeff(alpha)

    def solve(self, image: BPoly) -> "GenPoly":
        """Exact generator coordinates of a Z[b] image, weight by weight.

        Column-oriented integer forward substitution: a residual starts
        as the weight-n part of the image, and each partition alpha, in
        ``partitions_of`` order (coarser before finer), takes the
        quotient of its residual entry by the diagonal entry, after which
        that multiple of the monomial image is subtracted.  The system is
        lower triangular, so a subtraction only touches entries still to
        come.  A nonzero remainder means the input is not in the image of
        the Lazard ring.  Residuals and columns are keyed by ``codec``.
        """
        if image.trunc != self.trunc:
            image = BPoly(image.terms, self.trunc)  # keys in this basis's codec
        shift = codec(self.trunc)[2]
        by_weight = {}
        for key, c in image._terms.items():
            by_weight.setdefault(key >> shift, {})[key] = c
        coords = {}
        for n in sorted(by_weight):
            residual = by_weight[n]
            if n == 0:
                coords[()] = residual[0]
                continue
            for alpha, k in _packed_partitions(n, self.trunc):
                c = residual.get(k)
                if not c:
                    continue
                column = self.image_of_monomial(alpha)._terms
                q, rem = divmod(c, column[k])
                if rem:
                    # c / column[k] in lowest terms, the sign on the numerator
                    g = math.gcd(c, column[k]) * (1 if column[k] > 0 else -1)
                    raise NotInLazardImage(
                        f"weight {n}: coordinate at {alpha} is "
                        f"{c // g}/{column[k] // g}, not an integer"
                    )
                coords[alpha] = q
                for key, v in column.items():
                    residual[key] = residual.get(key, 0) - q * v
        return GenPoly(coords, None, self)


@lru_cache(maxsize=None)
def _packed_partitions(n: int, trunc: int) -> tuple:
    """(alpha, packed key) for each partition of n, in ``partitions_of`` order."""
    return tuple((alpha, codec(trunc)[0](alpha)) for alpha in partitions_of(n))


@lru_cache(maxsize=None)
def base_basis(trunc: int = DEFAULT_TRUNCATION) -> GeneratorBasis:
    """The shared ``GeneratorBasis(trunc)``, one per truncation."""
    return GeneratorBasis(trunc)


@lru_cache(maxsize=None)
def adapted_basis(p: int, r: int, trunc: int = DEFAULT_TRUNCATION) -> GeneratorBasis:
    """The shared ``GeneratorBasis(trunc, p, r)`` adapted to I_p(r).

    p must be prime and r >= 1.  A rank whose killed degrees p^i - 1 pass
    the truncation gives the same generators as the largest one that fits.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1:
        raise ValueError("adapted bases need r >= 1")
    return GeneratorBasis(trunc, p, r)


# -- generator-coordinate polynomials ----------------------------------


class GenPoly(SparseAlgebra):
    """Sparse polynomial in the generators: partition monomial -> coefficient.

    Integer coordinates (``modulus`` None) or coordinates reduced mod p,
    over one ``GeneratorBasis``; operands must share both.  The product
    is the partition union, truncated at the basis's weight.
    """

    __slots__ = ("modulus", "basis")

    def __init__(self, coeffs, modulus, basis):
        clean = {}
        for beta, c in coeffs.items():
            if modulus is not None:
                c %= modulus
            if c:
                clean[tuple(beta)] = c
        self._terms = clean
        self.modulus = modulus
        self.basis = basis

    def _shell(self, coeffs):
        return GenPoly(coeffs, self.modulus, self.basis)  # reduces mod p

    @property
    def _shape(self):
        return (self.modulus, self.basis)

    def _mul_keys(self, a, b):
        if sum(a) + sum(b) <= self.basis.trunc:
            return union(a, b)
        return None

    def _mono(self, beta):
        return "*".join(f"g{i}" for i in beta)

    @property
    def trunc(self) -> int:
        return self.basis.trunc

    @property
    def coeffs(self) -> dict:
        return self._terms

    def support(self):
        return sorted(self._terms, key=full_key)

    def coeff(self, beta) -> int:
        return self._terms.get(tuple(sorted(beta, reverse=True)), 0)

    def q_degree(self, q: int):
        """Max of pi_q over the support; -inf for the zero polynomial."""
        if not self._terms:
            return NEG_INF
        return max(pi_q(beta, q) for beta in self._terms)

    def to_obj(self):
        b = self.basis
        return {
            "modulus": self.modulus,
            "basis": {"flavor": b.flavor, "p": b.p, "r": b.r},
            "terms": [
                {"partition": list(k), "coeff": str(self._terms[k])}
                for k in self.support()
            ],
        }


# -- decomposability ----------------------------------------------------


def is_indecomposable_mod_p(z: CobordismClass, p: int) -> bool:
    """Indecomposability of the image in the mod-p Lazard ring.

    The numeric criterion on c_(n): not divisible by p when n+1 is not a
    power of p, and not divisible by p^2 when n+1 is a power of p.
    """
    n = z.image.homogeneous_weight()
    if n is None:
        return False
    if n == 0:
        raise ValueError("decomposability concerns positive-weight classes")
    c = z.c_alpha((n,))
    pp = prime_power(n + 1)
    if pp and pp[0] == p:
        return c % p == 0 and c % (p * p) != 0
    return c % p != 0


# -- Landweber ideals ----------------------------------------------------


def in_landweber_ideal(z: CobordismClass, p: int, n: int) -> bool:
    """Membership of z in I_p(n) for n >= 0.

    I_p(0) = 0; for n >= 1 a class belongs iff its reduction modulo
    I_p(n) vanishes.
    """
    if n == 0:
        return z.is_zero()
    return reduce_mod_landweber(z, p, n).is_zero()


def reduce_mod_landweber(z: CobordismClass, p: int, r: int) -> GenPoly:
    """The class of z in the quotient by I_p(r), in adapted coordinates.

    For r >= 1 the ideal is generated by p and the replaced generators of
    the I_p(r)-adapted basis, so monomials containing a replaced generator
    are deleted and the rest is reduced mod p.  For r = 0 the quotient is
    the ring itself and the integer base-basis coordinates are returned
    unchanged.
    """
    if r == 0:
        return z.gen_coords(base_basis(z.trunc))
    basis = adapted_basis(p, r, z.trunc)
    coeffs = {
        beta: c
        for beta, c in z.gen_coords(basis).coeffs.items()
        if basis.killed.isdisjoint(beta)
    }
    return GenPoly(coeffs, p, basis)


def c_alpha_image_gcd(alpha, basis: GeneratorBasis) -> int:
    """gcd of c_alpha over the full weight-|alpha| piece of the Lazard ring.

    The generator monomials of that weight span the piece, so the gcd of
    their c_alpha values generates the image subgroup; 0 if all vanish.
    """
    alpha = make(alpha)
    g = 0
    for beta in partitions_of(sum(alpha)):
        g = math.gcd(g, basis.c_entry(alpha, beta))
    return g
