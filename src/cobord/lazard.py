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
adapted basis, in which the generators g_k in degrees k = p^i - 1 (i < n)
are replaced by classes g'_k of the form v_i + p*a_i; the ideal is then
generated by p together with those generators.  In base coordinates
g'_k = -g_k + D_k with D_k decomposable (the coefficient is
c_(k)(g'_k) / c_(k)(g_k) = -p / p), so the reduction replaces each such
g_k in a class's base coordinates by D-bar_k, D_k mod p with the lower
killed degrees substituted: one base solve serves every quotient.
I_p(n + 1) is I_p(n) plus v_n (Landweber, 1973), so the adapted bases
form a chain: each rank owns the one generator it replaces beyond the
rank below, with its D-bar and the monomial images that contain it, and
reads everything else from that rank.  ``CobordismClass`` lives in
``geometry``, which creates every class; it is imported here, so
``lazard.CobordismClass`` resolves.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, reduce
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


# Miller-Rabin with the first 13 primes as bases is exact below this bound,
# the least strong pseudoprime to all of them (psi_13, OEIS A014233; Sorenson
# & Webster, "Strong pseudoprimes to twelve prime bases", 2015).  The first
# 12 bases alone are fooled from psi_12 = 318665857834031151167461 on.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality for n < ``MR_LIMIT``.

    A composite above the limit that some base witnesses is still
    rejected; a number that passes every base there raises ValueError.
    """
    if n < 2:
        return False
    for a in MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_LIMIT:
        raise ValueError(f"cannot decide whether {n} is prime: primality is "
                         f"exact only below {MR_LIMIT}")
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


@lru_cache(maxsize=None)
def milnor_split(i: int) -> tuple:
    """(top, split) of the degree-i base generator, for any truncation.

    ``top`` is the gcd of the ``milnor_top_chern`` values of degree i, +-1
    or +-p, and ``split`` the extended-gcd combination (m, n, coefficient)
    of Milnor hypersurfaces that realizes it.
    """
    cands = milnor_candidates(i)
    top, coeffs = xgcd_list([milnor_top_chern(m, n) for m, n in cands])
    return top, tuple((m, n, c) for (m, n), c in zip(cands, coeffs) if c)


class GeneratorBasis:
    """Polynomial generators l_1, ..., l_N of the Lazard ring, N = ``trunc``.

    ``GeneratorBasis(trunc)`` is the base basis.  Its degree-i generator
    is the Milnor combination of ``milnor_split(i)``, which realizes the
    minimal c_(i), +-1 or +-p.

    ``GeneratorBasis(trunc, p, r)``, p prime and r >= 1, is adapted to
    I_p(r).  Each degree n = p^i - 1 <= trunc with i < r (``killed``)
    holds v_i - p^n * l_n: both summands are divisible by p, and as the
    xgcd makes c_(n)(l_n) = +p, its c_(n) is p(p^n - 1) - p^n * p = -p, so
    the family still generates and I_p(r) is p plus these members.
    ``geometry.n_series_coeff`` gives v_i = [t^(n+1)] [p](t) at trunc.
    Only degrees <= trunc are replaced, so every rank is accepted.

    The ranks form a chain, because I_p(r + 1) is I_p(r) plus v_r: rank
    r owns only the one degree p^(r-1) - 1 that it kills beyond rank
    r - 1, with its ``residue``, and delegates every other generator and
    residue, and the image of every monomial without that degree, to
    ``adapted_basis(p, r - 1)``; rank 2 delegates to the base basis.  A
    rank whose next killed degree is above the truncation owns nothing
    and delegates straight to the lowest rank with the same killed
    degrees (rank 1 to the base basis), so a chain is at most
    log_p(trunc + 1) + 1 delegations deep at any rank, and each
    generator and monomial image exists once per process.  The reduction
    mod I_p(r) maps each killed g_n in base coordinates to ``residue(n)``
    and never solves here; ``solve`` is generic, for explicit callers.

    A new basis holds no generator.  ``gen(i)`` builds degree i on its
    first call and checks it against the generator criteria and its c_(i)
    against the top of ``milnor_split(i)``, -p for a killed degree, so a
    query pays only for the degrees in its support.
    """

    def __init__(self, trunc: int, p=None, r=None):
        self.trunc, self.p, self.r = trunc, p, r
        if p is None:
            self.killed = frozenset()
            self._own = None
        else:
            self.killed = frozenset(takewhile(lambda n: n <= trunc,
                                              (p ** i - 1 for i in range(1, r))))
            s = len(self.killed)  # rank s + 1 is the lowest with these degrees
            self._own = p ** s - 1 if s and r == s + 1 else None
            below = s if self._own else s + 1  # the rank below, or that lowest one
            self._parent = adapted_basis(p, below, trunc) if below > 1 else base_basis(trunc)
            self._memo_key = (p, self)  # a class caches its reduction here under this one tuple
        self._built = {}
        self._mono_images = {(): BPoly.one(trunc=trunc)} if p is None else {}
        self._residue = None  # the owned degree's g_n mod I_p(r), once asked for

    def __repr__(self):
        return f"GeneratorBasis({self.trunc}, p={self.p}, r={self.r})"

    def gen(self, i: int) -> CobordismClass:
        """The degree-i generator, 1 <= i <= trunc, built and validated once."""
        if self.p is not None and i != self._own:
            return self._parent.gen(i)
        g = self._built.get(i)
        if g is not None:
            return g
        if i < 1:
            raise ValueError(f"generator degree must lie in 1..{self.trunc}, got {i}")
        _check_truncation(i, self.trunc)
        if self.p is None:
            image = BPoly.zero(trunc=self.trunc)
            for m, n, c in milnor_split(i)[1]:
                image = image + evaluate(Milnor(m, n), self.trunc).image.scaled(c)
            g = CobordismClass(image, dim=i)
        else:  # v_s = [t^(i+1)] [p](t) for i = p^s - 1
            v = n_series_coeff(self.p, i + 1, self.trunc)
            g = CobordismClass(v, dim=i) - self.p ** i * self._parent.gen(i)
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
        top = -self.p if i in self.killed else milnor_split(i)[0]
        if c != top:
            raise BasisValidationError(
                f"degree {i}: c_(i) = {c}, but the construction gives {top}"
            )
        if i in self.killed and not g.image.divisible_by(self.p):
            raise BasisValidationError(
                f"adapted generator in degree {i} is not in the mod-{self.p} kernel"
            )

    def residue(self, i: int) -> dict:
        """D-bar_i: the base generator g_i of a killed degree i mod I_p(r).

        The base solve of the adapted generator reads g'_i = -g_i + D_i,
        D_i decomposable; the g_i coordinate is c_(i)(g'_i) / c_(i)(g_i) =
        -p / p, the tops that ``_validate`` pins.  So g_i = D_i - g'_i is
        D_i mod p with its lower killed degrees substituted: a dict from
        killed-free monomials to coefficients mod p, built by the owning
        rank, with its generator, on the first call.
        """
        if i != self._own:
            return self._parent.residue(i)
        if self._residue is None:
            coords = dict(self.gen(i).gen_coords(base_basis(self.trunc)).coeffs)
            del coords[(i,)]  # -g_i
            self._residue = _substituted(coords, self)._terms
        return self._residue

    def describe(self):
        """The basis descriptor of the JSON output; builds nothing."""
        flavor = "base" if self.p is None else "adapted"
        return {"flavor": flavor, "p": self.p, "r": self.r}

    def image_of_monomial(self, beta: Partition) -> BPoly:
        """Z[b] image of the generator monomial indexed by ``beta``."""
        beta = tuple(beta)
        if self.p is not None and self._own not in beta:
            return self._parent.image_of_monomial(beta)
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
        if image.trunc != self.trunc:  # re-key in this basis's codec, dropping nothing
            _check_truncation(max(image.weights(), default=0), self.trunc)
            image = BPoly(image.terms, self.trunc)
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
    the truncation gives the same generators as the largest one that fits,
    and holds none of them: it delegates to that rank, which owns one
    degree and delegates the rest down the chain of ``GeneratorBasis``.
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
        return {
            "modulus": self.modulus,
            "basis": self.basis.describe(),
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
    the I_p(r)-adapted basis, so in adapted coordinates the monomials
    containing a replaced generator vanish and the rest is reduced mod p.
    Those coordinates come from the base ones: a replaced generator is
    g'_n = -g_n + D_n with D_n decomposable (the coefficient is
    c_(n)(g'_n) / c_(n)(g_n) = -p / p), so each killed g_n becomes D-bar_n
    (``GeneratorBasis.residue``), and a class is solved once, in the base
    basis, for every p and r.  The quotient map is a ring map, so a class
    that ``evaluate`` built as a product, union or scaling reduces to the
    same combination of its parts' reductions; every reduction is cached
    on its class.  For r = 0 the quotient is the ring itself: the integer
    base-basis coordinates, unchanged.
    """
    if r == 0:
        return z.gen_coords(base_basis(z.trunc))
    return _reduced(z, adapted_basis(p, r, z.trunc))


def _reduced(z: CobordismClass, basis: GeneratorBasis) -> GenPoly:
    p, key = basis.p, basis._memo_key
    red = z._coords.get(key)
    if red is not None:
        return red
    if z._parts is None:
        red = _substituted(z.gen_coords(base_basis(basis.trunc)).coeffs, basis)
    else:
        kind, operands = z._parts
        if kind == "scale":
            k, inner = operands
            red = _reduced(inner, basis).scaled(k)
        elif not operands:  # the empty product is the unit, the empty union 0
            red = GenPoly({(): 1} if kind == "prod" else {}, p, basis)
        else:
            reds = [_reduced(x, basis) for x in operands]
            red = reduce(operator.mul if kind == "prod" else operator.add, reds)
    z._coords[key] = red
    return red


def _substituted(coords: dict, basis: GeneratorBasis) -> GenPoly:
    """Base coordinates mod p, each killed g_n replaced by ``basis.residue(n)``."""
    p, killed = basis.p, basis.killed
    kept, rest = {}, []
    for beta, c in coords.items():
        c %= p
        if not c:
            continue
        if killed.isdisjoint(beta):
            kept[beta] = c
        else:
            rest.append((beta, c))
    red = GenPoly(kept, p, basis)
    for beta, c in rest:
        term = GenPoly({tuple(i for i in beta if i not in killed): c}, p, basis)
        for n in reversed(beta):  # lowest first: a zero residue ends the term
            if n in killed:
                residue = basis.residue(n)
                if not residue:
                    break
                term = term * GenPoly(residue, p, basis)
        else:
            red = red + term
    return red


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
