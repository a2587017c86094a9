"""Polynomial generators of the Lazard ring and the Landweber ideals.

The Lazard ring embeds into Z[b] via the map classifying the universal
formal group law; a cobordism class is represented by that image, a
BPoly whose b_alpha coefficient is the Chern number c_alpha.
``GeneratorBasis(trunc)`` fixes one generator per degree, built from
Milnor hypersurface classes via an extended-gcd combination; ``gen(i)``
builds degree i on first use.  Expressing classes in generator
coordinates is a lower-triangular exact solve, because c_alpha(l_beta)
vanishes unless alpha refines beta and a strict refinement strictly
increases length.
The solve is integer forward substitution by columns on a residual list
indexed by partition: each coordinate is an exact quotient by a diagonal
entry, and only the nonzero entries of that generator monomial's image
are subtracted from the residual.  ``GenPoly`` coordinates share
BPoly's packed keys, one monomial representation from solve to bound.

Ideal membership and reduction for the Landweber ideal I_p(n) use the
``LandweberQuotient``, whose generators g'_k in degrees k = p^i - 1 (i < n)
replace the base g_k by classes of the form v_i + p*a_i; the ideal is then
generated by p together with those generators.  In base coordinates
g'_k = -g_k + D_k with D_k decomposable (the coefficient is
c_(k)(g'_k) / c_(k)(g_k) = -p / p), so the reduction replaces each such
g_k in a class's base coordinates by D-bar_k, D_k mod p with the lower
killed degrees substituted: one base solve serves every quotient.  A
quotient holds only its killed generators and their D-bar, and reads
every other generator from the base basis.  Both give the ``unit`` and
a partless class's ``leaf_coords``, which ``CobordismClass`` folds.
``CobordismClass`` lives in ``geometry``; it is imported here, so
``lazard.CobordismClass`` resolves.
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from itertools import takewhile

from . import _backend
from .geometry import (CobordismClass, Milnor, _check_truncation, evaluate,
                       n_series_coeff)
from .partitions import Partition, codec, make, partitions_of, refines
from .series import BPoly, DEFAULT_TRUNCATION, PackedPoly, SparseAlgebra, packed_terms

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

    The degree-i generator is the Milnor combination of ``milnor_split(i)``,
    which realizes the minimal c_(i), +-1 or +-p.  A new basis holds no
    generator.  ``gen(i)`` builds degree i on its first call and checks it
    against the generator criteria and its c_(i) against the top of
    ``milnor_split(i)``, so a query pays only for the degrees in its
    support.  ``solve`` gives a class's integer coordinates, which a
    ``LandweberQuotient`` reduces mod I_p(r).
    """

    def __init__(self, trunc: int):
        self.trunc = trunc
        self._built = {}
        self._columns = {}  # weight -> ``solve``'s columns by place, each built on first use
        self._mono_images = {(): BPoly.one(trunc=trunc)}

    def __repr__(self):
        return f"GeneratorBasis({self.trunc})"

    def gen(self, i: int) -> CobordismClass:
        """The degree-i generator, 1 <= i <= trunc, built and validated once."""
        g = self._built.get(i)
        if g is not None:
            return g
        if i < 1:
            raise ValueError(f"generator degree must lie in 1..{self.trunc}, got {i}")
        _check_truncation(i, self.trunc)
        image = BPoly.zero(trunc=self.trunc)
        for m, n, c in milnor_split(i)[1]:
            image = image + evaluate(Milnor(m, n), self.trunc).image.scaled(c)
        g = CobordismClass(image, dim=i)
        c, pp, top = g.c_alpha((i,)), prime_power(i + 1), milnor_split(i)[0]
        expect = pp[0] if pp else 1
        if abs(c) != expect:
            raise BasisValidationError(f"degree {i}: |c_(i)| = {abs(c)}, expected {expect}")
        if c != top:
            raise BasisValidationError(
                f"degree {i}: c_(i) = {c}, but the construction gives {top}")
        self._built[i] = g
        return g

    def describe(self):
        """The basis descriptor of the JSON output; builds nothing."""
        return {"flavor": "base", "p": None, "r": None}

    def unit(self) -> GenPoly:
        return GenPoly._raw({0: 1}, None, self)  # the unit packs to 0

    def leaf_coords(self, z: CobordismClass) -> GenPoly:
        return self.solve(z.image)

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

        Column-oriented integer forward substitution on positions: the
        residual of weight n is a list indexed by each partition's place
        in ``partitions_of(n)`` order (coarser before finer), and starts
        as the weight-n part of the image.  Each place in turn takes the
        quotient of its residual entry by the diagonal entry, after which
        that multiple of the monomial image is subtracted.  The system is
        lower triangular, so a subtraction only touches places still to
        come.  The columns of weight n are a list indexed by the same
        places (``_column``), so a nonzero place reads its column by index
        and the subtraction looks nothing up; the coordinate is stored
        under the column's packed key, the kernel's canonical int.  A
        nonzero remainder means the input is not in the image of the
        Lazard ring.
        """
        if image.trunc != self.trunc:  # re-key in this basis's codec, dropping nothing
            _check_truncation(max(image.weights(), default=0), self.trunc)
            image = BPoly(image.terms, self.trunc)
        trunc = self.trunc
        shift = codec(trunc).shift
        by_weight = {}
        for key, c in image._terms.items():
            by_weight.setdefault(key >> shift, {})[key] = c
        coords = {}
        for n in sorted(by_weight):
            index = _place_table(n, trunc)[1]
            residual = [0] * len(index)
            for key, c in by_weight[n].items():
                residual[index[key]] = c
            columns = self._columns.get(n)
            if columns is None:
                columns = self._columns[n] = [None] * len(index)
            for j, c in enumerate(residual):
                if not c:
                    continue
                key, diagonal, at, values = columns[j] or self._column(n, j)
                q, rem = divmod(c, diagonal)
                if rem:
                    # c / diagonal in lowest terms, the sign on the numerator
                    g = math.gcd(c, diagonal) * (1 if diagonal > 0 else -1)
                    raise NotInLazardImage(
                        f"weight {n}: coordinate at {partitions_of(n)[j]} is "
                        f"{c // g}/{diagonal // g}, not an integer"
                    )
                coords[key] = q
                for i, v in zip(at, values.values()):
                    residual[i] -= q * v
        return GenPoly._raw(coords, None, self)

    def _column(self, n: int, j: int) -> tuple:
        """(key, diagonal, places, image) of place j of weight n, built once.

        key is the packed key of alpha = ``partitions_of(n)[j]``, image the
        term dict of its monomial image and diagonal its coefficient at
        alpha.  ``places`` holds each image key's place, aligned with the
        dict's iteration order, in an ``array`` of ``_place_table``'s type.
        """
        keys, index, code = _place_table(n, self.trunc)
        key, image = keys[j], self.image_of_monomial(partitions_of(n)[j])._terms
        column = (key, image[key], array(code, map(index.__getitem__, image)), image)
        self._columns[n][j] = column
        return column


@lru_cache(maxsize=None)
def _place_table(n: int, trunc: int) -> tuple:
    """(keys, index, code) of weight n: the canonical ``codec`` key of each
    partition in ``partitions_of(n)`` order, each key's place there, and
    the smallest unsigned ``array`` typecode that holds every place: "B"
    while p(n) < 2^8 (to weight 16), "H" while p(n) < 2^16 (to weight 43)
    and "I" above."""
    layout = codec(trunc)
    keys = tuple(layout.canonical.setdefault(k, k) for k in map(layout.pack, partitions_of(n)))
    index = {k: j for j, k in enumerate(keys)}
    code = "B" if len(index) < 1 << 8 else "H" if len(index) < 1 << 16 else "I"
    return keys, index, code


@lru_cache(maxsize=None)
def base_basis(trunc: int = DEFAULT_TRUNCATION) -> GeneratorBasis:
    """The shared ``GeneratorBasis(trunc)``, one per truncation."""
    return GeneratorBasis(trunc)


@lru_cache(maxsize=None)
def adapted_basis(p: int, r: int, trunc: int = DEFAULT_TRUNCATION) -> LandweberQuotient:
    """The shared ``LandweberQuotient`` by I_p(r) at ``trunc``.

    p must be prime and r >= 1.  A rank whose killed degrees p^i - 1 pass
    the truncation gives the same generators as the largest one that fits.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1:
        raise ValueError("adapted bases need r >= 1")
    return LandweberQuotient(trunc, p, r)


class LandweberQuotient:
    """The quotient of the Lazard ring by I_p(r), p prime and r >= 1.

    Each degree n = p^i - 1 <= trunc with i < r (``killed``) holds the
    adapted generator v_i - p^n * l_n: both summands are divisible by p,
    and as the xgcd makes c_(n)(l_n) = +p, its c_(n) is p(p^n - 1) - p^n * p
    = -p, so the family still generates and I_p(r) is p plus these members.
    ``geometry.n_series_coeff`` gives v_i = [t^(n+1)] [p](t) at trunc.  Only
    degrees <= trunc are replaced, so every rank is accepted.

    ``gen(i)`` builds and validates a killed degree on its first call, and
    is ``base_basis(trunc)``'s generator in every other degree.  The
    reduction maps each killed g_n in base coordinates to ``residue(n)``,
    so a quotient solves nothing and holds no monomial image.
    """

    def __init__(self, trunc: int, p: int, r: int):
        self.trunc, self.p, self.r = trunc, p, r
        self.killed = frozenset(takewhile(lambda n: n <= trunc,
                                          (p ** i - 1 for i in range(1, r))))
        self._base = base_basis(trunc)
        self._built = {}
        self._residues = {}  # each killed degree's g_n mod I_p(r), once asked for
        layout = codec(trunc)  # each killed degree's field and unit, lowest first
        self._killed_fields = tuple((n, *layout.fields[n], layout.units[n])
                                    for n in sorted(self.killed))
        self._killed_mask = sum(mask << offset for _, offset, mask, _ in self._killed_fields)

    def __repr__(self):
        return f"LandweberQuotient({self.trunc}, p={self.p}, r={self.r})"

    def gen(self, i: int) -> CobordismClass:
        """The adapted generator of degree i, built and validated once."""
        if i not in self.killed:
            return self._base.gen(i)
        g = self._built.get(i)
        if g is None:  # v_s = [t^(i+1)] [p](t) for i = p^s - 1
            v = n_series_coeff(self.p, i + 1, self.trunc)
            g = CobordismClass(v - self._base.gen(i).image.scaled(self.p ** i), dim=i)
            if (c := g.c_alpha((i,))) != -self.p:
                raise BasisValidationError(
                    f"degree {i}: c_(i) = {c}, but the construction gives {-self.p}")
            if not g.image.divisible_by(self.p):
                raise BasisValidationError(
                    f"adapted generator in degree {i} is not in the mod-{self.p} kernel")
            self._built[i] = g
        return g

    def residue(self, i: int) -> GenPoly:
        """D-bar_i: the base generator g_i of a killed degree i mod I_p(r).

        The base solve of the adapted generator reads g'_i = -g_i + D_i,
        D_i decomposable; the g_i coordinate is c_(i)(g'_i) / c_(i)(g_i) =
        -p / p, the tops that ``gen`` pins.  So g_i = D_i - g'_i is D_i mod
        p with its lower killed degrees substituted: a mod-p ``GenPoly``
        over this quotient, built with its generator on the first call.
        """
        residue = self._residues.get(i)
        if residue is None:
            terms = dict(self.gen(i).gen_coords(self._base)._terms)
            del terms[codec(self.trunc).units[i]]  # -g_i
            residue = self._residues[i] = _substituted(terms, self)
        return residue

    def describe(self):
        """The basis descriptor of the JSON output; builds nothing."""
        return {"flavor": "adapted", "p": self.p, "r": self.r}

    def unit(self) -> GenPoly:
        return GenPoly._raw({0: 1}, self.p, self)

    def leaf_coords(self, z: CobordismClass) -> GenPoly:
        return _substituted(z.gen_coords(self._base)._terms, self)


# -- generator-coordinate polynomials ----------------------------------


class GenPoly(PackedPoly):
    """Sparse polynomial in the generators of one basis or quotient.

    Integer coordinates (``modulus`` None) or coordinates reduced mod p;
    operands must share both.  Its keys are a BPoly's, so a product is one
    kernel call and one pass mod p.
    """

    __slots__ = ("modulus", "basis")
    _letter = "g"

    def __init__(self, terms, modulus, basis):
        self._terms = packed_terms(terms, basis.trunc, modulus)
        self.modulus = modulus
        self.basis = basis

    @classmethod
    def _raw(cls, terms, modulus, basis):
        # Trusted constructor: canonical packed keys, nonzero reduced coefficients.
        self = object.__new__(cls)
        self._terms, self.modulus, self.basis = terms, modulus, basis
        return self

    def _shell(self, terms):
        p = self.modulus
        if p is not None:  # the one pass mod p of a sum, scaling or product
            terms = {k: c for k, v in terms.items() if (c := v % p)}
        return GenPoly._raw(terms, p, self.basis)

    @property
    def _shape(self):
        return (self.modulus, self.basis)

    def _operand(self, other):
        # one basis and modulus: the shape, and with it the truncation, agree
        if type(other) is GenPoly and other.basis is self.basis and other.modulus == self.modulus:
            return other._terms
        return SparseAlgebra._operand(self, other)

    @property
    def trunc(self) -> int:
        return self.basis.trunc

    def to_obj(self):
        return {"modulus": self.modulus, "basis": self.basis.describe(),
                "terms": self._term_list()}


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
    """Membership of z in I_p(n) for n >= 0: its reduction vanishes."""
    return reduce_mod_landweber(z, p, n).is_zero()


def reduce_mod_landweber(z: CobordismClass, p: int, r: int) -> GenPoly:
    """The class of z in the quotient by I_p(r): ``z.gen_coords`` in
    ``adapted_basis(p, r)``, or for r = 0 in the integer base basis.

    For r >= 1 the ideal is generated by p and the replaced generators of
    the I_p(r)-adapted basis, so in adapted coordinates the monomials
    containing a replaced generator vanish and the rest is reduced mod p.
    Those coordinates come from the base ones: a replaced generator is
    g'_n = -g_n + D_n with D_n decomposable (the coefficient is
    c_(n)(g'_n) / c_(n)(g_n) = -p / p), so each killed g_n becomes D-bar_n
    (``LandweberQuotient.residue``), and a class is solved once, in the base
    basis, for every p and r.  A product, union or scaling that
    ``evaluate`` built folds its parts' coordinates instead.
    """
    return z.gen_coords(base_basis(z.trunc) if r == 0 else adapted_basis(p, r, z.trunc))


def _substituted(terms: dict, basis: LandweberQuotient) -> GenPoly:
    """Base coordinates mod p, each killed g_n replaced by ``basis.residue(n)``.

    ``terms`` is a packed integer term dict.  A key clear of the basis's
    killed mask keeps its coefficient mod p.  Killed degrees go lowest
    first: a residue is read only while a key with a coefficient nonzero
    mod p holds that degree and no dead one, and a zero residue makes its
    field dead.  A live key becomes its killed-free key times each residue
    to its multiplicity, in the kernel, reduced mod p once as it merges.
    """
    p, trunc, mask, fields = basis.p, basis.trunc, basis._killed_mask, basis._killed_fields
    out = {key: c for key, v in terms.items() if not key & mask and (c := v % p)}
    dead, residues = 0, {}
    for n, offset, width, _ in fields:
        field = width << offset
        if any(key & field and not key & dead and v % p for key, v in terms.items()):
            if residue := basis.residue(n)._terms:
                residues[n] = residue
            else:
                dead |= field
    products = {}
    for key, c in terms.items():
        if not key & mask or key & dead or not c % p:
            continue
        factors, free = [], key
        for n, offset, width, unit in fields:
            m = key >> offset & width
            if m:
                factors += [residues[n]] * m
                free -= m * unit
        term = {free: c}
        for factor in factors:
            term = _backend.mul_terms(term, factor, trunc)
        _backend.iadd_terms(products, term)
    for key, v in products.items():
        c = (out.get(key, 0) + v) % p
        if c:
            out[key] = c
        else:
            out.pop(key, None)
    return GenPoly._raw(out, p, basis)


def c_alpha_image_gcd(alpha, basis: GeneratorBasis) -> int:
    """gcd of c_alpha over the full weight-|alpha| piece of the Lazard ring.

    The generator monomials of that weight span the piece, so the gcd of
    their c_alpha values generates the image subgroup; 0 if all vanish.
    Only the beta that alpha refines are read, since c_alpha(g^beta) = 0
    for the others, and the scan stops once the gcd is 1.
    ``basis`` is a ``GeneratorBasis``: a quotient has no monomial images.
    """
    alpha = make(alpha)
    g = 0
    for beta in partitions_of(sum(alpha)):
        if len(beta) > len(alpha):  # so are all later ones: none is refined
            break
        if not refines(alpha, beta):
            continue
        g = math.gcd(g, basis.c_entry(alpha, beta))
        if g == 1:
            break
    return g
