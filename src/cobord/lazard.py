"""Polynomial generators of the Lazard ring and the Landweber ideals.

The Lazard ring embeds into Z[b] via the map classifying the universal
formal group law; a cobordism class is represented by that image, a
BPoly whose b_alpha coefficient is the Chern number c_alpha.  In each
degree we fix a generator built from Milnor hypersurface classes via an
extended-gcd combination; expressing classes in generator coordinates is
a lower-triangular exact solve, because c_alpha(l_beta) vanishes unless
alpha refines beta and a strict refinement strictly increases length.
The solve is integer forward substitution by columns: each coordinate is
an exact quotient by a diagonal entry, and only the nonzero entries of
that generator monomial's image are subtracted from the residual.

Ideal membership and reduction for the Landweber ideal I_p(n) use an
adapted basis in which the generators in degrees p^i - 1 (i < n) are
replaced by classes of the form v_i + p*a_i; the ideal is then generated
by p together with those generators, so membership is visible monomial
by monomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import fgl
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


# -- cobordism classes ------------------------------------------------


class CobordismClass:
    """A class in the Lazard ring: its Z[b] image plus dimension metadata.

    Generator coordinates are computed lazily per basis and cached; the
    triangular solve asserts integrality, which certifies that the image
    really lies in the Lazard subring.
    """

    __slots__ = ("image", "dim", "_coords")

    def __init__(self, image: BPoly, dim=None):
        self.image = image
        self.dim = dim
        self._coords = {}

    def c_alpha(self, alpha) -> int:
        return self.image.coeff(alpha)

    def is_zero(self) -> bool:
        return self.image.is_zero()

    @property
    def trunc(self) -> int:
        return self.image.trunc

    def gen_coords(self, basis: "GeneratorBasis") -> "GenPoly":
        key = basis.key()
        if key not in self._coords:
            self._coords[key] = basis.solve(self.image)
        return self._coords[key]

    def __add__(self, other):
        dim = self.dim if self.dim == other.dim else None
        return CobordismClass(self.image + other.image, dim)

    def __sub__(self, other):
        dim = self.dim if self.dim == other.dim else None
        return CobordismClass(self.image - other.image, dim)

    def __neg__(self):
        return CobordismClass(-self.image, self.dim)

    def __mul__(self, other):
        if isinstance(other, int):
            return CobordismClass(self.image.scaled(other), self.dim)
        dim = None
        if self.dim is not None and other.dim is not None:
            dim = self.dim + other.dim
        return CobordismClass(self.image * other.image, dim)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, CobordismClass):
            return NotImplemented
        return self.image == other.image

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        return f"CobordismClass(dim={self.dim}, image={self.image!r})"

    def to_obj(self, basis=None):
        obj = {"dim": self.dim, "image": self.image.to_obj()}
        if basis is not None:
            obj["gen_coords"] = self.gen_coords(basis).to_obj()
        return obj


def c_alpha(z: CobordismClass, alpha) -> int:
    """The Chern-number functional: the b_alpha coefficient of the image."""
    return z.c_alpha(alpha)


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


class GeneratorBasis:
    """A fixed family of polynomial generators, one per degree up to N."""

    def __init__(self, flavor, trunc, gens, splits=None, p=None, r=None):
        self.flavor = flavor
        self.trunc = trunc
        self.gens = gens
        self.splits = splits or {}
        self.p = p
        self.r = r
        self._mono_images = {(): BPoly.one(trunc=trunc)}
        self._d_cache = {}
        self._validate()

    def key(self):
        return (self.flavor, self.p, self.r, self.trunc)

    def killed_parts(self) -> frozenset[int]:
        """Generator degrees replaced by Landweber classes in this basis."""
        if self.flavor == "base":
            return frozenset()
        return frozenset(
            self.p ** i - 1
            for i in range(1, self.r)
            if self.p ** i - 1 <= self.trunc
        )

    def _validate(self):
        for i, g in self.gens.items():
            c = g.c_alpha((i,))
            pp = prime_power(i + 1)
            expect = pp[0] if pp else 1
            if abs(c) != expect:
                raise BasisValidationError(
                    f"degree {i}: |c_(i)| = {abs(c)}, expected {expect}"
                )
        for n in self.killed_parts():
            g = self.gens[n]
            if not g.image.divisible_by(self.p):
                raise BasisValidationError(
                    f"adapted generator in degree {n} is not in the mod-{self.p} kernel"
                )
            if g.c_alpha((n,)) != -self.p:
                raise BasisValidationError(
                    f"adapted generator in degree {n} has c = {g.c_alpha((n,))}"
                )

    def signs(self):
        """sign(c_(i)(l_i)) per degree; fixed by the gcd computation."""
        return {i: (1 if g.c_alpha((i,)) > 0 else -1) for i, g in self.gens.items()}

    def describe(self):
        return {
            "flavor": self.flavor,
            "p": self.p,
            "r": self.r,
            "signs": [self.signs()[i] for i in sorted(self.gens)],
        }

    def image_of_monomial(self, beta: Partition) -> BPoly:
        """Z[b] image of the generator monomial indexed by ``beta``."""
        beta = tuple(beta)
        cached = self._mono_images.get(beta)
        if cached is None:
            cached = self.image_of_monomial(beta[1:]) * self.gens[beta[0]].image
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
                    raise NotInLazardImage(
                        f"weight {n}: coordinate at {alpha} is "
                        f"{Fraction(c, column[k])}, not an integer"
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
    """Integral generators as Z-combinations of Milnor hypersurface classes.

    In degree i the achievable c_(i) values are -(i+1) (the m = 0 class,
    a projective space) and the binomials C(i+1, m) for 2 <= m <= n; the
    extended gcd realizes the minimal value +-1 or +-p.
    """
    from . import geometry

    gens = {}
    splits = {}
    for i in range(1, trunc + 1):
        cands = milnor_candidates(i)
        values = []
        classes = []
        for (m, n) in cands:
            cl = geometry.evaluate(geometry.Milnor(m, n), trunc)
            classes.append(cl)
            values.append(cl.c_alpha((i,)))
        g, coeffs = xgcd_list(values)
        image = BPoly.zero(trunc=trunc)
        split = []
        for (m, n), cl, c in zip(cands, classes, coeffs):
            if c:
                image = image + cl.image.scaled(c)
                split.append((m, n, c))
        gens[i] = CobordismClass(image, dim=i)
        splits[i] = split
    return GeneratorBasis("base", trunc, gens, splits)


@lru_cache(maxsize=None)
def adapted_basis(p: int, r: int, trunc: int = DEFAULT_TRUNCATION) -> GeneratorBasis:
    """Basis in which I_p(r) is generated by p and the degree p^i - 1 members.

    Those members are v_i - sign * p^(p^i - 1) * l_{p^i - 1}: both summands
    have all coefficients divisible by p, and the top Chern functional
    evaluates to p(p^n - 1) - p^n * p = -p, so the family still generates.
    Degrees above ``trunc`` are left unreplaced, so every rank is accepted:
    an ideal member of degree <= trunc only involves generators of degree
    <= trunc, hence I_p(r) agrees with I_p(r') there for every large r'.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1:
        raise ValueError("adapted bases need r >= 1")
    base = base_basis(trunc)
    ctx = fgl.context(trunc)
    gens = dict(base.gens)
    for i in range(1, r):
        n = p ** i - 1
        if n > trunc:
            break
        ell = base.gens[n]
        sigma = 1 if ell.c_alpha((n,)) > 0 else -1
        v_i = CobordismClass(ctx.v(p, i), dim=n)
        gens[n] = v_i - (sigma * p ** n) * ell
    return GeneratorBasis("adapted", trunc, gens, base.splits, p=p, r=r)


def base_generator(i: int, trunc: int = DEFAULT_TRUNCATION) -> CobordismClass:
    """The degree-i polynomial generator of the base basis."""
    return base_basis(trunc).gens[i]


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
        return (self.modulus, self.basis.key())

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

    def to_image(self) -> BPoly:
        """Reconstruct the Z[b] image (integer coefficients only)."""
        if self.modulus is not None:
            raise ValueError("reconstruction needs integer coefficients")
        img = BPoly.zero(trunc=self.basis.trunc)
        for beta, c in self._terms.items():
            img = img + self.basis.image_of_monomial(beta).scaled(c)
        return img

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


def to_gen_coords(z: CobordismClass, basis: GeneratorBasis) -> GenPoly:
    """Integer generator coordinates of a class (triangular solve)."""
    return z.gen_coords(basis)


# -- decomposability ----------------------------------------------------


def is_decomposable(z: CobordismClass) -> bool:
    """A homogeneous class of degree -n is decomposable iff c_(n) vanishes."""
    n = z.image.homogeneous_weight()
    if n is None:
        return True
    if n == 0:
        raise ValueError("decomposability concerns positive-weight classes")
    return z.c_alpha((n,)) == 0


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


def in_landweber_ideal(z: CobordismClass, p: int, n) -> bool:
    """Membership of z in I_p(n); n may be 0, a positive int, or math.inf.

    I_p(0) = 0; I_p(inf) is the kernel of reduction mod p; for finite
    n >= 1 a class belongs iff, in an I_p(n)-adapted basis, every monomial
    has coefficient divisible by p or contains a replaced generator.
    """
    if n == 0:
        return z.is_zero()
    if n == math.inf:
        return z.image.divisible_by(p)
    basis = adapted_basis(p, n, z.trunc)
    g = z.gen_coords(basis)
    killed = basis.killed_parts()
    for beta, c in g.coeffs.items():
        if c % p == 0:
            continue
        if not any(part in killed for part in beta):
            return False
    return True


def reduce_mod_landweber(z: CobordismClass, p: int, r: int, basis=None) -> GenPoly:
    """The class of z in the quotient by I_p(r), in adapted coordinates.

    For r >= 1: monomials containing a replaced generator are deleted and
    the rest is reduced mod p.  For r = 0 the quotient is the ring itself
    and the integer base-basis coordinates are returned unchanged.
    An I_p(r')-adapted basis with r' >= r may be passed explicitly; its
    extra replaced generators are still honest generators, so coordinates
    remain valid and only degrees p^i - 1 with i < r are deleted.
    """
    if r == 0:
        basis = basis or base_basis(z.trunc)
        return z.gen_coords(basis)
    if basis is None:
        basis = adapted_basis(p, r, z.trunc)
    elif basis.flavor != "adapted" or basis.p != p or (basis.r or 0) < r:
        raise ValueError("basis is not adapted to this ideal")
    g = z.gen_coords(basis)
    killed = {p ** i - 1 for i in range(1, r)}
    coeffs = {
        beta: c
        for beta, c in g.coeffs.items()
        if not any(part in killed for part in beta)
    }
    return GenPoly(coeffs, p, basis)


def q_degree(g: GenPoly, q: int):
    """Degree for the grading that places the degree-i generator in level
    floor(i/q); -inf for zero."""
    return g.q_degree(q)


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
