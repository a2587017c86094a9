"""Fixed-point detection and fixed-locus dimension lower bounds.

For a finite diagonalizable p-group of rank r and order q, a variety
whose class survives reduction modulo the r-th Landweber ideal must have
fixed points, and the dimension of its fixed locus is at least the
q-degree of the reduced class: the degree for the grading that places a
degree-i generator in level floor(i/q).  The Chern-number corollaries
certify the same kind of bound from a single partition, and d_alpha
functionals isolate individual generator monomials.

These are the only cases with content.  For any other diagonalizable
group no cobordism invariant restricts fixed loci at all: torus factors
collapse away (a torus action on a nonempty projective variety always
fixes a point, and every class is a level-0 member of some q-filtration),
and a cyclic group of order divisible by two distinct primes acts freely
on each of the two corresponding point sets, whose classes generate the
unit ideal.  This module therefore only accepts GroupDescriptor inputs.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .actions import GroupDescriptor
from .geometry import CobordismClass, Record, TruncationError
from .lazard import (
    NEG_INF,
    GeneratorBasis,
    base_basis,
    c_alpha_image_gcd,
    in_landweber_ideal,
    reduce_mod_landweber,
)
from .partitions import (
    Partition,
    codec,
    in_admissible_class,
    make,
    partitions_of,
    pi_q,
    refines,
)


class BoundReport(Record):
    """Verdict of the bound engine for one class and one group.

    Fields: class_dim, the group, in_ideal, the ``reduced`` GenPoly, the
    lower_bound, and the certificate, a (partition, coefficient) pair or
    None.
    """

    __slots__ = ("class_dim", "group", "in_ideal", "reduced", "lower_bound",
                 "certificate")

    def to_obj(self):
        cert = None
        if self.certificate is not None:
            beta, coeff = self.certificate
            cert = {"partition": list(beta), "coeff": coeff}
        return {
            "dim": self.class_dim,
            "group": self.group.to_obj(),
            "in_ideal": self.in_ideal,
            "reduced": self.reduced.to_obj(),
            "lower_bound": None if self.lower_bound == NEG_INF else self.lower_bound,
            "certificate": cert,
        }


def has_forced_fixed_point(z: CobordismClass, group: GroupDescriptor) -> bool:
    """True iff every action of the group on a variety in this class fixes
    a point, i.e. the class survives in the quotient by the rank ideal."""
    return not in_landweber_ideal(z, group.p, group.rank)


def fixed_dim_lower_bound(z: CobordismClass, group: GroupDescriptor) -> BoundReport:
    """Reduce modulo the rank ideal and read off the q-degree.

    Semantics: every action of the group on a variety with this class has
    a fixed locus of dimension at least the bound; -inf means the class
    imposes no constraint at all.
    """
    reduced = reduce_mod_landweber(z, group.p, group.rank)
    terms = reduced._terms
    bound, certificate = NEG_INF, None
    if terms:  # the q-degree, and its least partition as the certificate
        levels = _levels(reduced.trunc, group.capped_order(reduced.trunc))
        key = max(terms, key=levels.__getitem__)
        bound, beta = levels[key][0], levels[key][3]
        certificate = (beta, terms[key])
    return BoundReport(
        class_dim=z.dim,
        group=group,
        in_ideal=reduced.is_zero(),
        reduced=reduced,
        lower_bound=bound,
        certificate=certificate,
    )


class _Levels(dict):
    """Packed key -> (pi_q, -weight, -length, partition), filled on first
    read.  The greatest value holds the q-degree and, of its partitions,
    the least in ``full_key`` order: of one weight and length, the
    lexicographically greater partition is the ``full_key``-smaller."""

    __slots__ = ("unpack", "q")

    def __init__(self, trunc: int, q: int):
        self.unpack, self.q = codec(trunc).unpack, q

    def __missing__(self, key):
        beta = self.unpack(key)
        level = self[key] = (pi_q(beta, self.q), -sum(beta), -len(beta), beta)
        return level


_levels = lru_cache(maxsize=None)(_Levels)


def chern_bound(
    z: CobordismClass, alpha: Partition, group: GroupDescriptor
) -> int | None:
    """Single-partition bound pi_q(alpha), when a Chern-number test fires.

    First the cheap test: c_alpha not divisible by p.  Then the higher
    test for admissible partitions: c_alpha outside p times the value
    group of c_alpha on the whole Lazard ring.  Returns None when neither
    hypothesis holds (no information from this partition).  A partition
    heavier than the truncation is rejected: its Chern number is unknown.
    """
    alpha = make(alpha)
    if sum(alpha) > z.trunc:
        raise TruncationError(
            f"partition weight {sum(alpha)} exceeds truncation {z.trunc}; "
            "raise the truncation"
        )
    p, r, q = group.p, group.rank, group.capped_order(z.trunc)
    c = z.c_alpha(alpha)
    if c == 0:  # 0 lies in p times every value group
        return None
    if r == 0 or c % p:
        return pi_q(alpha, q)
    if in_admissible_class(alpha, p, r):
        gcd_val = c_alpha_image_gcd(alpha, base_basis(z.trunc))
        if gcd_val and c % (p * gcd_val) != 0:
            return pi_q(alpha, q)
    return None


def d_alpha(alpha: Partition, basis: GeneratorBasis) -> dict:
    """The functional isolating the generator monomial indexed by alpha.

    Returned as a sparse map beta -> integer weight, meaning the linear
    combination sum w_beta * c_beta.  It vanishes on every generator
    monomial except alpha itself: subtract the coarser functionals,
    rescaled to share a common value u on their own monomials, from
    u * c_alpha.  Cached per (alpha, basis); the dict is shared, so read only.
    ``basis`` is a ``GeneratorBasis``: a quotient has no monomial images.
    """
    return _d_alpha(make(alpha), basis)


@lru_cache(maxsize=None)
def _d_alpha(alpha: Partition, basis: GeneratorBasis) -> dict:
    if not alpha:
        return {(): 1}
    coarser = [
        beta
        for beta in partitions_of(sum(alpha))
        if beta != alpha and refines(alpha, beta)
    ]
    subs = {beta: _d_alpha(beta, basis) for beta in coarser}
    vals = {
        beta: evaluate_functional(subs[beta], basis.image_of_monomial(beta))
        for beta in coarser
    }
    u = 1
    for v in vals.values():
        u = u * abs(v) // math.gcd(u, abs(v))
    combo = {alpha: u}
    for beta in coarser:
        scale = u // vals[beta]
        factor = basis.c_entry(alpha, beta)
        if factor == 0:
            continue
        for gamma, w in subs[beta].items():
            combo[gamma] = combo.get(gamma, 0) - factor * scale * w
    return {k: v for k, v in combo.items() if v}


def evaluate_functional(functional: dict, image) -> int:
    """Apply a sparse c_beta combination to a Z[b] image."""
    return sum(w * image.coeff(beta) for beta, w in functional.items())
