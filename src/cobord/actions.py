"""Explicit group actions realizing minimal fixed loci.

A finite diagonalizable p-group is recorded as (p; exponent list); its
order q and rank r are all the bound engine ever consults.  The witnesses
here carry the dimension formulas of the constructions, not simulations
of the actions themselves: a Milnor hypersurface admits an action with a
fixed locus of known exact dimension, the generator classes split into
signed disjoint unions of Milnor hypersurfaces acted on componentwise,
and the degree-p hypersurfaces of dimension p^s - 1 carry fixed-point-
free actions whenever the group has rank at least s + 1.
"""

from __future__ import annotations

from functools import lru_cache

from .geometry import (DisjointUnion, Hyp, Milnor, Product, Record, _check_truncation,
                       evaluate)
from .lazard import NEG_INF, is_prime, milnor_split
from .series import DEFAULT_TRUNCATION


class GroupDescriptor(Record):
    """(p; a_1, ..., a_r): the product of cyclic p-groups of order p^a_i."""

    __slots__ = ("p", "exponents")
    _defaults = {"exponents": ()}

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        object.__setattr__(self, "exponents", tuple(self.exponents))
        if any(a < 1 for a in self.exponents):
            raise ValueError("exponents must be >= 1")

    @property
    def rank(self) -> int:
        return len(self.exponents)

    @property
    def order(self) -> int:
        return self.p ** sum(self.exponents)

    def capped_order(self, top: int) -> int:
        """q, or a power of p above ``top`` if q is larger: x // q and x % q,
        all that ``pi_q`` and ``milnor_fixed_dim`` read, agree for x <= top."""
        return self.p ** min(sum(self.exponents), top.bit_length())

    def to_obj(self):
        return {"p": self.p, "exponents": list(self.exponents)}


class ActionWitness(Record):
    """A variety together with a realized fixed-locus dimension.

    ``fixed_dim`` is the exact dimension achieved by the recorded
    construction (-inf for a fixed-point-free action or for the empty
    variety).  The bound engine must never exceed it.
    """

    __slots__ = ("variety", "group", "fixed_dim", "provenance")

    def cobordism_class(self, trunc=DEFAULT_TRUNCATION):
        return evaluate(self.variety, trunc)

    def to_obj(self):
        return {
            "variety": self.variety.to_obj(),
            "group": self.group.to_obj(),
            "fixed_dim": None if self.fixed_dim == NEG_INF else self.fixed_dim,
            "provenance": self.provenance,
        }


def milnor_fixed_dim(m: int, n: int, q: int) -> int:
    """Exact fixed-locus dimension of the minimizing action on Milnor(m, n).

    Distributing the q characters as evenly as possible over the two
    projective factors yields floor(m/q) + floor(n/q), except that when q
    divides both m and n the diagonal term saves one: floor((m+n-1)/q).
    """
    if not (0 <= m <= n) or n < 1:
        raise ValueError("need 0 <= m <= n with n >= 1")
    if q < 1:
        raise ValueError("q must be positive")
    if m % q == 0 and n % q == 0:
        return (m + n - 1) // q
    return m // q + n // q


def generator_action(
    i: int, group: GroupDescriptor, trunc: int = DEFAULT_TRUNCATION
) -> tuple[ActionWitness, ActionWitness]:
    """The signed pair (X_i^+, X_i^-) splitting the degree-i generator.

    Positive coefficients of the Milnor combination go to the plus side,
    negative to the minus side, with multiplicity |coefficient|; each
    side is a disjoint union acted on componentwise, so its fixed-locus
    dimension is the max of the component dimensions, at most floor(i/q),
    taken over the distinct components.  A union is one node per value,
    so ``evaluate`` meets the same object again, and it evaluates a
    repeated component once, scaled by its multiplicity.
    """
    if i < 1:
        raise ValueError(f"generator degree must lie in 1..{trunc}, got {i}")
    _check_truncation(i, trunc)
    q = group.capped_order(i + 1)  # m, n <= i + 1
    return tuple(
        ActionWitness(union, group,
                      max((milnor_fixed_dim(m, n, q) for m, n in split), default=NEG_INF),
                      "generator-split")
        for union, split in _split_unions(i)
    )


@lru_cache(maxsize=None)
def _split_unions(i: int) -> tuple:
    """(union, distinct (m, n)) of the plus and of the minus side of degree i.

    Cached, which spares rebuilding degree 11's 55,082 components."""
    sides = {True: ([], []), False: ([], [])}
    for m, n, c in milnor_split(i)[1]:
        components, split = sides[c > 0]
        components.extend([Milnor(m, n)] * abs(c))
        split.append((m, n))
    return tuple((DisjointUnion(tuple(components)), tuple(split))
                 for components, split in sides.values())


def landweber_variety(
    s: int, group: GroupDescriptor, trunc: int = DEFAULT_TRUNCATION
) -> ActionWitness:
    """Fixed-point-free witness: a degree-p hypersurface of dimension p^s - 1.

    Needs at least p^s + 1 characters of order dividing p, i.e. rank
    r >= s + 1.
    """
    p = group.p
    if s < 0:
        raise ValueError(f"the Landweber index s must be >= 0, got {s}")
    if group.rank <= s:
        raise ValueError(
            f"group of rank {group.rank} is too small; need rank >= {s + 1}"
        )
    dim = p ** s - 1
    _check_truncation(dim, trunc)
    return ActionWitness(Hyp(p, dim), group, NEG_INF, "fixed-point-free-family")


def _signed_factors(i, group, trunc):
    plus, minus = generator_action(i, group, trunc)
    return [w for w in (plus, minus) if w.variety.parts]


def filtration_family(
    d: int,
    group: GroupDescriptor,
    max_dim: int,
    trunc: int = DEFAULT_TRUNCATION,
) -> list[ActionWitness]:
    """All products of signed generator witnesses within the level-d budget.

    Components Z_j in {X_{i_j}^+, X_{i_j}^-} with sum of floor(i_j/q) at
    most d and total dimension at most max_dim; the fixed locus of a
    product is the product of fixed loci, so dimensions add.
    """
    if d < 0 or max_dim < 0:
        raise ValueError(
            f"level and dimension budget must be >= 0, got {d} and {max_dim}"
        )
    _check_truncation(max_dim, trunc)
    q = group.capped_order(max_dim)
    candidates = []
    for i in range(1, max_dim + 1):
        for w in _signed_factors(i, group, trunc):
            candidates.append((i, w))

    out = []

    def extend(start_idx, chosen, dim_left, level_left):
        if chosen:
            out.append(
                ActionWitness(
                    Product(tuple(w.variety for w in chosen)),
                    group,
                    sum(w.fixed_dim for w in chosen),
                    "filtration-product",
                )
            )
        for idx in range(start_idx, len(candidates)):
            i, w = candidates[idx]
            if i > dim_left or i // q > level_left:
                continue
            extend(idx, chosen + [w], dim_left - i, level_left - i // q)

    extend(0, [], max_dim, d)
    return out
