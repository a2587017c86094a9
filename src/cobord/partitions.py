"""Partition combinatorics.

Partitions are plain tuples of positive ints, sorted non-increasing; the
empty tuple is the empty partition.  This module provides the refinement
order, multiset unions, the floor-sum weight ``pi_q``, the admissible
classes used by the higher-power Chern-number bound, a deterministic
enumeration ordered so that the change-of-basis matrix in ``lazard`` is
lower triangular, and ``codec``, the packed-int keys of every term dict.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Tuple

Partition = Tuple[int, ...]


def make(parts: Iterable[int]) -> Partition:
    """Normalize an iterable of positive ints into a partition tuple."""
    t = tuple(sorted(parts, reverse=True))
    if any(not isinstance(x, int) or x < 1 for x in t):
        raise ValueError(f"partition parts must be positive integers: {t!r}")
    return t


def union(alpha: Partition, beta: Partition) -> Partition:
    """Multiset union; the weight is additive."""
    return tuple(sorted(alpha + beta, reverse=True))


def sort_key(alpha: Partition):
    """Total order within a weight: increasing length, then parts descending.

    Any order refining "sort by length" makes c_alpha(l_beta) lower
    triangular, because a strict refinement strictly increases length.
    """
    return (len(alpha), tuple(-x for x in alpha))


def full_key(alpha: Partition):
    """Global order across weights (weight, then the within-weight order)."""
    return (sum(alpha), len(alpha), tuple(-x for x in alpha))


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of weight ``n``, sorted by :func:`sort_key`."""
    if n < 0:
        raise ValueError("weight must be nonnegative")

    def gen(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(sorted(gen(n, n), key=sort_key))


class Codec:
    """Packed-int keys of partitions of weight <= n, and the layout's tables.

    Monagan & Pearce's packed exponents: part i has a multiplicity field
    ``fields[i]`` = (offset, mask), (n // i).bit_length() bits wide, and the
    weight lies from bit ``shift`` up.  No field carries up to weight n,
    where pack(a) + pack(b) == pack(union(a, b)), so keys order by weight
    and a key sum is heavier than n iff it reaches ``limit``.  ``units[i]``
    is pack((i,)), 0 for a part 0 like b_0.  ``unpack`` keeps the partition
    of each key it has read.  ``canonical`` maps a key value to the one int
    object that every term dict of this truncation stores for it.
    """

    __slots__ = ("pack", "unpack", "shift", "limit", "units", "fields", "canonical")

    def __init__(self, n: int):
        units, fields, shift = [0], [(0, 0)], 0
        for i in range(1, n + 1):
            width = (n // i).bit_length()
            units.append(1 << shift)
            fields.append((shift, (1 << width) - 1))
            shift += width
        units = tuple(u | i << shift for i, u in enumerate(units))
        descending = [(i, *fields[i]) for i in range(n, 0, -1)]

        def pack(alpha) -> int:
            return sum(units[i] for i in alpha)

        unpacked = {}  # key -> its partition, one tuple per key read

        def unpack(key: int) -> Partition:
            alpha = unpacked.get(key)
            if alpha is None:
                alpha = unpacked[key] = tuple(i for i, off, mask in descending
                                              for _ in range(key >> off & mask))
            return alpha

        self.pack, self.unpack, self.shift, self.limit = pack, unpack, shift, (n + 1) << shift
        self.units, self.fields, self.canonical = units, tuple(fields), {}


codec = lru_cache(maxsize=None)(Codec)


def _sub_multisets(alpha: Partition):
    """Distinct sub-multisets of ``alpha``, each paired with its complement.

    Parts are grouped by value so a sub-multiset is emitted exactly once.
    """
    distinct = []
    for x in alpha:
        if distinct and distinct[-1][0] == x:
            distinct[-1][1] += 1
        else:
            distinct.append([x, 1])

    def rec(idx, chosen, left):
        if idx == len(distinct):
            yield tuple(chosen), tuple(left)
            return
        val, count = distinct[idx]
        for take in range(count + 1):
            yield from rec(
                idx + 1, chosen + [val] * take, left + [val] * (count - take)
            )

    yield from rec(0, [], [])


@lru_cache(maxsize=None)
def refines(alpha: Partition, beta: Partition) -> bool:
    """True iff ``alpha``'s parts group into blocks summing to ``beta``'s parts.

    Exact multiset-partition search: peel off the largest part of ``beta``,
    try every distinct sub-multiset of ``alpha`` with that sum, recurse.
    """
    if sum(alpha) != sum(beta):
        return False
    if not beta:
        return not alpha
    target, rest = beta[0], beta[1:]
    seen = set()
    for chosen, left in _sub_multisets(alpha):
        if sum(chosen) != target or chosen in seen:
            continue
        seen.add(chosen)
        if refines(left, rest):
            return True
    return False


def pi_q(alpha: Partition, q: int) -> int:
    """Sum of ``floor(part / q)`` over the parts."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    return sum(x // q for x in alpha)


def in_admissible_class(alpha: Partition, p: int, r: int) -> bool:
    """True iff no sub-multiset of parts sums into ``{p-1, ..., p^(r-1)-1}``.

    Dynamic programming over achievable subset sums capped at
    ``p^(r-1) - 1``; always true for ``r <= 1`` (empty forbidden range).
    """
    if r <= 1:
        return True
    cap = p ** (r - 1) - 1
    lo = p - 1
    sums = {0}
    for part in alpha:
        if part > cap:
            continue
        sums |= {s + part for s in sums if s + part <= cap}
    return all(s < lo for s in sums if s)
