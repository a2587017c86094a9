import pytest

from cobord.partitions import (
    in_admissible_class,
    make,
    partitions_of,
    pi_q,
    refines,
    sort_key,
    union,
)


def partition_count(n, _cache={0: 1}):
    """Independent oracle: the pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n in _cache:
        return _cache[n]
    total, k = 0, 1
    while k * (3 * k - 1) // 2 <= n:
        sign = 1 if k % 2 else -1
        total += sign * partition_count(n - k * (3 * k - 1) // 2)
        total += sign * partition_count(n - k * (3 * k + 1) // 2)
        k += 1
    _cache[n] = total
    return total


def test_union_examples():
    assert union((3, 1), (2, 1)) == (3, 2, 1, 1)
    assert union((3, 1), ()) == (3, 1)
    assert union((2,), (2,)) == (2, 2)


def test_union_weight_additive():
    for a in partitions_of(4):
        for b in partitions_of(3):
            assert sum(union(a, b)) == 7


def test_refines_examples():
    assert refines((2, 1, 1), (3, 1))
    assert not refines((3, 1), (2, 2))
    assert refines((5, 2), (5, 2))
    assert refines((), ())
    assert not refines((1,), ())


def test_pi_q_examples():
    assert pi_q((3, 1), 2) == 1
    assert pi_q((4, 4), 4) == 2
    for alpha in partitions_of(6):
        assert pi_q(alpha, 1) == 6


def test_admissible_examples():
    assert in_admissible_class((2, 2), 2, 2)
    assert not in_admissible_class((2, 1), 2, 2)
    # a single part not of the form p^i - 1 is always admissible
    assert in_admissible_class((7,), 2, 3)
    assert not in_admissible_class((3,), 2, 3)
    # r <= 1 never forbids anything
    for alpha in partitions_of(5):
        assert in_admissible_class(alpha, 2, 1)
        assert in_admissible_class(alpha, 3, 0)


def test_admissible_matches_bruteforce():
    from itertools import combinations

    for n in range(0, 9):
        for alpha in partitions_of(n):
            for (p, r) in [(2, 2), (2, 3), (3, 2)]:
                forbidden = set(range(p - 1, p ** (r - 1)))
                brute = not any(
                    sum(sub) in forbidden
                    for k in range(1, len(alpha) + 1)
                    for sub in combinations(alpha, k)
                )
                assert in_admissible_class(alpha, p, r) == brute, (alpha, p, r)


def test_partitions_of_examples():
    assert partitions_of(0) == ((),)
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
    assert len(partitions_of(5)) == 7


def test_partitions_of_counts_match_recurrence():
    for n in range(0, 13):
        assert len(partitions_of(n)) == partition_count(n)


def test_partitions_order_by_increasing_length():
    for n in range(0, 11):
        lengths = [len(a) for a in partitions_of(n)]
        assert lengths == sorted(lengths)


def test_refines_reflexive_transitive_to_weight_10():
    for n in range(0, 11):
        parts = partitions_of(n)
        for a in parts:
            assert refines(a, a)
        rel = {
            (a, b) for a in parts for b in parts if refines(a, b)
        }
        for (a, b) in rel:
            for c in parts:
                if (b, c) in rel:
                    assert (a, c) in rel, (a, b, c)


def test_refinement_length_law():
    for n in range(0, 11):
        for a in partitions_of(n):
            for b in partitions_of(n):
                if refines(a, b):
                    assert len(a) >= len(b)
                    if len(a) == len(b):
                        assert a == b


def test_refinement_monotone_for_pi_q():
    for n in range(0, 11):
        for a in partitions_of(n):
            for b in partitions_of(n):
                if refines(a, b):
                    for q in range(1, 9):
                        assert pi_q(a, q) <= pi_q(b, q)


def test_pi_q_union_additive_and_capped():
    for a in partitions_of(5):
        for b in partitions_of(4):
            for q in range(1, 7):
                assert pi_q(union(a, b), q) == pi_q(a, q) + pi_q(b, q)
    for n in range(0, 11):
        for a in partitions_of(n):
            for q in range(1, 7):
                assert pi_q(a, q) <= n // q


def test_make_validates():
    assert make([1, 3, 2]) == (3, 2, 1)
    with pytest.raises(ValueError):
        make([2, 0])
    with pytest.raises(ValueError):
        make([-1])


def test_sort_key_orders_descending_lex_within_length():
    assert sorted([(2, 2), (3, 1)], key=sort_key) == [(3, 1), (2, 2)]
