"""The sparse kernel and the binding every caller reaches it through."""

import random

import cobord
from cobord import _backend, _kernel_py
from cobord.partitions import partitions_upto


def test_backend_binds_the_pure_kernel():
    # perfbench's probe prints KERNEL_IMPL and its tracer wraps these names
    for name in ("mul_into", "mul_terms", "iadd_terms"):
        assert getattr(_backend, name) is getattr(_kernel_py, name)
    assert cobord.KERNEL_IMPL == "_kernel_py"


def test_merge_parts_matches_sorted_concat():
    rng = random.Random(7)
    pool = partitions_upto(9)
    for _ in range(300):
        a = rng.choice(pool)
        b = rng.choice(pool)
        expect = tuple(sorted(a + b, reverse=True))
        assert _kernel_py.merge_parts(a, b) == expect


def test_cancellation_removes_keys():
    acc = _kernel_py.mul_into({(2, 1): 7, (1, 1): -1}, {(1,): 1}, {(1,): 1}, 12)
    assert (1, 1) not in acc
    assert acc[(2, 1)] == 7
