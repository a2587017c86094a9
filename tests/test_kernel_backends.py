"""The sparse kernel, its packed-int monomial keys, and the binding every
caller reaches it through."""

import random

from hypothesis import example, given, settings, strategies as st

import cobord
from cobord import _backend, _kernel_py
from cobord.partitions import codec, partitions_of, union

CODEC_NS = (0, 1, 2, 12, 14, 20, 30)


def partitions_upto(n):
    """All partitions of weight at most ``n``, in the global order."""
    return tuple(alpha for k in range(n + 1) for alpha in partitions_of(k))


def test_backend_binds_the_pure_kernel():
    # perfbench's probe prints KERNEL_IMPL and its tracer wraps these names
    for name in ("mul_into", "mul_terms", "iadd_terms"):
        assert getattr(_backend, name) is getattr(_kernel_py, name)
    assert cobord.KERNEL_IMPL == "_kernel_py"


# -- the codec ----------------------------------------------------------------


def test_pack_unpack_round_trips_every_partition():
    for n in CODEC_NS:
        pack, unpack, shift = codec(n).pack, codec(n).unpack, codec(n).shift
        keys = set()
        for alpha in partitions_upto(n):
            key = pack(alpha)
            assert unpack(key) == alpha
            assert key >> shift == sum(alpha)
            keys.add(key)
        assert len(keys) == len(partitions_upto(n))


def test_pack_is_additive_below_the_truncation():
    rng = random.Random(7)
    for n in CODEC_NS:
        pack, unpack, limit = codec(n).pack, codec(n).unpack, codec(n).limit
        pool = partitions_upto(n)
        for _ in range(300):
            a, b = rng.choice(pool), rng.choice(pool)
            total = pack(a) + pack(b)
            if sum(a) + sum(b) <= n:
                assert total == pack(union(a, b))
                assert unpack(total) == union(a, b)
                assert total < limit
            else:
                assert total >= limit


def test_the_codec_s_tables_agree_with_its_keys():
    # every table of the layout against pack and the partitions themselves
    for n in range(41):
        layout = codec(n)
        assert len(layout.units) == len(layout.fields) == n + 1 and layout.units[0] == 0
        for i in range(1, n + 1):
            assert layout.units[i] == layout.pack((i,))
        for w in range(min(n + 1, 12) + 1):
            for alpha in partitions_of(w):
                if alpha and alpha[0] > n:
                    continue  # a part heavier than n has no field
                key = layout.pack(alpha)
                assert (key < layout.limit) == (w <= n)
                if w > n:
                    continue
                assert layout.unpack(key) == alpha and key >> layout.shift == w
                for i, (offset, mask) in enumerate(layout.fields):
                    assert key >> offset & mask == alpha.count(i)


def test_pack_ignores_order_and_the_unit_part():
    pack = codec(12).pack
    assert pack((1, 3, 2)) == pack((3, 2, 1))
    assert pack((0,)) == pack(()) == 0


def test_packed_order_is_weight_order():
    for n in CODEC_NS:
        pack = codec(n).pack
        by_key = sorted(partitions_upto(n), key=pack)
        assert [sum(alpha) for alpha in by_key] == sorted(map(sum, by_key))


# -- the kernel against the tuple-keyed kernel it replaced ---------------------


def _merge_parts(a, b):
    """Multiset union of two non-increasing tuples, again non-increasing."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        if a[i] >= b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    if i < la:
        out.extend(a[i:])
    else:
        out.extend(b[j:])
    return tuple(out)


def _reference_mul_into(out, x, y, trunc):
    """The partition-keyed kernel: merge the parts, truncate by their sum."""
    xs = sorted((sum(k), k, v) for k, v in x.items())
    ys = sorted((sum(k), k, v) for k, v in y.items())
    for wa, ka, va in xs:
        lim = trunc - wa
        for wb, kb, vb in ys:
            if wb > lim:
                break
            kk = _merge_parts(ka, kb)
            c = out.get(kk, 0) + va * vb
            if c:
                out[kk] = c
            elif kk in out:
                del out[kk]
    return out


KERNEL_N = 8
term_dicts = st.dictionaries(
    st.sampled_from(partitions_upto(KERNEL_N)),
    st.integers(-3, 3).filter(bool),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(term_dicts, term_dicts, term_dicts, st.integers(0, KERNEL_N))
def test_packed_mul_into_matches_the_tuple_kernel(out, x, y, trunc):
    # small coefficients and a shared pool make cancellations frequent
    out = {k: v for k, v in out.items() if sum(k) <= trunc}
    x = {k: v for k, v in x.items() if sum(k) <= trunc}
    y = {k: v for k, v in y.items() if sum(k) <= trunc}
    pack, unpack = codec(trunc).pack, codec(trunc).unpack
    packed = _kernel_py.mul_into(
        {pack(k): v for k, v in out.items()},
        {pack(k): v for k, v in x.items()},
        {pack(k): v for k, v in y.items()},
        trunc,
    )
    expect = _reference_mul_into(dict(out), x, y, trunc)
    assert {unpack(k): v for k, v in packed.items()} == expect
    assert all(packed.values())


def _all_pairs_mul_into(out, x, y, trunc):
    """Every pair of terms, kept when its weight is at most ``trunc``."""
    acc = dict(out)
    for ka, va in x.items():
        for kb, vb in y.items():
            if sum(ka) + sum(kb) <= trunc:
                kk = union(ka, kb)
                acc[kk] = acc.get(kk, 0) + va * vb
    return {k: v for k, v in acc.items() if v}


@settings(max_examples=300, deadline=None)
@given(term_dicts, term_dicts, term_dicts, st.integers(0, KERNEL_N), st.booleans())
@example(out={(1, 1): -1}, x={(1,): 1}, y={(2,): 1, (1,): 1}, trunc=2, heavy_first=True)
@example(out={(2,): 3}, x={(1,): 1, (2,): 2}, y={(2,): -1, (1,): 1},
         trunc=3, heavy_first=True)
def test_mul_into_matches_all_pairs_filtered_by_weight(out, x, y, trunc, heavy_first):
    # with y heaviest first, a crossing pair comes before the pairs that fit
    out = {k: v for k, v in out.items() if sum(k) <= trunc}
    x = {k: v for k, v in x.items() if sum(k) <= trunc}
    y = {k: v for k, v in y.items() if sum(k) <= trunc}
    if heavy_first:
        y = dict(sorted(y.items(), key=lambda kv: -sum(kv[0])))
    pack, unpack = codec(trunc).pack, codec(trunc).unpack
    packed = _kernel_py.mul_into(
        {pack(k): v for k, v in out.items()},
        {pack(k): v for k, v in x.items()},
        {pack(k): v for k, v in y.items()},
        trunc,
    )
    assert {unpack(k): v for k, v in packed.items()} == _all_pairs_mul_into(out, x, y, trunc)


def test_mul_into_cuts_crossing_pairs_and_cancels_into_out():
    # b_2 * b_1 crosses weight 2 and is listed first; b_1 * b_1 cancels out's term
    pack = codec(2).pack
    acc = {pack((1, 1)): -1, pack((2,)): 5}
    assert _kernel_py.mul_into(acc, {pack((1,)): 1},
                               {pack((2,)): 1, pack((1,)): 1}, 2) is acc
    assert acc == {pack((2,)): 5}
    assert _kernel_py.mul_into(acc, {}, {pack((1,)): 1}, 2) == {pack((2,)): 5}
    assert _kernel_py.mul_into(acc, {pack((1,)): 1}, {}, 2) == {pack((2,)): 5}


def test_cancellation_removes_keys():
    pack = codec(12).pack
    acc = _kernel_py.mul_into(
        {pack((2, 1)): 7, pack((1, 1)): -1}, {pack((1,)): 1}, {pack((1,)): 1}, 12
    )
    assert acc == {pack((2, 1)): 7}
