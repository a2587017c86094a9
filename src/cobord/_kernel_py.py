"""Pure-Python sparse multiplication kernel.

A term dict maps a packed monomial key (``partitions.codec(N)``) to a
nonzero arbitrary-precision integer coefficient: a monomial product is a
sum of keys, heavier than N iff it reaches (N + 1) << shift.  Every product
in the package funnels through ``mul_into``, reached via ``cobord._backend``,
and every sum through ``iadd_terms``, which merges any term dict.

Coefficients stay Python ints: binomial and p-power factors overflow any
fixed width.  There is no modular mode: reduction modulo p happens
once, in the generator coordinates of ``lazard.GenPoly``.
"""

from .partitions import codec


def iadd_terms(target, src):
    """Add ``src`` into ``target`` in place, dropping cancelled keys.

    Keys and coefficients may be of any type with ``+`` and a truth value:
    packed ints over ints here, exponent tuples over BPolys in a series.
    """
    for key, val in src.items():
        c = target.get(key, 0) + val
        if c:
            target[key] = c
        elif key in target:
            del target[key]
    return target


def mul_into(out, x, y, trunc):
    """Accumulate the product of term dicts ``x*y`` into ``out``.

    Products whose partition weight exceeds ``trunc`` are discarded.  Only
    when some pair can cross that cut is ``y`` sorted, so that the inner
    loop stops at its first crossing key.
    """
    if not x or not y:
        return out
    limit = (trunc + 1) << codec(trunc)[2]
    ys = y.items() if max(x) + max(y) < limit else sorted(y.items())
    for ka, va in x.items():
        lim = limit - ka
        for kb, vb in ys:
            if kb >= lim:
                break
            kk = ka + kb
            c = out.get(kk, 0) + va * vb
            if c:
                out[kk] = c
            elif kk in out:
                del out[kk]
    return out


def mul_terms(x, y, trunc):
    """Product of two term dicts, truncated at weight ``trunc``."""
    return mul_into({}, x, y, trunc)
