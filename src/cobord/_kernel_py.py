"""Pure-Python sparse multiplication kernel.

A term dict maps a packed monomial key (``partitions.codec(N)``) to a
nonzero arbitrary-precision integer coefficient: a monomial product is a
sum of keys, heavier than N iff it reaches (N + 1) << shift.  Every product
in the package funnels through ``mul_into``, reached via ``cobord._backend``.

Coefficients stay Python ints: binomial and p-power factors overflow any
fixed width.  There is no modular mode: reduction modulo p happens
once, in the generator coordinates of ``lazard.GenPoly``.
"""

from .partitions import codec


def iadd_terms(target, src):
    """Add ``src`` into ``target`` in place, dropping cancelled keys."""
    for key, val in src.items():
        c = target.get(key, 0) + val
        if c:
            target[key] = c
        elif key in target:
            del target[key]
    return target


def mul_into(out, x, y, trunc):
    """Accumulate the product of term dicts ``x*y`` into ``out``.

    Products whose partition weight exceeds ``trunc`` are discarded.
    """
    limit = (trunc + 1) << codec(trunc)[2]
    ys = sorted(y.items())
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
