"""Pure-Python sparse multiplication kernel.

A term dict maps a packed monomial key (``partitions.codec(N)``) to a
nonzero arbitrary-precision integer coefficient: a monomial product is a
sum of keys, heavier than N iff it reaches (N + 1) << shift.  Every product
of two term dicts funnels through ``mul_into``, reached via
``cobord._backend``, and every sum through ``iadd_terms``, which merges any
term dict.  One product stays outside: ``geometry._merged`` multiplies a
row by a single b_i itself, adding the one-part key to each row key, since
a one-term factor needs no pair loop, and through ``mul_into`` that step
made cold constructor evaluations measurably slower.  ``GenPoly`` and
``MPoly`` keys are tuples, not packed ints, so their monomial products are
``SparseAlgebra._mul``'s; an MPoly's BPoly coefficients still multiply here.

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

    Products whose partition weight exceeds ``trunc`` are discarded, one
    comparison per pair: a key sum is that heavy iff it reaches
    (trunc + 1) << shift.
    """
    limit = (trunc + 1) << codec(trunc)[2]
    ys = y.items()
    for ka, va in x.items():
        lim = limit - ka
        for kb, vb in ys:
            if kb < lim:
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
