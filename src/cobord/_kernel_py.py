"""Pure-Python sparse multiplication kernel.

A term dict maps a packed monomial key (``partitions.codec(N)``) to a
nonzero arbitrary-precision integer coefficient: a monomial product is a
sum of keys, heavier than N iff it reaches ``codec(N).limit``.  Every product
of two term dicts funnels through ``mul_into``, reached via
``cobord._backend``, and every sum through ``iadd_terms``, which merges any
term dict.  One product stays outside: ``geometry._merged`` multiplies a
row by a single monomial itself, adding its key to each row key, since a
one-term factor needs no pair loop, and through ``mul_into`` that step
made cold constructor evaluations measurably slower.  ``lazard.GenPoly``
is keyed by the same packed ints, so its products are ``mul_terms`` calls
too.  Only ``MPoly`` keys are tuples, so its monomial products are
``MPoly._mul``'s; its BPoly coefficients still multiply here.

Every key ``mul_into`` inserts is stored as ``codec(trunc).canonical``'s
int of its value, so the images a process retains share their key
objects instead of each holding its own copy of a key sum: at truncation
14 a ``lib-sweep`` set-up and round retains about 59,000 key ints without
this, for 508 distinct partitions of weight <= 14.  ``geometry._merged``
stores the keys new to its sums through the same table.  Only insertions
pay for it, with one ``setdefault``; the accumulate and cancel paths are
unchanged.

Coefficients stay Python ints: binomial and p-power factors overflow any
fixed width.  There is no modular mode: a ``lazard.GenPoly`` with a
modulus reduces its coefficients in one pass after each product.
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
    ``codec(trunc).limit``.  A key new to ``out`` is stored as the
    truncation's canonical int of that value; an existing key keeps its
    object, as a dict does on overwrite.
    """
    layout = codec(trunc)
    limit, canonical = layout.limit, layout.canonical.setdefault
    ys = y.items()
    for ka, va in x.items():
        lim = limit - ka
        for kb, vb in ys:
            if kb < lim:
                kk = ka + kb
                c = out.get(kk)
                if c is None:
                    c = va * vb
                    if c:
                        out[canonical(kk, kk)] = c
                else:
                    c += va * vb
                    if c:
                        out[kk] = c
                    else:
                        del out[kk]
    return out


def mul_terms(x, y, trunc):
    """Product of two term dicts, truncated at weight ``trunc``."""
    return mul_into({}, x, y, trunc)
