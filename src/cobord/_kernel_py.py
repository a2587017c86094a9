"""Pure-Python sparse multiplication kernel.

A term dict maps a partition key (non-increasing tuple of positive ints)
to a nonzero arbitrary-precision integer coefficient.  Every polynomial
and power-series product in the package funnels through ``mul_into``;
callers reach it through ``cobord._backend``.

Coefficients stay Python ints: binomial and p-power factors overflow any
fixed width.  There is no modular mode: reduction modulo p happens
once, in the generator coordinates of ``lazard.GenPoly``.
"""


def merge_parts(a, b):
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
    xs = sorted((sum(k), k, v) for k, v in x.items())
    ys = sorted((sum(k), k, v) for k, v in y.items())
    for wa, ka, va in xs:
        lim = trunc - wa
        for wb, kb, vb in ys:
            if wb > lim:
                break
            kk = merge_parts(ka, kb)
            c = out.get(kk, 0) + va * vb
            if c:
                out[kk] = c
            elif kk in out:
                del out[kk]
    return out


def mul_terms(x, y, trunc):
    """Product of two term dicts, truncated at weight ``trunc``."""
    return mul_into({}, x, y, trunc)
