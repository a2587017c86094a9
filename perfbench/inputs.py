"""Seeded inputs for the benchmark workloads.

Every generator takes a ``random.Random`` built from the workload seed and
the round index, so the same seed always yields the same operations.
Expressions are JSON objects of the CLI grammar; groups are
``(p, exponents)`` with p in {2, 3} and rank 1-3, which keeps
p^(rank-1) - 1 within every truncation used here.
"""

from __future__ import annotations

import json
import random

PRIMES = (2, 3)
RANKS = (1, 2, 3)
SCALARS = (-3, -2, -1, 2, 3, 5)


def rng_for(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_index}")


def canonical(expr) -> str:
    return json.dumps(expr, sort_keys=True, separators=(",", ":"))


def group(rng, p=None, rank=None):
    p = p or rng.choice(PRIMES)
    rank = rank or rng.choice(RANKS)
    return p, [rng.choice((1, 2)) for _ in range(rank)]


def constructor(rng, dim: int):
    """A standard variety of exactly this dimension."""
    if dim == 0:
        return "point"
    kind = rng.choice(("proj", "hyp", "ci", "milnor"))
    if kind == "proj":
        return {"proj": dim}
    if kind == "hyp":
        return {"hyp": [rng.randint(2, 5), dim]}
    if kind == "ci":
        return {"ci": [[rng.choice((2, 3)), rng.choice((2, 3))], dim]}
    return milnor(rng, dim)


def milnor(rng, dim: int):
    # (m, n) with m + n - 1 = dim, 0 <= m <= n, m != 1 (as in the basis)
    m = rng.choice([0] + list(range(2, (dim + 1) // 2 + 1)))
    return {"milnor": [m, dim + 1 - m]}


def split(rng, dim: int, parts: int):
    cuts = sorted(rng.sample(range(1, dim), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [dim])]


def product(rng, dim: int, factor=constructor):
    parts = 3 if dim >= 6 and rng.random() < 0.5 else 2
    return {"prod": [factor(rng, d) for d in split(rng, dim, parts)]}


def composite(rng, dim: int, kind: str):
    """A product, disjoint union, scaling or Milnor product of dimension dim."""
    if kind == "prod":
        return product(rng, dim)
    if kind == "milnor-prod":
        return product(rng, dim, factor=milnor)
    if kind == "disj":
        parts = [constructor(rng, dim) if rng.random() < 0.5 else product(rng, dim)
                 for _ in range(rng.choice((2, 3)))]
        return {"disj": parts}
    if kind == "scale":
        inner = constructor(rng, dim) if rng.random() < 0.5 else product(rng, dim)
        return {"scale": [rng.choice(SCALARS), inner]}
    raise ValueError(kind)


def any_expr(rng, dim: int):
    if dim < 2 or rng.random() < 0.5:
        return constructor(rng, dim)
    return composite(rng, dim, rng.choice(("prod", "milnor-prod", "disj", "scale")))


def landweber_expr(rng, p: int, s: int, max_dim: int):
    """Hyp(p, p^s - 1), alone, scaled or times another variety."""
    y = {"hyp": [p, p ** s - 1]}
    room = max_dim - (p ** s - 1)
    shape = rng.choice(("bare", "scale", "prod"))
    if shape == "scale":
        return {"scale": [rng.choice(SCALARS), y]}
    if shape == "prod" and room >= 1:
        return {"prod": [y, constructor(rng, rng.randint(1, room))]}
    return y


def cli_round(seed: int, round_index: int, trunc: int):
    """Six CLI operations; two of them (a third) use a group of rank >= 2."""
    rng = rng_for("cli-cold", seed, round_index)
    ops = [("bound", {"hyp": [3, 4]}, (2, [1]))]  # the paper's example: 2
    ops.append(("class", any_expr(rng, rng.randint(1, trunc)), None))
    ops.append(("bound", any_expr(rng, rng.randint(1, trunc)), group(rng, rank=1)))
    ops.append(("fixedpoint", any_expr(rng, rng.randint(1, trunc)),
                group(rng, rank=1)))
    dim = rng.randint(2, trunc)
    expr = composite(rng, dim, "milnor-prod") if rng.random() < 0.5 else any_expr(rng, dim)
    ops.append(("bound", expr, group(rng, rank=rng.randint(2, 3))))
    p = rng.choice(PRIMES)
    s = rng.randint(1, 2)
    ops.append(("fixedpoint", landweber_expr(rng, p, s, trunc),
                group(rng, p=p, rank=rng.randint(max(2, s + 1), 3))))
    return ops


SWEEP_DIMS = (10, 11, 12, 13, 14)
SWEEP_KINDS = ("prod", "disj", "scale", "milnor-prod")


def sweep_round(seed: int, round_index: int, count: int):
    """``count`` distinct composite queries, equally many per dimension in
    SWEEP_DIMS and per kind in SWEEP_KINDS, each paired with a group."""
    rng = rng_for("lib-sweep", seed, round_index)
    seen, queries = set(), []
    cells = [(d, k) for d in SWEEP_DIMS for k in SWEEP_KINDS]
    while len(queries) < count:
        dim, kind = cells[len(queries) % len(cells)]
        expr = composite(rng, dim, kind)
        key = canonical(expr)
        if key in seen:
            continue
        seen.add(key)
        p, exps = group(rng)
        queries.append({"expr": expr, "p": p, "exponents": exps})
    return queries
