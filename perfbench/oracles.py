"""Independent oracles for the cobord benchmark.

Nothing here imports ``cobord``.  Expressions are the JSON objects of the
CLI grammar (``"point"``, ``{"proj": n}``, ``{"hyp": [d, n]}``,
``{"ci": [[d1, ...], n]}``, ``{"milnor": [m, n]}``, ``{"prod": [...]}``,
``{"disj": [...]}``, ``{"scale": [k, e]}``).

Two genus homomorphisms (Hirzebruch, *Topological Methods in Algebraic
Geometry*) are computed twice, by different routes:

* from a class's Chern numbers, by substituting into its Z[b] image:
  b_i -> (-1)^i gives the Euler characteristic chi, and
  b_i -> (-1)^i / (i+1)! (the Todd exponential 1 - e^(-t)) gives chi(O);
* from closed forms per constructor, which products multiply, disjoint
  unions add and scaling multiplies.

The fixed-locus side uses explicit actions: a linear action on P^n, the
minimizing action on a Milnor hypersurface, and the fixed-point-free
actions on the degree-p hypersurfaces of dimension p^s - 1.  A sound
lower bound never exceeds the fixed dimension such an action realizes.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = float("inf")
NEG_INF = float("-inf")


def _kind(expr):
    if expr == "point":
        return "point", None
    ((key, val),) = expr.items()
    return key, val


def dimension(expr) -> int:
    key, val = _kind(expr)
    if key == "point":
        return 0
    if key == "proj":
        return val
    if key in ("hyp", "ci"):
        return val[1]
    if key == "milnor":
        return val[0] + val[1] - 1
    if key == "prod":
        return sum(dimension(e) for e in val)
    if key == "disj":
        dims = {dimension(e) for e in val}
        if len(dims) != 1:
            raise ValueError(f"disjoint union of mixed dimensions: {expr!r}")
        return dims.pop()
    if key == "scale":
        return dimension(val[1])
    raise ValueError(f"unknown constructor {key!r}")


# -- closed forms -------------------------------------------------------


def _chi_proj_line_bundle(k: int, n: int) -> int:
    """chi(P^n, O(k)) = C(k + n, n), read as a polynomial in k."""
    num = 1
    for j in range(1, n + 1):
        num *= k + j
    return num // math.factorial(n)


def _ci_euler(degrees, n: int) -> int:
    """prod(d) * [h^n] (1+h)^(N+1) / prod(1 + d h), with N = n + codim."""
    ambient = n + len(degrees)
    series = [math.comb(ambient + 1, j) for j in range(n + 1)]
    for d in degrees:
        # multiply by 1/(1 + d h) = sum_k (-d)^k h^k
        out = []
        for j in range(n + 1):
            out.append(sum(series[i] * (-d) ** (j - i) for i in range(j + 1)))
        series = out
    return math.prod(degrees) * series[n]


def _ci_todd(degrees, n: int) -> int:
    """chi(O) by the Koszul resolution of the ideal of the intersection."""
    ambient = n + len(degrees)
    total = 0
    for mask in range(1 << len(degrees)):
        chosen = [d for i, d in enumerate(degrees) if mask >> i & 1]
        total += (-1) ** len(chosen) * _chi_proj_line_bundle(-sum(chosen), ambient)
    return total


def euler_characteristic(expr) -> int:
    key, val = _kind(expr)
    if key == "point":
        return 1
    if key == "proj":
        return val + 1
    if key == "hyp":
        d, n = val
        return ((1 - d) ** (n + 2) - 1) // d + n + 2
    if key == "ci":
        return _ci_euler(val[0], val[1])
    if key == "milnor":
        m, n = val
        return (m + 1) * n
    if key == "prod":
        return math.prod(euler_characteristic(e) for e in val)
    if key == "disj":
        return sum(euler_characteristic(e) for e in val)
    if key == "scale":
        return val[0] * euler_characteristic(val[1])
    raise ValueError(f"unknown constructor {key!r}")


def todd_genus(expr) -> int:
    """chi(O_X), the Todd genus."""
    key, val = _kind(expr)
    if key in ("point", "proj", "milnor"):
        return 1
    if key == "hyp":
        d, n = val
        return 1 + (-1) ** n * math.comb(d - 1, n + 1)
    if key == "ci":
        return _ci_todd(val[0], val[1])
    if key == "prod":
        return math.prod(todd_genus(e) for e in val)
    if key == "disj":
        return sum(todd_genus(e) for e in val)
    if key == "scale":
        return val[0] * todd_genus(val[1])
    raise ValueError(f"unknown constructor {key!r}")


# -- genera from Chern numbers -------------------------------------------


def genus_euler(chern_numbers) -> int:
    """Apply b_i -> (-1)^i to pairs (partition, Chern number)."""
    return sum((-1) ** sum(part) * int(value) for part, value in chern_numbers)


def genus_todd(chern_numbers) -> Fraction:
    """Apply b_i -> (-1)^i / (i+1)! to pairs (partition, Chern number)."""
    total = Fraction(0)
    for part, value in chern_numbers:
        term = Fraction(int(value))
        for i in part:
            term *= Fraction((-1) ** i, math.factorial(i + 1))
        total += term
    return total


# -- fixed loci of explicit actions --------------------------------------


def milnor_witness_fixed_dim(m: int, n: int, q: int) -> int:
    """Fixed dimension of the minimizing action of an order-q group on the
    (1,1)-divisor in P^m x P^n: spread the q characters evenly over both
    factors; when q divides m and n the diagonal saves one dimension."""
    if m % q == 0 and n % q == 0:
        return (m + n - 1) // q
    return m // q + n // q


def is_landweber_free(expr, p: int, rank: int) -> bool:
    """Hyp(p, p^s - 1) with rank >= s + 1 carries a fixed-point-free action."""
    key, val = _kind(expr)
    if key != "hyp" or val[0] != p:
        return False
    s, size = 0, 1
    while size - 1 < val[1]:
        s, size = s + 1, size * p
    return size - 1 == val[1] and rank >= s + 1


def witness_fixed_dim(expr, p: int, exponents) -> float:
    """Fixed dimension realized by an explicit action of the group
    (p; exponents): -inf for a fixed-point-free action, +inf when no
    witness is known.  Products add, disjoint unions take the maximum,
    and a nonzero multiple keeps the witness of its class."""
    q = p ** sum(exponents)
    key, val = _kind(expr)
    if key == "point":
        return 0
    if key == "proj":
        # q distinct characters spread evenly over C^(n+1)
        return -(-(val + 1) // q) - 1
    if key == "hyp":
        return NEG_INF if is_landweber_free(expr, p, len(exponents)) else INF
    if key == "ci":
        return INF
    if key == "milnor":
        return milnor_witness_fixed_dim(val[0], val[1], q)
    if key == "prod":
        dims = [witness_fixed_dim(e, p, exponents) for e in val]
        return NEG_INF if NEG_INF in dims else sum(dims)
    if key == "disj":
        return max(witness_fixed_dim(e, p, exponents) for e in val)
    if key == "scale":
        return NEG_INF if val[0] == 0 else witness_fixed_dim(val[1], p, exponents)
    raise ValueError(f"unknown constructor {key!r}")


# -- per-operation checks --------------------------------------------------
# Each returns a list of failure messages; an empty list means the output
# passed.


def check_genera(expr, chi, todd) -> list:
    """Compare genera already read off a class against the closed forms."""
    bad = []
    if chi != euler_characteristic(expr):
        bad.append(f"Euler characteristic {chi} != closed form {euler_characteristic(expr)}")
    if todd != todd_genus(expr):
        bad.append(f"chi(O) {todd} != closed form {todd_genus(expr)}")
    return bad


def check_class(expr, dim, chern_numbers) -> list:
    bad = [] if dim == dimension(expr) else [f"dim {dim} != {dimension(expr)}"]
    return bad + check_genera(expr, genus_euler(chern_numbers), genus_todd(chern_numbers))


def check_bound(expr, p: int, exponents, dim, lower_bound) -> list:
    """Properties of a fixed-locus lower bound (None means no constraint)."""
    bad = []
    if dim != dimension(expr):
        bad.append(f"dim {dim} != {dimension(expr)}")
    lb = NEG_INF if lower_bound is None else lower_bound
    if euler_characteristic(expr) % p and lb < 0:
        # Smith theory: chi(X^G) = chi(X) mod p, so X^G is nonempty.
        bad.append(f"chi not divisible by {p} but bound {lower_bound}")
    if lb > dimension(expr):
        bad.append(f"bound {lb} exceeds dimension {dimension(expr)}")
    fd = witness_fixed_dim(expr, p, exponents)
    if lb > fd:
        bad.append(f"bound {lb} exceeds witness fixed dimension {fd}")
    if expr == {"hyp": [3, 4]} and p == 2 and list(exponents) == [1] and lb != 2:
        bad.append(f"Hyp(3,4) under Z/2 gives {lb}, not 2")
    return bad


def check_fixedpoint(expr, p: int, exponents, forced) -> list:
    bad = []
    if euler_characteristic(expr) % p and not forced:
        bad.append(f"chi not divisible by {p} but no fixed point forced")
    if witness_fixed_dim(expr, p, exponents) == NEG_INF and forced:
        bad.append("a fixed-point-free action exists but a fixed point is forced")
    return bad
