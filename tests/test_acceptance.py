"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Everything is exact integer arithmetic, so every tolerance is equality;
the only numeric budgets are the stated wall-clock limits.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import contextlib
import math
import time

from cobord import actions as ac
from cobord import bounds as bd
from cobord import checks
from cobord import equivariant as eq
from cobord import geometry as geo
from cobord import lazard as lz
from cobord.partitions import partitions_of, pi_q, refines, union

TRUNC = 12


def cls(expr):
    return geo.evaluate(expr, TRUNC)


@contextlib.contextmanager
def criterion(num, desc):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:2d}: FAIL  {desc}")
        raise
    dt = time.monotonic() - t0
    print(f"ACCEPTANCE {num:2d}: PASS  {desc}  ({dt:.1f}s)")


def test_criterion_01_chern_number_formulas():
    with criterion(1, "Chern-number formulas (hypersurface, Milnor, complete "
                      "intersection)"):
        t0 = time.monotonic()
        for n in range(1, 9):
            for d in range(1, 6):
                assert cls(geo.Hyp(d, n)).c_alpha((n,)) == d * (d ** n - n - 2)
        for m in range(2, 6):
            for n in range(m, 6):
                got = cls(geo.Milnor(m, n)).c_alpha((m + n - 1,))
                assert got == math.comb(m + n, m), (m, n)
        for n in range(2, 10):
            assert cls(geo.Milnor(0, n)).c_alpha((n - 1,)) == -n
        for c in range(1, 4):
            degree_choices = [(d,) * c for d in (1, 2, 3)] + (
                [(1, 2), (2, 3), (1, 3)] if c == 2 else []
            ) + ([(1, 2, 3), (2, 2, 3)] if c == 3 else [])
            for degs in degree_choices:
                if len(degs) != c:
                    continue
                for n in range(1, 7):
                    mult = math.prod(degs)
                    expect = mult * (sum(d ** n for d in degs) - n - c - 1)
                    assert cls(geo.CompInt(degs, n)).c_alpha((n,)) == expect
        assert time.monotonic() - t0 < 10.0


def test_criterion_02_generator_criterion():
    with criterion(2, "generator criterion: c_(i) equals the binomial gcd, "
                      "+-1 or +-p"):
        basis = lz.base_basis(TRUNC)
        for i in range(1, 11):
            c = basis.gen(i).c_alpha((i,))
            gcd = 0
            for j in range(1, (i + 1) // 2 + 1):
                gcd = math.gcd(gcd, math.comb(i + 1, j))
            assert abs(c) == gcd, i
            pp = lz.prime_power(i + 1)
            assert abs(c) == (pp[0] if pp else 1), i


def chain_names(p, max_n, max_s):
    """The checks of ``checks.landweber_chain`` at truncation 12."""
    names = [f"v_0 not in I_{p}(0)"]
    for n in range(1, max_n + 1):
        names += [f"u_m in I_{p}({n}) for m < {min(p ** n - 1, TRUNC)}",
                  f"v_{n} not in I_{p}({n})", f"v_{n} indecomposable mod {p}"]
    return names + [
        f"Y_{s} in I_{p}({s + 1}) minus I_{p}({s}), Chern numbers divisible"
        for s in range(max_s + 1)
    ]


def assert_passes(report, names):
    assert report.ok, report.to_obj()
    assert [name for name, _, _ in report.entries] == names


def test_criterion_03_landweber_chain():
    with criterion(3, "Landweber chain: u_m membership, v_n exclusion and "
                      "indecomposability"):
        assert_passes(checks.landweber_chain(2, TRUNC, max_n=3), chain_names(2, 3, 3))
        assert_passes(checks.landweber_chain(3, TRUNC, max_n=2), chain_names(3, 2, 2))


def test_criterion_04_fixed_point_free_generators():
    with criterion(4, "degree-p hypersurface witnesses: ideal chain position "
                      "and divisibility"):
        assert_passes(checks.landweber_chain(2, TRUNC, max_n=2), chain_names(2, 2, 2))
        assert_passes(checks.landweber_chain(3, TRUNC, max_n=1), chain_names(3, 1, 1))


def test_criterion_05_main_theorem_soundness():
    with criterion(5, "bound engine never exceeds realized fixed-locus "
                      "dimensions; filtration levels respected"):
        t0 = time.monotonic()
        for p in (2, 3):
            assert_passes(checks.soundness(p, TRUNC, max_dim=TRUNC), [
                f"{kind} for p={p}, exponents={exps}"
                for exps in ([1], [2], [1, 1])
                for kind in ("witness soundness", "filtration family levels")
            ])
        assert time.monotonic() - t0 < 60.0


def test_criterion_06_intro_hypersurface_bound():
    with criterion(6, "hypersurface bound is exactly floor(n/q) in the three "
                      "stated cases"):
        cases = [
            (2, (1,), 4, 3, 2),
            (2, (2,), 6, 3, 1),
            (3, (1,), 7, 2, 2),
        ]
        for (p, exps, n, d, expect) in cases:
            group = ac.GroupDescriptor(p, exps)
            assert (n + 2) % p == 0 and d % p != 0
            rep = bd.fixed_dim_lower_bound(cls(geo.Hyp(d, n)), group)
            assert rep.lower_bound == expect == n // group.order, (p, n, d)


def test_criterion_07_presentation_lemma():
    with criterion(7, "multiplication-by-q leading term matches the v_n power "
                      "after reduction"):
        assert_passes(checks.verify_presentation(2, [(1, 1), (2, 1)], TRUNC), [
            "q=2,n=1: vanishing below t^2", "q=2,n=1: t^2 coefficient is v_1^1",
            "q=2,n=1: u_m membership below v_1",
            "q=4,n=1: vanishing below t^4", "q=4,n=1: t^4 coefficient is v_1^3",
            "q=4,n=1: u_m membership below v_1",
        ])
        assert_passes(checks.verify_presentation(3, [(1, 1)], TRUNC), [
            "q=3,n=1: vanishing below t^3", "q=3,n=1: t^3 coefficient is v_1^1",
            "q=3,n=1: u_m membership below v_1",
        ])


def test_criterion_08_graded_bundle_ring():
    with criterion(8, "pushforward generators expand correctly and the basis "
                      "change round-trips"):
        g = (1,)
        for i in range(0, 7):
            expanded = eq.push_generator(i, g, TRUNC)
            expected = eq.MPoly.zero("a", TRUNC)
            for j in range(0, i + 1):
                expected = expected + eq.MPoly.variable(
                    j, g, trunc=TRUNC
                ) * geo.evaluate(geo.Proj(i - j), TRUNC).image
            assert expanded == expected, i
            assert eq.p_to_a(eq.a_in_p(i, g, TRUNC), TRUNC) == eq.MPoly.variable(
                i, g, trunc=TRUNC
            ), i


def test_criterion_09_dual_functionals():
    with criterion(9, "d_alpha functional is supported on one generator "
                      "monomial per weight <= 6"):
        basis = lz.base_basis(TRUNC)
        for w in range(0, 7):
            for alpha in partitions_of(w):
                f = bd.d_alpha(alpha, basis)
                for beta in partitions_of(w):
                    val = bd.evaluate_functional(
                        f, basis.image_of_monomial(beta)
                    )
                    if beta == alpha:
                        assert val != 0, (alpha, beta)
                    else:
                        assert val == 0, (alpha, beta)


def test_criterion_10_property_suites():
    with criterion(10, "group-law, composition, refinement-order and "
                       "triangularity property suites"):
        t0 = time.monotonic()
        assert_passes(checks.fgl_laws(2, TRUNC), [
            "unit law F(x,0)=x", "symmetry", "associativity to degree 6",
            "F(t,t) = [2](t)", "[a]([b](t)) = [ab](t) for |a|,|b| <= 4",
            "[-n](t) = i([n](t)) for 1 <= n <= 4", "F(t, [-1](t)) = 0",
            "u_m vanish mod 2",
        ])

        # refinement-order and pi_q laws, exhaustively to weight 10
        for n in range(0, 11):
            parts = partitions_of(n)
            rel = {(a, b) for a in parts for b in parts if refines(a, b)}
            for a in parts:
                assert (a, a) in rel
            for (a, b) in rel:
                assert len(a) >= len(b)
                if len(a) == len(b):
                    assert a == b
                for q in range(1, 9):
                    assert pi_q(a, q) <= pi_q(b, q)
                for c in parts:
                    if (b, c) in rel:
                        assert (a, c) in rel
            for a in parts:
                for q in range(1, 9):
                    assert pi_q(a, q) <= n // q
        for a in partitions_of(6):
            for b in partitions_of(4):
                for q in (1, 2, 3, 5):
                    assert pi_q(union(a, b), q) == pi_q(a, q) + pi_q(b, q)

        # triangularity of c_alpha on generator monomials to weight 8
        basis = lz.base_basis(TRUNC)
        for w in range(1, 9):
            for alpha in partitions_of(w):
                for beta in partitions_of(w):
                    if not refines(alpha, beta):
                        assert basis.c_entry(alpha, beta) == 0, (alpha, beta)
                    elif alpha == beta:
                        assert basis.c_entry(alpha, beta) != 0

        assert time.monotonic() - t0 < 120.0
