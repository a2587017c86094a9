"""The check registry: the invariant suites behind ``cobord verify``.

Each suite is a function of the prime p and the truncation, plus its own
keyword parameters, and returns a ``geometry.CheckReport``.  ``SUITES``
maps each suite name to its function, in the order ``verify all`` runs
them; the acceptance tests call the same functions.
"""

from __future__ import annotations

from . import actions, bounds, fgl, geometry, lazard
from .geometry import CheckReport, CobordismClass
from .lazard import NEG_INF
from .series import BPoly, TruncSeries


def _report(checks) -> CheckReport:
    return CheckReport([(name, ok, "") for name, ok in checks])


def formal_inverse(ctx: fgl.FglContext) -> TruncSeries:
    """The series i(t) with F(t, i(t)) = 0: i(t) = exp(-log t).

    F(x, y) = exp(log x + log y) and exp is the compositional inverse of
    log (Ravenel, Complex Cobordism, Appendix A2).
    """
    return ctx.log.comp_inverse().compose(-ctx.log)


def _packed(series, width):
    """One series whose every integer coefficient is sum_j c_j 2^(j width),
    c_j the same coefficient of series[j]: signed slots, one per series.

    Packing is Z-linear, and injective while every slot value lies in
    (-2^(width-1), 2^(width-1)); a packed value is 0 only when all its
    slots are.  So packed(fs).compose(g) == packed([f(g) for f in fs]).
    """
    acc = {}
    for j, s in enumerate(series):
        for e, c in s._terms.items():
            terms = acc.setdefault(e, {})
            for k, v in c._terms.items():
                terms[k] = terms.get(k, 0) + (v << j * width)
    trunc = series[0].trunc
    return series[0]._shell({
        e: BPoly._raw(kept, trunc) for e, terms in acc.items()
        if (kept := {k: v for k, v in terms.items() if v})
    })


def _slot_width(fs, gs, expected):
    """A slot width for the values of f(g), f in fs and g in gs, and of
    ``expected``.

    |[t^e] f(g)| <= sum_m |f_m|_1 |g^m|_1 in the l1 norm of the integer
    coefficients, and |g^m|_1 = sum_e |[t^e] g^m|_1 <= sum_e [t^e] G^m
    over the truncated powers of the integer majorant G = sum_e |g_e|_1 t^e,
    so no power of g itself is computed.  The norms |f_m|_1 are taken once
    for all of gs; two spare bits keep every slot value below 2^(width-2).
    """
    def l1(c):
        return sum(map(abs, c._terms.values()))

    outer = [[(m, l1(c)) for (m,), c in f._terms.items()] for f in fs]
    top = max((m for f in outer for m, _ in f), default=0)
    bound = 0
    for g in gs:
        cap = g.total_cap
        major = [0] * (cap + 1)
        for (e,), c in g._terms.items():
            major[e] = l1(c)
        power, norms = [1] + [0] * cap, []  # G^m truncated at t^cap; its sums
        for _ in range(top + 1):
            norms.append(sum(power))
            nxt = [0] * (cap + 1)
            for i, v in enumerate(power):
                if v:
                    for e in range(cap + 1 - i):
                        nxt[i + e] += v * major[e]
            power = nxt
        bound = max(bound, max((sum(a * norms[m] for m, a in f) for f in outer),
                               default=0))
    largest = max((abs(v) for s in expected for c in s._terms.values()
                   for v in c._terms.values()), default=0)
    return max(bound, largest).bit_length() + 2


def fgl_laws(p: int, trunc: int) -> CheckReport:
    """The group laws of F (associativity to total degree 6) and the
    [k]-series for |k| <= 4, the negative ones against ``formal_inverse``."""
    ctx = fgl.context(trunc)
    F = ctx.fgl_sum
    unit = all(F.coeff((i, 0)) == (1 if i == 1 else 0) for i in range(ctx.cap + 1))
    sym = all(F.coeff((i, j)) == F.coeff((j, i)) for (i, j) in F.terms)
    checks = [("unit law F(x,0)=x", unit), ("symmetry", sym)]
    deg = min(6, trunc)
    xyz = ("x", "y", "z")
    x, y, z = (TruncSeries.variable(v, xyz, deg, trunc=trunc) for v in xyz)
    left = ctx.apply_sum(ctx.apply_sum(x, y), z)
    right = ctx.apply_sum(x, ctx.apply_sum(y, z))
    checks.append((f"associativity to degree {deg}", left == right))
    t = ctx.t_var()
    checks.append(("F(t,t) = [2](t)", ctx.apply_sum(t, t) == ctx.n_series(2)))
    # Slots 0..8 of one packed outer series hold [a](t), |a| <= 4, and slot
    # 9 the formal inverse i(t); composing it with [b](t) yields every
    # [a]([b](t)) and i([b](t)) at once, checked against [ab](t) and
    # [-b](t).  Only b = 1..4 count for the inverse check.  A packed
    # mismatch composes each slot alone, to tell the two checks apart.
    ks = range(-4, 5)
    n = {k: ctx.n_series(k) for k in {a * b for a in ks for b in ks}}
    outer = [n[a] for a in ks] + [formal_inverse(ctx)]
    # one width for all nine inner series, each expected [n](t) read once
    width = _slot_width(outer, [n[b] for b in ks], n.values())
    packed = _packed(outer, width)
    comp_ok = inv_ok = True
    for b in ks:
        want = [n[a * b] for a in ks] + [n[-b]]
        if packed.compose(n[b]) != _packed(want, width):
            bad = {j for j, (f, w) in enumerate(zip(outer, want)) if f.compose(n[b]) != w}
            comp_ok = comp_ok and not bad - {9}
            inv_ok = inv_ok and not (9 in bad and 1 <= b <= 4)
    checks.append(("[a]([b](t)) = [ab](t) for |a|,|b| <= 4", comp_ok))
    checks.append(("[-n](t) = i([n](t)) for 1 <= n <= 4", inv_ok))
    checks.append(("F(t, [-1](t)) = 0", ctx.apply_sum(t, ctx.n_series(-1)).is_zero()))
    u_ok = all(u_m.divisible_by(p) for u_m in ctx.landweber_coeffs(p))
    checks.append((f"u_m vanish mod {p}", u_ok))
    return _report(checks)


def landweber_chain(p: int, trunc: int, max_n: int = 3) -> CheckReport:
    """The ideals I_p(n), n <= max_n: u_m membership, v_n exclusion and
    indecomposability, and the chain position of the degree-p
    hypersurfaces Y_s of dimension p^s - 1."""
    ctx = fgl.context(trunc)
    u = ctx.landweber_coeffs(p)
    checks = []
    for n in range(max_n + 1):
        if p ** max(n - 1, 0) - 1 > trunc:
            break
        if n >= 1:
            top = min(p ** n - 1, trunc)  # u_m exists only below the truncation
            ok = all(lazard.in_landweber_ideal(CobordismClass(u[m]), p, n)
                     for m in range(top))
            checks.append((f"u_m in I_{p}({n}) for m < {top}", ok))
        if p ** n - 1 <= trunc:
            vn = CobordismClass(ctx.v(p, n))
            out = not lazard.in_landweber_ideal(vn, p, n)
            checks.append((f"v_{n} not in I_{p}({n})", out))
            if n >= 1:
                checks.append((f"v_{n} indecomposable mod {p}",
                               lazard.is_indecomposable_mod_p(vn, p)))
    for s in range(max_n + 1):
        if p ** s - 1 > min(trunc, 8):
            break
        ys = geometry.evaluate(geometry.Hyp(p, p ** s - 1), trunc)
        ok_in = lazard.in_landweber_ideal(ys, p, s + 1)
        ok_out = not lazard.in_landweber_ideal(ys, p, s)
        ok_div = ys.image.divisible_by(p)
        checks.append((f"Y_{s} in I_{p}({s+1}) minus I_{p}({s}), "
                       "Chern numbers divisible", ok_in and ok_out and ok_div))
    return _report(checks)


def verify_presentation(p: int, cases, trunc: int) -> CheckReport:
    """Leading-term identities for multiplication by prime powers.

    For each case (a, n) with q = p^a: modulo the n-th Landweber ideal,
    the series [q](t) starts v_n^((q^n-1)/(p^n-1)) t^(q^n), so all lower
    coefficients reduce to zero and the t^(q^n) coefficient reduces to
    the stated power of v_n, which is not zero.  Also checks u_m
    membership below v_n.

    v_n is read off the p-fold formal sum t +_F ... +_F t, not off [p](t)
    itself, so that for q = p the leading term is not compared with itself;
    the sum is taken at v_n's own weight, where the formal sum is small.
    """
    ctx = fgl.context(trunc)
    entries = []
    for (a, n) in cases:
        q = p ** a
        qn = q ** n
        label = f"q={q},n={n}"
        if qn - 1 > trunc:
            entries.append(
                (label, False, f"t^{qn} coefficient has weight beyond {trunc}")
            )
            continue
        series = ctx.n_series(q)
        low_ok = True
        for k in range(1, qn):
            coeff = series.coeff((k,))
            red = lazard.reduce_mod_landweber(CobordismClass(coeff), p, n)
            if not red.is_zero():
                low_ok = False
                break
        entries.append((f"{label}: vanishing below t^{qn}", low_ok, ""))
        lead = lazard.reduce_mod_landweber(CobordismClass(series.coeff((qn,))), p, n)
        e = (qn - 1) // (p ** n - 1)
        small = fgl.context(p ** n - 1)
        t = total = small.t_var()
        for _ in range(p - 1):
            total = small.apply_sum(total, t)
        v_n = BPoly(total.coeff((p ** n,)).terms, trunc)
        expected = lazard.reduce_mod_landweber(CobordismClass(v_n ** e), p, n)
        entries.append(
            (
                f"{label}: t^{qn} coefficient is v_{n}^{e}",
                lead == expected and not lead.is_zero(),
                "",
            )
        )
        mem_ok = all(
            lazard.in_landweber_ideal(CobordismClass(u_m), p, n)
            for u_m in ctx.landweber_coeffs(p)[: p ** n - 1]
        )
        entries.append((f"{label}: u_m membership below v_{n}", mem_ok, ""))
    return CheckReport(entries)


def presentation(p: int, trunc: int) -> CheckReport:
    """``verify_presentation`` on the cases within the truncation."""
    # case (a, n) reads the t^(p^(a n)) coefficient of [p^a](t), of weight
    # p^(a n) - 1; a case beyond the truncation cannot run, so it is skipped
    cases = [(1, 1), (2, 1), (1, 2)] if p == 2 else [(1, 1)]
    cases = [(a, n) for a, n in cases if p ** (a * n) - 1 <= trunc]
    return verify_presentation(p, cases, trunc)


def soundness(p: int, trunc: int, max_dim: int = 6) -> CheckReport:
    """The main theorem against explicit actions of Z/p, Z/p^2 and (Z/p)^2:
    no bound exceeds a realized fixed-locus dimension, no fixed-point-free
    witness gets a bound, and no filtration family (dimension <= max_dim)
    is bounded above its level."""
    max_dim = min(max_dim, trunc)
    checks = []
    for exponents in [(1,), (2,), (1, 1)]:
        group = actions.GroupDescriptor(p, exponents)

        def bound(w):
            cl = w.cobordism_class(trunc)
            return bounds.fixed_dim_lower_bound(cl, group).lower_bound

        ok = True
        for i in range(1, max_dim + 1):
            for w in actions.generator_action(i, group, trunc):
                if bound(w) > w.fixed_dim:
                    ok = False
        s = 0
        while group.rank > s and p ** s - 1 <= max_dim:
            if bound(actions.landweber_variety(s, group, trunc)) != NEG_INF:
                ok = False
            s += 1
        label = f"p={p}, exponents={list(group.exponents)}"
        checks.append((f"witness soundness for {label}", ok))
        fam_ok = True
        for d in range(0, 3):
            for w in actions.filtration_family(d, group, max_dim, trunc):
                b = bound(w)
                if b > d or b > w.fixed_dim:
                    fam_ok = False
        checks.append((f"filtration family levels for {label}", fam_ok))
    return _report(checks)


SUITES = {
    "fgl": fgl_laws,
    "ideals": landweber_chain,
    "presentation": presentation,
    "soundness": soundness,
}
