"""Command-line interface.

Subcommands: class, bound, fixedpoint, chern-bound, actions, verify.
JSON in, JSON out by default (canonical ordering, byte-stable across
runs); ``--format table`` renders the same data for humans.  The
truncation weight defaults to 12 and may be overridden per call with
``--trunc`` or globally with the COBORD_TRUNC environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import actions as actions_mod
from . import bounds as bounds_mod
from . import equivariant, fgl, geometry, lazard
from .lazard import NEG_INF
from .partitions import make
from .series import DEFAULT_TRUNCATION, TruncSeries


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(obj, fmt, table_lines):
    if fmt == "json":
        sys.stdout.write(_dump(obj))
    else:
        for line in table_lines:
            print(line)


def _trunc_default() -> int:
    env = os.environ.get("COBORD_TRUNC")
    if not env:
        return DEFAULT_TRUNCATION
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"COBORD_TRUNC must be an integer, got {env!r}") from None


def _parse_group(args) -> actions_mod.GroupDescriptor:
    exps = ()
    if args.group:
        exps = tuple(int(x) for x in args.group.split(",") if x.strip())
    return actions_mod.GroupDescriptor(args.p, exps)


def _parse_expr_arg(text: str):
    if text.strip() == "point":
        return geometry.Point()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SystemExit(f"error: invalid JSON expression: {e}")
    try:
        return geometry.parse_expr(obj)
    except ValueError as e:
        raise SystemExit(f"error: {e}")


def _fmt_bound(b):
    return "-inf" if b == NEG_INF else str(b)


# -- subcommands -----------------------------------------------------------


def cmd_class(args) -> int:
    expr = _parse_expr_arg(args.expr)
    cl = geometry.evaluate(expr, args.trunc)
    basis = lazard.base_basis(args.trunc)
    coords = cl.gen_coords(basis)
    obj = {
        "expr": expr.to_obj(),
        "dim": cl.dim,
        "chern_numbers": [
            {"partition": list(k), "value": str(v)}
            for k, v in cl.image.sorted_terms()
        ],
        "gen_coords": coords.to_obj(),
        "basis": basis.describe(),
    }
    lines = [f"dimension: {cl.dim}", "chern numbers:"]
    for k, v in cl.image.sorted_terms():
        lines.append(f"  c_{list(k)} = {v}")
    lines.append("generator coordinates:")
    for beta in coords.support():
        lines.append(f"  {list(beta)}: {coords.coeffs[beta]}")
    _emit(obj, args.format, lines)
    return 0


def cmd_bound(args) -> int:
    expr = _parse_expr_arg(args.expr)
    group = _parse_group(args)
    cl = geometry.evaluate(expr, args.trunc)
    report = bounds_mod.fixed_dim_lower_bound(cl, group)
    obj = {"expr": expr.to_obj()}
    obj.update(report.to_obj())
    lines = [
        f"class: {expr.to_obj()!r} (dim {report.class_dim})",
        f"group: p={group.p} exponents={list(group.exponents)} "
        f"(order {group.order}, rank {group.rank})",
        f"in rank ideal: {'yes' if report.in_ideal else 'no'}",
        f"fixed-locus lower bound: {_fmt_bound(report.lower_bound)}",
    ]
    if report.certificate:
        beta, coeff = report.certificate
        lines.append(f"certifying monomial: {list(beta)} (coefficient {coeff})")
    _emit(obj, args.format, lines)
    return 0


def cmd_fixedpoint(args) -> int:
    expr = _parse_expr_arg(args.expr)
    group = _parse_group(args)
    cl = geometry.evaluate(expr, args.trunc)
    forced = bounds_mod.has_forced_fixed_point(cl, group)
    obj = {
        "expr": expr.to_obj(),
        "group": group.to_obj(),
        "forced_fixed_point": forced,
    }
    verdict = (
        "every action has a fixed point"
        if forced
        else "no fixed point is forced (a fixed-point-free action may exist)"
    )
    _emit(obj, args.format, [verdict])
    return 0


def cmd_chern_bound(args) -> int:
    expr = _parse_expr_arg(args.expr)
    group = _parse_group(args)
    cl = geometry.evaluate(expr, args.trunc)
    alpha = make(int(x) for x in args.alpha.split(",") if x.strip())
    bound = bounds_mod.chern_bound(cl, alpha, group)
    obj = {
        "expr": expr.to_obj(),
        "group": group.to_obj(),
        "alpha": list(alpha),
        "bound": bound,
    }
    line = (
        f"bound from {list(alpha)}: {bound}"
        if bound is not None
        else f"partition {list(alpha)} certifies no bound"
    )
    _emit(obj, args.format, [line])
    return 0


def cmd_actions(args) -> int:
    group = _parse_group(args)
    witnesses = []
    if args.generator is not None:
        witnesses.extend(actions_mod.generator_action(args.generator, group, args.trunc))
    elif args.landweber is not None:
        try:
            witnesses.append(
                actions_mod.landweber_variety(args.landweber, group, args.trunc)
            )
        except ValueError as e:
            raise SystemExit(f"error: {e}")
    elif args.family is not None:
        witnesses.extend(
            actions_mod.filtration_family(
                args.family, group, args.max_dim, args.trunc
            )
        )
    else:
        raise SystemExit("error: pick one of --generator, --landweber, --family")
    obj = {"witnesses": [w.to_obj() for w in witnesses]}
    lines = []
    for w in witnesses:
        lines.append(
            f"{w.provenance}: {w.variety.to_obj()!r}  fixed_dim="
            f"{_fmt_bound(w.fixed_dim)}"
        )
    _emit(obj, args.format, lines)
    return 0


# -- verification suites ----------------------------------------------------


def _suite_fgl(p, trunc):
    ctx = fgl.context(trunc)
    checks = []
    F = ctx.fgl_sum
    checks.append(
        ("unit law F(x,0)=x", all(
            F.coeff((i, 0)) == (1 if i == 1 else 0) for i in range(ctx.cap + 1)
        ))
    )
    sym = all(F.coeff((i, j)) == F.coeff((j, i)) for (i, j) in F.coeffs)
    checks.append(("symmetry", sym))
    deg = min(6, trunc)
    vars3 = ("x", "y", "z")
    caps = (deg,) * 3
    mk = lambda name: TruncSeries.variable(name, vars3, caps, deg, trunc=trunc)
    x, y, z = mk("x"), mk("y"), mk("z")
    left = ctx.apply_sum(ctx.apply_sum(x, y), z)
    right = ctx.apply_sum(x, ctx.apply_sum(y, z))
    checks.append((f"associativity to degree {deg}", left == right))
    t = ctx.t_var()
    checks.append(("F(t,t) = [2](t)", ctx.apply_sum(t, t) == ctx.n_series(2)))
    comp_ok = True
    for a in range(-4, 5):
        for b in range(-4, 5):
            if ctx.n_series(a).compose(ctx.n_series(b)) != ctx.n_series(a * b):
                comp_ok = False
    checks.append(("[a]([b](t)) = [ab](t) for |a|,|b| <= 4", comp_ok))
    inv = ctx.n_series(-1)
    checks.append(("F(t, [-1](t)) = 0", ctx.apply_sum(t, inv).is_zero()))
    u = ctx.landweber_coeffs(p)
    checks.append(
        (f"u_m vanish mod {p}", all(x.divisible_by(p) for x in u))
    )
    return checks


def _suite_ideals(p, max_n, trunc):
    from .lazard import CobordismClass

    ctx = fgl.context(trunc)
    checks = []
    for n in range(0, max_n + 1):
        if p ** max(n - 1, 0) - 1 > trunc:
            break
        coeffs = ctx.landweber_coeffs(p)
        if n >= 1:
            ok = all(
                lazard.in_landweber_ideal(CobordismClass(coeffs[m]), p, n)
                for m in range(min(p ** n - 1, trunc))
            )
            checks.append((f"u_m in I_{p}({n}) for m < {p**n - 1}", ok))
        if p ** n - 1 <= trunc:
            vn = CobordismClass(ctx.v(p, n))
            checks.append(
                (f"v_{n} not in I_{p}({n})",
                 not lazard.in_landweber_ideal(vn, p, n))
            )
            if n >= 1:
                checks.append(
                    (f"v_{n} indecomposable mod {p}",
                     lazard.is_indecomposable_mod_p(vn, p))
                )
    s = 0
    while p ** s - 1 <= min(trunc, 8):
        ys = geometry.evaluate(geometry.Hyp(p, p ** s - 1), trunc)
        ok_in = (
            lazard.in_landweber_ideal(ys, p, s + 1)
            if p ** s - 1 <= trunc
            else True
        )
        ok_out = not lazard.in_landweber_ideal(ys, p, s)
        ok_div = ys.image.divisible_by(p)
        checks.append(
            (f"Y_{s} in I_{p}({s+1}) minus I_{p}({s}), Chern numbers divisible",
             ok_in and ok_out and ok_div)
        )
        s += 1
        if p ** s - 1 > trunc or p ** s - 1 > p ** (max_n) - 1:
            break
    return checks


def _suite_presentation(p, trunc):
    cases = [(1, 1)]
    if p == 2:
        cases.append((2, 1))
        if 2 ** 2 - 1 <= trunc:
            cases.append((1, 2))
    report = equivariant.verify_presentation(p, cases, trunc)
    return [(name, ok) for name, ok, _ in report.entries]


def _suite_soundness(p, trunc):
    checks = []
    groups = [
        actions_mod.GroupDescriptor(p, (1,)),
        actions_mod.GroupDescriptor(p, (2,)),
        actions_mod.GroupDescriptor(p, (1, 1)),
    ]
    max_dim = min(6, trunc)
    for group in groups:
        ok = True
        for i in range(1, max_dim + 1):
            for w in actions_mod.generator_action(i, group, trunc):
                cl = w.cobordism_class(trunc)
                b = bounds_mod.fixed_dim_lower_bound(cl, group).lower_bound
                if b > w.fixed_dim:
                    ok = False
        s = 0
        while group.rank > s and p ** s - 1 <= max_dim:
            w = actions_mod.landweber_variety(s, group, trunc)
            b = bounds_mod.fixed_dim_lower_bound(
                w.cobordism_class(trunc), group
            ).lower_bound
            if b != NEG_INF:
                ok = False
            s += 1
        checks.append(
            (f"witness soundness for p={p}, exponents={list(group.exponents)}", ok)
        )
        fam_ok = True
        for d in range(0, 3):
            for w in actions_mod.filtration_family(d, group, max_dim, trunc):
                cl = w.cobordism_class(trunc)
                rep = bounds_mod.fixed_dim_lower_bound(cl, group)
                if rep.lower_bound > d or rep.lower_bound > w.fixed_dim:
                    fam_ok = False
        checks.append(
            (f"filtration family levels for p={p}, "
             f"exponents={list(group.exponents)}", fam_ok)
        )
    return checks


def cmd_verify(args) -> int:
    p = args.p or 2
    suites = {
        "fgl": lambda: _suite_fgl(p, args.trunc),
        "ideals": lambda: _suite_ideals(p, args.max_n, args.trunc),
        "presentation": lambda: _suite_presentation(p, args.trunc),
        "soundness": lambda: _suite_soundness(p, args.trunc),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    failed = 0
    for name in names:
        for check, ok in suites[name]():
            status = "OK " if ok else "FAIL"
            print(f"[{status}] {name}: {check}")
            if not ok:
                failed += 1
    print(f"verify: {'OK' if not failed else f'{failed} FAILURES'}")
    return 0 if not failed else 1


# -- argument parsing --------------------------------------------------------


def _add_common(sub, group_flag=True):
    sub.add_argument("--trunc", type=int, default=None,
                     help="truncation weight (default 12, env COBORD_TRUNC)")
    sub.add_argument("--format", choices=("json", "table"), default="json")
    if group_flag:
        sub.add_argument("--p", type=int, default=2, help="the prime")
        sub.add_argument(
            "--group",
            default="",
            help="comma-separated exponents a_1,...,a_r (empty: trivial group)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cobord",
        description="Exact Lazard-ring calculator: Chern numbers, Landweber "
        "ideals, and fixed-locus dimension bounds for diagonalizable p-group "
        "actions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("class", help="Chern numbers and generator coordinates")
    s.add_argument("expr", help='variety expression, e.g. \'{"hyp":[3,2]}\'')
    _add_common(s, group_flag=False)
    s.set_defaults(func=cmd_class)

    s = subs.add_parser("bound", help="fixed-locus dimension lower bound")
    s.add_argument("expr")
    _add_common(s)
    s.set_defaults(func=cmd_bound)

    s = subs.add_parser("fixedpoint", help="is a fixed point forced?")
    s.add_argument("expr")
    _add_common(s)
    s.set_defaults(func=cmd_fixedpoint)

    s = subs.add_parser("chern-bound", help="single-partition Chern-number bound")
    s.add_argument("expr")
    s.add_argument("--alpha", required=True, help="comma-separated partition")
    _add_common(s)
    s.set_defaults(func=cmd_chern_bound)

    s = subs.add_parser("actions", help="explicit action witnesses")
    s.add_argument("--generator", type=int, default=None, metavar="I",
                   help="signed witness pair for the degree-I generator")
    s.add_argument("--landweber", type=int, default=None, metavar="S",
                   help="fixed-point-free witness of dimension p^S - 1")
    s.add_argument("--family", type=int, default=None, metavar="D",
                   help="level-D filtration family")
    s.add_argument("--max-dim", type=int, default=6)
    _add_common(s)
    s.set_defaults(func=cmd_actions)

    s = subs.add_parser("verify", help="run invariant suites")
    s.add_argument("suite", choices=("fgl", "ideals", "presentation",
                                     "soundness", "all"))
    s.add_argument("--max-n", type=int, default=3)
    _add_common(s)
    s.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.trunc is None:
            args.trunc = _trunc_default()
        if args.trunc < 0:
            raise ValueError(f"truncation must be >= 0, got {args.trunc}")
        return args.func(args)
    except ValueError as e:
        # TruncationError and NotInLazardImage are ValueErrors too
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
