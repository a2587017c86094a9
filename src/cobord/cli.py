"""Command-line interface.

Subcommands: class, bound, fixedpoint, chern-bound, actions, verify.
JSON in, JSON out by default (canonical ordering, byte-stable across
runs); ``--format table`` renders the same data for humans.  ``verify``
runs the suites of ``checks.SUITES`` and prints one line per check, with
exit code 0 iff every check holds; only ``verify`` imports ``checks``.
The truncation weight defaults to 12 and may be overridden per call with
``--trunc`` or globally with the COBORD_TRUNC environment variable.
``class``, ``bound``, ``fixedpoint`` and ``chern-bound`` compute at the
smaller of the truncation and the query's own weight, so a large
truncation costs nothing.  ``actions`` builds no class and no basis: the
truncation only bounds the witnesses' dimensions.  ``verify`` uses it as
given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import actions as actions_mod
from . import bounds as bounds_mod
from . import geometry, lazard
from .lazard import NEG_INF
from .partitions import make
from .series import DEFAULT_TRUNCATION


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(obj, fmt, table):
    # ``table()`` builds the table lines, for that format only
    if fmt == "json":
        sys.stdout.write(_dump(obj))
    else:
        for line in table():
            print(line)


def _trunc_default() -> int:
    env = os.environ.get("COBORD_TRUNC")
    if not env:
        return DEFAULT_TRUNCATION
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"COBORD_TRUNC must be an integer, got {env!r}") from None


def _int_list(flag: str, text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ValueError(
            f"{flag} needs comma-separated integers, got {text!r}") from None


def _parse_group(args) -> actions_mod.GroupDescriptor:
    return actions_mod.GroupDescriptor(args.p, _int_list("--group", args.group))


def _parse_expr_arg(text: str):
    if text.strip() == "point":
        return geometry.Point()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"invalid JSON expression: {e}") from None
    return geometry.parse_expr(obj)


def _evaluate(expr, trunc, floor=0):
    """The class of ``expr`` at min(``trunc``, max(its weight, ``floor``)).

    No answer reads a degree above the class's weight, so a larger
    truncation would only build rows, codecs and generators that cannot
    change the output; below the weight, evaluation fails as before.
    """
    return geometry.evaluate(expr, min(trunc, max(expr.weight(), floor)))


# the suite names of ``checks.SUITES``, in order; a test keeps the two equal
SUITE_NAMES = ("fgl", "ideals", "presentation", "soundness")


def _fmt_bound(b):
    return "-inf" if b == NEG_INF else str(b)


def _order_text(group) -> str:
    # an order with more digits than ``str`` prints is refused unbuilt
    limit = sys.get_int_max_str_digits()
    if limit and sum(group.exponents) * math.log10(group.p) > limit:
        raise ValueError(f"the group order has more than {limit} digits")
    return str(group.order)


# -- subcommands -----------------------------------------------------------


def cmd_class(args) -> int:
    expr = _parse_expr_arg(args.expr)
    cl = _evaluate(expr, args.trunc)
    basis = lazard.base_basis(cl.trunc)
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
    _emit(obj, args.format, lambda: [
        f"dimension: {cl.dim}", "chern numbers:",
        *(f"  c_{list(k)} = {v}" for k, v in cl.image.sorted_terms()),
        "generator coordinates:",
        *(f"  {list(beta)}: {c}" for beta, c in coords.sorted_terms())])
    return 0


def cmd_bound(args) -> int:
    expr = _parse_expr_arg(args.expr)
    group = _parse_group(args)
    cl = _evaluate(expr, args.trunc)
    report = bounds_mod.fixed_dim_lower_bound(cl, group)
    obj = {"expr": expr.to_obj()}
    obj.update(report.to_obj())

    def table():
        lines = [
            f"class: {expr.to_obj()!r} (dim {report.class_dim})",
            f"group: p={group.p} exponents={list(group.exponents)} "
            f"(order {_order_text(group)}, rank {group.rank})",
            f"in rank ideal: {'yes' if report.in_ideal else 'no'}",
            f"fixed-locus lower bound: {_fmt_bound(report.lower_bound)}",
        ]
        if report.certificate:
            beta, coeff = report.certificate
            lines.append(f"certifying monomial: {list(beta)} (coefficient {coeff})")
        return lines

    _emit(obj, args.format, table)
    return 0


def cmd_fixedpoint(args) -> int:
    expr = _parse_expr_arg(args.expr)
    group = _parse_group(args)
    cl = _evaluate(expr, args.trunc)
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
    _emit(obj, args.format, lambda: [verdict])
    return 0


def cmd_chern_bound(args) -> int:
    expr = _parse_expr_arg(args.expr)
    group = _parse_group(args)
    try:
        alpha = make(_int_list("--alpha", args.alpha))
    except ValueError:
        _evaluate(expr, args.trunc)  # the class's own errors come first
        raise
    cl = _evaluate(expr, args.trunc, sum(alpha))
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
    _emit(obj, args.format, lambda: [line])
    return 0


def cmd_actions(args) -> int:
    group = _parse_group(args)
    witnesses, trunc = [], args.trunc  # a guard only: no class or basis is built
    if [args.generator, args.landweber, args.family].count(None) != 2:
        raise ValueError("pick one of --generator, --landweber, --family")
    if args.generator is not None:
        witnesses.extend(actions_mod.generator_action(args.generator, group, trunc))
    elif args.landweber is not None:
        witnesses.append(actions_mod.landweber_variety(args.landweber, group, trunc))
    else:
        witnesses.extend(
            actions_mod.filtration_family(args.family, group, args.max_dim, trunc))
    obj = {"witnesses": [w.to_obj() for w in witnesses]}
    _emit(obj, args.format, lambda: [
        f"{w.provenance}: {w.variety.to_obj()!r}  fixed_dim={_fmt_bound(w.fixed_dim)}"
        for w in witnesses])
    return 0


def cmd_verify(args) -> int:
    from . import checks  # only verify pays for the suites and their imports

    p = args.p
    if not lazard.is_prime(p):
        raise ValueError(f"{p} is not prime")
    params = {}  # the ideals suite's own default when --max-n is not given
    if args.max_n is not None:
        if args.suite not in ("ideals", "all"):
            raise ValueError(
                f"--max-n applies only to the ideals suite, not {args.suite}")
        if args.max_n < 0:
            raise ValueError(f"--max-n must be >= 0, got {args.max_n}")
        params["max_n"] = args.max_n
    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    failed = 0
    for name in names:
        suite = checks.SUITES[name]
        kwargs = params if suite is checks.landweber_chain else {}
        for check, ok, _ in suite(p, args.trunc, **kwargs).entries:
            status = "OK " if ok else "FAIL"
            print(f"[{status}] {name}: {check}")
            if not ok:
                failed += 1
    print(f"verify: {'OK' if not failed else f'{failed} FAILURES'}")
    return 0 if not failed else 1


# -- argument parsing --------------------------------------------------------


def _add_trunc(sub):
    sub.add_argument("--trunc", type=int, default=None,
                     help="truncation weight (default 12, env COBORD_TRUNC)")


def _add_common(sub, group_flag=True):
    _add_trunc(sub)
    sub.add_argument("--format", choices=("json", "table"), default="json")
    if group_flag:
        sub.add_argument("--p", type=int, default=2, help="the prime")
        sub.add_argument(
            "--group",
            default="",
            help="comma-separated exponents a_1,...,a_r (empty: trivial group)",
        )


class _Parser(argparse.ArgumentParser):
    """argparse with a one-line ``error:`` for an argv error, exit code 2;
    its subcommand parsers are of the same class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    s.add_argument("suite", choices=(*SUITE_NAMES, "all"))
    s.add_argument("--max-n", type=int, default=None)
    _add_trunc(s)
    s.add_argument("--p", type=int, default=2, help="the prime")
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
    except RecursionError:  # from the JSON decoder, the parser or evaluate
        print("error: expression nested too deeply", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
