#!/usr/bin/env python3
"""End-to-end benchmark of the ``cobord`` calculator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the package is imported from ``src/``.
Workloads (see README.md for why each exists):

* ``cli-cold``    fresh ``cobord bound | fixedpoint | class`` processes at
                  truncation 14, six per round;
* ``lib-sweep``   one process per round: set-up, then distinct composite
                  classes through ``evaluate`` and ``fixed_dim_lower_bound``;
* ``verify-cold`` fresh ``cobord verify all --p 2`` processes at truncation 12.

Each workload is a closed loop with one operation outstanding.  Rounds
repeat until ``--seconds`` have passed, and a round always runs whole.
Every output is checked against the independent oracles in ``oracles.py``.
Every time is paired with a ``calibrate.py`` pass timed just before it and
reported scaled to a host on which that pass takes ``REF_CALIBRATION_S``.
With ``--trace 1`` each round runs twice, plain and traced, and only the
per-layer metrics of the traced processes are reported.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a run record goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import inputs
import oracles
import sweep
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

CLI_TRUNC = 14
SWEEP_TRUNC = 14
VERIFY_TRUNC = 12
SWEEP_QUERIES = 240  # per process, so peak RSS always covers the same count
PROBES_PER_ROUND = 2  # spread through the run, like the operations
# Every time is scaled to a host on which one calibrate.py pass takes this
# long: t * REF_CALIBRATION_S / (the pass timed next to it).
REF_CALIBRATION_S = 0.1
CHILD_TIMEOUT_S = 120
TAIL_MIN_SAMPLES = 40

EMPTY_LAYERS = tracer.aggregate({"spans": [], "import_s": 0.0, "counts": {}})
UNITS = {"setup_s": "s", "query_s.p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
PROBE = ("import sys, cobord, cobord.cli; "
         "print(cobord.KERNEL_IMPL, cobord.__file__, sys.version.split()[0])")


@dataclass
class Child:
    """Outcome of one child process, with its own peak RSS from wait4."""

    status: int
    stdout: str
    stderr: str
    wall_s: float
    ready_s: float | None  # spawn until the "ready" line, when awaited
    maxrss_kb: int

    def error(self):
        if self.status == 0:
            return None
        tail = self.stderr.strip().splitlines()[-1:] or [""]
        return f"exit status {self.status}: {tail[0][:200]}"


def run_child(argv, env, wait_ready=False) -> Child:
    """Spawn, read stdout to the end, reap with wait4; killed on timeout."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            ready_s = None
            if wait_ready:
                line = proc.stdout.readline()
                ready_s = time.perf_counter() - start if line == b"ready\n" else None
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall_s = time.perf_counter() - start
        finally:
            timer.cancel()
            timer.join()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Child(proc.returncode, out.decode(), err.read().decode(errors="replace"),
                     wall_s, ready_s, usage.ru_maxrss)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def calibration(env) -> float:
    """Seconds of one calibrate.py pass, in a fresh process like the
    operation it is paired with."""
    res = run_child([sys.executable, str(BENCH / "calibrate.py")], env)
    if res.status != 0:
        raise SystemExit(f"calibrate.py failed: {res.error()}")
    return float(res.stdout)


def at_ref(seconds, calibration_s):
    return seconds * REF_CALIBRATION_S / calibration_s


class Clock:
    """Runs timed children with a calibration pass between each two, and
    scales each child by the mean of the passes just before and after it."""

    def __init__(self, env):
        self.env = env
        self.before = self.after = calibration(env)
        self.wall_s, self.calibration_s = [], []  # raw, per child, for the record

    def run(self, argv, wait_ready=False) -> Child:
        self.before = self.after
        res = run_child(argv, self.env, wait_ready)
        self.after = calibration(self.env)
        self.wall_s.append(res.wall_s)
        self.calibration_s.append((self.before + self.after) / 2)
        return res

    def scaled(self, seconds):
        """Seconds of the last child, at the reference speed."""
        return at_ref(seconds, self.calibration_s[-1])


def probe(clock, count, samples):
    """Processes that import the package and exit; appends their scaled
    wall times to samples["setup_s"] and returns what the last one reported."""
    info = None
    for _ in range(count):
        res = clock.run([sys.executable, "-c", PROBE])
        if res.status != 0:
            raise SystemExit(f"cannot import cobord from {SRC}: {res.error()}")
        kernel, path, version = res.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"cobord was imported from {path}, not from {SRC}")
        samples["setup_s"].append(clock.scaled(res.wall_s))
        info = {"kernel_impl": kernel, "python": version}
    return info


def cli_args(op, trunc):
    cmd, expr, group = op
    args = [cmd, inputs.canonical(expr), "--trunc", str(trunc)]
    if group:
        p, exps = group
        args += ["--p", str(p), "--group", ",".join(map(str, exps))]
    return args


def check_cli(op, res):
    """Problems with one cli-cold operation; empty when it passed."""
    if res.error():
        return [res.error()]
    try:
        return cli_problems(op, json.loads(res.stdout))
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as e:
        return [f"malformed output: {type(e).__name__}: {e}"]


def cli_problems(op, obj):
    cmd, expr, group = op
    problems = [] if obj["expr"] == expr else [f"echoed expr {obj['expr']!r}"]
    if cmd == "class":
        chern = [(c["partition"], c["value"]) for c in obj["chern_numbers"]]
        return problems + oracles.check_class(expr, obj["dim"], chern)
    p, exps = group
    if obj["group"] != {"p": p, "exponents": exps}:
        problems.append(f"echoed group {obj['group']!r}")
    if cmd == "bound":
        return problems + oracles.check_bound(expr, p, exps, obj["dim"], obj["lower_bound"])
    return problems + oracles.check_fixedpoint(expr, p, exps, obj["forced_fixed_point"])


def check_verify(op, res):
    if res.error():
        return [res.error()]
    lines = res.stdout.strip().splitlines()
    fails = [line for line in lines if line.startswith("[FAIL")]
    if lines[-1:] != ["verify: OK"]:
        fails.append(f"last line {lines[-1:]!r}")
    return fails


class Tally:
    """Attempted and failed operations: an error or a wrong answer fails one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, what, problems) -> bool:
        """Count one operation; True when it passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages += [f"{what}: {m}" for m in problems][:4]
        return not problems


def traced_metrics(spans_file):
    with open(spans_file) as fh:
        record = json.load(fh)
    os.remove(spans_file)
    return tracer.aggregate(record)


def new_samples():
    # op_s and traced_op_s hold the scaled times of operations that passed;
    # busy_s sums the scaled times of every operation, failed ones too
    return {"setup_s": [], "op_s": [], "traced_op_s": [], "rss_kb": [], "layers": [],
            "busy_s": 0.0}


def run_cold(name, rounds_of, argv_of, check, args, clock, tally):
    samples = new_samples()
    start = time.perf_counter()
    rounds = 0
    while True:
        info = probe(clock, PROBES_PER_ROUND, samples)
        ops = rounds_of(rounds)
        for i, op in enumerate(ops):
            res = clock.run([sys.executable, "-m", "cobord.cli", *argv_of(op)])
            op_s = clock.scaled(res.wall_s)
            samples["busy_s"] += op_s
            if tally.add(f"{name} round {rounds} op {i}", check(op, res)):
                samples["op_s"].append(op_s)
                samples["rss_kb"].append(res.maxrss_kb)
        if args.trace:
            for i, op in enumerate(ops):
                spans = OUT / f"spans-{name}-{os.getpid()}.json"
                argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans),
                        str(i), "--", *argv_of(op)]
                res = clock.run(argv)
                passed = tally.add(f"{name} round {rounds} traced op {i}", check(op, res))
                if passed and spans.exists():
                    samples["traced_op_s"].append(clock.scaled(res.wall_s))
                    samples["layers"].append(traced_metrics(spans))
                elif spans.exists():
                    spans.unlink()
        rounds += 1
        if time.perf_counter() - start >= args.seconds:
            break
    return samples, info, rounds


def sweep_result(res, count):
    """(result, None) for a well-formed sweep.py report, else (None, error)."""
    if res.error():
        return None, res.error()
    if res.ready_s is None:
        return None, "no ready line"
    try:
        result = json.loads(res.stdout)
        passes = 1 + (count + sweep.CALIBRATE_EVERY - 1) // sweep.CALIBRATE_EVERY
        if not len(result["outputs"]) == len(result["times"]) == count:
            return None, f"{len(result['outputs'])} outputs for {count} queries"
        if len(result["passes"]) != passes or min(result["passes"]) <= 0:
            return None, f"calibration passes {result['passes']!r}"
        return result, None
    except (ValueError, KeyError, TypeError) as e:
        return None, f"malformed output: {type(e).__name__}: {e}"


def check_query(q, out):
    """Problems with one lib-sweep query's output; empty when it passed."""
    try:
        problems = oracles.check_genera(q["expr"], out["chi"], Fraction(*out["todd"]))
        return problems + oracles.check_bound(q["expr"], q["p"], q["exponents"],
                                              out["dim"], out["lower_bound"])
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as e:
        return [f"malformed output: {type(e).__name__}: {e}"]


def run_sweep(args, clock, tally):
    info = probe(clock, 1, new_samples())
    samples = new_samples()
    start = time.perf_counter()
    rounds = 0
    while True:
        queries = inputs.sweep_round(args.seed, rounds, SWEEP_QUERIES)
        job = OUT / f"sweep-{os.getpid()}.json"
        job.write_text(json.dumps({"trunc": SWEEP_TRUNC, "queries": queries}))
        for traced in [False, True] if args.trace else [False]:
            spans = OUT / f"spans-lib-sweep-{os.getpid()}.json"
            argv = [sys.executable, str(BENCH / "sweep.py"), str(job)]
            res = clock.run(argv + [str(spans)] if traced else argv, wait_ready=True)
            what = f"lib-sweep round {rounds}{' traced' if traced else ''}"
            result, error = sweep_result(res, len(queries))
            if error:
                for i in range(len(queries)):
                    tally.add(f"{what} query {i}", [error])
                if spans.exists():
                    spans.unlink()
                continue
            times, passes = [], result["passes"]
            for i, (q, out, t) in enumerate(zip(queries, result["outputs"], result["times"])):
                block = i // sweep.CALIBRATE_EVERY
                query_s = at_ref(t, (passes[block] + passes[block + 1]) / 2)
                if not traced:
                    samples["busy_s"] += query_s
                if tally.add(f"{what} query {i}", check_query(q, out)):
                    times.append(query_s)
            if traced:
                samples["traced_op_s"] += times
                samples["layers"].append(traced_metrics(spans))
            else:
                # set-up ends at "ready", just before the sweep's first pass
                samples["setup_s"].append(at_ref(res.ready_s, (clock.before + passes[0]) / 2))
                samples["op_s"] += times
                samples["rss_kb"].append(res.maxrss_kb)
        job.unlink()
        rounds += 1
        if time.perf_counter() - start >= args.seconds:
            break
    return samples, info, rounds


def tail(values):
    """Highest of p90/p95/p99/p99.9 with at least 10 samples beyond it."""
    n = len(values)
    if n < TAIL_MIN_SAMPLES:
        return None
    ordered = sorted(values)
    best = None
    for pct in (90, 95, 99, 99.9):
        rank = int(n * pct / 100)  # samples at or below the percentile
        if n - rank >= 10:
            best = {"percentile": pct, "value": ordered[rank - 1],
                    "samples": n, "beyond": n - rank}
    return best


def end_to_end(samples):
    ops = len(samples["op_s"])
    return {
        "setup_s": (statistics.median(samples["setup_s"]), len(samples["setup_s"])),
        "query_s.p50": (statistics.median(samples["op_s"]), ops),
        "ops_per_s": (ops / samples["busy_s"], ops),
        "peak_rss_mb": (max(samples["rss_kb"]) / 1024, len(samples["rss_kb"])),
    }


def per_layer(samples):
    """Mean per traced process (a cold operation, or a sweep round)."""
    layers = samples["layers"] or [EMPTY_LAYERS]
    out = {key: statistics.fmean(layer[key] for layer in layers)
           for key in EMPTY_LAYERS}
    out["trace.overhead_s"] = (statistics.median(samples["traced_op_s"])
                               - statistics.median(samples["op_s"]))
    return out


def layer_unit(name):
    return "s" if name.endswith("_s") else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-cold", "lib-sweep", "verify-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "cobord" / "__init__.py").is_file():
        print(f"error: no cobord sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    clock = Clock(child_env())
    tally = Tally()

    if args.workload == "cli-cold":
        trunc = CLI_TRUNC
        samples, info, rounds = run_cold(
            args.workload, lambda k: inputs.cli_round(args.seed, k, trunc),
            lambda op: cli_args(op, trunc), check_cli, args, clock, tally)
    elif args.workload == "verify-cold":
        trunc = VERIFY_TRUNC
        # The suite's input is fixed; the seed only labels the run.
        verify = ["verify", "all", "--p", "2", "--trunc", str(trunc)]
        samples, info, rounds = run_cold(
            args.workload, lambda k: [verify], lambda op: op, check_verify,
            args, clock, tally)
    else:
        trunc = SWEEP_TRUNC
        samples, info, rounds = run_sweep(args, clock, tally)

    if not samples["op_s"] or (args.trace and not samples["traced_op_s"]):
        print(f"error: no {args.workload} operation passed; "
              f"{tally.messages[:1]}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{tally.attempted} operations in {rounds} rounds, {tally.failed} failed "
          f"(kernel {info['kernel_impl']}, Python {info['python']}, truncation {trunc})")
    e2e, query_tail, layers = None, None, None
    if args.trace:
        # End-to-end numbers never come from a traced run.
        layers = per_layer(samples)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        for key, value in layers.items():
            print(f"  {key:<44} {value:14.6f} {layer_unit(key)}")
    else:
        e2e = end_to_end(samples)
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, (v, _) in e2e.items()}
        for key, (value, count) in e2e.items():
            print(f"  {key:<14} {value:12.6f} {UNITS[key]:<4} ({count} samples)")
        query_tail = tail(samples["op_s"])
        if query_tail:
            print(f"  query_s.tail   {query_tail['value']:12.6f} s    "
                  f"(p{query_tail['percentile']}, {query_tail['beyond']} of "
                  f"{query_tail['samples']} samples beyond it)")
        else:
            print(f"  query_s.tail   not reported: {len(samples['op_s'])} < "
                  f"{TAIL_MIN_SAMPLES} samples")
    for message in tally.messages[:20]:
        print(f"  FAILED {message}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "truncation": trunc, "rounds": rounds,
        "python": info["python"], "kernel_impl": info["kernel_impl"],
        "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.messages[:50],
        "end_to_end": e2e and {k: {"value": v, "unit": UNITS[k], "samples": n}
                               for k, (v, n) in e2e.items()},
        "query_s.tail": query_tail,
        "per_layer": layers,
        "reference_calibration_s": REF_CALIBRATION_S,
        "samples": {"setup_s": samples["setup_s"], "query_s": samples["op_s"],
                    "process_wall_s": clock.wall_s,
                    "calibration_s": clock.calibration_s,
                    "traced_query_s": samples["traced_op_s"]},
    }
    record_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
