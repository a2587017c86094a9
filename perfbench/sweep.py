"""One round of the lib-sweep workload, run as its own process.

    python3 perfbench/sweep.py QUERIES_FILE [SPANS_FILE]

Set-up imports ``cobord``, builds ``base_basis``, ``fgl.context`` and the
adapted bases of every (p, rank) that ``inputs.py`` draws from, and fills
their monomial caches by bounding P^1..P^N under each; then it prints
``ready``.  Each
query times ``evaluate`` plus ``fixed_dim_lower_bound`` on one composite
class.  A ``calibrate.py`` pass runs before every block of
``CALIBRATE_EVERY`` queries and after the last; ``run.py`` scales each query
by the mean of the two passes around its block.  After the last query the
genera of every class are read off its Chern numbers, and one JSON line
reports times, passes and outputs.
"""

import itertools
import json
import sys
import time

import calibrate
import inputs
import oracles

CALIBRATE_EVERY = 20  # queries; a pass costs about ten of them


def main():
    queries_file, *spans_file = sys.argv[1:]
    with open(queries_file) as fh:
        job = json.load(fh)
    trunc = job["trunc"]

    start = time.perf_counter()
    from cobord import actions, bounds, fgl, geometry, lazard

    import_s = time.perf_counter() - start
    tracer = None
    if spans_file:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    lazard.base_basis(trunc)
    fgl.context(trunc)
    for p, rank in itertools.product(inputs.PRIMES, inputs.RANKS):
        lazard.adapted_basis(p, rank, trunc)
        group = actions.GroupDescriptor(p, (1,) * rank)
        for n in range(1, trunc + 1):
            bounds.fixed_dim_lower_bound(geometry.evaluate(geometry.Proj(n), trunc), group)
    work = [(geometry.parse_expr(q["expr"]),
             actions.GroupDescriptor(q["p"], tuple(q["exponents"])))
            for q in job["queries"]]
    print("ready", flush=True)

    times, results, passes = [], [], []
    for op, (expr, group) in enumerate(work):
        if op % CALIBRATE_EVERY == 0:
            passes.append(calibrate.one_pass())
        if tracer:
            tracer.op = op
        t0 = time.perf_counter()
        cl = geometry.evaluate(expr, trunc)
        report = bounds.fixed_dim_lower_bound(cl, group)
        times.append(time.perf_counter() - t0)
        results.append((cl, report))
    passes.append(calibrate.one_pass())

    outputs = []
    for cl, report in results:
        chern = cl.image.terms.items()
        todd = oracles.genus_todd(chern)
        outputs.append({
            "dim": cl.dim,
            "chi": oracles.genus_euler(chern),
            "todd": [todd.numerator, todd.denominator],
            "lower_bound": report.to_obj()["lower_bound"],
        })
    if tracer:
        tracer.dump(spans_file[0], {"import_s": import_s})
    print(json.dumps({"times": times, "passes": passes, "outputs": outputs}))


if __name__ == "__main__":
    main()
