"""Layer spans recorded from outside the ``cobord`` package.

``Tracer.install`` replaces the layer boundaries named in ``BOUNDARIES``
with timing wrappers: module functions, methods and properties, and
``lru_cache`` objects (wrapped from outside, so cache hits still count as
calls).  It then rebinds every name that ``from ... import`` copied into
another ``cobord`` module, so those calls are traced too.  The kernel
implementation modules themselves are left alone: ``mul_terms`` calling
``mul_into`` inside the kernel is one kernel call, not two.

Spans (name, start, end, parent, operation id) stay in memory and are
written out by ``dump``; ``aggregate`` turns them into per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module, owner attribute or None, attribute, span name, kind, statistics).
# Kind "by-type" names each span after the type of the first argument, and
# "count" records calls without a span.  Each statistic becomes the metric
# "<span name>.<statistic>": "calls" counts spans (summed over the types of a
# "by-type" boundary), "self_s" and "total_s" are computed from the spans
# (prefixed by a type name for a "by-type" boundary), "misses" is read from
# the lru_cache's cache_info(), and "pairs" is the kernel product size.
CONSTRUCTORS = ("Milnor", "Hyp", "CompInt", "Proj", "Product", "DisjointUnion", "Scaled")
CALLS_SELF = ("calls", "self_s")
BOUNDARIES = [
    ("_backend", None, "mul_into", "kernel.mul_into", "fn", ("calls", "pairs", "self_s")),
    ("_backend", None, "mul_terms", "kernel.mul_terms", "fn", CALLS_SELF),
    ("_backend", None, "iadd_terms", "kernel.iadd_terms", "fn", ("self_s",)),
    ("series", "TruncSeries", "__mul__", "series.TruncSeries.mul", "fn", CALLS_SELF),
    ("series", "TruncSeries", "inverse", "series.TruncSeries.inverse", "fn", CALLS_SELF),
    ("series", "TruncSeries", "__pow__", "series.TruncSeries.pow", "fn", CALLS_SELF),
    ("series", "TruncSeries", "compose", "series.TruncSeries.compose", "fn", CALLS_SELF),
    ("series", "TruncSeries", "comp_inverse", "series.TruncSeries.comp_inverse", "fn",
     CALLS_SELF),
    ("series", "TruncSeries", "substitute", "series.TruncSeries.substitute", "fn",
     CALLS_SELF),
    ("series", "BPoly", "__mul__", "series.BPoly.mul", "fn", CALLS_SELF),
    ("series", "BPoly", "inverse", "series.BPoly.inverse", "fn", CALLS_SELF),
    ("geometry", None, "evaluate", "geometry.evaluate", "by-type",
     ("calls", "misses", *(f"{c}.self_s" for c in CONSTRUCTORS))),
    ("lazard", None, "base_basis", "lazard.base_basis", "fn", ("total_s",)),
    ("lazard", None, "adapted_basis", "lazard.adapted_basis", "fn", ("total_s", "misses")),
    ("lazard", "GeneratorBasis", "solve", "lazard.solve", "fn", CALLS_SELF),
    ("lazard", "GeneratorBasis", "image_of_monomial", "lazard.image_of_monomial", "count",
     ("calls",)),
    ("lazard", None, "reduce_mod_landweber", "lazard.reduce_mod_landweber", "fn",
     ("self_s",)),
    ("lazard", None, "in_landweber_ideal", "lazard.in_landweber_ideal", "fn", ("self_s",)),
    ("fgl", None, "context", "fgl.context", "fn", ("total_s",)),
    ("fgl", "FglContext", "log", "fgl.log", "property", ("total_s",)),
    ("fgl", "FglContext", "fgl_sum", "fgl.fgl_sum", "property", ("total_s",)),
    ("fgl", "FglContext", "n_series", "fgl.n_series", "fn", ("calls", "total_s")),
    ("fgl", "FglContext", "apply_sum", "fgl.apply_sum", "fn", ("total_s",)),
    ("fgl", "FglContext", "landweber_coeffs", "fgl.landweber_coeffs", "fn", ("total_s",)),
    ("bounds", None, "fixed_dim_lower_bound", "bounds.fixed_dim_lower_bound", "fn",
     ("self_s",)),
    ("bounds", None, "has_forced_fixed_point", "bounds.has_forced_fixed_point", "fn",
     ("self_s",)),
    ("bounds", None, "chern_bound", "bounds.chern_bound", "fn", ("self_s",)),
    ("actions", None, "generator_action", "actions.generator_action", "fn", ("total_s",)),
    ("actions", None, "filtration_family", "actions.filtration_family", "fn", ("total_s",)),
    ("equivariant", None, "verify_presentation", "equivariant.verify_presentation", "fn",
     ("total_s",)),
    ("equivariant", None, "p_to_a", "equivariant.p_to_a", "fn", ("total_s",)),
    ("cli", None, "main", "cli.main", "fn", ("self_s",)),
]


class Tracer:
    def __init__(self):
        self.spans = []  # index -> (name, start, end, parent index, op id)
        self.stack = []
        self.op = -1  # operation id stamped on new spans; -1 is set-up
        self.pairs = 0  # sum of |x|*|y| over kernel.mul_into calls
        self.counts = {}  # calls of the "count" boundaries
        self.caches = {}

    def _wrap(self, fn, name, kind):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        if kind == "count":
            # called ~10^5 times per sweep round from inside solve: a call
            # count only, its time stays in the caller's span
            self.counts[name] = 0

            def counter(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)

            return counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            label = f"{name}.{type(args[0]).__name__}" if kind == "by-type" else name
            if name == "kernel.mul_into":
                self.pairs += len(args[1]) * len(args[2])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.op)

        return wrapper

    def install(self):
        """Wrap every boundary; call after importing ``cobord``."""
        modules = {m: importlib.import_module(f"cobord.{m}") for m in
                   {b[0] for b in BOUNDARIES}}
        replaced = {}
        for mod, owner, attr, name, kind, stats in BOUNDARIES:
            target = getattr(modules[mod], owner) if owner else modules[mod]
            orig = target.__dict__[attr]
            if "misses" in stats:
                self.caches[f"{name}.misses"] = orig
            if kind == "property":
                wrapped = property(self._wrap(orig.fget, name, kind))
            else:
                wrapped = self._wrap(orig, name, kind)
                replaced[id(orig)] = wrapped
            setattr(target, attr, wrapped)
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("cobord") or modname.startswith("cobord._kernel"):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])

    def dump(self, path, extra):
        """Write the spans as integer rows (name index, start ns, end ns,
        parent, op id) under a table of names."""
        counts = {m: c.cache_info().misses for m, c in self.caches.items()}
        counts["kernel.mul_into.pairs"] = self.pairs
        counts.update((f"{name}.calls", n) for name, n in self.counts.items())
        index = {}
        rows = [(index.setdefault(name, len(index)), *rest)
                for name, *rest in self.spans]
        text = json.dumps({"names": list(index), "spans": rows, "counts": counts,
                           **extra})  # json.dump to a file is several times slower
        with open(path, "w") as fh:
            fh.write(text)


def aggregate(record) -> dict:
    """Per-layer metrics of one traced process, named by ``BOUNDARIES``.

    ``self_s`` is a span's duration minus the time its direct child spans
    cover; ``total_s`` sums the spans that have no ancestor of the same
    name, so recursion is not counted twice.
    """
    names, spans, counts = record.get("names", []), record["spans"], record["counts"]
    totalled = {b[3] for b in BOUNDARIES if "total_s" in b[5]}
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls, self_ns, total_ns = {}, {}, {}
    for idx, (key, start, end, parent, _) in enumerate(spans):
        calls[key] = calls.get(key, 0) + 1
        self_ns[key] = self_ns.get(key, 0) + (end - start) - child_ns[idx]
        if names[key] not in totalled:
            continue
        anc = parent
        while anc >= 0 and spans[anc][0] != key:
            anc = spans[anc][3]
        if anc < 0:
            total_ns[key] = total_ns.get(key, 0) + (end - start)
    calls = {names[k]: v for k, v in calls.items()}
    times = {"self_s": {names[k]: v / 1e9 for k, v in self_ns.items()},
             "total_s": {names[k]: v / 1e9 for k, v in total_ns.items()}}

    out = {}
    for *_, name, kind, stats in BOUNDARIES:
        for stat in stats:
            metric = f"{name}.{stat}"
            if stat in ("misses", "pairs") or kind == "count":
                out[metric] = counts.get(metric, 0)
            elif stat == "calls":
                out[metric] = sum(n for label, n in calls.items() if label == name
                                  or kind == "by-type" and label.startswith(f"{name}."))
            else:
                label, _, which = metric.rpartition(".")
                out[metric] = times[which].get(label, 0.0)
    out["process.import_s"] = record["import_s"]
    return out
