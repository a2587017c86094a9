"""Tests of the benchmark's own checks and per-layer aggregation.

    python3 -m pytest perfbench/test_run.py -q
"""

import json
from pathlib import Path

import pytest

import run
import tracer

OP = ("bound", {"hyp": [3, 4]}, (2, [1]))


def child(stdout, status=0):
    return run.Child(status, stdout, "boom\n" if status else "", 1.0, None, 1024)


@pytest.mark.parametrize("stdout", [
    "not json", "[1, 2]", "null", "{}",
    json.dumps({"expr": {"hyp": [3, 4]}, "group": {"p": 2, "exponents": [1]}}),
])
def test_malformed_cli_output_fails_the_operation(stdout):
    problems = run.check_cli(OP, child(stdout))
    assert problems and problems[0].startswith("malformed output")


def test_nonzero_exit_fails_the_operation():
    assert run.check_cli(OP, child("", status=1)) == ["exit status 1: boom"]


def test_tally_counts_every_problem_as_failed():
    tally = run.Tally()
    assert tally.add("a", [])
    assert not tally.add("b", ["wrong"])
    assert not tally.add("c", ["exit status 1"])
    assert (tally.attempted, tally.failed) == (3, 2)


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert names == set(run.EMPTY_LAYERS) | {"trace.overhead_s"}


def test_aggregate_self_total_and_calls():
    names = ["fgl.n_series", "kernel.mul_into", "geometry.evaluate.Hyp",
             "geometry.evaluate.Point"]
    spans = [
        (0, 0, 100, -1, 0),   # n_series [0, 100]
        (0, 10, 60, 0, 0),    #   n_series nested: not added to total_s again
        (1, 20, 50, 1, 0),    #     mul_into
        (2, 200, 300, -1, 1),  # evaluate(Hyp) [200, 300]
        (3, 210, 220, 3, 1),  #   evaluate(Point)
    ]
    counts = {"geometry.evaluate.misses": 1, "kernel.mul_into.pairs": 12}
    out = tracer.aggregate({"names": names, "spans": spans, "counts": counts,
                            "import_s": 0.5})
    assert out["fgl.n_series.calls"] == 2
    assert out["fgl.n_series.total_s"] == pytest.approx(100e-9)
    assert out["kernel.mul_into.calls"] == 1
    assert out["kernel.mul_into.self_s"] == pytest.approx(30e-9)
    assert out["kernel.mul_into.pairs"] == 12
    assert out["geometry.evaluate.calls"] == 2
    assert out["geometry.evaluate.misses"] == 1
    assert out["geometry.evaluate.Hyp.self_s"] == pytest.approx(90e-9)
    assert out["lazard.image_of_monomial.calls"] == 0
    assert out["process.import_s"] == 0.5
