import importlib.util
from pathlib import Path

import pytest

from cobord import fgl, lazard
from cobord.series import BPoly, TruncSeries

TRUNC = 12


@pytest.fixture(scope="session")
def ctx():
    return fgl.context(TRUNC)


@pytest.fixture(scope="session")
def basis():
    return lazard.base_basis(TRUNC)


def _embed(f, slot, vars=("x", "y")):
    """Reindex a one-variable series onto one slot of a variable tuple."""
    n = len(vars)
    coeffs = {}
    for (k,), c in f.terms.items():
        coeffs[tuple(k if i == slot else 0 for i in range(n))] = c
    return TruncSeries(vars, f.total_cap, coeffs, trunc=f.trunc)


@pytest.fixture(scope="session")
def embed():
    return _embed


def sweep_inputs():
    """``perfbench/inputs.py``, the seeded inputs of the benchmark workloads."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- references that only the tests compare against ------------------------


def b_gen(i, trunc):
    """The generator b_i as a BPoly (b_0 is the unit)."""
    return BPoly.one(trunc) if i == 0 else BPoly({(i,): 1}, trunc)


def exp_series(ctx):
    """exp(t) = t + b_1 t^2 + b_2 t^3 + ... in the variable space of ``ctx``."""
    coeffs = {(k,): b_gen(k - 1, ctx.trunc) for k in range(1, ctx.trunc + 2)}
    return TruncSeries(("t",), ctx.cap, coeffs, trunc=ctx.trunc)


def graded_degree(series):
    """The d with each t^k coefficient homogeneous of weight k - d.

    None for the zero series; raises ValueError if there is no such d.
    """
    degree = None
    for exps, c in series.terms.items():
        d = sum(exps) - c.homogeneous_weight()
        if degree is None:
            degree = d
        elif degree != d:
            raise ValueError("series is not graded-homogeneous")
    return degree
