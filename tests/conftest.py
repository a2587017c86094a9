import pytest

from cobord import fgl, lazard
from cobord.series import TruncSeries

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
    for (k,), c in f.coeffs.items():
        coeffs[tuple(k if i == slot else 0 for i in range(n))] = c
    return TruncSeries(vars, (f.total_cap,) * n, f.total_cap, coeffs, trunc=f.trunc)


@pytest.fixture(scope="session")
def embed():
    return _embed
