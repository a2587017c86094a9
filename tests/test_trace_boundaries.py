"""The traced benchmark run wraps named layer boundaries of ``cobord``.

``perfbench/tracer.py`` lists them in ``BOUNDARIES`` and looks each one up
in its owner's ``__dict__``; a boundary renamed or removed here would only
surface as a crash of ``perfbench/run.py --trace 1``.  These checks read
the list without installing any wrapper.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


@pytest.mark.parametrize("boundary", _boundaries(), ids=lambda b: b[3])
def test_every_traced_boundary_resolves(boundary):
    mod, owner, attr, _, kind, stats = boundary
    target = importlib.import_module(f"cobord.{mod}")
    if owner:
        target = getattr(target, owner)
    own = vars(target).get(attr)
    assert own is not None, f"{attr} is not defined on cobord.{mod}.{owner or ''}"
    if kind == "property":
        assert isinstance(own, property)
    else:
        assert callable(own)
    if "misses" in stats:
        assert hasattr(own, "cache_info")
