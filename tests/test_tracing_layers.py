"""The benchmark's per-layer tracer wraps geosym attributes by name; each
name it lists must still exist, or a traced run breaks."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _layers():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing").LAYERS
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("target", sorted(
    t for targets in _layers().values() for t in targets))
def test_traced_attribute_resolves(target):
    # the lookup of tracing.Tracer.install and Tracer.wrap
    mod_name, path = target.split(":")
    owner = importlib.import_module(f"geosym.{mod_name}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert callable(vars(owner)[attr])
