"""The benchmark's per-layer spans name functions that exist.

``perfbench/tracing.py`` skips a wrapped name missing from the library, so
renaming such a function would silently turn its metrics into zeros.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


TRACED = sorted(set(tracing.FUNCTION_METRICS) | set(tracing.INTRA_MODULE))


@pytest.mark.parametrize("layer,name", TRACED)
def test_traced_name_resolves_to_a_library_function(layer, name):
    assert layer in tracing.LAYERS
    obj = getattr(importlib.import_module(f"nscycles.{layer}"), name, None)
    assert tracing._is_function(obj), f"nscycles.{layer}.{name} is not a function"
    assert obj.__module__ == f"nscycles.{layer}"
