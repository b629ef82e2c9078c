"""Every name the benchmark's tracer wraps must still exist on its sphcav module.

``benchmarks/spans.py`` looks the wrapped functions up by name when a traced
run starts, so removing or renaming one of them breaks ``run.py --trace 1``.
The lists are read from that file, not copied.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped():
    spans = _spans()
    tables = (spans._TARGETS, spans._SCIPY)
    return [(layer, name) for table in tables for layer, names in table.items() for name in names]


@pytest.mark.parametrize("layer,name", _wrapped(), ids=lambda v: v)
def test_traced_name_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"sphcav.{layer}"), name, None))
