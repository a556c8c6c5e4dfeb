"""The functions the benchmark traces by name still exist.

The benchmark harness wraps ``casweep.<layer>.<function>`` for every
per-layer metric ``<layer>.<function>.{calls,s,self_s}`` that
BENCHMARK.json declares, looking each function up by name.  A refactor
that renames or removes one of them breaks the tracer; this test fails
first.
"""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TIME_SUFFIXES = ("calls", "s", "self_s")


def traced_functions() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    found = []
    for metric in spec["per_layer"]:
        function, _, suffix = metric["name"].rpartition(".")
        if suffix in TIME_SUFFIXES and function.count(".") == 1 \
                and function not in found:
            found.append(function)
    return found


def test_benchmark_traces_functions():
    assert len(traced_functions()) >= 10


@pytest.mark.parametrize("function", traced_functions())
def test_traced_function_exists(function):
    layer, name = function.split(".")
    module = importlib.import_module(f"casweep.{layer}")
    assert callable(getattr(module, name, None)), function
