"""The benchmark's tracer patches ddopt functions by name (perfbench/tracer.py).

A rename in ddopt would only show when the benchmark runs (``--trace 1`` and
``--smoke`` raise ``KeyError``), so the names are checked here. The tracer
module is loaded from its file and only read.
"""

import importlib
import inspect
import types
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # Compiled from the source text, so no bytecode cache is written there.
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module_name,path", [(m, p) for m, p, _, _ in tracer.LAYERS])
def test_every_traced_layer_resolves(module_name, path):
    owner = importlib.import_module(f"ddopt.{module_name}")
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    # The tracer patches the owner's own attribute, not an inherited one.
    assert attr in vars(owner), f"ddopt.{module_name}.{path}"
    assert callable(vars(owner)[attr])


@pytest.mark.parametrize("path,names", [
    ("sim._scan_linear", ["T", "V", "x0"]),
    ("sim.run_interconnection", ["cost", "signal", "mode", "cfg"]),
])
def test_counted_layers_keep_their_arguments(path, names):
    # The tracer's counters read these arguments by position or by name.
    module_name, attr = path.split(".")
    fn = getattr(importlib.import_module(f"ddopt.{module_name}"), attr)
    assert list(inspect.signature(fn).parameters)[:len(names)] == names
