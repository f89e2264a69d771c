"""The benchmark's own correctness oracles (perfbench/workloads.py), run here.

The benchmark judges every op of its workloads after timing them, and a run
with an unexpected outcome is rejected as incorrect. Running the same ops
and judges in the test suite makes such an output drift fail here first.
The workloads module is loaded from its file and only read.
"""

import sys
import types
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    # Compiled from the source text, so no bytecode cache is written there.
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS_PATH)
    sys.modules[module.__name__] = module   # dataclasses look their module up there
    exec(compile(WORKLOADS_PATH.read_text(), str(WORKLOADS_PATH), "exec"), module.__dict__)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("workload", ["track", "sweep", "verify"])
def test_no_op_outcome_is_unexpected(tmp_path, capsys, workload):
    # Full-length ops at one seed. A known failure (the loss-ordering ratio)
    # is a failed op, not an unexpected one.
    unexpected = []
    for op in workloads.plan(workload, 3, tmp_path, smoke=False):
        judgement = op.judge(op.run())
        if judgement.unexpected:
            unexpected.append((op.name, judgement.notes))
    assert unexpected == []
