"""Acceptance gate: one test per verification criterion, each printing a
pass/fail line with the measured values (run with -s to see them inline).

The same checks back the ``ddopt verify`` command.
"""

import inspect
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mutation_survey
from ddopt import checks
from test_benchmark_oracles import workloads   # perfbench/workloads.py, only read

# The runtime budgets of each check's gates, in the order it reports them.
BUDGETS = {
    "sinusoid-error": (1.0,),
    "polynomial-exactness": (1.0,),
    "sigma-scaling": (10.0,),
    "block-output-bound": (5.0,),
    "lyapunov-residuals": (),
    "transfer-equivalence": (),
    "ideal-tracking": (1.0,),
    "loss-ordering": (5.0,),
    "redesign-cancellation": (),
    "noise-robustness": (5.0,),
}


def test_battery_order_matches_the_benchmark():
    # The benchmark's verify workload runs checks.CHECKS in this order.
    assert [name for name, _ in checks.CHECKS] == list(workloads.EXPECTED_VERDICTS)
    assert list(BUDGETS) == list(workloads.EXPECTED_VERDICTS)
    for _, fn in checks.CHECKS:
        assert fn.__name__.startswith("check_") and fn.__doc__
        assert not inspect.signature(fn).parameters


def _run(number, result):
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {number} [{result.name}]: {status}  "
          f"measured: {result.measured}  expected: {result.expected}")
    # The benchmark judges a check by its detail lines; a drifted verdict,
    # message or budget would show there only as an incorrect run.
    gates = [workloads._RUNTIME_GATE.search(line) for line in result.details]
    verdicts = [line.startswith("PASS") for line, gate in zip(result.details, gates) if not gate]
    assert tuple(verdicts) == workloads.EXPECTED_VERDICTS[result.name], result.details
    assert all(gate for line, gate in zip(result.details, gates) if "runtime" in line)
    timed = [gate for gate in gates if gate]
    assert tuple(float(gate.group(2)) for gate in timed) == BUDGETS[result.name]
    if len(timed) == 1:
        assert timed[0].group(1) == f"{result.runtime:.2f}"
    assert result.passed, "\n".join([result.name] + result.details)


def test_criterion_01_steady_state_sinusoid_error():
    result = checks.check_sinusoid_error()
    assert result.runtime > 0.0  # the whole check, both of its runs included
    _run(1, result)


def test_criterion_02_polynomial_exactness():
    _run(2, checks.check_polynomial_exactness())


def test_criterion_03_sigma_scaling_law():
    _run(3, checks.check_sigma_scaling())


def test_criterion_04_block_output_bound():
    _run(4, checks.check_block_output_bound())


def test_criterion_05_lyapunov_residuals():
    _run(5, checks.check_lyapunov_residuals())


def test_criterion_06_transfer_equivalence():
    _run(6, checks.check_transfer_equivalence())


def test_criterion_07_ideal_correction_tracking():
    _run(7, checks.check_ideal_tracking())


@pytest.mark.known_shortfall
def test_criterion_08_estimated_correction_loss_ordering():
    # The sigma=5-versus-uncorrected separation measures ~1.87x against the
    # required 2x: at sigma equal to the dominant signal frequency the
    # error reduction per circular component is exactly a factor 2 in mean
    # loss, and the squared-cosine component (twice the frequency) drags the
    # aggregate below it. Kept as specified; see the README's verification
    # notes for the analysis.
    _run(8, checks.check_loss_ordering())


def test_criterion_09_redesign_cancellation():
    _run(9, checks.check_redesign_cancellation())


def test_criterion_10_noise_robustness():
    _run(10, checks.check_noise_robustness())


def _traced(fn):
    """Run ``fn`` under tracemalloc; return the bytes of numpy data it left
    allocated and the peak of all traced memory during it, above where it
    started."""
    numpy_data = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]

    def numpy_bytes():
        return sum(trace.size for trace in tracemalloc.take_snapshot().filter_traces(
            numpy_data).traces)

    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = numpy_bytes()
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        peak = tracemalloc.get_traced_memory()[1] - start
        return numpy_bytes() - before, peak
    finally:
        if not tracing:
            tracemalloc.stop()


def test_battery_retains_statistics_not_runs():
    # The shared runs are cached as the numbers the checks read of them,
    # not as trajectories, which would hold megabytes to the end of the
    # process.
    for value in vars(checks).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    retained, _ = _traced(checks.run_checks)
    assert retained < 0.1 * 2 ** 20


def test_block_output_bound_peak_memory():
    # Channel-major and in place, one gain's arrays at a time: about
    # 2.8 MiB. Holding one gain's output, bound and gap through the next
    # gain's drive passes the limit.
    np.random.default_rng()     # numpy.random is imported lazily; not counted
    _, peak = _traced(checks.check_block_output_bound)
    assert peak < 4 * 2 ** 20


def test_every_survey_mutant_applies():
    # The suite does not run tests/mutation_survey.py; this keeps a refactor
    # from silently leaving a mutant's edit matching nothing, or more than once.
    # The survey's mutant runs leave this test out by its node id.
    this = f"tests/{Path(__file__).name}::{test_every_survey_mutant_applies.__name__}"
    assert mutation_survey._GUARD == this
    for mutant in mutation_survey.MUTANTS:
        text = (mutation_survey.ROOT / mutant.path).read_text()
        assert text.count(mutant.old) == 1, mutant.what
