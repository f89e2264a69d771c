"""Acceptance gate: one test per verification criterion, each printing a
pass/fail line with the measured values (run with -s to see them inline).

The same checks back the ``ddopt verify`` command.
"""

import pytest

from ddopt import checks


def _run(number, result):
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {number} [{result.name}]: {status}  "
          f"measured: {result.measured}  expected: {result.expected}")
    assert result.passed, "\n".join([result.name] + result.details)


def test_criterion_01_steady_state_sinusoid_error():
    result = checks.check_sinusoid_error()
    assert result.runtime > 0.0  # the sum of its two timed runs
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
