import pytest

from ddopt import svg


@pytest.mark.parametrize("hi", [5e-324, 1e-323, 2e-323, 5e-323])
def test_range_narrower_than_a_decimal_step_ticks_its_ends(hi):
    # A fifth of the range has no power of ten below it in float64.
    assert svg._ticks(0.0, hi) == [0.0, hi]


def test_narrowest_range_with_a_decimal_step_keeps_its_ticks():
    assert svg._ticks(0.0, 1e-322) == [0.0, 2e-323, 4e-323, 6e-323, 8e-323, 1e-322]
