import math

import pytest

from ddopt import svg


@pytest.mark.parametrize("hi", [5e-324, 1e-323, 2e-323, 5e-323])
def test_range_narrower_than_a_decimal_step_ticks_its_ends(hi):
    # A fifth of the range has no power of ten below it in float64.
    assert svg._ticks(0.0, hi) == [0.0, hi]


def test_narrowest_range_with_a_decimal_step_keeps_its_ticks():
    assert svg._ticks(0.0, 1e-322) == [0.0, 2e-323, 4e-323, 6e-323, 8e-323, 1e-322]


@pytest.mark.parametrize("lo, hi", [
    (1.0, 1.0000000000000002),                    # one float spacing wide
    (1.9999999999999998, 2.0000000000000004),     # the spacing doubles at 2
    (-1.0000000000000002, -0.9999999999999998),   # and halves at -1
])
def test_range_a_few_float_spacings_wide_returns_ticks_inside_it(lo, hi):
    # The decimal step is below half the float spacing, so adding it moves no
    # tick; the ticks are the range's ends.
    ticks = svg._ticks(lo, hi)
    assert ticks and all(math.isfinite(v) and lo <= v <= hi for v in ticks)
