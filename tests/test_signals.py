import math

import numpy as np
import pytest

from ddopt import signals


def scalar(descriptor):
    return signals.AnalyticSignal((descriptor,))


class TestEval:
    def test_polynomial_derivative(self):
        sig = scalar(signals.Polynomial((0.0, 0.0, 1.0)))  # t^2
        assert sig.eval_many([3.0], 1)[0, 0] == pytest.approx(6.0, abs=1e-15)

    def test_sinusoid_first_derivative_at_zero_argument(self):
        sig = signals.sinusoid_5t_minus_2()
        # argument 5t-2 vanishes at t = 0.4, derivative is 5 cos(0) = 5
        assert sig.eval_many([0.4], 1)[0, 0] == pytest.approx(5.0, abs=1e-12)

    def test_sinusoid_value(self):
        sig = signals.sinusoid_5t_minus_2()
        assert sig.eval_many([0.0], 0)[0, 0] == pytest.approx(math.sin(-2.0), abs=1e-15)

    def test_cos2_matches_square_of_cos(self):
        sig = scalar(signals.Sinusoid(2.0, 5.0, -2.0, "cos2"))
        ts = [0.0, 0.3, 1.7]
        for t, value in zip(ts, sig.eval_many(ts, 0)[:, 0]):
            assert value == pytest.approx(2.0 * math.cos(5 * t - 2) ** 2, abs=1e-12)

    def test_constant(self):
        sig = scalar(signals.Polynomial((7.0,)))
        assert sig.eval_many([1.0], 0)[0, 0] == 7.0
        assert sig.eval_many([1.0], 1)[0, 0] == 0.0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            signals.sinusoid_5t_minus_2().eval_many([0.0], -1)

    def test_finite_difference_consistency(self):
        # Central differences of order-i curves match order i+1 at 100 random t.
        rng = np.random.default_rng(21)
        h = 1e-5
        descriptors = [
            signals.Sinusoid(1.0, 5.0, -2.0, "sin"),
            signals.Sinusoid(0.7, 3.0, 0.4, "cos"),
            signals.Sinusoid(1.0, 5.0, -2.0, "cos2"),
            signals.Polynomial((1.0, 2.0, 0.5, -0.25)),
            signals.Polynomial((3.0,)),
        ]
        for desc in descriptors:
            sig = scalar(desc)
            for order in range(5):
                ts = rng.uniform(0.0, 10.0, size=100)
                fd = (sig.eval_many(ts + h, order) - sig.eval_many(ts - h, order)) / (2 * h)
                exact = sig.eval_many(ts, order + 1)
                assert np.all(np.abs(fd - exact) <= 1e-5 * np.maximum(1.0, np.abs(exact)))


def _former_sinusoid(desc, t, order):
    """A sinusoid's derivative as one expression, each operation allocating."""
    offset, a, w, phi = desc.canonical()
    w = np.float64(w)
    value = a * w ** order * np.cos(w * t + phi + order * (0.5 * math.pi))
    return value + offset if order == 0 else value


def _former_polynomial(desc, t, order):
    value = np.zeros_like(t)
    for c in reversed(desc._derivative_coefficients(order)):
        value = value * t + c
    return value


class TestInPlaceEval:
    @pytest.mark.parametrize("order", range(5))
    def test_bits_equal_the_former_expressions(self, order):
        # Zero and negative amplitudes, signed zero phases, unit scales; the
        # order-0 offset of a zero amplitude turns -0.0 into +0.0.
        sinusoids = [signals.Sinusoid(a, w, phi, kind)
                     for kind in ("sin", "cos", "cos2")
                     for a in (1.0, -2.5, 0.0, -0.0)
                     for w in (5.0, 1.0, -3.0)
                     for phi in (0.0, -0.0, 0.7)]
        polynomials = [signals.Polynomial(c) for c in ((1.0, 2.0, 0.5, -0.25), (-0.0,),
                                                        (0.0, -0.0, 3.0), (2.0, 0.0, 0.0, -1.0))]
        sig = signals.AnalyticSignal(sinusoids + polynomials)
        t = np.concatenate([[0.0, -0.0], np.linspace(-10.0, 30.0, 801)])
        got = sig.eval_many(t, order)
        assert got.shape == (len(t), sig.dim)
        expected = np.column_stack([_former_sinusoid(d, t, order) for d in sinusoids]
                                   + [_former_polynomial(d, t, order) for d in polynomials])
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        zeros = expected == 0.0
        assert np.signbit(expected[zeros]).any() and not np.signbit(expected[zeros]).all()


class TestSupBound:
    def test_sinusoid_second_derivative(self):
        assert signals.sinusoid_5t_minus_2().sup_derivative_bound(2) == pytest.approx(25.0)

    def test_constant_derivative(self):
        assert scalar(signals.Polynomial((7.0,))).sup_derivative_bound(1) == 0.0

    def test_benchmark_path_second_derivative(self):
        # cos^2 rewritten as (1 + cos(2u))/2 has second-derivative amplitude 50;
        # root-sum-of-squares of (25, 25, 50) = sqrt(3750).
        bound = signals.benchmark_parameter_path().sup_derivative_bound(2)
        assert bound == pytest.approx(math.sqrt(3750.0), rel=1e-12)

    def test_polynomial_cases(self):
        poly = scalar(signals.Polynomial((1.0, 2.0, 0.5)))
        assert math.isinf(poly.sup_derivative_bound(1))
        assert poly.sup_derivative_bound(2) == pytest.approx(1.0)  # 0.5 * 2!
        assert poly.sup_derivative_bound(3) == 0.0

    def test_upper_bounds_dense_grid(self):
        ts = np.arange(0.0, 20.0 + 1e-9, 1e-3)
        for sig in (signals.sinusoid_5t_minus_2(), signals.benchmark_parameter_path()):
            for order in range(4):
                values = np.linalg.norm(sig.eval_many(ts, order), axis=1)
                assert np.max(values) <= sig.sup_derivative_bound(order) + 1e-9

    def test_sinusoid_bound_is_a_magnitude(self):
        # The sign of omega does not carry into the supremum.
        assert signals.Sinusoid(2.0, -5.0).sup_derivative(1) == 10.0
        assert signals.Sinusoid(2.0, -5.0, kind="cos2").sup_derivative(3) == 1000.0
        assert signals.Sinusoid(-2.0, -5.0).sup_derivative(2) == 50.0

    def test_sinusoid_bound_overflows_to_inf(self):
        # No OverflowError and no warning (warnings fail the run).
        assert scalar(signals.Sinusoid(1.0, 1e308)).sup_derivative_bound(2) == math.inf
        assert signals.Sinusoid(1e300, -1e10).sup_derivative(1) == math.inf
        assert signals.Sinusoid(0.0, 1e308).sup_derivative(2) == 0.0

    def test_bound_of_a_tiny_signal_is_nonzero(self):
        # Squaring 25e-165 underflows to zero; the bound must not.
        assert scalar(signals.Sinusoid(1e-165, 5.0)).sup_derivative_bound(2) > 0.0

    def test_polynomial_bound_overflows_to_inf(self):
        # 171! is past the float range; 170! is not.
        assert signals.Polynomial((0.0,) * 171 + (1.0,)).sup_derivative(171) == math.inf
        assert signals.Polynomial((0.0,) * 171 + (1.0,)).sup_derivative(172) == 0.0
        assert (signals.Polynomial((0.0,) * 170 + (2.0,)).sup_derivative(170)
                == 2.0 * math.factorial(170))


class TestNoise:
    def test_zero_variance_is_exact_and_leaves_rng_alone(self, monkeypatch):
        # Noise-free runs do not depend on a generator: none is made.
        monkeypatch.setattr(signals.NoiseSpec, "make_rng",
                            lambda self: pytest.fail("a generator was made"))
        values = signals.sinusoid_5t_minus_2().eval_many(np.array([0.3, 1.7]), 0)
        assert signals.sample_noisy_grid(values, signals.NoiseSpec(0.0, 123)) is values

    def test_repeated_time_points_draw_fresh_noise(self):
        # Noise is per sample, not per time point: the same time sampled
        # twice gets two draws.
        values = signals.sinusoid_5t_minus_2().eval_many(np.array([1.0, 1.0]), 0)
        a, b = signals.sample_noisy_grid(values, signals.NoiseSpec(0.01, 42))
        assert a[0] != b[0]

    def test_seeded_determinism(self):
        values = signals.benchmark_parameter_path().eval_many(np.linspace(0.0, 1.0, 5), 0)
        noise = signals.NoiseSpec(0.01, 7)
        draws1 = signals.sample_noisy_grid(values, noise)
        draws2 = signals.sample_noisy_grid(values, noise)
        assert np.array_equal(draws1, draws2)
        # The draws are the spec's generator's, in sample (row) order.
        normal = noise.make_rng().normal(0.0, math.sqrt(noise.variance), size=values.shape)
        assert np.array_equal(draws1, values + normal)

    def test_empirical_variance(self):
        # Law of large numbers: 1e5 draws of var 0.01 land in [0.0095, 0.0105].
        noise = signals.NoiseSpec(0.01, 2024)
        rng = noise.make_rng()
        draws = rng.normal(0.0, math.sqrt(noise.variance), size=100_000)
        assert 0.0095 <= float(np.var(draws)) <= 0.0105

    def test_negative_variance_rejected(self):
        # A nan variance would read as disabled noise and inf as enabled.
        for variance in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="variance"):
                signals.NoiseSpec(variance, 0)
        # A negative seed is refused here, not later inside numpy's generator.
        with pytest.raises(ValueError, match="seed"):
            signals.NoiseSpec(0.01, -1)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            signals.Sinusoid(1.0, 1.0, 0.0, "tan")

    def test_empty_signal(self):
        with pytest.raises(ValueError):
            signals.AnalyticSignal(())

    def test_empty_polynomial(self):
        with pytest.raises(ValueError):
            signals.Polynomial(())

    def test_dim(self):
        assert signals.benchmark_parameter_path().dim == 3
