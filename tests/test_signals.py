import math

import numpy as np
import pytest

from ddopt import signals


def scalar(descriptor):
    return signals.AnalyticSignal((descriptor,))


class TestEval:
    def test_polynomial_derivative(self):
        sig = scalar(signals.Polynomial((0.0, 0.0, 1.0)))  # t^2
        assert sig.eval(3.0, 1)[0] == pytest.approx(6.0, abs=1e-15)

    def test_sinusoid_first_derivative_at_zero_argument(self):
        sig = signals.sinusoid_5t_minus_2()
        # argument 5t-2 vanishes at t = 0.4, derivative is 5 cos(0) = 5
        assert sig.eval(0.4, 1)[0] == pytest.approx(5.0, abs=1e-12)

    def test_sinusoid_value(self):
        sig = signals.sinusoid_5t_minus_2()
        assert sig.eval(0.0, 0)[0] == pytest.approx(math.sin(-2.0), abs=1e-15)

    def test_cos2_matches_square_of_cos(self):
        sig = scalar(signals.Sinusoid(2.0, 5.0, -2.0, "cos2"))
        for t in (0.0, 0.3, 1.7):
            assert sig.eval(t, 0)[0] == pytest.approx(2.0 * math.cos(5 * t - 2) ** 2, abs=1e-12)

    def test_constant(self):
        sig = scalar(signals.Polynomial((7.0,)))
        assert sig.eval(1.0, 0)[0] == 7.0
        assert sig.eval(1.0, 1)[0] == 0.0

    def test_eval_many_matches_eval(self):
        sig = signals.benchmark_parameter_path()
        ts = np.array([0.0, 0.25, 1.5])
        grid = sig.eval_many(ts, 2)
        for i, t in enumerate(ts):
            assert np.array_equal(grid[i], sig.eval(t, 2))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            signals.sinusoid_5t_minus_2().eval(0.0, -1)

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


class TestNoise:
    def test_zero_variance_is_exact_and_leaves_rng_alone(self):
        sig = signals.sinusoid_5t_minus_2()
        noise = signals.NoiseSpec(0.0, 123)
        rng = noise.make_rng()
        before = rng.bit_generator.state["state"]["state"]
        ts = np.array([0.3, 1.7])
        sample = signals.sample_noisy_grid(sig, noise, ts, rng)
        assert np.array_equal(sample, sig.eval_many(ts, 0))
        assert rng.bit_generator.state["state"]["state"] == before

    def test_repeated_calls_draw_fresh_noise(self):
        # Noise is per sample, not per time point: the same time drawn twice,
        # in one grid or in two calls, gets two draws.
        sig = signals.sinusoid_5t_minus_2()
        noise = signals.NoiseSpec(0.01, 42)
        rng = noise.make_rng()
        a, b = signals.sample_noisy_grid(sig, noise, np.array([1.0, 1.0]), rng)
        c = signals.sample_noisy_grid(sig, noise, np.array([1.0]), rng)[0]
        assert a[0] != b[0]
        assert c[0] not in (a[0], b[0])

    def test_seeded_determinism(self):
        sig = signals.benchmark_parameter_path()
        noise = signals.NoiseSpec(0.01, 7)
        ts = np.linspace(0.0, 1.0, 5)
        draws1 = signals.sample_noisy_grid(sig, noise, ts, noise.make_rng())
        draws2 = signals.sample_noisy_grid(sig, noise, ts, noise.make_rng())
        assert np.array_equal(draws1, draws2)

    def test_grid_sampling_matches_sequential_calls(self):
        sig = signals.benchmark_parameter_path()
        noise = signals.NoiseSpec(0.01, 99)
        ts = np.linspace(0.0, 1.0, 17)
        grid = signals.sample_noisy_grid(sig, noise, ts, noise.make_rng())
        rng = noise.make_rng()
        rows = np.concatenate([signals.sample_noisy_grid(sig, noise, ts[i:i + 1], rng)
                               for i in range(len(ts))])
        assert np.array_equal(grid, rows)

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
