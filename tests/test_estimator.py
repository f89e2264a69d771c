import math

import numpy as np
import pytest

from ddopt import estimator as est
from ddopt import signals, sim
from ddopt.numerics import SingularMatrixError


class TestFBlock:
    def test_first_order_matrices(self):
        blk = est.build_f_block(1, 3.0)
        assert np.array_equal(blk.A, [[-3.0]])
        assert np.array_equal(blk.B, [[1.0]])
        assert np.array_equal(blk.C, [[1.0]])
        assert np.array_equal(blk.D, [[0.0]])

    def test_first_order_is_low_pass(self):
        blk = est.build_f_block(1, 3.0)
        for w in (0.5, 3.0, 30.0):
            H = est.frequency_response(blk, w)[0, 0]
            assert H == pytest.approx(1.0 / (1j * w + 3.0), abs=1e-14)

    def test_dc_gain(self):
        blk = est.build_f_block(1, 3.0)
        # C (-A)^{-1} B = 1/3
        assert est.frequency_response(blk, 0.0)[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_second_order_matrices(self):
        blk = est.build_f_block(2, 2.0)
        assert np.array_equal(blk.A, [[0.0, 1.0], [-4.0, -4.0]])
        assert np.array_equal(blk.B, [[1.0], [0.0]])
        assert np.array_equal(blk.C, [[1.0, 0.0]])

    def test_companion_structure_and_spectrum_coefficients(self):
        # Superdiagonal ones; last row holds the binomial characteristic
        # coefficients of (s + sigma)^n exactly.
        for n in (1, 2, 3, 4, 5):
            for sigma in (1.0, 5.0, 20.0):
                A = est.build_f_block(n, sigma).A
                if n > 1:
                    assert np.array_equal(A[:-1, 1:], np.eye(n - 1))
                    assert np.array_equal(A[:-1, 0], np.zeros(n - 1))
                for j in range(n):
                    expected = -math.comb(n, j) * sigma ** (n - j)
                    assert A[-1, j] == pytest.approx(expected, rel=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            est.build_f_block(0, 1.0)
        with pytest.raises(ValueError):
            est.build_f_block(1, 0.0)


class TestBranchBlock:
    def test_first_order_matrices(self):
        blk = est.build_branch_block(1, 5.0)
        assert np.array_equal(blk.A, [[-5.0]])
        assert np.array_equal(blk.B, [[1.0]])
        assert np.array_equal(blk.C, [[-25.0]])
        assert np.array_equal(blk.D, [[5.0]])

    def test_response_at_corner_frequency(self):
        # sigma j w / (j w + sigma) at w = sigma = 5: gain 25/sqrt(50), phase 45 deg.
        blk = est.build_branch_block(1, 5.0)
        H = est.frequency_response(blk, 5.0)[0, 0]
        assert abs(H) == pytest.approx(25.0 / math.sqrt(50.0), rel=1e-12)
        assert math.degrees(np.angle(H)) == pytest.approx(45.0, abs=1e-9)

    def test_dc_blocked(self):
        for i in (1, 2, 3):
            blk = est.build_branch_block(i, 4.0)
            assert abs(est.frequency_response(blk, 0.0)[0, 0]) <= 1e-12

    def test_high_frequency_limit_is_feedthrough(self):
        for i in (1, 2, 3):
            sigma = 4.0
            blk = est.build_branch_block(i, sigma)
            assert blk.D[0, 0] == pytest.approx(sigma ** i)
            H = est.frequency_response(blk, 1e8)[0, 0]
            assert abs(H - sigma ** i) <= 1e-5 * sigma ** i

    def test_matches_scalar_transfer(self):
        for i in (1, 2, 3):
            for sigma in (1.0, 5.0):
                blk = est.build_branch_block(i, sigma)
                for w in (0.3, 2.0, 17.0):
                    H = est.frequency_response(blk, w)[0, 0]
                    ref = est.branch_transfer(i, sigma, 1j * w)
                    assert abs(H - ref) <= 1e-11 * abs(ref)

    def test_companion_coefficients(self):
        # Same (s + sigma)^i characteristic row as the f-blocks.
        for i in (1, 2, 3, 4):
            for sigma in (1.0, 5.0, 20.0):
                A = est.build_branch_block(i, sigma).A
                for j in range(i):
                    assert A[-1, j] == pytest.approx(-math.comb(i, j) * sigma ** (i - j), rel=1e-12)


class TestComposition:
    def test_state_dimension(self):
        # branch blocks 1..k plus f-blocks 1..k-1: k^2 states (9 for k = 3).
        assert est.compose_cascade(1, 5.0).state_dim == 1
        assert est.compose_cascade(2, 5.0).state_dim == 4
        assert est.compose_cascade(3, 5.0).state_dim == 9

    def test_order_one_is_classic_dirty_derivative(self):
        casc = est.compose_cascade(1, 5.0)
        for w in (0.1, 5.0, 100.0):
            H = est.frequency_response(casc, w)[0, 0]
            s = 1j * w
            assert H == pytest.approx(5.0 * s / (s + 5.0), rel=1e-12)

    def test_order_two_first_output_recursion(self):
        # What_1 = branch_1(W) + F_1(branch_2(W)).
        casc = est.compose_cascade(2, 2.0)
        for w in (0.5, 2.0, 8.0):
            s = 1j * w
            ref = est.branch_transfer(1, 2.0, s) + est.f_transfer(1, 2.0, s) * est.branch_transfer(2, 2.0, s)
            H = est.frequency_response(casc, w)[0, 0]
            assert abs(H - ref) <= 1e-12 * abs(ref)

    def test_transfer_equivalence_grid(self):
        # Composed realization vs the closed-form recursion, per-frequency
        # response vector, 1e-9 relative.
        for order in (1, 2, 3):
            for sigma in (1.0, 5.0, 20.0):
                casc = est.compose_cascade(order, sigma)
                for w in np.logspace(-2, 3, 20):
                    H = est.frequency_response(casc, float(w))[:, 0]
                    ref = np.array([est.closed_form_transfer(order, sigma, i, float(w))
                                    for i in range(1, order + 1)])
                    assert np.linalg.norm(H - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_closed_form_literal(self):
        # k=1, sigma=5, w=5: 25j/(5+5j) = 2.5 + 2.5j.
        H = est.closed_form_transfer(1, 5.0, 1, 5.0)
        assert H == pytest.approx(2.5 + 2.5j, abs=1e-14)

    def test_composed_poles_cluster_at_minus_sigma(self):
        # Repeated defective eigenvalues perturb like eps^(1/multiplicity),
        # so only a loose clustering check is meaningful here; the exact
        # spectrum statement is the companion-coefficient check on the blocks.
        for order in (1, 2, 3):
            for sigma in (1.0, 5.0, 20.0):
                poles = np.linalg.eigvals(est.compose_cascade(order, sigma).A)
                assert np.max(np.abs(poles - (-sigma))) <= 1e-2 * sigma
                assert np.all(np.real(poles) < 0.0)

    def test_closed_form_index_validation(self):
        with pytest.raises(ValueError):
            est.closed_form_transfer(2, 5.0, 3, 1.0)

    def test_gain_past_the_float_range_raises_value_error(self):
        # sigma**k past 1.8e308 is a ValueError naming the gain, not an
        # OverflowError out of Python's float power.
        with pytest.raises(ValueError, match="gain 1e\\+150 puts the order-3 cascade"):
            est.compose_cascade(3, 1e150)
        for build in (est.build_f_block, est.build_branch_block):
            with pytest.raises(ValueError, match="non-finite"):
                build(2, 1e200)
        est.compose_cascade(2, 1e150)   # 1e300 is still in range


class TestSteadyStateOracle:
    def test_literals(self):
        cfg5 = est.DirtyDerivativeConfig(1, 5.0)
        cfg20 = est.DirtyDerivativeConfig(1, 20.0)
        # omega^2 / sqrt(omega^2 + sigma^2)
        assert est.steady_state_sinusoid_error(cfg5, 1, 1.0, 5.0) == pytest.approx(
            25.0 / math.sqrt(50.0), rel=1e-12)
        assert est.steady_state_sinusoid_error(cfg20, 1, 1.0, 5.0) == pytest.approx(
            25.0 / math.sqrt(425.0), rel=1e-12)

    def test_zero_frequency(self):
        cfg = est.DirtyDerivativeConfig(3, 7.0)
        for i in (1, 2, 3):
            assert est.steady_state_sinusoid_error(cfg, i, 2.0, 0.0) == 0.0

    def test_scales_with_amplitude(self):
        cfg = est.DirtyDerivativeConfig(2, 10.0)
        one = est.steady_state_sinusoid_error(cfg, 1, 1.0, 5.0)
        three = est.steady_state_sinusoid_error(cfg, 1, 3.0, 5.0)
        assert three == pytest.approx(3.0 * one, rel=1e-12)


class TestStepping:
    def test_zoh_exactness_constant_input(self):
        # k=1: state obeys x' = -sigma x + c, so x(t) = (c/sigma)(1 - e^{-sigma t})
        # and the estimate is sigma c e^{-sigma t}; ZOH stepping is exact.
        sigma, h, c = 3.0, 1e-3, 2.0
        cascade = est.compose_cascade(1, sigma)
        Ad, Bd = est.zoh_discretize(cascade.A, cascade.B, h)
        x = np.zeros((1, 1))
        for j in range(2000):
            t = j * h
            out = cascade.C @ x + cascade.D * c
            x = Ad @ x + Bd * c
            expected = sigma * c * math.exp(-sigma * t)
            assert abs(out[0, 0] - expected) <= 1e-10

    def test_constant_input_estimates_decay_to_zero(self):
        dd = est.build_estimator(est.DirtyDerivativeConfig(3, 5.0, 1), 1e-3)
        sample = np.array([2.0])
        out = None
        for _ in range(10_000):
            out = dd.step_sampled(sample, sample, sample)
        assert np.max(np.abs(out)) <= 1e-8

    def test_ramp_converges_to_slope(self):
        # w = 2t: the first-derivative estimate settles at 2 (stage-sampled
        # advance; the held-sample advance carries an O(sigma h) ramp bias).
        sigma, h = 5.0, 1e-3
        dd = est.build_estimator(est.DirtyDerivativeConfig(1, sigma, 1), h)
        w = lambda t: np.array([2.0 * t])
        out = None
        for j in range(6000):  # transient decays like e^{-sigma t}
            t = j * h
            out = dd.step_sampled(w(t), w(t + h / 2), w(t + h))
        assert abs(out[0, 0] - 2.0) <= 1e-9

    def test_first_output_is_feedthrough_only(self):
        dd = est.build_estimator(est.DirtyDerivativeConfig(2, 4.0, 1), 1e-3)
        out = dd.step_sampled(np.array([3.0]), np.array([5.0]), np.array([7.0]))
        assert out[0, 0] == pytest.approx(4.0 * 3.0)       # sigma * w
        assert out[1, 0] == pytest.approx(16.0 * 3.0)      # sigma^2 * w

    def test_parallel_channels_match_scalar_runs(self):
        cfg = est.DirtyDerivativeConfig(2, 6.0, 3)
        dd = est.build_estimator(cfg, 1e-2)
        scalars = [est.build_estimator(est.DirtyDerivativeConfig(2, 6.0, 1), 1e-2)
                   for _ in range(3)]
        rng = np.random.default_rng(4)
        for _ in range(50):
            samples = rng.standard_normal((3, 3))      # t, t+h/2, t+h by channel
            out = dd.step_sampled(*samples)
            for c in range(3):
                ref = scalars[c].step_sampled(*samples[:, c:c + 1])
                # channels are independent; matmul summation order may differ
                # between the (n, 3) and (n, 1) state updates
                assert np.allclose(out[:, c], ref[:, 0], rtol=1e-12, atol=1e-14)

    def test_sample_shape_validation(self):
        dd = est.build_estimator(est.DirtyDerivativeConfig(1, 5.0, 2), 1e-3)
        good, bad = np.array([1.0, 2.0]), np.array([1.0])
        for samples in ((bad, good, good), (good, bad, good), (good, good, bad)):
            with pytest.raises(ValueError):
                dd.step_sampled(*samples)

    def test_gain_step_product_warning(self):
        with pytest.warns(UserWarning, match="sigma"):
            est.build_estimator(est.DirtyDerivativeConfig(1, 600.0, 1), 1e-3)

    def test_invalid_build_arguments(self):
        with pytest.raises(ValueError):
            est.DirtyDerivativeConfig(0, 5.0)
        with pytest.raises(ValueError):
            est.DirtyDerivativeConfig(1, -1.0)
        with pytest.raises(ValueError):
            est.build_estimator(est.DirtyDerivativeConfig(1, 5.0), 0.0)


class TestErrorScaling:
    def test_steady_state_error_follows_gain_power_law(self):
        # Sup error over the final 20% of a 30-time-unit run scales like
        # sigma^-(k+1-i); fitted log-log slope within +-0.2.
        signal = signals.sinusoid_5t_minus_2()
        sigmas = (40.0, 80.0, 160.0, 320.0)
        sups = {}
        for order in (1, 2):
            for sigma in sigmas:
                cfg = sim.SimConfig(tf=30.0, h=1e-3)
                traj = sim.run_derivative_experiment(
                    signal, signals.NoiseSpec(), est.DirtyDerivativeConfig(order, sigma, 1), cfg)
                for i in range(1, order + 1):
                    suffix = "" if i == 1 else str(i)
                    sups[(order, i, sigma)] = sim.steady_state_sup(traj, f"est_error{suffix}")
        for order, i in ((1, 1), (2, 1), (2, 2)):
            slope = sim.slope_fit([(s, sups[(order, i, s)]) for s in sigmas])
            assert abs(slope - (-(order + 1 - i))) <= 0.2


class TestPolynomialExactness:
    def test_degree_k_polynomial_estimates_settle(self):
        # For a degree-k input the asymptotic error vanishes; by t = 20/sigma
        # only the decayed transient remains.
        signal = signals.AnalyticSignal((signals.Polynomial((1.0, 2.0, 0.5)),))
        for sigma in (5.0, 10.0):
            cfg = sim.SimConfig(tf=20.0 / sigma, h=1e-3)
            traj = sim.run_derivative_experiment(
                signal, signals.NoiseSpec(), est.DirtyDerivativeConfig(2, sigma, 1), cfg)
            head = max(2, len(traj) // 10)
            for column in ("est_error", "est_error2"):
                values = traj.column(column)
                transient = float(np.max(values[:head]))
                assert values[-1] <= 1e-6 * (1.0 + transient)


class TestDiscretizationMaps:
    def test_zoh_matches_series_for_scalar(self):
        sigma, h = 4.0, 1e-2
        Ad, Bd = est.zoh_discretize(np.array([[-sigma]]), np.array([[1.0]]), h)
        assert Ad[0, 0] == pytest.approx(math.exp(-sigma * h), rel=1e-14)
        assert Bd[0, 0] == pytest.approx((1.0 - math.exp(-sigma * h)) / sigma, rel=1e-12)

    def test_rk4_maps_sum_to_zoh_series(self):
        # With a constant input, Phi + input maps reproduce the exponential
        # integrals to fourth order.
        A = np.array([[0.0, 1.0], [-4.0, -4.0]])
        B = np.array([[0.0], [1.0]])
        h = 1e-3
        Phi, M0, M1, M2 = est.rk4_step_maps(A, B, h)
        Ad, Bd = est.zoh_discretize(A, B, h)
        # agreement up to the O(h^5) truncation of the fourth-order map
        assert np.max(np.abs(Phi - Ad)) <= 1e-12
        assert np.max(np.abs((M0 + M1 + M2) - Bd)) <= 1e-12


class TestFrequencyResponse:
    def test_singular_only_when_truly_singular(self):
        # A pole at the evaluation frequency makes jwI - A singular.
        real = est.LtiRealization(np.array([[0.0]]), np.array([[1.0]]),
                                  np.array([[1.0]]), np.array([[0.0]]))
        with pytest.raises(SingularMatrixError):
            est.frequency_response(real, 0.0)
        with pytest.raises(SingularMatrixError):
            est.frequency_response(real, np.array([2.0, 0.0, 5.0]))

    def test_array_of_frequencies_equals_scalar_calls(self):
        omegas = np.concatenate(([0.0], np.logspace(-2, 3, 20)))
        for order in (1, 2, 3):
            casc = est.compose_cascade(order, 5.0)
            H = est.frequency_response(casc, omegas)
            assert H.shape == (len(omegas), order, 1)
            for omega, response in zip(omegas, H):
                assert np.array_equal(est.frequency_response(casc, float(omega)), response)


class TestOutputBoundConstants:
    def test_first_order_literals(self):
        # P_1 = 0.5: transient gain 1, decay sigma/2, input gain 2 sqrt(0.125/0.5) = 1.
        constants = est.output_bound_constants(1, 3.0)
        assert constants.transient_gain == pytest.approx(1.0, rel=1e-12)
        assert constants.decay_rate == pytest.approx(1.5, rel=1e-12)
        assert constants.input_gain == pytest.approx(1.0, rel=1e-12)

    def test_second_order_from_closed_form_lyapunov(self):
        # P_2 = [[1.5, .5], [.5, .5]] gives eigenvalues 1 -+ 1/sqrt(2).
        constants = est.output_bound_constants(2, 2.0)
        lam_max = 1.0 + 1.0 / math.sqrt(2.0)
        lam_min = 1.0 - 1.0 / math.sqrt(2.0)
        assert constants.transient_gain == pytest.approx(2.0 * math.sqrt(lam_max / lam_min), rel=1e-9)
        assert constants.decay_rate == pytest.approx(2.0 / (4.0 * lam_max), rel=1e-9)
        assert constants.input_gain == pytest.approx(2.0 * math.sqrt(lam_max ** 3 / lam_min), rel=1e-9)

    def test_transient_gain_overflows_to_inf(self):
        assert est.output_bound_constants(3, 1e200).transient_gain == math.inf

    def test_bound_is_decreasing_in_time(self):
        constants = est.output_bound_constants(2, 5.0)
        t = np.linspace(0.0, 3.0, 7)
        values = constants.bound(1.0, 1.0, 5.0, t)
        assert np.all(np.diff(values) <= 0.0)


class TestRealizationValidation:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            est.LtiRealization(np.zeros((2, 3)), np.zeros((2, 1)),
                               np.zeros((1, 2)), np.zeros((1, 1)))
        with pytest.raises(ValueError):
            est.LtiRealization(np.zeros((2, 2)), np.zeros((3, 1)),
                               np.zeros((1, 2)), np.zeros((1, 1)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            est.LtiRealization(np.array([[np.nan]]), np.array([[1.0]]),
                               np.array([[1.0]]), np.array([[0.0]]))
