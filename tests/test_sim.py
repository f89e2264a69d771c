import math

import numpy as np
import pytest

from ddopt import estimator as est
from ddopt import flows, signals, sim


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            sim.SimConfig(t0=1.0, tf=1.0)
        with pytest.raises(ValueError):
            sim.SimConfig(h=0.0)
        with pytest.raises(ValueError):
            sim.SimConfig(tf=0.05, h=0.01)  # fewer than 10 steps
        with pytest.raises(ValueError):
            sim.SimConfig(record_stride=0)

    def test_grid(self):
        cfg = sim.SimConfig(t0=0.0, tf=1.0, h=0.1, record_stride=2)
        assert cfg.num_steps == 10
        assert np.allclose(cfg.times(), np.arange(11) * 0.1)
        assert np.array_equal(cfg.record_indices(), [0, 2, 4, 6, 8, 10])


class TestIntegrateRk4:
    def test_zero_field_stays_constant(self):
        cfg = sim.SimConfig(tf=1.0, h=0.05)
        traj = sim.integrate_rk4(lambda t, x: np.zeros(2), np.array([3.0, -1.0]), cfg)
        assert np.all(traj.column("x_0") == 3.0)
        assert np.all(traj.column("x_1") == -1.0)

    def test_exponential_decay_accuracy(self):
        cfg = sim.SimConfig(tf=1.0, h=1e-3)
        traj = sim.integrate_rk4(lambda t, x: -x, np.array([1.0]), cfg)
        assert abs(traj.column("x_0")[-1] - math.exp(-1.0)) <= 1e-9

    def test_blowup_raises_with_time(self):
        cfg = sim.SimConfig(tf=1.0, h=1e-3)
        with pytest.raises(sim.NonFiniteStateError) as info:
            sim.integrate_rk4(lambda t, x: 3000.0 * x, np.array([1.0]), cfg)
        assert 0.0 < info.value.t <= 1.0

    def test_record_stride(self):
        cfg = sim.SimConfig(tf=1.0, h=0.01, record_stride=10)
        traj = sim.integrate_rk4(lambda t, x: -x, np.array([1.0]), cfg)
        assert len(traj) == 11
        assert traj.t[1] == pytest.approx(0.1)


class TestMetrics:
    def test_steady_state_sup_uses_final_window(self):
        t = np.linspace(0.0, 10.0, 101)
        values = np.where(t < 8.0, 100.0, 1.0)
        traj = sim.Trajectory({"t": t, "v": values})
        assert sim.steady_state_metric(traj, "v").steady_state_sup == 1.0

    def test_transient_time(self):
        t = np.linspace(0.0, 10.0, 101)
        values = 5.0 * np.exp(-t)
        traj = sim.Trajectory({"t": t, "v": values})
        metric = sim.steady_state_metric(traj, "v", threshold=0.1)
        # 5 e^-t < 0.1 from t = ln(50) ~ 3.912; grid resolution 0.1
        assert metric.transient_time == pytest.approx(4.0, abs=0.11)

    def test_transient_never_settles(self):
        t = np.linspace(0.0, 1.0, 11)
        traj = sim.Trajectory({"t": t, "v": np.ones(11)})
        assert sim.steady_state_metric(traj, "v", threshold=0.5).transient_time == math.inf

    def test_slope_fit_exact_power_law(self):
        sigmas = [40.0, 80.0, 160.0, 320.0]
        points = [(s, 7.0 / s ** 2) for s in sigmas]
        assert sim.slope_fit(points) == pytest.approx(-2.0, abs=1e-12)

    def test_slope_fit_insufficient_data(self):
        with pytest.raises(sim.InsufficientDataError):
            sim.slope_fit([(1.0, 1.0), (2.0, 0.5)])

    def test_slope_fit_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sim.slope_fit([(1.0, 1.0), (2.0, 0.5), (3.0, -0.1)])


class TestTrajectoryCsv:
    def test_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        traj = sim.Trajectory({
            "t": np.arange(5) * 0.1,
            "theta_0": rng.standard_normal(5),
            "loss": np.abs(rng.standard_normal(5)) * 1e-17,
        })
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        back = sim.Trajectory.from_csv(path)
        assert list(back.columns) == list(traj.columns)
        for name in traj.columns:
            assert np.array_equal(back.column(name), traj.column(name))

    def test_lf_line_endings_and_header(self, tmp_path):
        traj = sim.Trajectory({"t": [0.0, 1.0], "x_0": [1.0, 2.0]})
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.split(b"\n")[0] == b"t,x_0"

    def test_rejects_decreasing_time(self):
        with pytest.raises(ValueError):
            sim.Trajectory({"t": [0.0, 0.0], "v": [1.0, 1.0]})

    def test_rejects_missing_time(self):
        with pytest.raises(ValueError):
            sim.Trajectory({"x": [1.0]})


class TestDerivativeExperiment:
    def test_batch_zoh_matches_stateful_stepping(self):
        signal = signals.sinusoid_5t_minus_2()
        cfg = sim.SimConfig(tf=0.5, h=1e-2)
        est_cfg = est.DirtyDerivativeConfig(2, 5.0, 1)
        traj = sim.run_derivative_experiment(signal, signals.NoiseSpec(), est_cfg, cfg,
                                             integrator="zoh")
        dd = est.build_estimator(est_cfg, cfg.h)
        for row, t in enumerate(traj.t):
            out = dd.step(signal.eval(t, 0))
            assert abs(out[0, 0] - traj.column("thetahat_0")[row]) <= 1e-13
            assert abs(out[1, 0] - traj.column("thetahat2_0")[row]) <= 1e-13

    def test_batch_rk4_matches_stateful_stepping(self):
        signal = signals.sinusoid_5t_minus_2()
        cfg = sim.SimConfig(tf=0.5, h=1e-2)
        est_cfg = est.DirtyDerivativeConfig(1, 5.0, 1)
        traj = sim.run_derivative_experiment(signal, signals.NoiseSpec(), est_cfg, cfg)
        dd = est.build_estimator(est_cfg, cfg.h)
        w = lambda t: signal.eval(t, 0)
        for row, t in enumerate(traj.t):
            out = dd.output(w(t))
            assert abs(out[0, 0] - traj.column("thetahat_0")[row]) <= 1e-13
            dd.step_sampled(w(t), w(t + cfg.h / 2), w(t + cfg.h))

    def test_integrators_agree_at_small_gain_step_product(self):
        signal = signals.sinusoid_5t_minus_2()
        cfg = sim.SimConfig(tf=10.0, h=1e-3)
        est_cfg = est.DirtyDerivativeConfig(1, 2.0, 1)
        rk4 = sim.run_derivative_experiment(signal, signals.NoiseSpec(), est_cfg, cfg)
        zoh = sim.run_derivative_experiment(signal, signals.NoiseSpec(), est_cfg, cfg,
                                            integrator="zoh")
        sup_rk4 = sim.steady_state_metric(rk4, "est_error").steady_state_sup
        sup_zoh = sim.steady_state_metric(zoh, "est_error").steady_state_sup
        assert abs(sup_rk4 - sup_zoh) <= 1e-2

    def test_noisy_runs_are_deterministic(self):
        signal = signals.benchmark_parameter_path()
        cfg = sim.SimConfig(tf=1.0, h=1e-2)
        est_cfg = est.DirtyDerivativeConfig(1, 5.0, 3)
        noise = signals.NoiseSpec(0.01, 42)
        a = sim.run_derivative_experiment(signal, noise, est_cfg, cfg)
        b = sim.run_derivative_experiment(signal, noise, est_cfg, cfg)
        for name in a.columns:
            assert np.array_equal(a.column(name), b.column(name))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sim.run_derivative_experiment(signals.benchmark_parameter_path(),
                                          signals.NoiseSpec(),
                                          est.DirtyDerivativeConfig(1, 5.0, 1),
                                          sim.SimConfig())

    def test_unknown_integrator_rejected(self):
        with pytest.raises(ValueError):
            sim.run_derivative_experiment(signals.sinusoid_5t_minus_2(),
                                          signals.NoiseSpec(),
                                          est.DirtyDerivativeConfig(1, 5.0, 1),
                                          sim.SimConfig(), integrator="euler")


class TestSimulateRealization:
    def test_matches_general_rk4_integrator(self):
        block = est.build_f_block(2, 2.0)
        cfg = sim.SimConfig(tf=2.0, h=1e-3)
        ts = cfg.t0 + 0.5 * cfg.h * np.arange(2 * cfg.num_steps + 1)
        x0 = np.array([0.3, -0.8])
        _, y = sim.simulate_realization(block, np.sin(ts), cfg, x0=x0)

        def rhs(t, x):
            return block.A @ x + block.B[:, 0] * math.sin(t)

        ref = sim.integrate_rk4(rhs, x0, cfg)
        y_ref = ref.column_group("x") @ block.C[0]
        assert np.max(np.abs(y[:, 0] - y_ref)) <= 1e-12

    def test_zoh_with_initial_state_matches_stateful_stepping(self):
        est_cfg = est.DirtyDerivativeConfig(2, 5.0, 1)
        cfg = sim.SimConfig(tf=0.5, h=1e-2)
        dd = est.build_estimator(est_cfg, cfg.h)
        x0 = np.random.default_rng(4).standard_normal(dd.continuous.state_dim)
        u = np.sin(cfg.times())
        _, y = sim.simulate_realization(dd.continuous, u, cfg, x0=x0, integrator="zoh")
        dd.state = x0.reshape(-1, 1).copy()
        for row, sample in enumerate(u):
            out = dd.step([sample])[:, 0]
            assert np.max(np.abs(out - y[row])) <= 1e-13 * max(1.0, np.max(np.abs(out)))

    def test_grid_length_validation(self):
        block = est.build_f_block(1, 1.0)
        cfg = sim.SimConfig(tf=1.0, h=0.1)
        with pytest.raises(ValueError):
            sim.simulate_realization(block, np.zeros(5), cfg)


class TestInterconnection:
    def test_estimated_mode_requires_config(self):
        with pytest.raises(ValueError):
            sim.run_interconnection(flows.QuadraticTrackingCost(3),
                                    signals.benchmark_parameter_path(),
                                    flows.CorrectionMode.ESTIMATED, sim.SimConfig())

    def test_signal_cost_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sim.run_interconnection(flows.QuadraticTrackingCost(2),
                                    signals.benchmark_parameter_path(),
                                    flows.CorrectionMode.IDEAL, sim.SimConfig())

    def test_deterministic_noisy_runs(self):
        cfg = sim.SimConfig(tf=1.0, h=1e-2)
        est_cfg = est.DirtyDerivativeConfig(1, 5.0, 3)
        kwargs = dict(est_cfg=est_cfg, noise=signals.NoiseSpec(0.01, 11))
        a = sim.run_interconnection(flows.QuadraticTrackingCost(3),
                                    signals.benchmark_parameter_path(),
                                    flows.CorrectionMode.ESTIMATED, cfg, **kwargs)
        b = sim.run_interconnection(flows.QuadraticTrackingCost(3),
                                    signals.benchmark_parameter_path(),
                                    flows.CorrectionMode.ESTIMATED, cfg, **kwargs)
        for name in a.columns:
            assert np.array_equal(a.column(name), b.column(name))

    def test_estimate_matches_stateful_stepping(self):
        # The flow reads the estimate the stateful estimator emits when it is
        # stepped over the same noisy stage samples.
        signal = signals.benchmark_parameter_path()
        cfg = sim.SimConfig(tf=0.5, h=1e-2)
        est_cfg = est.DirtyDerivativeConfig(2, 5.0, 3)
        noise = signals.NoiseSpec(0.01, 11)
        traj = sim.run_interconnection(flows.QuadraticTrackingCost(3), signal,
                                       flows.CorrectionMode.ESTIMATED, cfg,
                                       est_cfg=est_cfg, noise=noise)
        ts = cfg.t0 + 0.5 * cfg.h * np.arange(2 * cfg.num_steps + 1)
        w = signals.sample_noisy_grid(signal, noise, ts, noise.make_rng())
        dd = est.build_estimator(est_cfg, cfg.h)
        hat = traj.column_group("thetahat")
        for j in range(cfg.num_steps + 1):
            assert np.max(np.abs(dd.output(w[2 * j])[0] - hat[j])) <= 1e-13
            if j < cfg.num_steps:
                dd.step_sampled(w[2 * j], w[2 * j + 1], w[2 * j + 2])

    def test_estimated_certificate_stays_nonpositive(self):
        cfg = sim.SimConfig(tf=2.0, h=1e-3)
        est_cfg = est.DirtyDerivativeConfig(1, 10.0, 3)
        traj = sim.run_interconnection(flows.QuadraticTrackingCost(3),
                                       signals.benchmark_parameter_path(),
                                       flows.CorrectionMode.ESTIMATED, cfg, est_cfg=est_cfg)
        assert np.max(traj.column("redesign_lhs")) <= 1e-9

    def test_ideal_energy_decays(self):
        cfg = sim.SimConfig(tf=5.0, h=1e-3)
        traj = sim.run_interconnection(flows.QuadraticTrackingCost(3),
                                       signals.benchmark_parameter_path(),
                                       flows.CorrectionMode.IDEAL, cfg)
        # V = loss for the quadratic tracker; non-increasing up to 1e-8 per step
        assert np.max(np.diff(traj.column("loss"))) <= 1e-8

    def test_uncorrected_flow_lags_ideal(self):
        cfg = sim.SimConfig(tf=10.0, h=1e-3)
        cost = flows.QuadraticTrackingCost(3)
        signal = signals.benchmark_parameter_path()
        ideal = sim.run_interconnection(cost, signal, flows.CorrectionMode.IDEAL, cfg)
        none = sim.run_interconnection(cost, signal, flows.CorrectionMode.NONE, cfg)
        sup_ideal = sim.steady_state_metric(ideal, "tracking_error").steady_state_sup
        sup_none = sim.steady_state_metric(none, "tracking_error").steady_state_sup
        assert sup_none > 0.1
        assert sup_none > sup_ideal

    def test_logcosh_interconnection_runs_and_certifies(self):
        cfg = sim.SimConfig(tf=2.0, h=1e-3)
        est_cfg = est.DirtyDerivativeConfig(1, 10.0, 3)
        traj = sim.run_interconnection(flows.LogCoshTrackingCost(3),
                                       signals.benchmark_parameter_path(),
                                       flows.CorrectionMode.ESTIMATED, cfg, est_cfg=est_cfg)
        assert np.max(traj.column("redesign_lhs")) <= 1e-9
        assert traj.column("tracking_error")[-1] < traj.column("tracking_error")[0]

    def test_higher_gain_tracks_tighter(self):
        cfg = sim.SimConfig(tf=10.0, h=1e-3)
        cost = flows.QuadraticTrackingCost(3)
        signal = signals.benchmark_parameter_path()
        losses = {}
        for sigma in (5.0, 20.0):
            est_cfg = est.DirtyDerivativeConfig(1, sigma, 3)
            traj = sim.run_interconnection(cost, signal, flows.CorrectionMode.ESTIMATED,
                                           cfg, est_cfg=est_cfg)
            mask = traj.window_mask()
            losses[sigma] = float(np.mean(traj.column("loss")[mask]))
        assert losses[20.0] < losses[5.0]

    def test_estimated_approaches_ideal_at_high_gain(self):
        # The interconnection gain shrinks like sigma^-k: at sigma = 200 with a
        # second-order estimator the two trajectories agree to 1e-2.
        cfg = sim.SimConfig(tf=10.0, h=1e-3)
        cost = flows.QuadraticTrackingCost(3)
        signal = signals.benchmark_parameter_path()
        ideal = sim.run_interconnection(cost, signal, flows.CorrectionMode.IDEAL, cfg)
        est_cfg = est.DirtyDerivativeConfig(2, 200.0, 3)
        locked = sim.run_interconnection(cost, signal, flows.CorrectionMode.ESTIMATED,
                                         cfg, est_cfg=est_cfg)
        mask = ideal.window_mask()
        diff = np.max(np.abs(locked.column("tracking_error")[mask]
                             - ideal.column("tracking_error")[mask]))
        assert diff <= 1e-2

    def test_custom_initial_state(self):
        cfg = sim.SimConfig(tf=1.0, h=1e-3)
        cost = flows.QuadraticTrackingCost(3)
        signal = signals.benchmark_parameter_path()
        x0 = signal.eval(0.0, 0)
        traj = sim.run_interconnection(cost, signal, flows.CorrectionMode.IDEAL, cfg, x0=x0)
        assert traj.column("tracking_error")[0] == 0.0
        # starting on the minimizer with the exact correction keeps the error
        # at the integrator-bias level
        assert np.max(traj.column("tracking_error")) <= 1e-8

    def test_columns_follow_schema(self):
        cfg = sim.SimConfig(tf=1.0, h=1e-2)
        est_cfg = est.DirtyDerivativeConfig(1, 5.0, 3)
        traj = sim.run_interconnection(flows.QuadraticTrackingCost(3),
                                       signals.benchmark_parameter_path(),
                                       flows.CorrectionMode.ESTIMATED, cfg, est_cfg=est_cfg)
        expected = (["t"]
                    + [f"theta_{i}" for i in range(3)]
                    + [f"thetadot_{i}" for i in range(3)]
                    + [f"thetahat_{i}" for i in range(3)]
                    + [f"x_{i}" for i in range(3)]
                    + [f"xstar_{i}" for i in range(3)]
                    + ["loss", "tracking_error", "est_error", "redesign_lhs"])
        assert list(traj.columns) == expected
