import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ddopt import estimator as est
from ddopt import flows, signals, sim

NONE = flows.CorrectionMode.NONE
IDEAL = flows.CorrectionMode.IDEAL
ESTIMATED = flows.CorrectionMode.ESTIMATED


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            sim.SimConfig(t0=1.0, tf=1.0)
        with pytest.raises(ValueError):
            sim.SimConfig(h=0.0)
        with pytest.raises(ValueError):
            sim.SimConfig(tf=0.05, h=0.01)  # fewer than 10 steps
        with pytest.raises(ValueError):
            sim.SimConfig(tf=1e7)  # 1e10 steps, past the step budget

    def test_grid(self):
        cfg = sim.SimConfig(t0=0.0, tf=1.0, h=0.1)
        assert cfg.num_steps == 10
        assert np.allclose(cfg.times(), np.arange(11) * 0.1)

    @settings(max_examples=200, deadline=None)
    @given(t0=st.floats(-1e3, 1e3), h=st.floats(1e-6, 1.0), steps=st.integers(20, 5000))
    def test_every_other_stage_time_is_a_grid_time(self, t0, h, steps):
        # Runs evaluate their signal once, on the stage grid, and record
        # every other stage as the value at the grid times, bit for bit.
        cfg = sim.SimConfig(t0=t0, tf=t0 + steps * h, h=h)
        assert np.array_equal(cfg.stage_times()[::2], cfg.times())


class TestIntegrateRk4:
    def test_zero_field_stays_constant(self):
        cfg = sim.SimConfig(tf=1.0, h=0.05)
        traj = reference.integrate_rk4(lambda t, x: np.zeros(2), np.array([3.0, -1.0]), cfg)
        assert np.all(traj.column("x_0") == 3.0)
        assert np.all(traj.column("x_1") == -1.0)

    def test_exponential_decay_accuracy(self):
        cfg = sim.SimConfig(tf=1.0, h=1e-3)
        traj = reference.integrate_rk4(lambda t, x: -x, np.array([1.0]), cfg)
        assert abs(traj.column("x_0")[-1] - math.exp(-1.0)) <= 1e-9

    def test_blowup_raises_with_time(self):
        cfg = sim.SimConfig(tf=1.0, h=1e-3)
        with pytest.raises(sim.NonFiniteStateError) as info:
            reference.integrate_rk4(lambda t, x: 3000.0 * x, np.array([1.0]), cfg)
        assert 0.0 < info.value.t <= 1.0


class TestMetrics:
    def test_steady_state_sup_uses_final_window(self):
        t = np.linspace(0.0, 10.0, 101)
        values = np.where(t < 8.0, 100.0, 1.0)
        traj = sim.Trajectory({"t": t, "v": values})
        assert sim.steady_state_sup(traj, "v") == 1.0

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

    def test_bytes_match_per_value_formatting(self, tmp_path):
        # 200 rows: the writer's row blocks and their boundaries are covered.
        v = np.tile([-0.0, 5e-324, 1e300, 0.1 + 0.2, -7.0], 40)
        t = np.arange(float(len(v)))
        traj = sim.Trajectory({"t": t, "v": v, "w": v[::-1]})
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        expected = "t,v,w\n" + "".join(
            ",".join(format(value, ".17g") for value in row) + "\n"
            for row in zip(t, v, v[::-1]))
        assert path.read_bytes() == expected.encode()

    def test_shared_columns_across_row_blocks(self, tmp_path):
        # Three files share the t and v arrays, over more than two row blocks.
        rows = 2 * sim._RECORD_BLOCK_ROWS + 37
        v = np.resize([-0.0, 5e-324, 1e300, 0.1 + 0.2, -7.0], rows)
        t = np.arange(float(rows))
        own = [v[::-1].copy(), -v, 3.0 * v]
        trajs = [sim.Trajectory({"t": t, "v": v, "w": w}) for w in own]
        assert all(traj.column("v") is v for traj in trajs)
        paths = [tmp_path / f"traj{i}.csv" for i in range(len(own))]
        sim.write_csvs((traj.columns, path) for traj, path in zip(trajs, paths))
        for w, path in zip(own, paths):
            expected = "t,v,w\n" + "".join(
                ",".join(format(value, ".17g") for value in row) + "\n"
                for row in zip(t, v, w))
            assert path.read_bytes() == expected.encode()

    def test_unequal_lengths(self, tmp_path):
        block = sim._RECORD_BLOCK_ROWS
        values = np.random.default_rng(4).standard_normal(3 * block)
        trajs = [sim.Trajectory({"t": np.arange(float(n)), "v": values[:n]})
                 for n in (1, block, block + 1, 3 * block)]
        paths = [tmp_path / f"traj{i}.csv" for i in range(len(trajs))]
        sim.write_csvs((traj.columns, path) for traj, path in zip(trajs, paths))
        for traj, path in zip(trajs, paths):
            expected = "t,v\n" + "".join(
                ",".join(format(value, ".17g") for value in row) + "\n"
                for row in zip(traj.t, traj.column("v")))
            assert path.read_bytes() == expected.encode()
        sim.write_csvs([])

    def test_rejects_decreasing_time(self):
        with pytest.raises(ValueError):
            sim.Trajectory({"t": [0.0, 0.0], "v": [1.0, 1.0]})

    def test_rejects_missing_time(self):
        with pytest.raises(ValueError):
            sim.Trajectory({"x": [1.0]})


def _zoh_maps(realization, h):
    """The exact zero-order-hold pair in the shape of the RK4 step maps: the
    sample at t held over the step, the samples at t+h/2 and t+h unused."""
    Ad, Bd = est.zoh_discretize(realization.A, realization.B, h)
    return Ad, Bd, np.zeros_like(Bd), np.zeros_like(Bd)


class TestDerivativeExperiment:
    def test_batch_rk4_matches_stateful_stepping(self):
        signal = signals.sinusoid_5t_minus_2()
        cfg = sim.SimConfig(tf=0.5, h=1e-2)
        est_cfg = est.DirtyDerivativeConfig(1, 5.0, 1)
        traj = sim.run_derivative_experiment(signal, signals.NoiseSpec(), est_cfg, cfg)
        dd = est.build_estimator(est_cfg, cfg.h)
        w = lambda t: signal.eval_many([t], 0)[0]
        for row, t in enumerate(traj.t):
            out = dd.output(w(t))
            assert abs(out[0, 0] - traj.column("thetahat_0")[row]) <= 1e-13
            dd.step_sampled(w(t), w(t + cfg.h / 2), w(t + cfg.h))

    def test_integrators_agree_at_small_gain_step_product(self):
        # At sigma*h = 2e-3 the stage-sampled run and the exact zero-order
        # hold of the same samples settle to nearly the same error.
        signal = signals.sinusoid_5t_minus_2()
        cfg = sim.SimConfig(tf=10.0, h=1e-3)
        est_cfg = est.DirtyDerivativeConfig(1, 2.0, 1)
        rk4 = sim.run_derivative_experiment(signal, signals.NoiseSpec(), est_cfg, cfg)
        cascade = est.compose_cascade(1, 2.0)
        W = signal.eval_many(cfg.stage_times(), 0)
        hat = sim._drive_lti(cascade, _zoh_maps(cascade, cfg.h), W, np.zeros((1, 1)))
        zoh = sim.Trajectory({"t": cfg.times(),
                              "est_error": hat[:, 0, 0] - signal.eval_many(cfg.times(), 1)[:, 0]})
        sup_rk4 = sim.steady_state_sup(rk4, "est_error")
        sup_zoh = sim.steady_state_sup(zoh, "est_error")
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


# Gains of different orders, so that one call shares true derivatives up to
# order 3 between runs that need fewer.
EXPERIMENT_POOL = ((1, 5.0), (2, 20.0), (3, 60.0), (1, 60.0), (3, 5.0))   # (k, sigma)
EXPERIMENT_CFG = sim.SimConfig(tf=0.2, h=1e-3)
EXPERIMENT_SIGNALS = {1: signals.sinusoid_5t_minus_2(), 3: signals.benchmark_parameter_path()}
EXPERIMENT_NOISE = {False: signals.NoiseSpec(), True: signals.NoiseSpec(0.01, 11)}


def _experiment_config(index, channels):
    return est.DirtyDerivativeConfig(*EXPERIMENT_POOL[index], channels)


@functools.lru_cache(maxsize=None)
def _experiment_alone(index, channels, noisy):
    return sim.run_derivative_experiment(EXPERIMENT_SIGNALS[channels], EXPERIMENT_NOISE[noisy],
                                         _experiment_config(index, channels), EXPERIMENT_CFG)


def _counting(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestDerivativeExperiments:
    @settings(max_examples=30, deadline=None)
    @given(channels=st.sampled_from([1, 3]), noisy=st.booleans(),
           order=st.lists(st.integers(0, len(EXPERIMENT_POOL) - 1), min_size=1,
                          max_size=len(EXPERIMENT_POOL), unique=True))
    def test_each_run_equals_the_run_alone(self, channels, noisy, order):
        runs = sim.run_derivative_experiments(
            EXPERIMENT_SIGNALS[channels], EXPERIMENT_NOISE[noisy],
            [_experiment_config(i, channels) for i in order], EXPERIMENT_CFG)
        count = 0
        for index, traj in zip(order, runs):
            alone = _experiment_alone(index, channels, noisy)
            assert list(traj.columns) == list(alone.columns)
            for name in alone.columns:
                assert np.array_equal(traj.column(name), alone.column(name)), name
            count += 1
        assert count == len(order)

    def test_samples_and_evaluates_the_signal_once(self, monkeypatch):
        sampled = _counting(monkeypatch, signals, "sample_noisy_grid")
        evaluated = _counting(monkeypatch, signals.AnalyticSignal, "eval_many")
        cfgs = [_experiment_config(i, 3) for i in range(len(EXPERIMENT_POOL))]
        runs = list(sim.run_derivative_experiments(
            EXPERIMENT_SIGNALS[3], EXPERIMENT_NOISE[True], cfgs, EXPERIMENT_CFG))
        assert len(runs) == len(cfgs)
        assert len(sampled) == 1
        # The clean signal on the stage grid, then orders 1..3 at the
        # recorded times.
        assert [args[2] for args in evaluated] == [0, 1, 2, 3]

    def test_every_config_is_validated_before_anything_runs(self, monkeypatch):
        sampled = _counting(monkeypatch, signals, "sample_noisy_grid")
        cfgs = [est.DirtyDerivativeConfig(1, 5.0, 1), est.DirtyDerivativeConfig(1, 5.0, 3)]
        with pytest.raises(ValueError, match="signal_dim"):
            sim.run_derivative_experiments(signals.sinusoid_5t_minus_2(), signals.NoiseSpec(),
                                           cfgs, EXPERIMENT_CFG)
        assert sampled == []

    def test_empty_config_list_rejected(self):
        with pytest.raises(ValueError):
            sim.run_derivative_experiments(signals.sinusoid_5t_minus_2(), signals.NoiseSpec(),
                                           [], EXPERIMENT_CFG)

    def test_runs_are_yielded_one_at_a_time(self):
        # The second gain diverges (sigma*h = 1000); the first run is
        # yielded before the second is built.
        cfgs = [est.DirtyDerivativeConfig(1, 40.0), est.DirtyDerivativeConfig(1, 1e6)]
        runs = sim.run_derivative_experiments(signals.sinusoid_5t_minus_2(),
                                              signals.NoiseSpec(), cfgs, EXPERIMENT_CFG)
        first = next(runs)
        first.check_finite()
        with pytest.warns(UserWarning, match="sigma"):
            with pytest.raises(sim.NonFiniteStateError):
                next(runs)


def _loop_drive_lti(realization, maps, W, x0, dtype=np.float64):
    """The per-step form of sim._drive_lti, in ``dtype``: per-step input
    terms, one matrix-vector recurrence step per grid step, and an einsum
    read-out of the whole state array."""
    T, M0, M1, M2 = (np.asarray(M, dtype) for M in maps)
    W = np.asarray(W, dtype)
    V = (M0[:, 0][None, :, None] * W[0:-2:2, None, :]
         + M1[:, 0][None, :, None] * W[1::2, None, :]
         + M2[:, 0][None, :, None] * W[2::2, None, :])
    W = W[0::2]
    X = np.empty((len(W),) + x0.shape, dtype)
    X[0] = x0
    for j in range(len(V)):
        X[j + 1] = T @ X[j] + V[j]
    C, D = (np.asarray(M, dtype) for M in (realization.C, realization.D))
    return np.einsum("qn,jnm->jqm", C, X) + D[:, 0][None, :, None] * W[:, None, :]


class TestChunkedKernel:
    @pytest.mark.parametrize("steps", [10, 63, 64, 65, 1000])
    @pytest.mark.parametrize("maps", ["rk4", "zoh"])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_per_step_loop(self, order, channels, maps, steps):
        # 10 and 63 steps are one partial chunk, 64 exactly one, 65 one plus
        # a one-step padded chunk, 1000 sixteen chunks with a padded last.
        # The kernel is linear in any step maps; the exact zero-order-hold
        # pair gives it a step map with another spectrum and a single tap.
        h = 1e-2
        dd = est.build_estimator(est.DirtyDerivativeConfig(order, 20.0, channels), h)
        maps = dd.rk4_maps if maps == "rk4" else _zoh_maps(dd.continuous, h)
        W = np.sin(2.5 * h * np.arange(2 * steps + 1)[:, None] + np.arange(channels))
        x0 = np.random.default_rng(order).standard_normal(dd.state.shape)
        got = sim._drive_lti(dd.continuous, maps, W, x0)
        expected = _loop_drive_lti(dd.continuous, maps, W, x0)
        assert got.shape == expected.shape == (steps + 1, order, channels)
        for i in range(order):
            column = expected[:, i, :]
            scale = max(1.0, float(np.max(np.abs(column))))
            assert np.max(np.abs(got[:, i, :] - column)) <= 1e-12 * scale, i + 1

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="longdouble is no wider than float64 here")
    @pytest.mark.parametrize("sigma", [160.0, 320.0])
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_no_less_accurate_than_per_step_loop(self, order, sigma):
        # Reference: the same recurrence on the same float64 maps, carried out
        # in extended precision. Higher-order outputs are small differences of
        # large terms, so both float64 forms carry sizeable roundoff there;
        # the chunked form must stay within a small factor of the loop's.
        cfg = sim.SimConfig(tf=5.0, h=1e-3)
        dd = est.build_estimator(est.DirtyDerivativeConfig(order, sigma, 1), cfg.h)
        W = np.sin(5.0 * cfg.stage_times() - 2.0)[:, None]
        window = sim.Trajectory({"t": cfg.times()}).window_mask()
        got = sim._drive_lti(dd.continuous, dd.rk4_maps, W, dd.state)[window]
        loop = _loop_drive_lti(dd.continuous, dd.rk4_maps, W, dd.state)[window]
        ref = _loop_drive_lti(dd.continuous, dd.rk4_maps, W, dd.state, np.longdouble)[window]
        for i in range(order):
            loop_error = float(np.max(np.abs(loop[:, i] - ref[:, i])))
            error = float(np.max(np.abs(got[:, i] - ref[:, i])))
            scale = float(np.max(np.abs(ref[:, i])))
            assert error <= max(4.0 * loop_error, 1e-12 * scale), i + 1


class TestSimulateRealization:
    def test_matches_general_rk4_integrator(self):
        block = est.build_f_block(2, 2.0)
        cfg = sim.SimConfig(tf=2.0, h=1e-3)
        x0 = np.array([0.3, -0.8])
        _, y = sim.simulate_realization(block, np.sin(cfg.stage_times()), cfg, x0=x0)

        def rhs(t, x):
            return block.A @ x + block.B[:, 0] * math.sin(t)

        ref = reference.integrate_rk4(rhs, x0, cfg)
        y_ref = np.column_stack([ref.column("x_0"), ref.column("x_1")]) @ block.C[0]
        assert np.max(np.abs(y[:, 0] - y_ref)) <= 1e-12

    def test_initial_state_matches_stateful_stepping(self):
        est_cfg = est.DirtyDerivativeConfig(2, 5.0, 1)
        cfg = sim.SimConfig(tf=0.5, h=1e-2)
        dd = est.build_estimator(est_cfg, cfg.h)
        x0 = np.random.default_rng(4).standard_normal(dd.continuous.state_dim)
        u = np.sin(cfg.stage_times())[:, None]
        _, y = sim.simulate_realization(dd.continuous, u[:, 0], cfg, x0=x0)
        dd.state = x0.reshape(-1, 1).copy()
        for row in range(cfg.num_steps + 1):
            out = dd.output(u[2 * row])[:, 0]
            assert np.max(np.abs(out - y[row])) <= 1e-13 * max(1.0, np.max(np.abs(out)))
            if row < cfg.num_steps:
                dd.step_sampled(*u[2 * row:2 * row + 3])

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
        w = signals.sample_noisy_grid(signal.eval_many(cfg.stage_times(), 0), noise)
        dd = est.build_estimator(est_cfg, cfg.h)
        hat = np.column_stack([traj.column(f"thetahat_{c}") for c in range(3)])
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
        sup_ideal = sim.steady_state_sup(ideal, "tracking_error")
        sup_none = sim.steady_state_sup(none, "tracking_error")
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
        x0 = signal.eval_many([0.0], 0)[0]
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


def _general_rhs(cost, x, theta, velocity):
    """The corrected Newton field through the full matrices: gradient plus
    cross-Hessian matvec, solved by elimination on the full Hessian
    (``CostModel.solve_hessian`` calls ``numerics.solve_linear``), whatever
    closed form the cost's own ``newton_field`` uses."""
    g = cost.gradient(x, theta) + cost.cross_hessian(x, theta) @ velocity
    return -flows.CostModel.solve_hessian(cost, x, theta, g)


def _reference_run(cost, signal, mode, cfg, est_cfg=None, noise=signals.NoiseSpec()):
    """Run-by-run reference for the batched engine: one RK4 loop over a single
    state vector through :func:`_general_rhs`, recording every derived column
    row by row. The estimate comes from the same batch LTI path as in the
    engine (it is checked against stateful stepping in TestInterconnection)."""
    n, N, h = cost.n, cfg.num_steps, cfg.h
    ts = cfg.stage_times()
    theta_all = signal.eval_many(ts, 0)
    theta_dot_all = signal.eval_many(ts, 1)
    estimated = mode is ESTIMATED
    if estimated:
        dd = est.build_estimator(est_cfg, h)
        meas = signals.sample_noisy_grid(theta_all, noise)
        hat = sim._drive_lti(dd.continuous, dd.rk4_maps, meas, dd.state)[:, 0, :]
    x = np.zeros(n)
    rows = []
    for j in range(N + 1):
        theta, theta_dot = theta_all[2 * j], theta_dot_all[2 * j]
        v_cert = hat[j] if estimated else theta_dot
        u = np.zeros(n) if mode is NONE else flows.ideal_correction(cost, x, theta, v_cert)
        _, gx, gt = flows.lyapunov_gradients(cost, x, theta)
        lhs, _ = flows.check_redesign_condition(gx, gt, u, v_cert)
        xstar = cost.minimizer(theta)
        row = {"t": cfg.t0 + j * h}
        row.update({f"theta_{c}": theta[c] for c in range(signal.dim)})
        row.update({f"thetadot_{c}": theta_dot[c] for c in range(signal.dim)})
        if estimated:
            row.update({f"thetahat_{c}": hat[j, c] for c in range(signal.dim)})
        row.update({f"x_{c}": x[c] for c in range(n)})
        row.update({f"xstar_{c}": xstar[c] for c in range(n)})
        row["loss"] = cost.value(x, theta)
        row["tracking_error"] = np.linalg.norm(x - xstar)
        if estimated:
            row["est_error"] = np.linalg.norm(hat[j] - theta_dot)
        row["redesign_lhs"] = lhs
        rows.append(row)
        if j == N:
            break
        if mode is IDEAL:
            v0, vm, v1 = theta_dot, theta_dot_all[2 * j + 1], theta_dot_all[2 * j + 2]
        elif estimated:
            v0 = vm = v1 = hat[j]
        else:
            v0 = vm = v1 = np.zeros(signal.dim)
        rhs = _general_rhs
        th_m, th_1 = theta_all[2 * j + 1], theta_all[2 * j + 2]
        k1 = rhs(cost, x, theta, v0)
        k2 = rhs(cost, x + 0.5 * h * k1, th_m, vm)
        k3 = rhs(cost, x + 0.5 * h * k2, th_m, vm)
        k4 = rhs(cost, x + h * k3, th_1, v1)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return {name: np.array([row[name] for row in rows]) for name in rows[0]}


class _FieldBlowsUpAt(flows.QuadraticTrackingCost):
    """Scalar quadratic tracker whose field is infinite wherever theta has
    reached ``t_bad`` and the velocity fed to the correction is nonzero."""

    def __init__(self, t_bad):
        super().__init__(1)
        self.t_bad = t_bad

    def newton_field(self, x, theta, velocity):
        field = super().newton_field(x, theta, velocity)
        blown = (np.asarray(theta) >= self.t_bad) & (np.asarray(velocity) != 0.0)
        return np.where(blown, np.inf, field)


class _RejectsNonFiniteState(_FieldBlowsUpAt):
    """The same field, which raises on a non-finite state the way
    ``numerics.solve_linear`` raises on a non-finite Hessian."""

    def newton_field(self, x, theta, velocity):
        if not np.all(np.isfinite(x)):
            raise ValueError("state contains non-finite entries")
        return super().newton_field(x, theta, velocity)


def _per_step_failure_time(cost, signal, cfg):
    """The failing time a check after every step reports for the ideal run:
    one state vector, RK4 one step at a time; None if it stays finite."""
    h = cfg.h
    ts = cfg.stage_times()
    theta, theta_dot = signal.eval_many(ts, 0), signal.eval_many(ts, 1)
    rhs = flows.corrected_newton_rhs
    x = np.zeros(cost.n)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(cfg.num_steps):
            a, m, b = 2 * j, 2 * j + 1, 2 * j + 2
            k1 = rhs(cost, x, theta[a], theta_dot[a])
            k2 = rhs(cost, x + 0.5 * h * k1, theta[m], theta_dot[m])
            k3 = rhs(cost, x + 0.5 * h * k2, theta[m], theta_dot[m])
            k4 = rhs(cost, x + h * k3, theta[b], theta_dot[b])
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(x)):
                return cfg.t0 + j * h + h
    return None


STATE_COLUMNS = ("t", "theta_", "thetadot_", "thetahat_", "x_", "xstar_")
MIXED_RUNS = [(NONE, None), (IDEAL, None),
              (ESTIMATED, est.DirtyDerivativeConfig(1, 5.0, 3)),
              (ESTIMATED, est.DirtyDerivativeConfig(2, 20.0, 3))]
BATCH_POOL = [(NONE, None), (IDEAL, None),
              (ESTIMATED, est.DirtyDerivativeConfig(1, 5.0, 3)),
              (ESTIMATED, est.DirtyDerivativeConfig(1, 20.0, 3))]
BATCH_CFG = sim.SimConfig(tf=0.5, h=1e-2)
BATCH_NOISE = signals.NoiseSpec(0.01, 11)


@functools.lru_cache(maxsize=None)
def _run_alone(cost_name, index):
    mode, est_cfg = BATCH_POOL[index]
    return sim.run_interconnection(flows.cost_by_name(cost_name, 3),
                                   signals.benchmark_parameter_path(), mode, BATCH_CFG,
                                   est_cfg=est_cfg, noise=BATCH_NOISE)


class TestInterconnections:
    # tf = 1 records 101 rows, inside one recording block; tf = 3 records
    # 301 rows, more than one.
    @pytest.mark.parametrize("cost_name,noise_var,tf", [
        ("quadratic-tracking", 0.0, 1), ("logcosh", 0.0, 3),
        ("quadratic-tracking", 0.01, 3), ("logcosh", 0.01, 1)])
    def test_batch_matches_run_by_run_reference(self, cost_name, noise_var, tf):
        cost = flows.cost_by_name(cost_name, 3)
        signal = signals.benchmark_parameter_path()
        cfg = sim.SimConfig(tf=tf, h=1e-2)
        noise = signals.NoiseSpec(noise_var, 5)
        batch = sim.run_interconnections(cost, signal, MIXED_RUNS, cfg, noise=noise)
        for (mode, est_cfg), traj in zip(MIXED_RUNS, batch):
            ref = _reference_run(cost, signal, mode, cfg, est_cfg, noise)
            assert list(traj.columns) == list(ref)
            for name, expected in ref.items():
                got = traj.column(name)
                if name == "t" or name.startswith(STATE_COLUMNS[1:]):
                    assert np.array_equal(got, expected), name
                else:
                    # Derived columns are reduced over whole arrays, in a
                    # different order than row by row.
                    scale = max(1.0, float(np.max(np.abs(expected))))
                    assert np.max(np.abs(got - expected)) <= 1e-12 * scale, name

    @settings(max_examples=25, deadline=None)
    @given(cost_name=st.sampled_from(["quadratic-tracking", "logcosh"]),
           order=st.lists(st.integers(0, len(BATCH_POOL) - 1), min_size=1,
                          max_size=len(BATCH_POOL), unique=True))
    def test_each_batched_run_equals_the_run_alone(self, cost_name, order):
        batch = sim.run_interconnections(flows.cost_by_name(cost_name, 3),
                                         signals.benchmark_parameter_path(),
                                         [BATCH_POOL[i] for i in order], BATCH_CFG,
                                         noise=BATCH_NOISE)
        for index, traj in zip(order, batch):
            alone = _run_alone(cost_name, index)
            assert list(traj.columns) == list(alone.columns)
            for name in alone.columns:
                assert np.array_equal(traj.column(name), alone.column(name)), name

    def test_diverging_batch_raises_at_the_failing_time(self):
        # sigma*h = 10 is far outside the RK4 stability interval: the estimate
        # overflows, and the state with it, while the other runs stay finite.
        cfg = sim.SimConfig(tf=20.0, h=0.1)
        runs = [(NONE, None), (ESTIMATED, est.DirtyDerivativeConfig(1, 100.0, 3)), (IDEAL, None)]
        with pytest.warns(UserWarning, match="sigma"):
            with pytest.raises(sim.NonFiniteStateError) as info:
                sim.run_interconnections(flows.QuadraticTrackingCost(3),
                                         signals.benchmark_parameter_path(), runs, cfg)
        assert info.value.t == 12.6  # the time the run-by-run loop reported

    @pytest.mark.parametrize("cost_class", [_FieldBlowsUpAt, _RejectsNonFiniteState])
    # finite_runs uncorrected runs, which stay finite, are integrated beside
    # the failing ideal run.
    @pytest.mark.parametrize("step,finite_runs", [
        (0, 1),                                 # the first step
        (sim._RECORD_BLOCK_ROWS - 1, 1),        # the last step of a block
        (sim._RECORD_BLOCK_ROWS, 1),            # the first step of the next block
        (100, 3)])                              # a step inside a block
    def test_failing_time_matches_a_per_step_check(self, cost_class, step, finite_runs):
        cfg = sim.SimConfig(tf=6.0, h=1e-2)
        signal = signals.AnalyticSignal((signals.Polynomial((0.0, 1.0)),))   # theta = t
        # The field is infinite from the stage where theta reaches the end of
        # the step, in the ideal run only; the none runs stay finite.
        t_bad = signal.eval_many(cfg.stage_times(), 0)[2 * step + 2, 0]
        cost = cost_class(t_bad)
        expected = _per_step_failure_time(cost, signal, cfg)
        assert expected == cfg.t0 + step * cfg.h + cfg.h
        runs = [(NONE, None)] * finite_runs + [(IDEAL, None)]
        with pytest.raises(sim.NonFiniteStateError) as info:
            sim.run_interconnections(cost, signal, runs, cfg)
        assert info.value.t == expected

    def test_empty_run_list_rejected(self):
        with pytest.raises(ValueError):
            sim.run_interconnections(flows.QuadraticTrackingCost(3),
                                     signals.benchmark_parameter_path(), [], sim.SimConfig())
