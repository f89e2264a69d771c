import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ddopt import estimator as est
from ddopt import flows, record, signals, sim

NONE = flows.CorrectionMode.NONE
IDEAL = flows.CorrectionMode.IDEAL
ESTIMATED = flows.CorrectionMode.ESTIMATED


def _drive(realization, maps, W, x0, first=0):
    """sim._drive_lti on the samples ``W``, laid out for this run alone."""
    return sim._drive_lti(realization, maps, sim._chunk_layout(W, len(x0), first), x0)


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

    def test_stage_times_must_strictly_increase(self):
        # From 2**52 up float64 holds only the integers: stage times h/2 = 1
        # apart are distinct, h/2 = 0.5 apart repeat (ties round to even).
        t0 = 2.0 ** 52
        assert len(set(sim.SimConfig(t0=t0, tf=t0 + 20.0, h=2.0).stage_times())) == 21
        with pytest.raises(ValueError, match="strictly increase"):
            sim.SimConfig(t0=t0, tf=t0 + 10.0, h=1.0)
        with pytest.raises(ValueError, match="strictly increase"):
            sim.SimConfig(t0=1e15, tf=1.0000000000001e15, h=0.1)

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
        traj = record.Trajectory({"t": t, "v": values})
        assert record.steady_state_sup(traj, "v") == 1.0

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


# Values where '%.17g' changes layout or rounds: signed zeros, subnormals,
# inf and nan, every power of ten from 1e-12 to 1e17 with both neighbours
# (the fixed/exponent boundary is 1e-4/1e-5), and exact ties at the 17th
# digit, which round half to even.
_FORMAT_EDGES = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
                 1.7976931348623157e308, math.nan, math.inf,
                 2.0**53, 2.0**53 + 2, 1e15 + 0.5, 1e15 + 0.25, 1e15 + 0.75, 123456789012345.625]
_FORMAT_EDGES += [np.nextafter(p, toward) for p in (float(f"1e{k}") for k in range(-12, 18))
                  for toward in (0.0, p, math.inf)]


def _cells(values):
    """The bytes write_csvs gives each value, its separator included."""
    text, row = record._format_cells(np.array(values, dtype=np.float64))
    return [bytes(text[i][text[i] != 0]) for i in row]


def _percent_cells(values):
    return [b"%.17g," % value for value in values]


def _percent_csv(columns):
    """The bytes write_csvs gives ``columns``, from one '%.17g' per cell."""
    return (",".join(columns) + "\n" + "".join(
        ",".join("%.17g" % value for value in row) + "\n"
        for row in zip(*columns.values()))).encode()


class TestTrajectoryCsv:
    def test_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        traj = record.Trajectory({
            "t": np.arange(5) * 0.1,
            "theta_0": rng.standard_normal(5),
            "loss": np.abs(rng.standard_normal(5)) * 1e-17,
        })
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        back = record.Trajectory.from_csv(path)
        assert list(back.columns) == list(traj.columns)
        for name in traj.columns:
            assert np.array_equal(back.column(name), traj.column(name))

    def test_lf_line_endings_and_header(self, tmp_path):
        traj = record.Trajectory({"t": [0.0, 1.0], "x_0": [1.0, 2.0]})
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.split(b"\n")[0] == b"t,x_0"

    def test_bytes_match_per_value_formatting(self, tmp_path):
        # 200 rows: the writer's row blocks and their boundaries are covered.
        v = np.tile([-0.0, 5e-324, 1e300, 0.1 + 0.2, -7.0], 40)
        t = np.arange(float(len(v)))
        traj = record.Trajectory({"t": t, "v": v, "w": v[::-1]})
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        expected = "t,v,w\n" + "".join(
            ",".join(format(value, ".17g") for value in row) + "\n"
            for row in zip(t, v, v[::-1]))
        assert path.read_bytes() == expected.encode()

    def test_shared_columns_across_row_blocks(self, tmp_path):
        # Three files share the t and v arrays, over more than two row blocks.
        rows = 2 * record._CSV_BLOCK_ROWS + 37
        v = np.resize([-0.0, 5e-324, 1e300, 0.1 + 0.2, -7.0], rows)
        t = np.arange(float(rows))
        own = [v[::-1].copy(), -v, 3.0 * v]
        trajs = [record.Trajectory({"t": t, "v": v, "w": w}) for w in own]
        assert all(traj.column("v") is v for traj in trajs)
        paths = [tmp_path / f"traj{i}.csv" for i in range(len(own))]
        record.write_csvs((traj.columns, path) for traj, path in zip(trajs, paths))
        for w, path in zip(own, paths):
            expected = "t,v,w\n" + "".join(
                ",".join(format(value, ".17g") for value in row) + "\n"
                for row in zip(t, v, w))
            assert path.read_bytes() == expected.encode()

    def test_unequal_lengths(self, tmp_path):
        block = record._CSV_BLOCK_ROWS
        values = np.random.default_rng(4).standard_normal(3 * block)
        trajs = [record.Trajectory({"t": np.arange(float(n)), "v": values[:n]})
                 for n in (1, block, block + 1, 3 * block)]
        paths = [tmp_path / f"traj{i}.csv" for i in range(len(trajs))]
        record.write_csvs((traj.columns, path) for traj, path in zip(trajs, paths))
        for traj, path in zip(trajs, paths):
            expected = "t,v\n" + "".join(
                ",".join(format(value, ".17g") for value in row) + "\n"
                for row in zip(traj.t, traj.column("v")))
            assert path.read_bytes() == expected.encode()
        record.write_csvs([])

    def test_mixed_layouts_across_row_blocks(self, tmp_path):
        # One block holds every layout class: zeros of both signs, the fixed
        # point forms from 1e-4 up, the exponent forms, inf and nan. Files of
        # unequal length share columns, over several row blocks.
        block = record._CSV_BLOCK_ROWS
        rows = 2 * block + 19
        rng = np.random.default_rng(9)
        mixed = np.resize(_FORMAT_EDGES, rows) * rng.choice([1.0, -1.0], rows)
        spread = rng.standard_normal(rows) * 10.0 ** rng.integers(-14, 20, rows)
        t = np.arange(float(rows))
        columns = [{"t": t, "zero": np.zeros(rows), "mixed": mixed, "spread": spread},
                   {"t": t[:block + 1], "negzero": np.full(block + 1, -0.0),
                    "mixed": mixed[:block + 1], "own": spread[:block + 1] * 1e-3},
                   {"spread": spread[:7], "t": t[:7]}]
        paths = [tmp_path / f"traj{i}.csv" for i in range(len(columns))]
        record.write_csvs(zip(columns, paths))
        for cols, path in zip(columns, paths):
            expected = ",".join(cols) + "\n" + "".join(
                ",".join(format(value, ".17g") for value in row) + "\n"
                for row in zip(*cols.values()))
            assert path.read_bytes() == expected.encode()

    def test_columns_are_written_as_float64(self, tmp_path):
        # An int64 column holds other values than a float64 column with its
        # bits, so the two do not share text.
        path = tmp_path / "traj.csv"
        record.write_csvs([({"a": np.array([1, 2]), "b": np.array([5e-324, 1e-323])}, path)])
        assert path.read_bytes() == (b"a,b\n1,4.9406564584124654e-324\n"
                                     b"2,9.8813129168249309e-324\n")

    def test_columns_alike_in_part_keep_their_own_text(self, tmp_path):
        # Columns equal to another in all rows but one, or but for the sign
        # of zero, are not taken for it.
        rows = 2 * record._CSV_BLOCK_ROWS + 5
        columns = {"t": np.arange(float(rows)), "zero": np.zeros(rows),
                   "negzero": np.full(rows, -0.0)}
        for row in (1, rows // 2 + 1, rows - 1):
            columns[f"one{row}"] = np.zeros(rows)
            columns[f"one{row}"][row] = 1.0
        columns["negzero1"] = np.zeros(rows)
        columns["negzero1"][1] = -0.0
        path = tmp_path / "traj.csv"
        record.write_csvs([(columns, path)])
        assert path.read_bytes() == _percent_csv(columns)

    @pytest.mark.parametrize("v", [[7.0, 8.0, 9.0, 10.0], [7.0, 8.0]])
    def test_columns_of_one_file_need_one_length(self, tmp_path, v):
        # Checked for every file before any is opened.
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        with pytest.raises(ValueError, match=f"column 'v' has length {len(v)}, expected 3"):
            record.write_csvs([({"t": [0.0, 1.0]}, first),
                               ({"t": [0.0, 1.0, 2.0], "v": v}, second)])
        assert not first.exists() and not second.exists()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           lengths=st.lists(st.sampled_from([0, 1, 7, record._CSV_BLOCK_ROWS - 1,
                                              record._CSV_BLOCK_ROWS, record._CSV_BLOCK_ROWS + 1,
                                              2 * record._CSV_BLOCK_ROWS + 3]),
                            min_size=1, max_size=4),
           width=st.integers(1, 5))
    def test_files_sharing_columns_match_percent_formatting(self, tmp_path_factory, seed,
                                                            lengths, width):
        # Files of the given lengths draw their columns from a few shared
        # ones: the same array object where lengths agree, an equal-valued
        # copy, or a column of their own. The values mix the formatting
        # edges, arbitrary bit patterns and the range formatted in numpy.
        rng = np.random.default_rng(seed)
        longest = max(lengths)

        def values(n):
            signs = rng.choice([1.0, -1.0], n)
            pools = [rng.choice(np.array(_FORMAT_EDGES), n) * signs,
                     rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
                     10.0 ** rng.uniform(-4.0, 17.0, n) * signs]
            return np.choose(rng.integers(0, 3, n), pools)

        shared, slices = [values(longest) for _ in range(3)], {}
        columns = []
        for n in lengths:
            cols = {}
            for j in range(width):
                source = rng.integers(0, len(shared) + 1)
                if source == len(shared):
                    cols[f"own{j}"] = values(n)
                    continue
                col = slices.setdefault((source, n), shared[source][:n])
                cols[f"c{j}"] = col.copy() if rng.random() < 0.3 else col
            columns.append(cols)
        out = tmp_path_factory.mktemp("csv")
        paths = [out / f"traj{i}.csv" for i in range(len(columns))]
        record.write_csvs(zip(columns, paths))
        for cols, path in zip(columns, paths):
            assert path.read_bytes() == _percent_csv(cols)

    def test_cells_at_formatting_edges(self):
        values = _FORMAT_EDGES + [-v for v in _FORMAT_EDGES]
        assert _cells(values) == _percent_cells(values)

    def test_cells_with_zeros_inside_digit_groups(self):
        # Exact values with fewer than 17 significant digits: dyadic fractions
        # i / 2**j, whose zeros fall inside, at the end of and after each
        # 4-digit group, and integers 10**p + 1, scaled by powers of ten.
        values = [i * 2.0**-j for i in range(1, 4096, 11) for j in range(0, 24, 3)]
        values += [float((10**p + 1) * 10**m) for p in range(1, 17) for m in range(17 - p)]
        values += [-v for v in values]
        assert _cells(values) == _percent_cells(values)

    @settings(max_examples=200, deadline=None)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), max_size=40),
           floats=st.lists(st.floats(), max_size=40),
           fixed=st.lists(st.floats(1e-4, 1e17) | st.floats(-1e17, -1e-4), max_size=40))
    def test_cells_match_percent_formatting(self, bits, floats, fixed):
        # Arbitrary bit patterns, any float, and the range formatted in numpy.
        values = np.array(bits, dtype=np.uint64).view(np.float64).tolist() + floats + fixed
        assert _cells(values) == _percent_cells(values)

    def test_rejects_decreasing_time(self):
        with pytest.raises(ValueError):
            record.Trajectory({"t": [0.0, 0.0], "v": [1.0, 1.0]})

    def test_rejects_missing_time(self):
        with pytest.raises(ValueError):
            record.Trajectory({"x": [1.0]})


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
        hat = _drive(cascade, _zoh_maps(cascade, cfg.h), W, np.zeros((1, 1)))
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


def _counting(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _window_sups(signal, noise, est_cfg, cfg):
    """Steady-state sups of the whole run's error columns."""
    traj = sim.run_derivative_experiment(signal, noise, est_cfg, cfg)
    return np.array([sim.steady_state_sup(traj, sim.column_name("est_error", order))
                     for order in range(1, est_cfg.order + 1)])


class TestDerivativeExperiments:
    @settings(max_examples=30, deadline=None)
    @given(channels=st.sampled_from([1, 3]), noisy=st.booleans(),
           gains=st.lists(st.tuples(st.integers(1, 4), st.floats(1.0, 400.0)), min_size=1,
                          max_size=4),
           tf=st.floats(0.1, 1.0))
    def test_each_run_equals_the_run_alone(self, channels, noisy, gains, tf):
        # tf = 0.1 to 1 at h = 1e-3 puts the window's first row anywhere in
        # or between the chunks of 64 steps, with 1 to 12 chunks skipped.
        signal, noise = EXPERIMENT_SIGNALS[channels], EXPERIMENT_NOISE[noisy]
        cfg = sim.SimConfig(tf=tf, h=1e-3)
        cfgs = [est.DirtyDerivativeConfig(k, sigma, channels) for k, sigma in gains]
        errors = sim.steady_state_errors(signal, noise, cfgs, cfg)
        assert len(errors) == len(cfgs)
        for est_cfg, sups in zip(cfgs, errors):
            assert np.array_equal(sups, _window_sups(signal, noise, est_cfg, cfg)), est_cfg

    def test_finite_windows_are_not_run_whole(self, monkeypatch):
        def run_whole(*args):
            raise AssertionError("a config was run whole")

        monkeypatch.setattr(sim, "run_derivative_experiment", run_whole)
        cfgs = [_experiment_config(i, 3) for i in range(len(EXPERIMENT_POOL))]
        errors = sim.steady_state_errors(EXPERIMENT_SIGNALS[3], EXPERIMENT_NOISE[True], cfgs,
                                         EXPERIMENT_CFG)
        assert [len(sups) for sups in errors] == [k for k, _ in EXPERIMENT_POOL]

    def test_samples_and_evaluates_the_signal_once(self, monkeypatch):
        sampled = _counting(monkeypatch, signals, "sample_noisy_grid")
        evaluated = _counting(monkeypatch, signals.AnalyticSignal, "eval_many")
        cfgs = [_experiment_config(i, 3) for i in range(len(EXPERIMENT_POOL))]
        errors = sim.steady_state_errors(EXPERIMENT_SIGNALS[3], EXPERIMENT_NOISE[True], cfgs,
                                         EXPERIMENT_CFG)
        assert len(errors) == len(cfgs)
        assert len(sampled) == 1
        # The clean signal on the stage grid, then orders 1..3 at the
        # window's recorded times only.
        assert [args[2] for args in evaluated] == [0, 1, 2, 3]
        window = sim.Trajectory({"t": EXPERIMENT_CFG.times()}).window_mask()
        assert [len(args[1]) for args in evaluated[1:]] == [int(window.sum())] * 3

    def test_gains_share_one_layout_per_state_size(self, monkeypatch):
        laid_out = _counting(monkeypatch, sim, "_chunk_layout")
        signal, noise = EXPERIMENT_SIGNALS[3], EXPERIMENT_NOISE[True]
        cfgs = [est.DirtyDerivativeConfig(2, sigma, 3) for sigma in (5.0, 20.0, 60.0, 160.0)]
        sim.steady_state_errors(signal, noise, cfgs, EXPERIMENT_CFG)
        assert len(laid_out) == 1
        laid_out.clear()
        # Orders 1, 2, 3, 1, 3: state sizes 1, 4, 9 of three channels.
        cfgs = [_experiment_config(i, 3) for i in range(len(EXPERIMENT_POOL))]
        sim.steady_state_errors(signal, noise, cfgs, EXPERIMENT_CFG)
        assert [args[1] for args in laid_out] == [1, 4, 9]

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_each_gain_equals_the_gain_alone(self, channels, order):
        # The window of tf = 0.2 starts at row 160, so two of the four chunks
        # are skipped and vouched for by the layout's sample peak.
        signal, noise = EXPERIMENT_SIGNALS[channels], EXPERIMENT_NOISE[True]
        cfgs = [est.DirtyDerivativeConfig(order, sigma, channels)
                for sigma in (5.0, 20.0, 60.0, 160.0)]
        shared = sim.steady_state_errors(signal, noise, cfgs, EXPERIMENT_CFG)
        for est_cfg, sups in zip(cfgs, shared):
            alone, = sim.steady_state_errors(signal, noise, [est_cfg], EXPERIMENT_CFG)
            assert np.array_equal(sups, alone), est_cfg

    def test_every_config_is_validated_before_anything_runs(self, monkeypatch):
        sampled = _counting(monkeypatch, signals, "sample_noisy_grid")
        cfgs = [est.DirtyDerivativeConfig(1, 5.0, 1), est.DirtyDerivativeConfig(1, 5.0, 3)]
        with pytest.raises(ValueError, match="signal_dim"):
            sim.steady_state_errors(signals.sinusoid_5t_minus_2(), signals.NoiseSpec(), cfgs,
                                    EXPERIMENT_CFG)
        assert sampled == []

    def test_empty_config_list_rejected(self):
        with pytest.raises(ValueError):
            sim.steady_state_errors(signals.sinusoid_5t_minus_2(), signals.NoiseSpec(), [],
                                    EXPERIMENT_CFG)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_diverging_gain_raises_as_its_run_alone(self, position):
        # sigma*h = 1000 overflows within a few steps, long before the
        # window: the error and its time are those of the whole run.
        diverging = est.DirtyDerivativeConfig(1, 1e6)
        cfgs = [est.DirtyDerivativeConfig(1, 40.0), est.DirtyDerivativeConfig(2, 80.0)]
        cfgs.insert(position, diverging)
        signal, noise = signals.sinusoid_5t_minus_2(), signals.NoiseSpec()
        with pytest.warns(UserWarning, match="sigma"):
            with pytest.raises(sim.NonFiniteStateError) as alone:
                sim.run_derivative_experiment(signal, noise, diverging, EXPERIMENT_CFG)
            with pytest.raises(sim.NonFiniteStateError) as batch:
                sim.steady_state_errors(signal, noise, cfgs, EXPERIMENT_CFG)
        assert str(batch.value) == str(alone.value) == "state became non-finite at t = 0.029"
        assert batch.value.t == alone.value.t

    def test_transient_past_the_safe_magnitude_raises_as_its_run_alone(self):
        # The order-4 estimate starts near 1e156 (its feedthrough is
        # sigma^4 = 1e10), whose square overflows in the error norm at t = 0,
        # while the window's errors stay near 1e149 and finite.
        signal = signals.AnalyticSignal((signals.Sinusoid(1e146, 5.0, -2.0),))
        est_cfg = est.DirtyDerivativeConfig(4, 320.0)
        cfg = sim.SimConfig(tf=3.0, h=1e-3)
        dd = est.build_estimator(est_cfg, cfg.h)
        W = signal.eval_many(cfg.stage_times(), 0)
        first = int(np.argmax(sim.Trajectory({"t": cfg.times()}).window_mask()))
        window = _drive(dd.continuous, dd.rk4_maps, W, dd.state)[first:]
        assert np.all(np.abs(window) < 1e150)
        assert _drive(dd.continuous, dd.rk4_maps, W, dd.state, first) is None
        with pytest.raises(sim.NonFiniteStateError) as alone:
            sim.run_derivative_experiment(signal, signals.NoiseSpec(), est_cfg, cfg)
        with pytest.raises(sim.NonFiniteStateError) as batch:
            sim.steady_state_errors(signal, signals.NoiseSpec(), [est_cfg], cfg)
        assert batch.value.t == alone.value.t == 0.0

    def test_unbounded_derivatives_are_run_whole(self, monkeypatch):
        # A degree-2 input has an unbounded first derivative, so the window
        # cannot vouch for the rows before it; the whole run decides.
        signal = signals.AnalyticSignal((signals.Polynomial((0.0, 1.0, 1.0)),))
        cfgs = [est.DirtyDerivativeConfig(1, 40.0), est.DirtyDerivativeConfig(2, 80.0)]
        whole = _counting(monkeypatch, sim, "run_derivative_experiment")
        errors = sim.steady_state_errors(signal, signals.NoiseSpec(), cfgs, EXPERIMENT_CFG)
        assert len(whole) == 2
        for est_cfg, sups in zip(cfgs, errors):
            assert np.array_equal(sups, _window_sups(signal, signals.NoiseSpec(), est_cfg,
                                                     EXPERIMENT_CFG))


def _loop_scan(T, V, x0):
    """x[j+1] = T x[j] + V[j] stepped one at a time, in the dtype of x0."""
    X = np.empty((len(V) + 1,) + x0.shape, x0.dtype)
    X[0] = x0
    for j in range(len(V)):
        X[j + 1] = T @ X[j] + V[j]
    return X


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
    X = _loop_scan(T, V, np.asarray(x0, dtype))
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
        got = _drive(dd.continuous, maps, W, x0)
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
        got = _drive(dd.continuous, dd.rk4_maps, W, dd.state)[window]
        loop = _loop_drive_lti(dd.continuous, dd.rk4_maps, W, dd.state)[window]
        ref = _loop_drive_lti(dd.continuous, dd.rk4_maps, W, dd.state, np.longdouble)[window]
        for i in range(order):
            loop_error = float(np.max(np.abs(loop[:, i] - ref[:, i])))
            error = float(np.max(np.abs(got[:, i] - ref[:, i])))
            scale = float(np.max(np.abs(ref[:, i])))
            assert error <= max(4.0 * loop_error, 1e-12 * scale), i + 1

    @pytest.mark.parametrize("first", [0, 1, 63, 64, 65, 1000])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_first_row_skips_only_rows_before_it(self, order, channels, first):
        # State sizes 1, 4, 9 and 16; 1000 steps are 16 chunks with a padded
        # last one, and first = 1000 keeps only the last row.
        h = 1e-2
        dd = est.build_estimator(est.DirtyDerivativeConfig(order, 20.0, channels), h)
        W = np.sin(2.5 * h * np.arange(2 * 1000 + 1)[:, None] + np.arange(channels))
        x0 = np.random.default_rng(order).standard_normal(dd.state.shape)
        full = _drive(dd.continuous, dd.rk4_maps, W, x0)
        tail = _drive(dd.continuous, dd.rk4_maps, W, x0, first)
        assert tail.shape == full[first:].shape
        assert np.array_equal(tail, full[first:])

    def test_first_row_vouches_for_the_rows_before_it(self):
        # A start state past the safe magnitude, or a non-finite sample in a
        # skipped chunk, leaves the skipped rows unvouched for.
        h = 1e-2
        dd = est.build_estimator(est.DirtyDerivativeConfig(2, 20.0), h)
        W = np.sin(2.5 * h * np.arange(2 * 1000 + 1))[:, None]
        drive = functools.partial(_drive, dd.continuous, dd.rk4_maps)
        assert drive(W, dd.state, 900) is not None
        assert drive(W, np.full_like(dd.state, 1e160), 900) is None
        W[10] = np.inf
        assert drive(W, dd.state, 900) is None
        assert drive(W, dd.state, 0) is not None      # the whole result is not vouched for

    @pytest.mark.parametrize("steps", [10, 64, 1000])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_broadcast_input_equals_single_channels(self, n, steps):
        # One input broadcast to m channels (a zero stride), each from its own
        # initial state, as the block-output-bound check drives its blocks.
        m, h = 10, 1e-3
        block = est.build_f_block(n, 10.0)
        maps = est.rk4_step_maps(block.A, block.B, h)
        u = np.sin(h * np.arange(2 * steps + 1))
        x0 = np.random.default_rng(n).standard_normal((n, m))
        got = _drive(block, maps, np.broadcast_to(u[:, None], (len(u), m)), x0)
        for i in range(m):
            single = _drive(block, maps, u[:, None], x0[:, i:i + 1])
            assert np.array_equal(got[:, :, i], single[:, :, 0]), i


class TestScanLinear:
    # 0 to 3 steps are the shortest prefix scans; 63 to 65 straddle a power
    # of two in the number of terms; 469 is the chunk count of a 30k-step run.
    @pytest.mark.parametrize("steps", [0, 1, 2, 3, 63, 64, 65, 469])
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 16), m=st.integers(1, 3), radius=st.floats(0.0, 0.999),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_step_recurrence(self, steps, n, m, radius, seed):
        rng = np.random.default_rng(seed)
        T = rng.standard_normal((n, n))
        T *= radius / np.max(np.abs(np.linalg.eigvals(T)))
        V = rng.standard_normal((steps, n, m))
        x0 = rng.standard_normal((n, m))
        got = sim._scan_linear(T, V, x0)
        expected = _loop_scan(T, V, x0)
        assert got.shape == expected.shape == (steps + 1, n, m)
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(got - expected)) <= 1e-12 * scale

    def test_overflowing_powers_keep_zero_states_finite(self):
        # T^64 overflows, and inf * 0 would be NaN; stepping keeps the state
        # component that T amplifies at zero, and the other one decays.
        T = np.diag([1e5, 0.5])
        V = np.zeros((100, 2, 1))
        x0 = np.array([[0.0], [1.0]])
        got = sim._scan_linear(T, V, x0)
        assert np.array_equal(got, _loop_scan(T, V, x0))
        assert np.isfinite(got).all()


def _extended_affine_scan(q, b):
    """d[1:] of d[j+1] = d[j] + q[j] d[j] + b[j] from d[0] = 0, one step at a
    time in extended precision, and the same recurrence on |1 + q| and |b|,
    the scale of the roundoff any summation order makes."""
    q, b = np.broadcast_arrays(*(np.asarray(a, np.longdouble) for a in (q, b)))
    d, scale = np.zeros((2, len(b) + 1) + b.shape[1:], np.longdouble)
    for j in range(len(b)):
        d[j + 1] = d[j] + q[j] * d[j] + b[j]
        scale[j + 1] = np.abs(1 + q[j]) * scale[j] + np.abs(b[j])
    return d[1:], scale[1:]


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="longdouble is no wider than float64 here")
class TestScanAffine:
    BOUND = 24 * np.finfo(np.float64).eps

    def _error(self, q, b):
        expected, scale = _extended_affine_scan(q, b)
        got = sim._scan_affine(q.copy(), b.copy())
        assert got.shape == b.shape
        return float(np.max(np.abs(got - expected) / np.maximum(1.0, scale)))

    @settings(max_examples=60, deadline=None)
    @given(steps=st.integers(1, 700), constant=st.booleans(),
           log_offset=st.floats(-13.0, math.log10(0.5)), seed=st.integers(0, 2**32 - 1))
    def test_matches_extended_precision_recurrence(self, steps, constant, log_offset, seed):
        # Offsets in [-0.5, -1e-13]: one (steps, 1) column broadcast over the
        # channels, as the affine flow passes it, or one per step and channel.
        rng = np.random.default_rng(seed)
        if constant:
            q = np.full((steps, 1), -10.0 ** log_offset)
        else:
            q = -10.0 ** rng.uniform(-13.0, math.log10(0.5), (steps, 2))
        b = rng.uniform(-1.0, 1.0, (steps, 2))
        assert self._error(q, b) <= self.BOUND

    def test_slow_decay_does_not_amplify_the_rounding_of_one_plus_q(self):
        # 1 - 1e-13 rounded to float64 is off by 3 parts in 1e4 of the
        # offset, and 600 slowly decaying steps compound that to about 40 eps
        # of the state; carried as an offset, the step map is never so rounded.
        q, b = np.full(600, -1e-13), np.ones(600)
        assert self._error(q, b) <= self.BOUND


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

    def test_estimator_signal_dim_mismatch(self):
        # The rule and message of the derivative runners.
        with pytest.raises(ValueError, match="signal dim 3 does not match estimator signal_dim 2"):
            sim.run_interconnection(flows.QuadraticTrackingCost(3),
                                    signals.benchmark_parameter_path(),
                                    flows.CorrectionMode.ESTIMATED, sim.SimConfig(),
                                    est_cfg=est.DirtyDerivativeConfig(1, 5.0, 2))

    def test_x0_cost_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"x0 shape \(2,\) does not match cost dimension 3"):
            sim.run_interconnection(flows.QuadraticTrackingCost(3),
                                    signals.benchmark_parameter_path(),
                                    flows.CorrectionMode.IDEAL, sim.SimConfig(), x0=np.zeros(2))

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
    closed form the cost's own ``newton_field_slope`` uses."""
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
        hat = _drive(dd.continuous, dd.rk4_maps, meas, dd.state)[:, 0, :]
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


class _LoopQuadratic(flows.QuadraticTrackingCost):
    """The quadratic tracker with its slope hidden, so that the engine steps
    it in every window (``sim._step_window``) instead of scanning it as an
    affine field."""

    def newton_field_slope(self, x, theta, velocity):
        return super().newton_field_slope(x, theta, velocity)[0], None


class _OffsetQuadratic(flows.QuadraticTrackingCost):
    """f = 0.5 ||x - theta||^2 + c . x: a field affine in x, slope -1, whose
    forcing at x = 0, theta - c + v, is not a multiple of theta + v."""

    c = np.array([0.5, -1.0, 2.0])

    def value(self, x, theta):
        return super().value(x, theta) + flows.component_sum(self.c * x)

    def gradient(self, x, theta):
        return super().gradient(x, theta) + self.c

    def minimizer(self, theta):
        return np.asarray(theta, dtype=np.float64) - self.c

    def newton_field_slope(self, x, theta, velocity):
        return (theta - self.c - x) + velocity, -1.0


class _SteppedOffsetQuadratic(_OffsetQuadratic):
    """The same cost with its slope hidden: every window is stepped."""

    def newton_field_slope(self, x, theta, velocity):
        return super().newton_field_slope(x, theta, velocity)[0], None


class _GeneralQuadratic(flows.QuadraticTrackingCost):
    """The quadratic tracker without its diagonal Hessian declaration, so that
    its runs are recorded through ``flows.ideal_correction`` and
    ``flows.lyapunov_gradients``."""

    def diagonal_hessian(self, x, theta):
        return None


class _GeneralLogCosh(flows.LogCoshTrackingCost):
    """The logcosh tracker without its diagonal Hessian declaration."""

    def diagonal_hessian(self, x, theta):
        return None


class _BlowsUpAt:
    """Makes a scalar tracker's field infinite wherever theta has reached
    ``t_bad`` and the velocity fed to the correction is nonzero, in
    ``newton_field_slope``: the engine calls it, and the per-step reference
    through ``flows.corrected_newton_rhs``."""

    def __init__(self, t_bad):
        super().__init__(1)
        self.t_bad = t_bad

    def _blow_up(self, field, theta, velocity):
        blown = (np.asarray(theta) >= self.t_bad) & (np.asarray(velocity) != 0.0)
        return np.where(blown, np.inf, field)

    def newton_field_slope(self, x, theta, velocity):
        field, slope = super().newton_field_slope(x, theta, velocity)
        return self._blow_up(field, theta, velocity), slope


class _FieldBlowsUpAt(_BlowsUpAt, _LoopQuadratic):
    """The quadratic tracker, blown up. Its slope is hidden, so the stepped
    windows' finiteness check is what it tests."""


class _LogCoshBlowsUpAt(_BlowsUpAt, flows.LogCoshTrackingCost):
    """The logcosh tracker, blown up. Its failing run's Newton window turns
    non-finite, and that run alone is stepped from the window's start."""


class _RejectsNonFiniteState(_FieldBlowsUpAt):
    """The same field, which raises on a non-finite state the way
    ``numerics.solve_linear`` raises on a non-finite Hessian."""

    def newton_field_slope(self, x, theta, velocity):
        if not np.all(np.isfinite(x)):
            raise ValueError("state contains non-finite entries")
        return super().newton_field_slope(x, theta, velocity)


def _quadratic_field(x, theta, v):
    return theta + v - x


_LOGCOSH_MU = np.longdouble(flows.LogCoshTrackingCost(1).mu)


def _logcosh_field(x, theta, v):
    # -(phi'(d) - phi''(d) v) / phi''(d), phi(d) = log cosh d + (mu/2) d^2.
    mu = _LOGCOSH_MU
    d = x - theta
    curvature = 1 / np.cosh(d) ** 2 + mu
    return -(np.tanh(d) + mu * d - curvature * v) / curvature


def _extended_rk4(field, theta, v0, vm, v1, h):
    """The flow x' = field(x, theta, v) from x = 0, one RK4 step at a time in
    extended precision, on float64 samples: theta at the stage times, the
    velocity at the start, middle and end of each step (shape (steps, runs,
    n) or (steps, n))."""
    theta, v0, vm, v1 = (np.asarray(a, np.longdouble) for a in (theta, v0, vm, v1))
    h = np.longdouble(h)
    X = np.zeros((len(v0) + 1,) + v0.shape[1:], np.longdouble)
    for j in range(len(v0)):
        x, th_m = X[j], theta[2 * j + 1]
        k1 = field(x, theta[2 * j], v0[j])
        k2 = field(x + h / 2 * k1, th_m, vm[j])
        k3 = field(x + h / 2 * k2, th_m, vm[j])
        k4 = field(x + h * k3, theta[2 * j + 2], v1[j])
        X[j + 1] = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return X


def _stage_velocities(runs, trajectories, signal, cfg):
    """The velocities each run's flow steps were fed, at the start, middle and
    end stage of each step: the exact velocity (ideal), the recorded
    estimate held over the step (estimated) or zero (none)."""
    theta_dot = signal.eval_many(cfg.stage_times(), 1)
    velocities = []
    for (mode, _), traj in zip(runs, trajectories):
        if mode is IDEAL:
            velocities.append((theta_dot[0:-2:2], theta_dot[1::2], theta_dot[2::2]))
        elif mode is ESTIMATED:
            hat = np.column_stack([traj.column(f"thetahat_{c}") for c in range(signal.dim)])
            velocities.append((hat[:-1],) * 3)
        else:
            velocities.append((np.zeros((cfg.num_steps, signal.dim)),) * 3)
    return velocities


class _SlopelessLogCosh(flows.LogCoshTrackingCost):
    """The logcosh tracker without its slope, so that the engine steps it in
    every window: the per-step RK4 recurrence Newton's method solves."""

    def newton_field_slope(self, x, theta, velocity):
        return super().newton_field_slope(x, theta, velocity)[0], None


class _SlopeLostAt(flows.LogCoshTrackingCost):
    """The scalar logcosh tracker, whose declared slope is zero wherever
    theta has reached ``theta_lost`` and the velocity fed to the correction
    is nonzero: there Newton's method does not settle within the cap."""

    def __init__(self, theta_lost):
        super().__init__(1)
        self.theta_lost = theta_lost

    def newton_field_slope(self, x, theta, velocity):
        field, slope = super().newton_field_slope(x, theta, velocity)
        lost = (np.asarray(theta) >= self.theta_lost) & (np.asarray(velocity) != 0.0)
        return field, np.where(lost, 0.0, slope)


class _TripledSlope(flows.LogCoshTrackingCost):
    """The logcosh tracker declaring three times its slope: Newton's method
    does not settle, and each window is stepped."""

    def newton_field_slope(self, x, theta, velocity):
        field, slope = super().newton_field_slope(x, theta, velocity)
        return field, 3.0 * slope


def _no_loop(*args):
    raise AssertionError("a window was stepped")


def _states(traj, n):
    return np.column_stack([traj.column(f"x_{c}") for c in range(n)])


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


# A 3-component path with no sinusoid, so that no step is too long for it.
STEP_PATH = signals.AnalyticSignal((signals.Polynomial((1.0,)), signals.Polynomial((0.0, 0.1)),
                                    signals.Polynomial((-1.0,))))


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
                # The states come from sim._affine_states (quadratic), which
                # sums the RK4 recurrence by a log-depth scan, in another
                # order than the loop, or from the Newton windows of
                # sim._flow_states (logcosh), which stop a few ulps from the
                # loop's recurrence.
                if (name == "t" or name.startswith(STATE_COLUMNS[1:])) and name[:2] != "x_":
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

    def test_estimated_runs_share_one_layout_per_state_size(self, monkeypatch):
        laid_out = _counting(monkeypatch, sim, "_chunk_layout")
        runs = [(ESTIMATED, est.DirtyDerivativeConfig(1, 5.0, 3)), (IDEAL, None),
                (ESTIMATED, est.DirtyDerivativeConfig(2, 20.0, 3)),
                (ESTIMATED, est.DirtyDerivativeConfig(1, 20.0, 3)),
                (ESTIMATED, est.DirtyDerivativeConfig(2, 5.0, 3))]
        cost = flows.cost_by_name("quadratic-tracking", 3)
        signal = signals.benchmark_parameter_path()
        batch = sim.run_interconnections(cost, signal, runs, BATCH_CFG, noise=BATCH_NOISE)
        assert [args[1] for args in laid_out] == [1, 4]
        for (mode, est_cfg), traj in zip(runs, batch):
            if mode is ESTIMATED:
                alone = sim.run_interconnection(cost, signal, mode, BATCH_CFG, est_cfg=est_cfg,
                                                noise=BATCH_NOISE)
                for c in range(3):
                    name = sim.column_name("thetahat", 1, c)
                    assert np.array_equal(traj.column(name), alone.column(name)), (est_cfg, name)

    @pytest.mark.parametrize("cost_class,general_class", [
        (flows.QuadraticTrackingCost, _GeneralQuadratic),
        (flows.LogCoshTrackingCost, _GeneralLogCosh)])
    def test_declared_diagonal_hessian_records_the_general_path_bits(
            self, monkeypatch, cost_class, general_class):
        # A declaring cost's correction and certificate are recorded
        # elementwise, never through the general path, with the same bits in
        # every column. 701 rows end in a partial recording block.
        signal = signals.benchmark_parameter_path()
        cfg, noise = sim.SimConfig(tf=0.7, h=1e-3), signals.NoiseSpec(0.01, 7)
        general = sim.run_interconnections(general_class(3), signal, MIXED_RUNS, cfg, noise=noise)

        def general_path(*args):
            raise AssertionError("recorded through the general path")

        monkeypatch.setattr(flows, "ideal_correction", general_path)
        monkeypatch.setattr(flows, "lyapunov_gradients", general_path)
        declared = sim.run_interconnections(cost_class(3), signal, MIXED_RUNS, cfg, noise=noise)
        for got, want in zip(declared, general):
            assert list(got.columns) == list(want.columns)
            for name, column in want.columns.items():
                assert np.array_equal(got.column(name).view(np.int64), column.view(np.int64)), name

    def test_quadratic_batch_never_steps_a_window(self, monkeypatch):
        # The quadratic field declares the float slope -1: it is affine, so
        # the engine drives the flow as an LTI system and steps no window.
        monkeypatch.setattr(sim, "_step_window", _no_loop)
        batch = sim.run_interconnections(flows.QuadraticTrackingCost(3),
                                         signals.benchmark_parameter_path(), MIXED_RUNS,
                                         BATCH_CFG, noise=BATCH_NOISE)
        assert len(batch) == len(MIXED_RUNS)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="longdouble is no wider than float64 here")
    def test_affine_path_no_less_accurate_than_rk4_loop(self):
        # Reference: the same RK4 steps on the same float64 samples and
        # estimates, carried out in extended precision. At the shipped step
        # the flow's time constant spans 1000 steps, over which the loop
        # accumulates its per-step rounding.
        cfg = sim.SimConfig(tf=3.0, h=1e-3)
        signal = signals.benchmark_parameter_path()
        noise = signals.NoiseSpec(0.01, 4)
        fast = sim.run_interconnections(flows.QuadraticTrackingCost(3), signal, MIXED_RUNS,
                                        cfg, noise=noise)
        loop = sim.run_interconnections(_LoopQuadratic(3), signal, MIXED_RUNS, cfg,
                                        noise=noise)
        theta = signal.eval_many(cfg.stage_times(), 0)
        velocities = _stage_velocities(MIXED_RUNS, fast, signal, cfg)
        for (mode, _), got, stepped, v in zip(MIXED_RUNS, fast, loop, velocities):
            ref = _extended_rk4(_quadratic_field, theta, *v, cfg.h)
            error = float(np.max(np.abs(_states(got, 3) - ref)))
            loop_error = float(np.max(np.abs(_states(stepped, 3) - ref)))
            assert error <= loop_error, mode

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="longdouble is no wider than float64 here")
    # The flow's time constant spans 10,000 and 100 steps; the shipped step,
    # 1e-3, is held to the loop's own error above.
    @pytest.mark.parametrize("h,tf", [(1e-4, 1.0), (1e-2, 30.0)])
    def test_affine_path_close_to_extended_precision(self, h, tf):
        # Reference: the RK4 loop's steps on the same float64 samples and
        # estimates, carried out in extended precision. The offset cost's
        # forcing at x = 0 is theta - c + v, not theta + v.
        cfg = sim.SimConfig(tf=tf, h=h)
        signal = signals.benchmark_parameter_path()
        theta = signal.eval_many(cfg.stage_times(), 0)
        c = _OffsetQuadratic.c.astype(np.longdouble)
        for cost, field in ((flows.QuadraticTrackingCost(3), _quadratic_field),
                            (_OffsetQuadratic(3), lambda x, th, v: th - c + v - x)):
            batch = sim.run_interconnections(cost, signal, MIXED_RUNS, cfg,
                                             noise=signals.NoiseSpec(0.01, 4))
            velocities = [np.stack(stage, axis=1) for stage in
                          zip(*_stage_velocities(MIXED_RUNS, batch, signal, cfg))]
            ref = _extended_rk4(field, theta[:, None, :], *velocities, cfg.h)
            x = np.stack([_states(traj, 3) for traj in batch], axis=1)
            assert np.max(np.abs(x - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-14, cost

    def test_logcosh_batch_never_steps_the_loop(self, monkeypatch):
        # The logcosh field is elementwise, so the engine solves its windows
        # by Newton's method and steps none. The batch has the shape of the
        # benchmark's logcosh optimize call.
        monkeypatch.setattr(sim, "_step_window", _no_loop)
        batch = sim.run_interconnections(flows.LogCoshTrackingCost(3),
                                         signals.benchmark_parameter_path(), BATCH_POOL,
                                         sim.SimConfig(tf=4.0, h=1e-3),
                                         noise=signals.NoiseSpec(0.01, 3))
        assert len(batch) == len(BATCH_POOL)

    def test_newton_iterations_evaluate_each_stage_once(self, monkeypatch):
        # Each Newton iteration evaluates the four RK4 stages of every step
        # once, field and slope together, and then makes one scan; the one
        # further call asks for the slope at x0. The batch has the shape of
        # the benchmark's logcosh optimize call.
        calls = {"stages": 0, "scans": 0}
        field_slope, scan = flows.LogCoshTrackingCost.newton_field_slope, sim._scan_affine

        def counted_field_slope(self, x, theta, velocity):
            calls["stages"] += 1
            return field_slope(self, x, theta, velocity)

        def counted_scan(q, b):
            calls["scans"] += 1
            return scan(q, b)

        monkeypatch.setattr(flows.LogCoshTrackingCost, "newton_field_slope", counted_field_slope)
        monkeypatch.setattr(sim, "_scan_affine", counted_scan)
        monkeypatch.setattr(sim, "_step_window", _no_loop)
        cfg = sim.SimConfig(tf=4.0, h=1e-3)
        sim.run_interconnections(flows.LogCoshTrackingCost(3), signals.benchmark_parameter_path(),
                                 BATCH_POOL, cfg, noise=signals.NoiseSpec(0.01, 3))
        assert calls["scans"] >= -(-cfg.num_steps // sim._RECORD_BLOCK_ROWS)   # every window
        assert calls["stages"] == 1 + 4 * calls["scans"]

    def test_affine_field_evaluates_each_stage_once(self, monkeypatch):
        # The affine scan evaluates the field at x = 0 once per stage for
        # every run together; the one further call asks for the slope at x0.
        calls = []
        field_slope = flows.QuadraticTrackingCost.newton_field_slope

        def counted_field_slope(self, x, theta, velocity):
            calls.append(np.shape(velocity))
            return field_slope(self, x, theta, velocity)

        monkeypatch.setattr(flows.QuadraticTrackingCost, "newton_field_slope", counted_field_slope)
        cfg = sim.SimConfig(tf=1.0, h=1e-2)
        sim.run_interconnections(flows.QuadraticTrackingCost(3), signals.benchmark_parameter_path(),
                                 MIXED_RUNS, cfg)
        assert calls == [(3,)] + [(cfg.num_steps, len(MIXED_RUNS), 3)] * 3

    def test_stepped_windows_evaluate_each_stage_once(self, monkeypatch):
        # A stepped window evaluates the four RK4 stages of each step once,
        # and takes the steps' slopes from those calls; the one further call
        # asks for the slope at x0. 700 steps end in a partial window.
        calls = []
        field_slope = _SlopelessLogCosh.newton_field_slope

        def counted_field_slope(self, x, theta, velocity):
            calls.append(x.shape)
            return field_slope(self, x, theta, velocity)

        monkeypatch.setattr(_SlopelessLogCosh, "newton_field_slope", counted_field_slope)
        cfg = sim.SimConfig(tf=0.7, h=1e-3)
        sim.run_interconnections(_SlopelessLogCosh(3), signals.benchmark_parameter_path(),
                                 BATCH_POOL, cfg, noise=signals.NoiseSpec(0.01, 3))
        assert len(calls) == 1 + 4 * cfg.num_steps

    def test_affine_field_with_offset_is_scanned(self, monkeypatch):
        # Any field affine in x with a float slope is scanned, whatever its
        # forcing at x = 0: here theta - c + v. The stepped runs of the same
        # field agree to rounding.
        signal = signals.benchmark_parameter_path()
        cfg, noise = sim.SimConfig(tf=3.0, h=1e-2), signals.NoiseSpec(0.01, 4)
        stepped = sim.run_interconnections(_SteppedOffsetQuadratic(3), signal, MIXED_RUNS, cfg,
                                           noise=noise)
        monkeypatch.setattr(sim, "_step_window", _no_loop)
        scanned = sim.run_interconnections(_OffsetQuadratic(3), signal, MIXED_RUNS, cfg,
                                           noise=noise)
        for traj, ref in zip(scanned, stepped):
            x, x_ref = _states(traj, 3), _states(ref, 3)
            assert np.all(np.abs(x - x_ref) <= 1e-12 * np.maximum(1.0, np.abs(x_ref)))

    @settings(max_examples=20, deadline=None)
    @given(modes=st.lists(st.sampled_from([NONE, IDEAL, ESTIMATED]), min_size=1, max_size=3,
                          unique=True),
           sigma=st.floats(2.0, 50.0), order=st.integers(1, 2),
           h=st.sampled_from([1e-3, 5e-3, 1e-2]), tf=st.floats(0.2, 3.0),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_newton_path_matches_the_rk4_loop(self, modes, sigma, order, h, tf, seed):
        cost = flows.LogCoshTrackingCost(3)
        signal = signals.benchmark_parameter_path()
        cfg = sim.SimConfig(tf=tf, h=h)
        noise = signals.NoiseSpec(0.01, seed)
        runs = [(mode, est.DirtyDerivativeConfig(order, sigma, 3)) for mode in modes]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_step_window", _no_loop)    # every window converges
            batch = sim.run_interconnections(cost, signal, runs, cfg, noise=noise)
            again = sim.run_interconnections(cost, signal, runs, cfg, noise=noise)
            alone = [sim.run_interconnection(cost, signal, mode, cfg, est_cfg=est_cfg,
                                             noise=noise) for mode, est_cfg in runs]
        stepped = sim.run_interconnections(_SlopelessLogCosh(3), signal, runs, cfg, noise=noise)
        for b, traj in enumerate(batch):
            x, x_loop = _states(traj, 3), _states(stepped[b], 3)
            assert np.all(np.abs(x - x_loop) <= 1e-12 * np.maximum(1.0, np.abs(x_loop)))
            for name in traj.columns:
                assert np.array_equal(traj.column(name), alone[b].column(name)), name
                assert np.array_equal(traj.column(name), again[b].column(name)), name

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="longdouble is no wider than float64 here")
    def test_newton_path_close_to_extended_precision(self):
        # Reference: the RK4 loop's steps on the same float64 samples and
        # estimates, carried out in extended precision.
        cfg = sim.SimConfig(tf=3.0, h=1e-3)
        signal = signals.benchmark_parameter_path()
        batch = sim.run_interconnections(flows.LogCoshTrackingCost(3), signal, MIXED_RUNS, cfg,
                                         noise=signals.NoiseSpec(0.01, 4))
        theta = signal.eval_many(cfg.stage_times(), 0)
        velocities = [np.stack(stage, axis=1) for stage in
                      zip(*_stage_velocities(MIXED_RUNS, batch, signal, cfg))]
        ref = _extended_rk4(_logcosh_field, theta[:, None, :], *velocities, cfg.h)
        x = np.stack([_states(traj, 3) for traj in batch], axis=1)
        assert np.max(np.abs(x - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-14

    def test_unconverged_runs_are_stepped_by_the_loop(self, monkeypatch):
        # At h = 1 a window of 256 steps spans 256 time constants of the
        # flow, and Newton's method does not settle within the iteration cap:
        # the run's window is stepped instead, bit for bit as a cost without
        # a slope is.
        signal = signals.AnalyticSignal((signals.Polynomial((3.0,)),))
        cfg = sim.SimConfig(tf=256.0, h=1.0)
        step_window, looped = sim._step_window, []

        def spy(cost, y, stages, h, times):
            looped.append((y.shape[1], times[0] - h))    # runs, window start time
            return step_window(cost, y, stages, h, times)

        monkeypatch.setattr(sim, "_step_window", spy)
        # From x - theta = -3 the states pass near |x - theta| = 2, where the
        # slope is -6.18, far past the stable steps: the run ends off its
        # minimizer, and the stepped window's steps, measured on its stepped
        # states, amplify a deviation by 18.5.
        with pytest.warns(UserWarning, match=r"amplify a deviation by up to 18\.5 > 1 at h = 1 "
                                             r"in 1 of 1 runs:"):
            traj = sim.run_interconnection(flows.LogCoshTrackingCost(1), signal, NONE, cfg)
        assert looped == [(1, 0.0)]
        assert record.steady_state_mean(traj, "loss") == pytest.approx(0.985, abs=5e-4)
        stepped = sim.run_interconnection(_SlopelessLogCosh(1), signal, NONE, cfg)
        assert np.array_equal(traj.column("x_0"), stepped.column("x_0"))

    def test_stepped_windows_are_measured_on_their_stepped_states(self, monkeypatch):
        # The declared slopes amplify no deviation along the stepped states.
        # Taken at the last Newton guesses, which had not settled, they would
        # (by 2.14e3 for the none run).
        step_window, looped = sim._step_window, []

        def spy(cost, y, stages, h, times):
            looped.append((y.shape[1], times[0] - h))    # runs, window start time
            return step_window(cost, y, stages, h, times)

        monkeypatch.setattr(sim, "_step_window", spy)
        sim.run_interconnections(_TripledSlope(3), STEP_PATH, [(NONE, None), (IDEAL, None)],
                                 sim.SimConfig(tf=60.0, h=0.5))   # a warning fails the test
        assert looped == [(2, 0.0)]

    def test_runs_losing_the_slope_later_are_stepped_from_that_window(self, monkeypatch):
        # theta = t/100 reaches 0.2 at t = 20, in the second window of 256
        # steps; from there the ideal run's slope is lost, and it is stepped
        # in that window and every later one. The none run is fed no
        # velocity, keeps its slope and is solved by Newton's method
        # throughout.
        signal = signals.AnalyticSignal((signals.Polynomial((0.0, 0.01)),))
        cfg = sim.SimConfig(tf=40.0, h=0.05)
        runs = [(NONE, None), (IDEAL, None)]
        step_window, looped = sim._step_window, []

        def spy(cost, y, stages, h, times):
            # The window's first step, its stepped runs and whether every
            # one of them is fed a velocity.
            looped.append((round((times[0] - h) / h), y.shape[1], bool(np.all(stages[3] != 0.0))))
            return step_window(cost, y, stages, h, times)

        monkeypatch.setattr(sim, "_step_window", spy)
        batch = sim.run_interconnections(_SlopeLostAt(0.2), signal, runs, cfg)
        block = sim._RECORD_BLOCK_ROWS
        assert looped == [(start, 1, True) for start in range(block, cfg.num_steps, block)]
        alone = [sim.run_interconnection(_SlopeLostAt(0.2), signal, mode, cfg)
                 for mode, _ in runs]
        stepped = sim.run_interconnections(_SlopelessLogCosh(1), signal, runs, cfg)
        for traj, ref, single in zip(batch, stepped, alone):
            x, x_ref = traj.column("x_0"), ref.column("x_0")
            assert np.all(np.abs(x - x_ref) <= 1e-12 * np.maximum(1.0, np.abs(x_ref)))
            for name in traj.columns:
                assert np.array_equal(traj.column(name), single.column(name)), name

    def test_stalled_newton_updates_are_accepted(self, monkeypatch):
        # On a ramp the updates stall at rounding level, summed over about
        # 1/h steps of slow decay, above the 4 eps tolerance; a stalled run
        # is accepted, not stepped.
        signal = signals.AnalyticSignal((signals.Polynomial((0.0, 1.0)),) * 3)   # theta = t
        cfg = sim.SimConfig(tf=10.0, h=0.01)
        runs = [(IDEAL, None), (NONE, None)]
        monkeypatch.setattr(sim, "_step_window", _no_loop)
        batch = sim.run_interconnections(flows.LogCoshTrackingCost(3), signal, runs, cfg)
        monkeypatch.undo()
        stepped = sim.run_interconnections(_SlopelessLogCosh(3), signal, runs, cfg)
        for traj, ref in zip(batch, stepped):
            x, x_ref = _states(traj, 3), _states(ref, 3)
            assert np.all(np.abs(x - x_ref) <= 1e-12 * np.maximum(1.0, np.abs(x_ref)))

    def test_diverging_batch_raises_at_the_failing_time(self):
        # sigma*h = 10 is far outside the RK4 stability interval: the estimate
        # overflows, and the state with it, while the other runs stay finite.
        # A scanned affine field's failing run is stepped to find the time,
        # with or without an offset, the time its stepped form reports.
        cfg = sim.SimConfig(tf=20.0, h=0.1)
        runs = [(NONE, None), (ESTIMATED, est.DirtyDerivativeConfig(1, 100.0, 3)), (IDEAL, None)]
        for cost in (flows.QuadraticTrackingCost(3), _OffsetQuadratic(3),
                     _SteppedOffsetQuadratic(3)):
            with pytest.warns(UserWarning, match="sigma"):
                with pytest.raises(sim.NonFiniteStateError) as info:
                    sim.run_interconnections(cost, signals.benchmark_parameter_path(), runs, cfg)
            assert info.value.t == 12.6, cost  # the time the run-by-run loop reported

    @pytest.mark.parametrize("cost_class", [_FieldBlowsUpAt, _RejectsNonFiniteState,
                                            _LogCoshBlowsUpAt])
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

    @pytest.mark.parametrize("cost_name", ["quadratic-tracking", "logcosh"])
    def test_unstable_flow_step_warns(self, cost_name):
        # At its minimizer the flow is x' = -x, whose RK4 step map
        # R(-h) = 1 - h + h^2/2 - h^3/6 + h^4/24 reaches 1 at h = 2.785. The
        # path has no sinusoid, so no step is too long for it. The quadratic
        # flow's 21 steps of h = 2.9 each amplify by |R(-2.9)| = 1.187, 36.7
        # together; the logcosh steps, steeper away from the minimizer,
        # amplify by far more.
        stable_h = {"quadratic-tracking": 2.5, "logcosh": 0.9}[cost_name]
        figure = {"quadratic-tracking": r"36\.7", "logcosh": r"5\.06e\+04"}[cost_name]

        def run(h):
            return sim.run_interconnections(flows.cost_by_name(cost_name, 3), STEP_PATH,
                                            [(NONE, None), (IDEAL, None)],
                                            sim.SimConfig(tf=60.0, h=h))

        run(stable_h)                              # a warning fails the test
        with pytest.warns(UserWarning, match=rf"amplify a deviation by up to {figure} > 1 at "
                                             r"h = 2\.9 in 2 of 2 runs:"):
            run(2.9)

    def test_steep_slope_met_by_the_states_warns(self):
        # The logcosh field's slope is -3.04 at |x - theta| = 1, where the
        # runs start, so R(-3.04 h), the step map at that one state, exceeds
        # 1 from h = 0.916. Yet the stages of a step slide towards the
        # minimizer, and at h = 1 no span of the steps amplifies a deviation:
        # both runs end at the losses of h = 1e-3. From h = 1.5 they end far
        # off the path, and each is warned of.
        def run(h):
            return sim.run_interconnections(flows.LogCoshTrackingCost(3), STEP_PATH,
                                            [(NONE, None), (IDEAL, None)],
                                            sim.SimConfig(tf=60.0, h=h))

        fine = [record.steady_state_mean(traj, "loss") for traj in run(1e-3)]
        coarse = [record.steady_state_mean(traj, "loss") for traj in run(1.0)]   # no warning
        assert coarse == pytest.approx(fine, rel=1e-6, abs=1e-20)
        for h, figure, loss in ((1.5, r"47\.4", 21.2), (2.0, r"2\.15", 78.6),
                                (2.5, r"12\.9", 727.0)):
            with pytest.warns(UserWarning, match=rf"amplify a deviation by up to {figure} > 1 "
                                                 rf"at h = {h:g} in 2 of 2 runs:"):
                trajs = run(h)
            assert [record.steady_state_mean(traj, "loss") for traj in trajs] == \
                pytest.approx([loss, loss], rel=2e-3)

    @pytest.mark.parametrize("cost_class", [_SlopelessLogCosh, _LoopQuadratic])
    # At h = 2.79 the 358 steps span two windows of 256, and so does the
    # span that amplifies most, the whole run.
    @pytest.mark.parametrize("h,tf", [(2.7, 60.0), (2.78, 60.0), (2.79, 1000.0), (2.9, 60.0)])
    def test_cost_without_slope_warns_where_the_minimizer_step_grows(self, cost_class, h, tf):
        # Without a slope the steps are measured at the minimizer's Jacobian
        # -I: each amplifies by |R(-h)|, which exceeds 1 from h = 2.785.
        growth = abs(1.0 - h + h ** 2 / 2.0 - h ** 3 / 6.0 + h ** 4 / 24.0)
        cfg = sim.SimConfig(tf=tf, h=h)
        runs = [(NONE, None), (IDEAL, None)]
        if growth <= 1.0:
            sim.run_interconnections(cost_class(3), STEP_PATH, runs, cfg)   # no warning
            return
        figure = f"{growth ** cfg.num_steps:.3g}".replace(".", r"\.")
        with pytest.warns(UserWarning, match=rf"amplify a deviation by up to {figure} > 1 "):
            sim.run_interconnections(cost_class(3), STEP_PATH, runs, cfg)

    def test_step_past_half_the_path_period_warns(self):
        # The benchmark path's fastest sinusoid is the cos2 component, at
        # 2 * 5 = 10 rad/s: from h = pi/10 the grid has fewer than two points
        # per period.
        def run(h):
            return sim.run_interconnections(flows.QuadraticTrackingCost(3),
                                            signals.benchmark_parameter_path(),
                                            [(NONE, None), (IDEAL, None)],
                                            sim.SimConfig(tf=60.0, h=h))

        run(0.3)                                   # a warning fails the test
        with pytest.warns(UserWarning, match=r"omega_max \* h = 5 >= pi at h = 0\.5, "
                                             r"omega_max = 10:"):
            run(0.5)
        with pytest.warns(UserWarning, match=r"omega_max \* h = 25 >= pi at h = 2\.5, "
                                             r"omega_max = 10:"):
            run(2.5)

    def test_components_without_motion_set_no_bandwidth(self):
        # A zero-amplitude sinusoid and a polynomial have no period.
        path = signals.AnalyticSignal((signals.Sinusoid(0.0, 100.0),
                                       signals.Polynomial((0.0, 1.0))))
        sim.run_interconnections(flows.QuadraticTrackingCost(2), path, [(IDEAL, None)],
                                 sim.SimConfig(tf=10.0, h=0.5))    # a warning fails the test

    def test_empty_run_list_rejected(self):
        with pytest.raises(ValueError):
            sim.run_interconnections(flows.QuadraticTrackingCost(3),
                                     signals.benchmark_parameter_path(), [], sim.SimConfig())
