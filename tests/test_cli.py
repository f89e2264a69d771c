import contextlib
import ctypes
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddopt import checks, cli, estimator, signals, sim


class TestSignalGrammar:
    def test_plain_sinusoid(self):
        sig = cli.parse_signal("sin(5t-2)")
        comp = sig.components[0]
        assert (comp.amplitude, comp.omega, comp.phase, comp.kind) == (1.0, 5.0, -2.0, "sin")

    def test_amplitude_and_star(self):
        comp = cli.parse_signal("2*cos(3*t+1)").components[0]
        assert (comp.amplitude, comp.omega, comp.phase, comp.kind) == (2.0, 3.0, 1.0, "cos")

    def test_cos_squared(self):
        comp = cli.parse_signal("cos2(5t-2)").components[0]
        assert comp.kind == "cos2"

    def test_unit_frequency(self):
        comp = cli.parse_signal("sin(t)").components[0]
        assert (comp.omega, comp.phase) == (1.0, 0.0)

    def test_polynomial_keeps_its_commas(self):
        sig = cli.parse_signal("poly:1,2,0.5")
        assert sig.dim == 1
        assert sig.components[0].coefficients == (1.0, 2.0, 0.5)

    def test_mixed_components(self):
        sig = cli.parse_signal("cos(5t-2),poly:0,1,sin(t)")
        assert sig.dim == 3
        assert isinstance(sig.components[0], signals.Sinusoid)
        assert sig.components[1].coefficients == (0.0, 1.0)
        assert isinstance(sig.components[2], signals.Sinusoid)

    def test_whitespace_insensitive(self):
        sig = cli.parse_signal(" sin( 5 t - 2 ) , cos2(5t-2) ")
        assert sig.dim == 2

    def test_benchmark_default_parses(self):
        sig = cli.parse_signal("cos(5*t-2),sin(5*t-2),cos2(5*t-2)")
        ref = signals.benchmark_parameter_path()
        ts = np.array([0.0, 0.7])
        assert np.allclose(sig.eval_many(ts, 1), ref.eval_many(ts, 1))

    @pytest.mark.parametrize("bad", ["tan(3t)", "sin(5x-2)", "poly:abc", "sin(5t*2)",
                                     "", "sin(5t-2),,cos(t)", "2**sin(t)"])
    def test_errors_name_the_token(self, bad):
        with pytest.raises(cli.SpecError):
            cli.parse_signal(bad)


class TestConfigFile:
    def test_precedence_flags_over_config_over_defaults(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("sigma = 7\ntf = 2\nh = 1e-2\n# comment\n")
        out = tmp_path / "out"
        rc = cli.main(["estimate", "--config", str(config), "--sigma", "9",
                       "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        # CLI sigma=9 beat the config's 7: oracle is 25/sqrt(25+81) = 2.42821
        assert "2.42821" in printed
        # config tf=2 applied: trajectory spans [0, 2]
        traj = sim.Trajectory.from_csv(out / "trajectory.csv")
        assert traj.t[-1] == pytest.approx(2.0)

    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("sigmah = 7\n")
        rc = cli.main(["estimate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_malformed_line_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("sigma 7\n")
        assert cli.main(["estimate", "--config", str(config)]) == 2


@pytest.mark.parametrize("command,case", [
    ("estimate", "missing-config"), ("estimate", "directory-config"),
    ("estimate", "non-utf8-config"), ("estimate", "out-is-a-file"),
    ("optimize", "out-is-a-file"), ("sweep", "out-is-a-file")])
def test_unusable_path_exits_two(tmp_path, capsys, monkeypatch, command, case):
    def run_started(*args, **kwargs):
        raise AssertionError("the run started before the output path was checked")

    monkeypatch.setattr(sim, "run_derivative_experiment", run_started)
    monkeypatch.setattr(sim, "steady_state_errors", run_started)
    monkeypatch.setattr(sim, "run_interconnections", run_started)
    config, out = tmp_path / "run.cfg", tmp_path / "out"
    config.write_text("tf = 1\nh = 1e-2\n")
    if case == "missing-config":
        config.unlink()
    elif case == "directory-config":
        config.unlink()
        config.mkdir()
    elif case == "non-utf8-config":
        config.write_bytes(b"tf = 1\n# caf\xe9\n")
    else:
        out.write_text("")
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 2
    field = "out" if case == "out-is-a-file" else "config"
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


class TestEstimateCommand:
    def test_writes_outputs_and_prints_oracle(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli.main(["estimate", "--sigma", "5", "--tf", "2", "--out", str(out)])
        assert rc == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "estimate.svg").exists()
        printed = capsys.readouterr().out
        assert "analytic oracle" in printed
        svg = (out / "estimate.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert svg.count("<polyline") == 2  # true derivative + estimate

    def test_csv_roundtrip(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["estimate", "--tf", "1", "--h", "1e-2", "--out", str(out)]) == 0
        traj = sim.Trajectory.from_csv(out / "trajectory.csv")
        assert "thetahat_0" in traj.columns
        assert len(traj) == 101

    def test_noisy_rerun_is_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        args = ["estimate", "--noise-var", "0.01", "--seed", "42", "--sigma", "20",
                "--tf", "2"]
        assert cli.main(args + ["--out", str(out_a)]) == 0
        assert cli.main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
        assert (out_a / "estimate.svg").read_bytes() == (out_b / "estimate.svg").read_bytes()

    @pytest.mark.parametrize("flags", [["--k", "0"], ["--sigma", "-3"], ["--h", "0"],
                                       ["--tf", "-1"], ["--signal", "tan(t)"],
                                       ["--noise-var", "-0.5"], ["--mode", "sorcery"],
                                       ["--cost", "cubic"], ["--seed", "-1"],
                                       ["--tf", "inf"], ["--t0", "nan"], ["--t0", "inf"],
                                       ["--h", "inf"], ["--noise-var", "inf"],
                                       ["--noise-var", "nan"], ["--sigma", "inf"],
                                       ["--tf", "1e7"], ["--sigma", "5,20"]])
    def test_invalid_spec_exits_two(self, tmp_path, capsys, flags):
        # Past sim.MAX_STEPS is a run-length limit, which involves both flags
        # and is reported as "tf/h"; every other case names exactly its flag.
        field = "tf/h" if flags == ["--tf", "1e7"] else flags[0][2:]
        # --mode and --cost exist on optimize only.
        command = "optimize" if field in ("mode", "cost") else "estimate"
        assert cli.main([command, "--out", str(tmp_path / "x")] + flags) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize("signal", ["inf*sin(t)", "nan*sin(t)", "sin(nan*t)", "sin(t+nan)",
                                        "-inf*cos2(t)", "poly:inf", "poly:1,inf",
                                        "cos(t),poly:0,-inf,1"])
    def test_non_finite_signal_parameter_exits_two(self, tmp_path, capsys, signal):
        argv = ["estimate", f"--signal={signal}", "--tf", "1", "--h", "1e-2"]
        assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error: signal: ")

    def test_unstable_gain_step_combination_exits_one(self, tmp_path, capsys):
        # sigma*h far past the stability limit: warned, then aborted cleanly
        # at the step where the state first overflows.
        with pytest.warns(UserWarning, match="sigma"):
            rc = cli.main(["estimate", "--sigma", "1e6", "--tf", "1",
                           "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "non-finite at t = 0.029\n" in capsys.readouterr().err

    @pytest.mark.parametrize("signal,failure", [
        # A zero input keeps every state at zero, which stepping keeps
        # finite however unstable the map; powers of the map still overflow.
        ("poly:0", None),
        ("sin(5*t)", "run failed: state became non-finite at t = 0.705\n")])
    def test_unstable_map_fails_only_where_the_state_grows(self, tmp_path, capsys, signal,
                                                           failure):
        with pytest.warns(UserWarning, match="sigma"):
            rc = cli.main(["estimate", "--k", "1", "--sigma", "3500", "--signal", signal,
                           "--tf", "5", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert (rc, err) == ((0, "") if failure is None else (1, failure))


@pytest.mark.parametrize("argv", [
    ["estimate", "--signal", "poly:1e308,1e308"],
    ["estimate", "--signal", "sin(1e308*t)", "--k", "2"],
    ["sweep", "--signal", "poly:1e308,1e308", "--sigma", "5,10,20"],
    ["optimize", "--signal", "poly:1e308,1e308", "--mode", "none,ideal,estimated"]])
def test_overflowing_signal_is_a_run_failure(tmp_path, capsys, argv):
    # Finite parameters whose values overflow on the grid: exit 1 with no
    # traceback and no numpy warning (which pytest turns into an error).
    assert cli.main(argv + ["--tf", "1", "--h", "1e-2", "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith("run failed: state became non-finite at t = ")


@pytest.mark.parametrize("argv", [["estimate", "--sigma", "1e200"],
                                  ["sweep", "--sigma", "1e200,1e201,1e202"]])
def test_overflowing_step_maps_are_a_run_failure(tmp_path, capsys, argv):
    # sigma*h = 1e197 overflows the RK4 step maps themselves: the sigma*h
    # warning, then exit 1 at the finiteness check, and no numpy warning.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv + ["--tf", "1", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert capsys.readouterr().err == "run failed: state became non-finite at t = 0.001\n"
    assert caught and all(w.category is UserWarning and "sigma*h" in str(w.message)
                          for w in caught)


@pytest.mark.parametrize("argv", [
    ["estimate", "--k", "2", "--sigma", "1e200"],
    ["optimize", "--k", "3", "--sigma", "1e150"],
    ["sweep", "--k", "3", "--sigma", "1e150,1e160,1e170"],
    ["estimate", "--k", "40", "--sigma", "1e20"]])
def test_cascade_past_the_float_range_is_refused(tmp_path, capsys, argv):
    # sigma**k overflows the cascade's rescaled entries: exit 2 with one line
    # naming sigma, no traceback and no numpy warning (which pytest turns
    # into an error), before the output directory is made.
    assert cli.main(argv + ["--tf", "1", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sigma: gain ") and err.count("\n") == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["estimate", "sweep", "optimize"])
def test_grid_with_repeated_times_is_refused(tmp_path, capsys, command):
    # Near 1e15 float64 times are 0.125 apart, so a step of 0.1 gives 1,000
    # steps but only 801 distinct times: refused naming both flags.
    argv = [command, "--t0", "1e15", "--tf", "1.0000000000001e15", "--h", "0.1"]
    assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: tf/h: ")


def test_range_narrower_than_a_decimal_step_is_plotted(tmp_path):
    # The plotted values span a few subnormals, too narrow for a decimal
    # tick step; every coordinate of the plot is finite.
    out = tmp_path / "x"
    assert cli.main(["estimate", "--signal", "5e-324*sin(t)", "--tf", "1",
                     "--out", str(out)]) == 0
    svg = (out / "estimate.svg").read_text()
    coords = re.findall(r' (?:x|y|x1|y1|x2|y2)="([^"]+)"', svg)
    coords += [v for pts in re.findall(r'points="([^"]+)"', svg) for v in re.split("[ ,]", pts)]
    assert coords and all(math.isfinite(float(v)) for v in coords)


@pytest.mark.parametrize("command", ["estimate", "sweep"])
class TestFlagsOfOptimizeOnly:
    """--cost and --mode only affect optimize; elsewhere they are rejected
    rather than silently ignored."""

    def test_flags_rejected(self, tmp_path, capsys, command):
        argv = [command, "--cost", "logcosh", "--mode", "none", "--out", str(tmp_path / "x")]
        assert cli.main(argv) == 2
        assert "unrecognized arguments: --cost logcosh --mode none" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["cost", "mode"])
    def test_config_keys_rejected(self, tmp_path, capsys, command, key):
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = none\n")
        assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: config: unknown key {key!r}\n"


class TestOptimizeCommand:
    def test_default_modes_write_three_runs(self, tmp_path, capsys):
        out = tmp_path / "opt"
        rc = cli.main(["optimize", "--tf", "1", "--h", "1e-2", "--out", str(out)])
        assert rc == 0
        assert (out / "trajectory_ideal.csv").exists()
        assert (out / "trajectory_estimated-s5.csv").exists()
        assert (out / "trajectory_estimated-s20.csv").exists()
        assert (out / "loss.svg").exists()
        printed = capsys.readouterr().out
        assert printed.count("final-window mean loss") == 3

    def test_gains_alike_to_six_digits_get_their_own_labels(self, tmp_path, capsys):
        # :g would label both estimated-s5; a gain it rounds is labelled in full.
        out = tmp_path / "opt"
        rc = cli.main(["optimize", "--sigma", "5.0000001,5.0000002", "--tf", "1", "--h", "1e-2",
                       "--out", str(out)])
        assert rc == 0
        assert sorted(path.name for path in out.glob("*.csv")) == [
            "trajectory_estimated-s5.0000001.csv", "trajectory_estimated-s5.0000002.csv",
            "trajectory_ideal.csv"]
        assert capsys.readouterr().out.count("final-window mean loss") == 3

    def test_none_mode_included(self, tmp_path):
        out = tmp_path / "opt"
        rc = cli.main(["optimize", "--mode", "none,ideal", "--tf", "1", "--h", "1e-2",
                       "--out", str(out)])
        assert rc == 0
        assert (out / "trajectory_none.csv").exists()
        assert (out / "trajectory_ideal.csv").exists()

    def test_logcosh_cost_accepted(self, tmp_path):
        out = tmp_path / "opt"
        rc = cli.main(["optimize", "--cost", "logcosh", "--mode", "ideal",
                       "--tf", "1", "--h", "1e-2", "--out", str(out)])
        assert rc == 0

    def test_unstable_flow_step_warns_and_still_runs(self, tmp_path, capsys):
        # The RK4 step is unstable at the minimizer (|R(-2.9)| = 1.19 over 21
        # steps), yet the states stay finite over the run: the warning is the
        # only sign of it. The path has no sinusoid, so no step is too long
        # for it.
        with pytest.warns(UserWarning, match=r"amplify a deviation by up to 36\.7 > 1 at "
                                             r"h = 2\.9 in 2 of 2 runs:"):
            rc = cli.main(["optimize", "--signal", "poly:1,poly:0,0.1,poly:-1",
                           "--mode", "none,ideal", "--h", "2.9", "--tf", "60",
                           "--out", str(tmp_path / "opt")])
        assert rc == 0
        assert capsys.readouterr().out.count("final-window mean loss") == 2

    def test_steep_logcosh_slope_warns_and_still_runs(self, tmp_path, capsys):
        # Stable at the minimizer (|R(-2.5)| = 0.65), but the logcosh field
        # is steeper where the runs start, and both runs end far off the path.
        # At h = 1 the steps are steeper than stable where the runs start
        # too, yet no span of them amplifies a deviation: no warning, and the
        # losses of h = 1e-3.
        def optimize(h):
            return cli.main(["optimize", "--cost", "logcosh", "--signal",
                             "poly:1,poly:0,0.1,poly:-1", "--mode", "none,ideal", "--h", h,
                             "--tf", "60", "--out", str(tmp_path / "opt")])

        assert optimize("1") == 0                  # a warning fails the test
        printed = capsys.readouterr().out
        assert "none: final-window mean loss 0.00542653," in printed
        assert "ideal: final-window mean loss 0," in printed
        with pytest.warns(UserWarning, match=r"amplify a deviation by up to 12\.9 > 1 at "
                                             r"h = 2\.5 in 2 of 2 runs:"):
            rc = optimize("2.5")
        assert rc == 0
        assert capsys.readouterr().out.count("final-window mean loss 726.") == 2

    def test_mean_of_huge_finite_losses_is_finite(self, tmp_path, capsys):
        # Every loss cell is finite, about 8e306, but the window's sum
        # overflows: the mean is still finite, with no numpy warning.
        out = tmp_path / "opt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["optimize", "--tf", "1", "--signal", "poly:1e154",
                           "--mode", "none,ideal", "--out", str(out)])
        assert rc == 0
        assert not caught
        printed = capsys.readouterr().out.splitlines()
        for label, line in zip(["none", "ideal"], printed):
            traj = sim.Trajectory.from_csv(out / f"trajectory_{label}.csv")
            window = traj.column("loss")[traj.window_mask()]
            mean = float(line.split(f"{label}: final-window mean loss ")[1].split(",")[0])
            assert math.isfinite(mean)
            assert mean == pytest.approx(math.fsum(window / len(window)), rel=1e-5)

    def test_step_too_long_for_the_path_warns_and_still_runs(self, tmp_path, capsys):
        # The step is stable, but spans more than half a period of the
        # default path's fastest sinusoid (10 rad/s).
        with pytest.warns(UserWarning, match=r"at h = 2\.5, omega_max = 10:"):
            rc = cli.main(["optimize", "--mode", "none,ideal", "--h", "2.5", "--tf", "60",
                           "--out", str(tmp_path / "opt")])
        assert rc == 0
        assert capsys.readouterr().out.count("final-window mean loss") == 2

    @pytest.mark.parametrize("flags,field", [
        (["--mode", "ideal,ideal"], "mode"), (["--mode", "none,ideal,NONE"], "mode"),
        (["--mode", "estimated,ideal,estimated"], "mode"),
        (["--mode", "estimated", "--sigma", "5,5"], "sigma"),
        (["--sigma", "20,5,20"], "sigma"),
        (["--sigma", "5,5.0"], "sigma")])   # the same gain, written twice
    def test_repeated_runs_are_a_spec_error(self, tmp_path, capsys, flags, field):
        # Runs under one label would write the same trajectory file.
        out = tmp_path / "opt"
        assert cli.main(["optimize", "--tf", "1", "--h", "1e-2", "--out", str(out)] + flags) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")
        assert not out.exists()

    def test_batch_past_the_step_budget_is_a_spec_error(self, tmp_path, capsys):
        # Four runs of 600k steps, each under the budget on its own, are
        # integrated together: refused before the output directory exists.
        out = tmp_path / "opt"
        rc = cli.main(["optimize", "--mode", "none,ideal,estimated", "--sigma", "5,20",
                       "--tf", "600", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: tf/h: ")
        assert not out.exists()

    def test_repeated_gain_without_estimated_runs_is_accepted(self, tmp_path):
        out = tmp_path / "opt"
        rc = cli.main(["optimize", "--mode", "none,ideal", "--sigma", "5,5",
                       "--tf", "1", "--h", "1e-2", "--out", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "loss.svg", "trajectory_ideal.csv", "trajectory_none.csv"]

    def test_track_rerun_is_byte_identical(self, tmp_path, capsys):
        # The benchmark's track argv shape at a short horizon, run twice.
        for rerun in ("first", "second"):
            for cost in ("quadratic-tracking", "logcosh"):
                rc = cli.main(["optimize", "--cost", cost, "--mode", "none,ideal,estimated",
                               "--sigma", "5,20", "--noise-var", "0.01", "--seed", "3",
                               "--tf", "0.5", "--out", str(tmp_path / rerun / cost)])
                assert rc == 0
        first, second = (sorted(p.relative_to(tmp_path / rerun)
                                for p in (tmp_path / rerun).rglob("*") if p.is_file())
                         for rerun in ("first", "second"))
        assert first == second
        assert len(first) == 2 * 5   # per cost, four trajectory CSVs and loss.svg
        for rel in first:
            assert (tmp_path / "first" / rel).read_bytes() == \
                (tmp_path / "second" / rel).read_bytes(), rel


class TestSweepCommand:
    def test_fits_slope_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--sigma", "40,80,160", "--tf", "6", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "slope" in printed
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "sigma,est_error_sup_1"
        assert len(lines) == 4

    def test_bytes_match_per_value_formatting(self, tmp_path, monkeypatch):
        # Every cell is its value formatted alone with %.17g.
        sups = []
        original = sim.steady_state_errors

        def recorded(*args):
            sups.extend(original(*args))
            return sups

        monkeypatch.setattr(sim, "steady_state_errors", recorded)
        out = tmp_path / "s"
        rc = cli.main(["sweep", "--k", "2", "--sigma", "0.1,40,333.3", "--tf", "2",
                       "--out", str(out)])
        assert rc == 0
        rows = [[sigma] + sups[i].tolist() for i, sigma in enumerate([0.1, 40.0, 333.3])]
        expected = "sigma,est_error_sup_1,est_error_sup_2\n" + "".join(
            ",".join("%.17g" % value for value in row) + "\n" for row in rows)
        assert (out / "sweep.csv").read_bytes() == expected.encode()

    def test_two_sigmas_is_a_spec_error(self, tmp_path):
        assert cli.main(["sweep", "--sigma", "40,80", "--out", str(tmp_path / "s")]) == 2

    @pytest.mark.parametrize("sigmas", ["40,40,40", "40,80,40", "40,80,160,40"])
    def test_repeated_sigmas_are_a_spec_error(self, tmp_path, capsys, sigmas):
        # Each gain is one point of the slope fit: a repeat would count twice.
        assert cli.main(["sweep", "--sigma", sigmas, "--out", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err.startswith("error: sigma: ")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("signal", ["poly:0", "0*sin(t)"])
    def test_zero_error_is_a_run_failure(self, tmp_path, capsys, signal):
        # An exactly zero error has no logarithm to fit a slope through.
        rc = cli.main(["sweep", "--signal", signal, "--tf", "2", "--out", str(tmp_path / "s")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("run failed: ") and "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--signal", "poly:1,1"],
                                       ["--signal", "poly:0,0,1", "--k", "2"]])
    def test_exact_estimates_are_a_run_failure(self, tmp_path, capsys, flags):
        # An input whose order k+1 derivative is zero is differentiated
        # exactly; its errors are roundoff, with no power law to fit.
        out = tmp_path / "s"
        assert cli.main(["sweep", "--tf", "2", "--out", str(out)] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("run failed: ") and "Traceback" not in err
        assert (out / "sweep.csv").exists()

    def test_samples_the_grid_once(self, tmp_path, monkeypatch):
        calls = []
        original = signals.sample_noisy_grid

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(signals, "sample_noisy_grid", counted)
        rc = cli.main(["sweep", "--sigma", "40,80,160,320", "--noise-var", "0.01", "--tf", "2",
                       "--out", str(tmp_path / "s")])
        assert rc == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("sigmas", ["1e6,40,80", "40,80,1e6"])
    def test_diverging_gain_is_a_run_failure(self, tmp_path, capsys, sigmas):
        # sigma*h = 1000 overflows within a few steps, wherever it sits in
        # the list; no sweep.csv is written.
        out = tmp_path / "s"
        with pytest.warns(UserWarning, match="sigma"):
            rc = cli.main(["sweep", "--sigma", sigmas, "--tf", "1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "run failed: state became non-finite at t = 0.029\n"
        assert not (out / "sweep.csv").exists()


class TestVerifyCommand:
    def test_subset_passes(self, capsys):
        rc = cli.main(["verify", "--only", "lyapunov-residuals,transfer-equivalence"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "lyapunov-residuals" in printed
        assert "verification PASSED" in printed

    def test_perturbed_transfer_fails(self, capsys, monkeypatch):
        # One state-matrix entry off by 1e-3*sigma must fail the check.
        compose = estimator.compose_cascade

        def perturbed(order, sigma):
            casc = compose(order, sigma)
            A = casc.A.copy()
            A[-1, -1] += 1e-3 * sigma
            return estimator.LtiRealization(A, casc.B, casc.C, casc.D)

        monkeypatch.setattr(estimator, "compose_cascade", perturbed)
        assert not checks.check_transfer_equivalence().passed
        assert cli.main(["verify", "--only", "transfer-equivalence"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_check_name(self):
        assert cli.main(["verify", "--only", "bogus-check"]) == 2

    def test_only_ignores_spaces_around_names(self, capsys):
        assert cli.main(["verify", "--only", "lyapunov-residuals, transfer-equivalence"]) == 0
        printed = capsys.readouterr().out
        assert "lyapunov-residuals" in printed and "transfer-equivalence" in printed
        # An empty name is still an unknown one.
        assert cli.main(["verify", "--only", "lyapunov-residuals,"]) == 2
        assert capsys.readouterr().err.startswith("error: only:")


class TestParser:
    def test_missing_command_exits_two(self):
        assert cli.main([]) == 2

    def test_unknown_flag_exits_two(self):
        assert cli.main(["estimate", "--banana", "1"]) == 2
        assert cli.main(["verify", "--perturb-transfer", "1e-3"]) == 2

    def test_valid_run_after_a_refused_one_writes_its_usual_bytes(self, tmp_path, capsys,
                                                                 monkeypatch):
        # The parser is built once per process; parsing a refused argv leaves
        # it as it was for the next call.
        assert cli.build_parser() is cli.build_parser()
        assert cli.main(["estimate", "--k", "2", "--banana", "1"]) == 2
        assert "unrecognized arguments: --banana 1" in capsys.readouterr().err
        argv, expected = _GOLDEN["estimate"]
        assert _output_digests(tmp_path, capsys, monkeypatch, argv) == expected


def _subprocess_env():
    """The environment with this ddopt's sources first on ``PYTHONPATH``."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1])] + os.environ.get("PYTHONPATH", "").split(
            os.pathsep)))


def _cli_process(tmp_path, stdout, args=None):
    """``python -m ddopt.cli`` in a subprocess, its stdout given; ``args``
    default to a short ``sweep``. Standard output is block-buffered, as in a
    shell where ``PYTHONUNBUFFERED`` is not set."""
    env = _subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    if args is None:
        args = ["sweep", "--tf", "2", "--out", str(tmp_path / "out")]
    return subprocess.Popen([sys.executable, "-m", "ddopt.cli", *args],
                            stdout=stdout, stderr=subprocess.PIPE, env=env, text=True)


class TestUnwritableStdout:
    # One stderr line and exit 1: no traceback, and no "Exception ignored"
    # line when the interpreter flushes stdout at exit.
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_full_device(self, tmp_path):
        with open("/dev/full", "w") as full, _cli_process(tmp_path, full) as proc:
            _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (1, "error: cannot write to stdout: "
                                             "No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_help_to_a_full_device(self, tmp_path):
        # argparse prints the help itself, into the buffer, and exits.
        with open("/dev/full", "w") as full, _cli_process(tmp_path, full, ["--help"]) as proc:
            _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (1, "error: cannot write to stdout: "
                                             "No space left on device\n")

    def test_reader_closed_the_pipe(self, tmp_path):
        with _cli_process(tmp_path, subprocess.PIPE) as proc:
            proc.stdout.close()     # before the command prints anything
            err = proc.stderr.read()
        assert (proc.returncode, err) == (1, "error: cannot write to stdout: Broken pipe\n")


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["estimate", "--tf", "1", "--out", "out"],
    ["optimize", "--cost", "logcosh", "--tf", "1", "--out", "out"],
    ["sweep", "--tf", "2", "--out", "out"]])
def test_commands_run_without_scipy(tmp_path, argv):
    # numpy is the only run-time dependency: no command loads scipy.
    code = (f"import sys\nfrom ddopt import cli\ncli.main({argv!r})\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_subprocess_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.stdout.splitlines()[-1] == "[]", proc.stderr


# sha256 of stdout and of every file each command writes, with a relative
# --out. A change that moves any of these bytes, such as a new arithmetic
# order, records the new hashes and says so in CHANGES.md. They were recorded
# with numpy's OpenBLAS on its SkylakeX kernel: other kernels sum the BLAS
# products in another order, which moves the last bits of the runs.
_GOLDEN_BLAS_CORE = "SkylakeX"
_GOLDEN = {
    "estimate": (
        ["estimate", "--k", "2", "--sigma", "20", "--noise-var", "0.01", "--seed", "7",
         "--tf", "2"],
        {"stdout": "404bc0ccb01abb4ff58f810311aba60b9939507de58473ff7777634e523f4d8d",
         "estimate.svg": "b1f5e216daa9bd5c5211b4ac8d5363d4d323cca31671f3dac520eec56e5a76c2",
         "trajectory.csv": "cb053ac7f7a531e9fe9cc750ac2bbbc05d0569b8760ff56a6c9ba0e35e869538"}),
    "optimize": (
        ["optimize", "--tf", "1"],
        {"stdout": "44cddc6e2dd3ccd37c94e607b00f48f48315dc838a354584d2d5206e6ff09a72",
         "loss.svg": "6a8e7bcce00783076aa2fa0de80e1969ad64989fb16b6fa928931ce3842e65e3",
         "trajectory_estimated-s20.csv":
             "c6a8a2eb0e71765ab9068ffa95415ae60abbd1828e657197e5f34f9d152e7c94",
         "trajectory_estimated-s5.csv":
             "02a8b73558610caa113473e7a02bfcba938215b27d1de6e718d78ed2c84a55d7",
         "trajectory_ideal.csv":
             "e7c08a77bb4948604ad703719ae5ff2fa4d641a5379e7486bc7479269ce397d8"}),
    "optimize-logcosh": (
        ["optimize", "--cost", "logcosh", "--mode", "none,ideal,estimated", "--sigma", "5,20",
         "--noise-var", "0.01", "--seed", "3", "--tf", "1"],
        {"stdout": "4b6efe44342b1ac50794cdffde880939b6b3bd0b874e26b5227980110da31f6f",
         "loss.svg": "ef0bf8339d09ee1c1f3c3fef9f7dbdc756cce396e7713487d98d0c0e95b04df6",
         "trajectory_estimated-s20.csv":
             "a9f860bca7ccf6d8082c5ccccd98b90936c37f305c7f98e8ab3334a846d92684",
         "trajectory_estimated-s5.csv":
             "b249ece02c5574515cce447e91b4da7bfeb3daea689f776fe50b37bd2fb29728",
         "trajectory_ideal.csv":
             "7964cd74a5a779cb17fe284a237b49d2547db584aac2e62bbd74b4d53f9fa80c",
         "trajectory_none.csv":
             "d0db08dd38762cd2def725da42c08b3765140e3d147f9dfabe3412e0522400f6"}),
    "sweep": (
        ["sweep", "--k", "3", "--signal", "cos(5*t-2),sin(5*t-2),cos2(5*t-2)", "--tf", "3"],
        {"stdout": "e626c85c41448ff9ebbd29c41b2231de9f4ae51f74a4d4aac145c74cdf349e37",
         "sweep.csv": "dee9e8a239a21f0e9258036ef95c55e67795690dc13b25d56d1dd60b258a42fb"}),
    "sweep-scalar": (
        ["sweep", "--k", "4", "--signal", "sin(5*t+0.7)", "--tf", "3"],
        {"stdout": "e6a2aeafcbf2129c6c3a6f86790bcabbefbd257ae2133bcd26d829ad4c468c49",
         "sweep.csv": "5abbf5ce4c26e4a4e8134b8cbb519f5a96f9bdf217450f10254eb1cca2978788"}),
}


def _output_digests(tmp_path, capsys, monkeypatch, argv) -> dict:
    """sha256 of stdout and of every file ``argv`` writes to ``out`` under
    ``tmp_path``, run in process; stderr must stay empty."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv + ["--out", "out"]) == 0
    printed = capsys.readouterr()
    assert printed.err == ""
    digests = {"stdout": hashlib.sha256(printed.out.encode()).hexdigest()}
    digests.update((path.name, hashlib.sha256(path.read_bytes()).hexdigest())
                   for path in (tmp_path / "out").iterdir())
    return digests


@pytest.mark.parametrize("name", list(_GOLDEN))
def test_golden_output_bytes(tmp_path, capsys, monkeypatch, name):
    argv, expected = _GOLDEN[name]
    assert _output_digests(tmp_path, capsys, monkeypatch, argv) == expected, (
        f"hashes recorded on OpenBLAS core {_GOLDEN_BLAS_CORE}, this run is on {_blas_core()}")


# The exit code and the sha256 of stdout of ``verify`` over every check but
# sinusoid-error, whose table line prints its run times; recorded on the
# same SkylakeX kernel. The loss-ordering shortfall makes the exit code 1.
_VERIFY_GOLDEN = (
    ["verify", "--only", "polynomial-exactness,sigma-scaling,block-output-bound,"
     "lyapunov-residuals,transfer-equivalence,ideal-tracking,loss-ordering,"
     "redesign-cancellation,noise-robustness"],
    1, "3e896d21ad3f556579544f70696d685253f414249ee661a31ec444f4a9e61d19")


def test_golden_verify_text(capsys):
    argv, code, digest = _VERIFY_GOLDEN
    assert cli.main(argv) == code
    printed = capsys.readouterr()
    assert printed.err == ""
    assert hashlib.sha256(printed.out.encode()).hexdigest() == digest, (
        f"hash recorded on OpenBLAS core {_GOLDEN_BLAS_CORE}, this run is on {_blas_core()}")


def _blas_core() -> str:
    """The kernel numpy's bundled OpenBLAS runs on, or 'unknown'."""
    root = Path(np.__file__).parent
    for lib in sorted([*root.parent.glob("numpy.libs/libscipy_openblas*"),
                       *root.glob(".dylibs/libscipy_openblas*")]):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def test_blas_core_is_named():
    assert _blas_core().isidentifier()


# Random run specs for the property below. Half of them have one extreme
# field: gains, noise levels or coefficients that overflow or are not
# finite, an order of 0 or 12, or a start, step or step count out of range.
# The other fields are ordinary, so that most specs run. A run takes at most
# 2,000 steps, so that every example is quick.
_ORDINARY = {
    "coefficient": lambda rng: rng.uniform(-50.0, 50.0),
    "gain": lambda rng: 10.0 ** rng.uniform(-1.0, 3.0),
    "k": lambda rng: rng.randint(1, 4),
    "noise-var": lambda rng: rng.choice([0.0, 1e-4, 0.01, 1.0]),
    "t0": lambda rng: rng.uniform(0.0, 100.0),
    "h": lambda rng: 10.0 ** rng.uniform(-4.0, 0.5),
    "steps": lambda rng: rng.randint(10, 2000)}
_EXTREME = {
    "coefficient": [5e-324, 1e-300, 1e8, -1e150, 1e200, 1e308, math.inf, math.nan],
    "gain": [1e-300, 1e4, 1e150, 1e200, math.inf, math.nan, -1.0],
    "k": [0, 12],
    "noise-var": [1e10, 1e300, math.inf],
    "t0": [-1e3, 1e15, 1e300, -math.inf],
    "h": [0.0, 1e-300, 1e8, math.nan],
    "steps": [1, 9]}


def _random_argv(rng) -> list:
    command = rng.choice(["estimate", "optimize", "sweep"])
    extreme = rng.choice(list(_EXTREME)) if rng.random() < 0.5 else None

    def value(field):
        return rng.choice(_EXTREME[field]) if field == extreme else _ORDINARY[field](rng)

    terms = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            amp, omega, phase = (value("coefficient") for _ in range(3))
            kind = rng.choice(["sin", "cos", "cos2"])
            terms.append(f"{amp:.17g}*{kind}({omega:.17g}*t{phase:+.17g})")
        else:
            coeffs = [value("coefficient") for _ in range(rng.randint(1, 4))]
            terms.append("poly:" + ",".join(f"{c:.17g}" for c in coeffs))
    gains = {"estimate": 1, "optimize": rng.randint(1, 2), "sweep": rng.randint(3, 4)}[command]
    t0, h = value("t0"), value("h")
    spec = {"signal": ",".join(terms), "k": value("k"),
            "sigma": ",".join(f"{value('gain'):.17g}" for _ in range(gains)),
            "noise-var": value("noise-var"), "seed": rng.randrange(2 ** 32),
            "t0": f"{t0:.17g}", "h": f"{h:.17g}", "tf": f"{t0 + value('steps') * h:.17g}"}
    if command == "optimize":
        spec["cost"] = rng.choice(["quadratic-tracking", "logcosh"])
        spec["mode"] = ",".join(rng.sample(["none", "ideal", "estimated"], rng.randint(1, 3)))
    # --key=value, so that a value starting with '-' is not read as a flag.
    return [command] + [f"--{key}={text}" for key, text in spec.items()]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rng=st.randoms(use_true_random=True))
def test_random_specs_exit_cleanly(tmp_path_factory, rng):
    # Every spec runs, fails as a run (1) or is refused (2); none ends in a
    # traceback, and the only warnings are ddopt's own UserWarnings.
    argv = _random_argv(rng)
    out = tmp_path_factory.mktemp("spec")
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        rc = cli.main(argv + ["--out", str(out)])
    assert rc in (0, 1, 2), argv
    assert all(w.category is UserWarning for w in caught), (argv, [str(w.message) for w in caught])
