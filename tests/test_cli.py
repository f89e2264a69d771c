import hashlib

import numpy as np
import pytest

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
    monkeypatch.setattr(sim, "run_derivative_experiments", run_started)
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

    @pytest.mark.parametrize("flags,field", [
        (["--mode", "ideal,ideal"], "mode"), (["--mode", "none,ideal,NONE"], "mode"),
        (["--mode", "estimated,ideal,estimated"], "mode"),
        (["--mode", "estimated", "--sigma", "5,5"], "sigma"),
        (["--sigma", "20,5,20"], "sigma"),
        (["--sigma", "5,5.000001"], "sigma")])   # both would be labelled estimated-s5
    def test_repeated_runs_are_a_spec_error(self, tmp_path, capsys, flags, field):
        # Runs under one label would write the same trajectory file.
        out = tmp_path / "opt"
        assert cli.main(["optimize", "--tf", "1", "--h", "1e-2", "--out", str(out)] + flags) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")
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
        original = sim.steady_state_sup

        def recorded(traj, column):
            sups.append(original(traj, column))
            return sups[-1]

        monkeypatch.setattr(sim, "steady_state_sup", recorded)
        out = tmp_path / "s"
        rc = cli.main(["sweep", "--k", "2", "--sigma", "0.1,40,333.3", "--tf", "2",
                       "--out", str(out)])
        assert rc == 0
        rows = [[sigma] + sups[2 * i:2 * i + 2] for i, sigma in enumerate([0.1, 40.0, 333.3])]
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


class TestParser:
    def test_missing_command_exits_two(self):
        assert cli.main([]) == 2

    def test_unknown_flag_exits_two(self):
        assert cli.main(["estimate", "--banana", "1"]) == 2
        assert cli.main(["verify", "--perturb-transfer", "1e-3"]) == 2


# sha256 of stdout and of every file each command writes, with a relative
# --out. A change that moves any of these bytes, such as a new arithmetic
# order, records the new hashes and says so in CHANGES.md.
_GOLDEN = {
    "estimate": (
        ["estimate", "--k", "2", "--sigma", "20", "--noise-var", "0.01", "--seed", "7",
         "--tf", "2"],
        {"stdout": "404bc0ccb01abb4ff58f810311aba60b9939507de58473ff7777634e523f4d8d",
         "estimate.svg": "b1f5e216daa9bd5c5211b4ac8d5363d4d323cca31671f3dac520eec56e5a76c2",
         "trajectory.csv": "1c69d16ec228749c5ea50a531112eadce8c22760a67b10e465c98353afd4d56c"}),
    "optimize": (
        ["optimize", "--tf", "1"],
        {"stdout": "44cddc6e2dd3ccd37c94e607b00f48f48315dc838a354584d2d5206e6ff09a72",
         "loss.svg": "6a8e7bcce00783076aa2fa0de80e1969ad64989fb16b6fa928931ce3842e65e3",
         "trajectory_estimated-s20.csv":
             "f7baf69d3855cfdf8538157d6db088d39c3c0067a0cfa8b56a76701e1a2130a9",
         "trajectory_estimated-s5.csv":
             "d19090956d615dc18a3ea067304e3e40c6a20e58e3dad371589f9cce3683af47",
         "trajectory_ideal.csv":
             "628bc4effe5fdaf816b5a2c6e00546dca62325c73829091ce77d41e0b40117fe"}),
    "optimize-logcosh": (
        ["optimize", "--cost", "logcosh", "--mode", "none,ideal,estimated", "--sigma", "5,20",
         "--noise-var", "0.01", "--seed", "3", "--tf", "1"],
        {"stdout": "4b6efe44342b1ac50794cdffde880939b6b3bd0b874e26b5227980110da31f6f",
         "loss.svg": "ef0bf8339d09ee1c1f3c3fef9f7dbdc756cce396e7713487d98d0c0e95b04df6",
         "trajectory_estimated-s20.csv":
             "9128154de84fa5cc94d1c25ae75f7318103155d90e529bd7423d0421dbb74b76",
         "trajectory_estimated-s5.csv":
             "769c057f99f0a986b67d2cdb1f8b9dce5603ce0067b3a0593105543d84c1876e",
         "trajectory_ideal.csv":
             "601b9c06137f6a1e964585160e6936f9a88ede3dc23a37d1717e0be8efdef712",
         "trajectory_none.csv":
             "2a6dc6287b23fcf45772a58629923008f25e53c8c538749a481fac05db1c108f"}),
    "sweep": (
        ["sweep", "--k", "3", "--signal", "cos(5*t-2),sin(5*t-2),cos2(5*t-2)", "--tf", "3"],
        {"stdout": "e626c85c41448ff9ebbd29c41b2231de9f4ae51f74a4d4aac145c74cdf349e37",
         "sweep.csv": "13541904fc1dd7390256311108e215b4bff446939d1b9cc8696258b5fc6e7cd5"}),
}


@pytest.mark.parametrize("name", list(_GOLDEN))
def test_golden_output_bytes(tmp_path, capsys, monkeypatch, name):
    argv, expected = _GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv + ["--out", "out"]) == 0
    printed = capsys.readouterr()
    assert printed.err == ""
    digests = {"stdout": hashlib.sha256(printed.out.encode()).hexdigest()}
    digests.update((path.name, hashlib.sha256(path.read_bytes()).hexdigest())
                   for path in (tmp_path / "out").iterdir())
    assert digests == expected
