"""Command-line front end.

Subcommands: ``estimate`` (derivative tracking), ``optimize`` (time-varying
Newton flow with ideal/estimated/no correction), ``sweep`` (error-versus-gain
power laws), ``verify`` (the full check battery). Runs write CSV trajectories
and small self-contained SVG plots into the output directory.

Flags override keys from an optional ``key = value`` config file; every key
mirrors a flag name. Exit codes: 0 success, 1 runtime or check failure
(a standard output that cannot be written included), 2 invalid run
specification.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import estimator as est_mod
from . import flows as flows_mod
from . import record as record_mod
from . import signals as sig_mod
from . import sim as sim_mod
from . import svg as svg_mod


class SpecError(Exception):
    """Invalid run specification; names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class StdoutError(Exception):
    """Standard output cannot be written: the device is full, or the reader
    of a pipe has closed it."""


def _say(line: str) -> None:
    """Print one line of a command's report, flushed, so that a standard
    output that cannot be written fails here and as :class:`StdoutError`."""
    try:
        print(line, flush=True)
    except OSError as exc:
        raise StdoutError(exc.strerror) from None


def _flush_stdout() -> None:
    """Flush what argparse printed (help, version), failing as :func:`_say`."""
    try:
        sys.stdout.flush()
    except OSError as exc:
        raise StdoutError(exc.strerror) from None


class SignalParseError(SpecError):
    def __init__(self, token: str, message: str):
        super().__init__("signal", f"bad token {token!r}: {message}")


_SINUSOID_RE = re.compile(r"^(?P<amp>[^*()]+\*)?(?P<kind>sin|cos2|cos)\((?P<arg>[^()]*)\)$")


def _parse_number(token: str, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise SignalParseError(token, f"expected a number for {what}") from None


def _parse_sinusoid(token: str) -> sig_mod.Sinusoid:
    m = _SINUSOID_RE.match(token)
    if not m:
        raise SignalParseError(token, "expected A*sin(w*t+p), A*cos(w*t+p), "
                                      "A*cos2(w*t+p) or poly:c0,c1,...")
    amp = 1.0
    if m.group("amp"):
        amp = _parse_number(m.group("amp")[:-1], "amplitude")
    arg = m.group("arg")
    if "t" not in arg:
        raise SignalParseError(token, "argument must contain t")
    left, _, right = arg.partition("t")
    left = left.rstrip("*")
    if left in ("", "+"):
        omega = 1.0
    elif left == "-":
        omega = -1.0
    else:
        omega = _parse_number(left, "angular frequency")
    phase = 0.0
    if right:
        if right[0] not in "+-":
            raise SignalParseError(token, "phase must follow t with + or -")
        phase = _parse_number(right, "phase")
    return sig_mod.Sinusoid(amp, omega, phase, m.group("kind"))


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def parse_signal(text: str) -> sig_mod.AnalyticSignal:
    """Parse the component grammar: comma-separated A*sin(w*t+p),
    A*cos(w*t+p), A*cos2(w*t+p) and poly:c0,c1,... terms (whitespace
    insensitive; polynomial coefficients may continue across commas)."""
    compact = "".join(text.split())
    if not compact:
        raise SpecError("signal", "empty signal description")
    segments = compact.split(",")
    components = []
    i = 0
    while i < len(segments):
        seg = segments[i]
        if not seg:
            raise SignalParseError(seg, "empty component")
        j = i + 1
        while seg.startswith("poly:") and j < len(segments) and _is_number(segments[j]):
            j += 1
        term, i = ",".join(segments[i:j]), j
        try:
            if seg.startswith("poly:"):
                coeffs = [_parse_number(c, "polynomial coefficient") for c in term[5:].split(",")]
                components.append(sig_mod.Polynomial(tuple(coeffs)))
            else:
                components.append(_parse_sinusoid(term))
        except ValueError as exc:   # the component's own checks, such as finiteness
            raise SignalParseError(term, str(exc)) from None
    return sig_mod.AnalyticSignal(tuple(components))


def load_config(path: str) -> dict:
    """Flat ``key = value`` file; '#' starts a comment; keys mirror flags."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecError("config", f"cannot read {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise SpecError("config", f"{path!r} is not UTF-8 text") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError("config", f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


_FLAG_DEFAULTS = {
    "estimate": dict(signal="sin(5*t-2)", k="1", sigma="5", noise_var="0", seed="0",
                     t0="0", tf="10", h="1e-3", out="out"),
    "optimize": dict(signal="cos(5*t-2),sin(5*t-2),cos2(5*t-2)", cost="quadratic-tracking",
                     mode="ideal,estimated", k="1", sigma="5,20", noise_var="0", seed="0",
                     t0="0", tf="10", h="1e-3", out="out"),
    "sweep": dict(signal="sin(5*t-2)", k="1", sigma="40,80,160,320", noise_var="0",
                  seed="0", t0="0", tf="30", h="1e-3", out="out"),
}
# A run command takes one flag per key of its _FLAG_DEFAULTS entry, plus --config.
_FLAG_HELP = {
    "signal": "signal components, e.g. 'sin(5*t-2)' or 'cos(5*t-2),poly:0,1'",
    "cost": "cost model: quadratic-tracking or logcosh",
    "mode": "correction modes: none, ideal, estimated (comma list)",
    "k": "estimator order (>= 1)",
    "sigma": "estimator gain, comma list for sweep/optimize",
    "noise_var": "measurement noise variance",
    "seed": "seed for the noise stream",
    "t0": "start time",
    "tf": "end time",
    "h": "integration step",
    "out": "output directory",
}


def _resolve(ns: argparse.Namespace, command: str) -> dict:
    merged = dict(_FLAG_DEFAULTS[command])
    if getattr(ns, "config", None):
        for key, value in load_config(ns.config).items():
            if key not in merged:
                raise SpecError("config", f"unknown key {key!r}")
            merged[key] = value
    for key in merged:
        cli_value = getattr(ns, key, None)
        if cli_value is not None:
            merged[key] = cli_value
    return merged


_FINITE = (math.isfinite, "must be finite")
_POSITIVE = (lambda v: v > 0.0, "must be > 0")

# Spec key -> (parser, [(predicate, message), ...]). The predicates run in
# order and the first one that fails is reported, under the flag's name.
_RUN_FIELDS = {
    "k": (int, [(lambda v: v >= 1, "must be >= 1")]),
    "sigma": (float, [_POSITIVE, _FINITE]),
    # nan passes the sign test and is caught by the finiteness test.
    "noise_var": (float, [(lambda v: not v < 0.0, "must be >= 0"), _FINITE]),
    "seed": (int, [(lambda v: v >= 0, "must be >= 0")]),
    "t0": (float, [_FINITE]),
    "tf": (float, [_POSITIVE, _FINITE]),
    "h": (float, [_POSITIVE, _FINITE]),
}
_PARSE_ERRORS = {int: "not an integer", float: "not a number"}


def _parse_field(key: str, token: str):
    parse, rules = _RUN_FIELDS[key]
    field = key.replace("_", "-")
    try:
        value = parse(token)
    except ValueError:
        raise SpecError(field, f"{_PARSE_ERRORS[parse]}: {token!r}") from None
    for ok, message in rules:
        if not ok(value):
            raise SpecError(field, f"{message}, got {value}")
    return value


def _parse_run_spec(spec: dict):
    """Validate the merged flag/config values into typed run parameters.

    ``cost`` and ``modes`` are None for the commands without those flags."""
    signal = parse_signal(spec["signal"])
    k = _parse_field("k", spec["k"])
    sigmas = [_parse_field("sigma", token) for token in str(spec["sigma"]).split(",")]
    for sigma in sigmas:
        try:
            est_mod.DirtyDerivativeConfig(k, sigma)
        except ValueError as exc:   # the cascade's entries pass the float range
            raise SpecError("sigma", str(exc)) from None
    noise_var, seed, t0, tf, h = (_parse_field(key, spec[key])
                                  for key in ("noise_var", "seed", "t0", "tf", "h"))
    try:
        cfg = sim_mod.SimConfig(t0=t0, tf=tf, h=h)
    except ValueError as exc:
        raise SpecError("tf/h", str(exc)) from None
    cost = modes = None
    if "mode" in spec:
        modes = []
        for token in str(spec["mode"]).split(","):
            try:
                modes.append(flows_mod.CorrectionMode.from_string(token))
            except ValueError as exc:
                raise SpecError("mode", str(exc)) from None
    if "cost" in spec:
        try:
            cost = flows_mod.cost_by_name(spec["cost"], signal.dim)
        except ValueError as exc:
            raise SpecError("cost", str(exc)) from None
    noise = sig_mod.NoiseSpec(noise_var, seed)
    return signal, cost, k, sigmas, modes, noise, cfg, Path(spec["out"])


def _make_out_dir(out: Path) -> None:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SpecError("out", f"cannot create directory {str(out)!r}: {exc.strerror}") from None


def _oracle_parameters(signal: sig_mod.AnalyticSignal):
    """(amplitude, omega) of the equivalent pure sinusoid, when the signal is
    a single sinusoid component; None otherwise."""
    if signal.dim != 1 or not isinstance(signal.components[0], sig_mod.Sinusoid):
        return None
    _, amplitude, omega, _ = signal.components[0].canonical()
    return abs(amplitude), abs(omega)


def cmd_estimate(spec: dict) -> int:
    signal, _, k, sigmas, _, noise, cfg, out = _parse_run_spec(spec)
    if len(sigmas) != 1:
        raise SpecError("sigma", f"estimate takes one value, got {len(sigmas)}")
    sigma = sigmas[0]
    _make_out_dir(out)
    est_cfg = est_mod.DirtyDerivativeConfig(k, sigma, signal.dim)
    traj = sim_mod.run_derivative_experiment(signal, noise, est_cfg, cfg)
    traj.to_csv(out / "trajectory.csv")

    series = []
    for order in range(1, k + 1):
        for what, prefix in (("true", "thetadot"), ("estimate", "thetahat")):
            series.append((f"d{order} {what}", traj.t,
                           traj.column(record_mod.column_name(prefix, order, 0))))
    svg_mod.line_plot(out / "estimate.svg", series,
                      title=f"derivative estimates, sigma={sigma:g}, k={k}",
                      ylabel="derivative")

    oracle_params = _oracle_parameters(signal)
    for order in range(1, k + 1):
        sup = record_mod.steady_state_sup(traj, record_mod.column_name("est_error", order))
        line = f"order {order}: steady-state sup error {sup:.6g}"
        if oracle_params is not None:
            amp, omega = oracle_params
            oracle = est_mod.steady_state_sinusoid_error(est_cfg, order, amp, omega)
            line += f" (analytic oracle {oracle:.6g})"
        _say(line)
    _say(f"wrote {out / 'trajectory.csv'} and {out / 'estimate.svg'}")
    return 0


def cmd_optimize(spec: dict) -> int:
    signal, cost, k, sigmas, modes, noise, cfg, out = _parse_run_spec(spec)
    labels, specs = [], []
    for mode in modes:
        if mode is flows_mod.CorrectionMode.ESTIMATED:
            for sigma in sigmas:
                # Short labels (estimated-s5) where :g names the gain exactly.
                label = f"{sigma:g}" if float(f"{sigma:g}") == sigma else repr(sigma)
                labels.append(f"estimated-s{label}")
                specs.append((mode, est_mod.DirtyDerivativeConfig(k, sigma, signal.dim)))
        else:
            labels.append(mode.value)
            specs.append((mode, None))
    if len(set(labels)) != len(labels):   # runs under one label would share a file
        field = "mode" if len(set(modes)) < len(modes) else "sigma"
        raise SpecError(field, f"each run needs its own label, got {', '.join(labels)}")
    if len(specs) * cfg.num_steps > sim_mod.MAX_STEPS:   # the runs are integrated together
        raise SpecError("tf/h", f"{len(specs)} runs of {cfg.num_steps} steps exceed the "
                                f"budget of {sim_mod.MAX_STEPS} steps summed over runs")
    _make_out_dir(out)
    runs = list(zip(labels, sim_mod.run_interconnections(cost, signal, specs, cfg, noise=noise)))
    record_mod.write_csvs((traj.columns, out / f"trajectory_{label}.csv") for label, traj in runs)
    series = []
    for label, traj in runs:
        series.append((label, traj.t, traj.column("loss")))
        _say(f"{label}: final-window mean loss {record_mod.steady_state_mean(traj, 'loss'):.6g}, "
             f"tracking error sup {record_mod.steady_state_sup(traj, 'tracking_error'):.6g}")
    svg_mod.line_plot(out / "loss.svg", series, title="loss over time", ylabel="loss")
    _say(f"wrote {len(runs)} trajectory CSVs and {out / 'loss.svg'}")
    return 0


def cmd_sweep(spec: dict) -> int:
    signal, _, k, sigmas, _, noise, cfg, out = _parse_run_spec(spec)
    if len(set(sigmas)) != len(sigmas):   # a repeat would enter the slope fit twice
        raise SpecError("sigma", "each gain must appear once, got "
                        + ", ".join(f"{sigma:g}" for sigma in sigmas))
    if len(sigmas) < 3:
        raise SpecError("sigma", f"sweep needs at least 3 distinct values, got {len(sigmas)}")
    _make_out_dir(out)
    est_cfgs = [est_mod.DirtyDerivativeConfig(k, sigma, signal.dim) for sigma in sigmas]
    sups = np.array(sim_mod.steady_state_errors(signal, noise, est_cfgs, cfg))
    table = {"sigma": np.array(sigmas)}
    table.update((f"est_error_sup_{order}", sups[:, order - 1]) for order in range(1, k + 1))
    record_mod.write_csvs([(table, out / "sweep.csv")])
    if signal.sup_derivative_bound(k + 1) == 0.0:
        raise sim_mod.InsufficientDataError(
            f"the signal's derivative of order {k + 1} is identically zero, so the estimates "
            "have no truncation error and the errors hold no power law to fit")
    for order in range(1, k + 1):
        slope = sim_mod.slope_fit(list(zip(sigmas, sups[:, order - 1])))
        _say(f"order {order}: fitted log-log slope {slope:.4f} "
             f"(power law exponent -(k+1-i) = {-(k + 1 - order)})")
    _say(f"wrote {out / 'sweep.csv'}")
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    # The battery is imported here, so the run commands do not load it.
    from . import checks as checks_mod

    names = {name.strip() for name in ns.only.split(",")} if ns.only else None
    try:
        results = checks_mod.run_checks(names)
    except ValueError as exc:
        raise SpecError("only", str(exc)) from None
    width = max(len(r.name) for r in results)
    all_passed = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_passed = all_passed and r.passed
        _say(f"{status}  {r.name:<{width}}  measured: {r.measured}  expected: {r.expected}")
        if not r.passed:
            for line in r.details:
                if line.startswith("FAIL"):
                    _say(f"      {line}")
    _say("verification " + ("PASSED" if all_passed else "FAILED"))
    return 0 if all_passed else 1


# Built once per process: parsing leaves the parser unchanged.
@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ddopt",
                                     description="dirty-derivative estimation and "
                                                 "time-varying optimization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("estimate", "run the derivative-tracking experiment"),
                            ("optimize", "run the moving-minimizer Newton flow"),
                            ("sweep", "sweep sigma and fit error power laws")):
        p = sub.add_parser(name, help=help_text)
        for key in _FLAG_DEFAULTS[name]:
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=_FLAG_HELP[key])
        p.add_argument("--config", help="flat key = value config file (flags override)")
    verify = sub.add_parser("verify", help="run the verification battery")
    verify.add_argument("--only", help="comma list of check names to run")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            ns = parser.parse_args(argv)
        except SystemExit as exc:
            _flush_stdout()
            return int(exc.code) if exc.code else 0
        if ns.command == "verify":
            return cmd_verify(ns)
        spec = _resolve(ns, ns.command)
        return {"estimate": cmd_estimate, "optimize": cmd_optimize,
                "sweep": cmd_sweep}[ns.command](spec)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (record_mod.NonFiniteStateError, sim_mod.InsufficientDataError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except StdoutError as exc:
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        # The interpreter flushes stdout once more at exit; what is still
        # buffered goes to the null device instead of failing again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
