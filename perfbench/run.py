"""ddopt benchmark: time the track, sweep and verify workloads from outside.

    python3 perfbench/run.py --workload track --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload sweep --trace 1
    python3 perfbench/run.py --smoke

Each pass of a workload runs in a fresh interpreter (``worker.py``), so the
``lru_cache``s in ``ddopt.checks`` start cold every time. Passes repeat until
``--seconds`` is used up (at least ``MIN_PASSES``); every metric is the median
over passes. Set-up time is sampled from every pass plus ``SETUP_PROBES``
import-only interpreters.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, with
``trace.overhead_ratio`` the traced over the untraced median wall time.
``--smoke`` runs every workload once, at a very short length, traced and
untraced, and checks only that every metric is emitted and that the oracles
ran.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result, with
the environment and per-op details, is written to ``perfbench/.work/``.
See README.md in this directory for the metrics and how to compare commits.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("track", "sweep", "verify")
CHECKS = ("sinusoid-error", "polynomial-exactness", "sigma-scaling", "block-output-bound",
          "lyapunov-residuals", "transfer-equivalence", "ideal-tracking", "loss-ordering",
          "redesign-cancellation", "noise-robustness")
GATED_CHECKS = ("sinusoid-error", "polynomial-exactness", "sigma-scaling",
                "block-output-bound", "ideal-tracking", "loss-ordering", "noise-robustness")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

MIN_PASSES = 3          # untraced run
MIN_TRACED_PASSES = 2   # traced run, of each kind (untraced, traced)
SETUP_PROBES = 3        # import-only interpreters per run, besides the passes
MEASURE_LIMIT_S = 140   # no new pass once this is used, whatever --seconds says
RUN_LIMIT_S = 170       # a pass still running then is killed and the run fails
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class SpecError(Exception):
    """Invalid benchmark argument; names the offending field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")


def layer_stat_metrics():
    """(name, unit) of the per-layer metrics the tracer itself produces."""
    units = {"calls": "count", "self_s": "s", "errors": "count", "steps": "count",
             "flops": "flop", "bytes": "B"}
    return [(f"{layer}.{stat}", units[stat]) for layer in tracer.layer_names()
            for stat in ("calls", "self_s", "errors") + tracer.EXTRA_STATS.get(layer, ())]


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    return ([("setup.import_s", "s"), ("setup.scipy_import_s", "s")]
            + layer_stat_metrics()
            + [("flows.rhs_calls_per_step", "1/step")]
            + [(f"checks.{name}.s", "s") for name in CHECKS]
            + [(f"checks.{name}.headroom", "ratio") for name in GATED_CHECKS]
            + [("trace.overhead_ratio", "ratio")])


# ---------------------------------------------------------------------------
# Environment

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_state():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                 "--untracked-files=no"], capture_output=True, text=True,
                                timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": bool(status.strip())}


def environment(seed):
    return {"nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), **_git_state(), "seed": seed}


# ---------------------------------------------------------------------------
# Passes

def _worker_env():
    # One BLAS thread unless the caller chose otherwise: with OpenBLAS's
    # default pool the sweep scans burn a second core, run slower on two
    # cores, and their wall time spreads several times wider between runs.
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    return env


def _spawn(args, deadline):
    """Run worker.py with ``args``; return its JSON report, with set-up time."""
    spawned = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], capture_output=True, text=True,
                              cwd=ROOT, env=_worker_env(), timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {args} still running at the {RUN_LIMIT_S} s limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"pass {args} exited with {proc.returncode}:\n{tail}")
    try:
        report = json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"pass {args} printed no result: {lines[-1][:200]!r}") from None
    report["setup_s"] = report["ready"] - spawned
    return report


def _median(values):
    return statistics.median(values) if values else 0.0


def _spread(values):
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def measure(workload, seed, seconds, trace, smoke=False):
    """Run passes until the time is used; returns the raw pass reports."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    out = os.path.join(WORK, workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    probes = [_spawn(["--probe"], deadline)["setup_s"]
              for _ in range(1 if smoke else SETUP_PROBES)]
    kinds = (0, 1) if trace else (0,)
    wanted = 1 if smoke else MIN_TRACED_PASSES if trace else MIN_PASSES
    passes = {kind: [] for kind in kinds}
    durations = {kind: [] for kind in kinds}
    start = time.perf_counter()
    turn = 0
    while True:
        kind = kinds[turn % len(kinds)]
        turn += 1
        args = ["--workload", workload, "--seed", str(seed), "--trace", str(kind),
                "--out", os.path.join(out, "pass")]
        if smoke:
            args.append("--smoke")
        began = time.perf_counter()
        passes[kind].append(_spawn(args, deadline))
        durations[kind].append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        enough = all(len(passes[k]) >= wanted for k in kinds)
        upcoming = _median(durations[kinds[turn % len(kinds)]]) or max(durations[kind])
        if enough and (smoke or elapsed + upcoming > seconds):
            break
        if elapsed + upcoming > MEASURE_LIMIT_S:
            break
    return probes, passes


def summarize(workload, seed, seconds, trace, probes, passes):
    """Medians and spreads of every metric, plus the oracle outcomes."""
    plain = passes[0]
    every = [p for kind in passes for p in passes[kind]]
    ops = [op for p in every for op in p["ops"]]
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "passes": {str(kind): len(passes[kind]) for kind in passes},
              "env": {**environment(seed), **every[0]["env"]},
              "correct": not any(op["unexpected"] for op in ops),
              "attempted": len(ops), "failed": sum(op["failed"] for op in ops)}
    series = {}
    if not trace:
        series["setup_s"] = probes + [p["setup_s"] for p in plain]
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            series[name] = [p[name] for p in plain]
        units = dict(END_TO_END)
    else:
        traced = passes[1]
        units = dict(per_layer_metrics())
        series["setup.import_s"] = [p["import_s"] for p in every]
        series["setup.scipy_import_s"] = [p["scipy_import_s"] for p in every]
        for name, _ in layer_stat_metrics():
            series[name] = [p["layers"].get(name, 0.0) for p in traced]
        series["flows.rhs_calls_per_step"] = [
            p["layers"].get("flows.corrected_newton_rhs.calls", 0.0)
            / max(p["layers"].get("sim.run_interconnection.steps", 0.0), 1.0) for p in traced]
        # Per-check times and headroom come from the untraced passes, which
        # time each check call from outside just as the traced spans would.
        for check in CHECKS:
            series[f"checks.{check}.s"] = [_op(p, f"check:{check}").get("s", 0.0) for p in plain]
        for check in GATED_CHECKS:
            series[f"checks.{check}.headroom"] = [
                _op(p, f"check:{check}").get("headroom", 0.0) for p in plain]
        series["trace.overhead_ratio"] = [
            _median([p["wall_s"] for p in traced]) / _median([p["wall_s"] for p in plain])]
    result["metrics"] = {name: {"value": _median(series[name]), "unit": unit,
                                "quartiles": _spread(series[name]), "samples": series[name]}
                         for name, unit in units.items()}

    # Correctness-side figures, reported next to the timed metrics.
    result["fail_ratio"] = result["failed"] / result["attempted"]
    checked = sum(op.get("oracle_checked", 0) for op in ops)
    if checked:
        result["oracle_miss_ratio"] = sum(op.get("oracle_missed", 0) for op in ops) / checked
    headrooms = [min(op["headroom"] for op in p["ops"] if "headroom" in op)
                 for p in plain if any("headroom" in op for op in p["ops"])]
    if headrooms:
        result["gate_headroom_min"] = _median(headrooms)
    result["ops"] = [{"name": op["name"], "s": _median([_op(p, op["name"])["s"] for p in plain]),
                      "failed": op["failed"], "notes": op["notes"]} for op in plain[0]["ops"]]
    return result


def _op(report, name):
    return next((op for op in report["ops"] if op["name"] == name), {})


# ---------------------------------------------------------------------------
# Output

def _fmt(value):
    return f"{value:.6g}"


def print_report(result):
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"passes {result['passes']}")
    env = result["env"]
    print("   env: " + ", ".join(f"{key}={env[key]}" for key in env))
    for name, metric in result["metrics"].items():
        spread = metric["quartiles"]
        spread = f"  q1..q3 {_fmt(spread[0])}..{_fmt(spread[1])}" if spread else ""
        print(f"   {name:<48} {_fmt(metric['value']):>12} {metric['unit']:<6} "
              f"n={len(metric['samples'])}{spread}")
    print(f"   {'fail_ratio':<48} {_fmt(result['fail_ratio']):>12} ratio  "
          f"of {result['attempted']} ops attempted")
    for name in ("oracle_miss_ratio", "gate_headroom_min"):
        if name in result:
            print(f"   {name:<48} {_fmt(result[name]):>12} ratio")
    for op in result["ops"]:
        status = "FAIL" if op["failed"] else "ok"
        print(f"   op {op['name']:<45} {_fmt(op['s']):>12} s      {status}")
        for note in op["notes"]:
            print(f"      {note}")
    print(f"   correct: {result['correct']}")


def contract_line(result):
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in result["metrics"].items()}}


def run_workload(workload, seed, seconds, trace):
    probes, passes = measure(workload, seed, seconds, trace)
    result = summarize(workload, seed, seconds, trace, probes, passes)
    with open(os.path.join(WORK, f"{workload}-trace{trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print_report(result)
    return result


def smoke():
    """Every workload once, short, traced and untraced: is every metric there,
    did every oracle run? Gates on nothing else."""
    missing = []
    for workload in WORKLOADS:
        probes, passes = measure(workload, 0, 0.0, trace=1, smoke=True)
        for trace in (0, 1):
            subset = passes if trace else {0: passes[0]}
            result = summarize(workload, 0, 0.0, trace, probes, subset)
            expected = per_layer_metrics() if trace else END_TO_END
            for name, unit in expected:
                metric = result["metrics"].get(name)
                if metric is None or metric["unit"] != unit or not math.isfinite(metric["value"]):
                    missing.append(f"{workload}: metric {name} missing or not finite")
        judged = [op for kind in passes for p in passes[kind] for op in p["ops"]]
        oracles = {"track": "ideal_tracking_dev", "sweep": "oracle_checked",
                   "verify": "headroom"}[workload]
        if not any(oracles in op for op in judged):
            missing.append(f"{workload}: the oracles recorded no {oracles}")
        print(f"smoke {workload}: {len(END_TO_END)} end-to-end and {len(per_layer_metrics())} "
              f"per-layer metrics checked, {len(judged)} ops judged")
    for line in missing:
        print("smoke: " + line, file=sys.stderr)
    return 1 if missing else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="track, sweep, verify or all")
    parser.add_argument("--seed", default="0", help="workload seed (>= 0)")
    parser.add_argument("--seconds", default="35", help="measuring time per workload run")
    parser.add_argument("--trace", default="0", help="0: end-to-end metrics, 1: per-layer")
    parser.add_argument("--smoke", action="store_true",
                        help="short run of every workload; checks metrics are emitted")
    args = parser.parse_args(argv)
    if args.smoke:
        return args
    if args.workload is None:
        raise SpecError("workload", f"required; expected one of {list(WORKLOADS) + ['all']}")
    if args.workload not in WORKLOADS + ("all",):
        raise SpecError("workload", f"unknown workload {args.workload!r}; "
                                    f"expected one of {list(WORKLOADS) + ['all']}")
    try:
        args.seed = int(args.seed)
    except ValueError:
        raise SpecError("seed", f"not an integer: {args.seed!r}") from None
    if args.seed < 0:
        raise SpecError("seed", f"must be >= 0, got {args.seed}")
    try:
        args.seconds = float(args.seconds)
    except ValueError:
        raise SpecError("seconds", f"not a number: {args.seconds!r}") from None
    if not 0.0 < args.seconds < math.inf:
        raise SpecError("seconds", f"must be > 0 and finite, got {args.seconds}")
    if args.trace not in ("0", "1"):
        raise SpecError("trace", f"must be 0 or 1, got {args.trace!r}")
    args.trace = int(args.trace)
    return args


def main(argv=None):
    try:
        args = parse_args(argv)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps(contract_line(result)))
            return 0
        lines = {w: contract_line(run_workload(w, args.seed, args.seconds, args.trace))
                 for w in WORKLOADS}
        print(json.dumps({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{w}.{name}": metric for w, line in lines.items()
                        for name, metric in line["metrics"].items()}}))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
