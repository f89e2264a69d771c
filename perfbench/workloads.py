"""The three benchmark workloads: their op lists and their correctness oracles.

Every op goes through a public ddopt entry point: ``ddopt.cli.main`` for
``track`` and ``sweep``, the ``ddopt.checks.CHECKS`` functions for
``verify``. The workload seed only makes inputs (signal phases and a noise
seed); step counts never depend on it, so every seed does the same work.

Oracles run after the timed op list. Each op gets a ``Judgement``:

* ``failed``: the op raised, returned an unexpected exit code, wrote
  non-finite or malformed output, or failed its oracle. Feeds fail_ratio.
* ``unexpected``: the outcome differs from the one recorded at the commit
  that defined this benchmark (``EXPECTED_VERDICTS``, ``KNOWN_ORACLE_MISSES``).
  Any unexpected outcome makes the run incorrect.

Two known defects of that commit stay visible rather than hidden: the
``loss-ordering`` check fails its ratio gate (an expected op failure, so
``verify`` fail_ratio is 0.1), and seven of the forty scalar ``sweep``
estimates miss the analytic oracle (oracle_miss_ratio 7/40).
"""

from __future__ import annotations

import csv
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import ddopt.checks
import ddopt.cli
from ddopt.estimator import DirtyDerivativeConfig, steady_state_sinusoid_error
from ddopt.sim import Trajectory

H = 1e-3
OMEGA = 5.0

# track: one optimize call per cost, all modes, both gains, seeded noise.
TRACK_COSTS = ("quadratic-tracking", "logcosh")
TRACK_SIGMAS = (5.0, 20.0)
TRACK_TF = 4.0
TRACK_NOISE_VAR = 0.01
REDESIGN_TOL = 1e-9
IDEAL_TRACKING_TOL = 1e-6

# sweep: k = 1..4 on a scalar sinusoid and on the 3-channel path, noise-free.
SWEEP_ORDERS = (1, 2, 3, 4)
SWEEP_SIGMAS = (40.0, 80.0, 160.0, 320.0)
SWEEP_TF = 30.0
ORACLE_RTOL = 0.02   # the tolerance of the sinusoid-error check

# Run lengths in smoke mode: just long enough to exercise every code path.
SMOKE_TRACK_TF = 0.5
SMOKE_SWEEP_TF = 1.0

# Scalar (k, sigma, order) estimates off the analytic oracle by more than 2%
# at the commit that defined the benchmark: roundoff in the k >= 3 cascades
# at large sigma. A miss outside this set is an unexpected outcome.
KNOWN_ORACLE_MISSES = frozenset({
    (3, 320.0, 1), (3, 320.0, 3),
    (4, 160.0, 4), (4, 320.0, 1), (4, 320.0, 2), (4, 320.0, 3), (4, 320.0, 4),
})

# Non-timing sub-gate verdicts of every check at the commit that defined the
# benchmark, in the order the check reports them.
EXPECTED_VERDICTS = {
    "sinusoid-error": (True, True),
    "polynomial-exactness": (True, True),
    "sigma-scaling": (True, True, True),
    "block-output-bound": (True,),
    "lyapunov-residuals": (True,) * 6,
    "transfer-equivalence": (True,),
    "ideal-tracking": (True, True),
    "loss-ordering": (True, True, True, True, True, False),
    "redesign-cancellation": (True,) * 4,
    "noise-robustness": (True, True),
}

_RUNTIME_GATE = re.compile(r"runtime ([0-9.]+)s < ([0-9.]+)s$")


@dataclass
class Judgement:
    failed: bool = False
    unexpected: bool = False
    notes: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def fail(self, note: str) -> None:
        self.failed = self.unexpected = True
        self.notes.append(note)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    judge: Callable[[object], Judgement]
    span: str | None = None     # traced-run span opened around the op, if any


def _phase(rng: random.Random) -> float:
    return rng.uniform(-math.pi, math.pi)


def _path_signal(phases) -> str:
    a, b, c = phases
    return f"cos(5*t{a:+.17g}),sin(5*t{b:+.17g}),cos2(5*t{c:+.17g})"


def _cli(argv):
    return lambda: ddopt.cli.main(argv)


# ---------------------------------------------------------------------------
# track

def _track_labels():
    return ["none", "ideal"] + [f"estimated-s{sigma:g}" for sigma in TRACK_SIGMAS]


def _track_columns(label: str):
    estimated = label.startswith("estimated")
    names = ["t"]
    for prefix in ("theta", "thetadot") + (("thetahat",) if estimated else ()) + ("x", "xstar"):
        names += [f"{prefix}_{i}" for i in range(3)]
    names += ["loss", "tracking_error"] + (["est_error"] if estimated else []) + ["redesign_lhs"]
    return names


def _judge_optimize(out: Path, cost: str, tf: float, phases):
    def judge(rc) -> Judgement:
        j = Judgement()
        if rc != 0:
            j.fail(f"exit code {rc}")
            return j
        rows = int(round(tf / H)) + 1
        for label in _track_labels():
            path = out / f"trajectory_{label}.csv"
            try:
                traj = Trajectory.from_csv(path)
            except (OSError, ValueError) as exc:
                j.fail(f"{path.name}: unreadable: {exc}")
                continue
            if list(traj.columns) != _track_columns(label) or len(traj) != rows:
                j.fail(f"{path.name}: malformed: {len(traj)} rows, columns {list(traj.columns)}")
                continue
            if not all(np.all(np.isfinite(v)) for v in traj.columns.values()):
                j.fail(f"{path.name}: non-finite values")
                continue
            if label != "none":
                lhs = float(np.max(traj.column("redesign_lhs")))
                if not lhs <= REDESIGN_TOL:
                    j.fail(f"{path.name}: redesign_lhs {lhs:.3g} > {REDESIGN_TOL:g}")
            if cost == "quadratic-tracking" and label == "ideal":
                a, b, c = phases
                e0 = math.sqrt(math.cos(a) ** 2 + math.sin(b) ** 2 + math.cos(c) ** 4)
                dev = float(np.max(np.abs(traj.column("tracking_error")
                                          - e0 * np.exp(-(traj.t - traj.t[0])))))
                j.stats["ideal_tracking_dev"] = dev
                if not dev <= IDEAL_TRACKING_TOL:
                    j.fail(f"{path.name}: |tracking_error - e0 e^-t| {dev:.3g} > 1e-6")
        try:
            svg = (out / "loss.svg").read_text()
        except OSError as exc:
            j.fail(f"loss.svg: unreadable: {exc}")
            return j
        if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
                and svg.count("<polyline") == len(_track_labels())):
            j.fail("loss.svg: malformed")
        return j

    return judge


def track_ops(seed: int, out: Path, smoke: bool):
    rng = random.Random(seed)
    phases = [_phase(rng) for _ in range(3)]
    noise_seed = rng.randrange(2 ** 31)
    tf = SMOKE_TRACK_TF if smoke else TRACK_TF
    ops = []
    for cost in TRACK_COSTS:
        op_out = out / cost
        argv = ["optimize", "--cost", cost, "--mode", "none,ideal,estimated",
                "--sigma", ",".join(f"{s:g}" for s in TRACK_SIGMAS),
                "--signal", _path_signal(phases), "--noise-var", f"{TRACK_NOISE_VAR:g}",
                "--seed", str(noise_seed), "--tf", f"{tf:g}", "--h", f"{H:g}",
                "--out", str(op_out)]
        ops.append(Op(f"optimize:{cost}", _cli(argv), _judge_optimize(op_out, cost, tf, phases)))
    return ops


# ---------------------------------------------------------------------------
# sweep

def _judge_sweep(path: Path, k: int, scalar: bool):
    def judge(rc) -> Judgement:
        j = Judgement()
        if rc != 0:
            j.fail(f"exit code {rc}")
            return j
        try:
            with open(path, newline="") as fh:
                header, *rows = list(csv.reader(fh))
            values = [[float(v) for v in row] for row in rows]
        except (OSError, ValueError) as exc:
            j.fail(f"sweep.csv: unreadable: {exc}")
            return j
        if (header != ["sigma"] + [f"est_error_sup_{i}" for i in range(1, k + 1)]
                or [row[0] for row in values] != list(SWEEP_SIGMAS)
                or any(len(row) != k + 1 for row in values)):
            j.fail(f"sweep.csv: malformed: {[header] + rows}")
            return j
        if not all(math.isfinite(v) for row in values for v in row):
            j.fail("sweep.csv: non-finite values")
            return j
        if not scalar:
            return j
        missed = 0
        for sigma, *sups in values:
            cfg = DirtyDerivativeConfig(k, sigma, 1)
            for order, sup in enumerate(sups, start=1):
                oracle = steady_state_sinusoid_error(cfg, order, 1.0, OMEGA)
                if abs(sup - oracle) <= ORACLE_RTOL * oracle:
                    continue
                missed += 1
                note = f"k={k} sigma={sigma:g} order {order}: {sup:.6g} vs oracle {oracle:.6g}"
                if (k, sigma, order) in KNOWN_ORACLE_MISSES:
                    j.notes.append("known miss: " + note)
                else:
                    j.fail("oracle miss: " + note)
        j.stats["oracle_checked"] = len(values) * k
        j.stats["oracle_missed"] = missed
        return j

    return judge


def sweep_ops(seed: int, out: Path, smoke: bool):
    rng = random.Random(seed)
    scalar_phase = _phase(rng)
    path_phases = [_phase(rng) for _ in range(3)]
    tf = SMOKE_SWEEP_TF if smoke else SWEEP_TF
    signals = (("scalar", f"sin(5*t{scalar_phase:+.17g})"), ("path", _path_signal(path_phases)))
    ops = []
    for k in SWEEP_ORDERS:
        for kind, signal in signals:
            op_out = out / f"k{k}-{kind}"
            argv = ["sweep", "--k", str(k), "--sigma", ",".join(f"{s:g}" for s in SWEEP_SIGMAS),
                    "--signal", signal, "--tf", f"{tf:g}", "--h", f"{H:g}",
                    "--out", str(op_out)]
            ops.append(Op(f"sweep:k={k}:{kind}", _cli(argv),
                          _judge_sweep(op_out / "sweep.csv", k, kind == "scalar")))
    return ops


# ---------------------------------------------------------------------------
# verify

def _judge_check(name: str):
    def judge(result) -> Judgement:
        j = Judgement()
        verdicts, timings = [], []
        for line in result.details:
            gate = _RUNTIME_GATE.search(line)
            if gate:
                timings.append((float(gate.group(1)), float(gate.group(2))))
            else:
                verdicts.append(line.startswith("PASS"))
        if len(timings) == 1 and result.runtime > 0.0:
            # The check's own unrounded runtime is what its gate compared.
            timings = [(result.runtime, timings[0][1])]
        if timings:
            # Details round runtimes to 10 ms; never divide by a rounded zero.
            j.stats["headroom"] = min(gate / max(runtime, 0.005) for runtime, gate in timings)
        if not all(verdicts):
            j.failed = True
            j.notes += [d for d in result.details
                        if d.startswith("FAIL") and not _RUNTIME_GATE.search(d)]
        expected = EXPECTED_VERDICTS.get(name)
        if expected is None or tuple(verdicts) != expected:
            j.unexpected = True
            j.notes.append(f"verdicts {verdicts} differ from the recorded {expected}")
        return j

    return judge


def verify_ops(seed: int, out: Path, smoke: bool):
    # The checks freeze their own seeds; the workload seed changes nothing.
    return [Op(f"check:{name}", fn, _judge_check(name), span=f"checks.{name}")
            for name, fn in ddopt.checks.CHECKS]


def plan(workload: str, seed: int, out: Path, smoke: bool = False):
    return {"track": track_ops, "sweep": sweep_ops, "verify": verify_ops}[workload](
        seed, out, smoke)
