"""Verification battery: every quantitative claim the package makes about
itself, runnable as one suite.

Each check runs a fixed, seeded experiment, compares measured values against
frozen expectations at pinned tolerances, and reports pass/fail plus the
numbers. The CLI ``verify`` command prints the table; the acceptance tests
assert each check individually.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import estimator as est_mod
from . import flows as flows_mod
from . import numerics
from . import record as record_mod
from . import signals as sig_mod
from . import sim as sim_mod


@dataclass
class CheckResult:
    name: str
    passed: bool
    expected: str
    measured: str
    runtime: float
    details: list = field(default_factory=list)


def _num(x: float) -> str:
    """A threshold as the details and expectations print it: ``1e-6``, not ``1e-06``."""
    return f"{x:g}".replace("e-0", "e-")


class _Gate:
    """Collects sub-assertions for one check: the only place the battery
    compares a measured value with its limit."""

    _COMPARE = {"<": operator.lt, "<=": operator.le, ">=": operator.ge}

    def __init__(self):
        self.ok = True
        self.details = []

    def require(self, value, op: str, limit, text: str) -> None:
        """Gate ``value op limit``; the detail is ``text`` with ``{op}`` and
        ``{limit}`` (by :func:`_num`) filled in."""
        passed = bool(self._COMPARE[op](value, limit))
        self.ok = self.ok and passed
        detail = text.format(op=op, limit=_num(limit))
        self.details.append(("PASS" if passed else "FAIL") + "  " + detail)


CHECKS = []


def _check(name: str, budget: float | None = None):
    """Register the check ``name`` in ``CHECKS``, in definition order: it fills a
    ``_Gate`` and returns ``(expected, measured)``; its whole call is timed, gated
    against ``budget`` (if any) as the last detail, and made a ``CheckResult``."""
    def register(fn):
        @functools.wraps(fn)
        def check() -> CheckResult:
            gate = _Gate()
            start = time.perf_counter()
            expected, measured = fn(gate)
            runtime = time.perf_counter() - start
            if budget is not None:
                gate.require(runtime, "<", budget, f"runtime {runtime:.2f}s {{op}} {{limit}}s")
            return CheckResult(name, gate.ok, expected, measured, runtime, gate.details)

        del check.__wrapped__    # its signature is its own: no arguments
        CHECKS.append((name, check))
        return check

    return register


# ---------------------------------------------------------------------------
# Shared experiment runs, cached as the statistics the checks read of them
# (a run's trajectory is released as soon as they are taken).

BENCH_SIGMA_LOW = 5.0
BENCH_SIGMA_HIGH = 20.0
SWEEP_SIGMAS = (40.0, 80.0, 160.0, 320.0)
NOISE_VARIANCE = 0.01
NOISE_SEED = 42


class _FlowStats(NamedTuple):
    """What the checks read of one optimization run."""

    loss_mean: float    # mean loss over the steady-state window
    loss_sup: float     # sup of the loss over that window
    lhs_max: float      # largest recorded redesign certificate


def _flow_stats(traj: record_mod.Trajectory) -> _FlowStats:
    return _FlowStats(record_mod.steady_state_mean(traj, "loss"),
                      record_mod.steady_state_sup(traj, "loss"),
                      float(np.max(traj.column("redesign_lhs"))))


@functools.lru_cache(maxsize=None)
def _derivative_error(sigma: float, variance: float = 0.0, seed: int = 0) -> float:
    """Steady-state sup of ``est_error`` of the k = 1 estimate of sin(5t-2)."""
    cfg = sim_mod.SimConfig(t0=0.0, tf=10.0, h=1e-3)
    est_cfg = est_mod.DirtyDerivativeConfig(1, sigma, 1)
    noise = sig_mod.NoiseSpec(variance, seed)
    return float(sim_mod.steady_state_errors(sig_mod.sinusoid_5t_minus_2(), noise,
                                             [est_cfg], cfg)[0][0])


@functools.lru_cache(maxsize=None)
def _ideal_tracking_stats() -> tuple[float, float, _FlowStats]:
    """The ideally corrected run on the quadratic tracker: its initial
    tracking error e0, the sup deviation of its tracking error from
    e0 e^-t, and its flow statistics."""
    cost = flows_mod.QuadraticTrackingCost(3)
    cfg = sim_mod.SimConfig(t0=0.0, tf=15.0, h=1e-3)
    traj = sim_mod.run_interconnection(cost, sig_mod.benchmark_parameter_path(),
                                       flows_mod.CorrectionMode.IDEAL, cfg)
    theta0 = sig_mod.benchmark_parameter_path().eval_many([0.0], 0)[0]
    e0 = float(np.linalg.norm(theta0))
    predicted = e0 * np.exp(-(traj.t - traj.t[0]))
    dev = float(np.max(np.abs(traj.column("tracking_error") - predicted)))
    return e0, dev, _flow_stats(traj)


@functools.lru_cache(maxsize=None)
def _ordering_stats() -> dict[str, _FlowStats]:
    """Flow statistics of the ideal, sigma = 20, sigma = 5 and uncorrected
    runs on the quadratic tracker, by name."""
    cost = flows_mod.QuadraticTrackingCost(3)
    signal = sig_mod.benchmark_parameter_path()
    cfg = sim_mod.SimConfig(t0=0.0, tf=10.0, h=1e-3)
    est_high = est_mod.DirtyDerivativeConfig(1, BENCH_SIGMA_HIGH, 3)
    est_low = est_mod.DirtyDerivativeConfig(1, BENCH_SIGMA_LOW, 3)
    names = ["ideal", f"estimated{BENCH_SIGMA_HIGH:g}", f"estimated{BENCH_SIGMA_LOW:g}", "none"]
    specs = [(flows_mod.CorrectionMode.IDEAL, None),
             (flows_mod.CorrectionMode.ESTIMATED, est_high),
             (flows_mod.CorrectionMode.ESTIMATED, est_low),
             (flows_mod.CorrectionMode.NONE, None)]
    runs = sim_mod.run_interconnections(cost, signal, specs, cfg)
    return {name: _flow_stats(runs.pop(0)) for name in names}


# ---------------------------------------------------------------------------
# Checks.

@_check("sinusoid-error", budget=1.0)
def check_sinusoid_error(gate):
    """Measured steady-state first-derivative error against the exact
    frequency-domain oracle for sin(5t-2), k = 1, sigma in {5, 20}."""
    rel_tol = 0.02
    measured, expected = [], []
    for sigma in (BENCH_SIGMA_LOW, BENCH_SIGMA_HIGH):
        sup = _derivative_error(sigma)
        oracle = est_mod.steady_state_sinusoid_error(
            est_mod.DirtyDerivativeConfig(1, sigma, 1), 1, 1.0, 5.0)
        measured.append(f"sigma={sigma:g}: {sup:.5f}")
        expected.append(f"sigma={sigma:g}: {oracle:.5f} +-{rel_tol:.0%}")
        gate.require(abs(sup - oracle), "<=", rel_tol * oracle,
                     f"sigma={sigma:g}: sup {sup:.6f} vs oracle {oracle:.6f}")
    return "; ".join(expected), "; ".join(measured)


@_check("polynomial-exactness", budget=1.0)
def check_polynomial_exactness(gate):
    """Degree-2 polynomial input, k = 2: both estimates exact to ``exact_tol`` by
    the end of the run (polynomials of degree <= k have no residual error)."""
    exact_tol = 1e-6
    cfg = sim_mod.SimConfig(t0=0.0, tf=5.0, h=1e-3)
    est_cfg = est_mod.DirtyDerivativeConfig(2, 10.0, 1)
    signal = sig_mod.AnalyticSignal((sig_mod.Polynomial((1.0, 2.0, 0.5)),))
    traj = sim_mod.run_derivative_experiment(signal, sig_mod.NoiseSpec(), est_cfg, cfg)
    t_end = float(traj.t[-1])
    d1 = float(traj.column("thetahat_0")[-1])
    d2 = float(traj.column("thetahat2_0")[-1])
    e1 = abs(d1 - (2.0 + t_end))
    e2 = abs(d2 - 1.0)
    gate.require(e1, "<=", exact_tol, f"first derivative error {e1:.3g} {{op}} {{limit}}")
    gate.require(e2, "<=", exact_tol, f"second derivative error {e2:.3g} {{op}} {{limit}}")
    return f"estimates ({2.0 + t_end:g}, 1) +-{_num(exact_tol)}", f"({d1:.8f}, {d2:.8f})"


@_check("sigma-scaling", budget=10.0)
def check_sigma_scaling(gate):
    """Log-log slope of steady-state error versus sigma matches the
    -(k+1-i) power law for (k,i) in {(1,1), (2,1), (2,2)}."""
    slope_tol = 0.25
    cfg = sim_mod.SimConfig(t0=0.0, tf=30.0, h=1e-3)
    sups = {}
    for order in (1, 2):
        est_cfgs = [est_mod.DirtyDerivativeConfig(order, sigma, 1) for sigma in SWEEP_SIGMAS]
        errors = sim_mod.steady_state_errors(sig_mod.sinusoid_5t_minus_2(),
                                             sig_mod.NoiseSpec(), est_cfgs, cfg)
        for sigma, sup in zip(SWEEP_SIGMAS, errors):
            for i in range(1, order + 1):
                sups[(order, i, sigma)] = sup[i - 1]
    measured = []
    for order, i in ((1, 1), (2, 1), (2, 2)):
        pts = [(sigma, sups[(order, i, sigma)]) for sigma in SWEEP_SIGMAS]
        slope = sim_mod.slope_fit(pts)
        target = -(order + 1 - i)
        measured.append(f"(k={order},i={i}): {slope:.3f}")
        gate.require(abs(slope - target), "<=", slope_tol,
                     f"(k={order},i={i}): slope {slope:.4f} within {target}+-{{limit}}")
    return f"slopes -1, -2, -1 (+-{_num(slope_tol)})", "; ".join(measured)


@_check("block-output-bound", budget=5.0)
def check_block_output_bound(gate):
    """Simulated output of each cascade block stays below the decay plus
    input-gain bound computed from its Lyapunov solution."""
    max_violations = 0
    rng = np.random.default_rng(20260811)
    cfg = sim_mod.SimConfig(t0=0.0, tf=10.0, h=1e-3)
    t = cfg.times()
    # Ten initial states per block, driven as ten channels of one input.
    u = np.sin(cfg.stage_times())
    U = np.broadcast_to(u[:, None], (len(u), 10))
    violations = total = 0
    margin = math.inf
    for n in (1, 2, 3):
        layout = sim_mod._chunk_layout(U, n)     # shared by the gains
        for sigma in (2.0, 10.0):
            block = est_mod.build_f_block(n, sigma)
            constants = est_mod.output_bound_constants(n, sigma)
            x0 = rng.standard_normal((10, n)).T     # the stream of ten draws of n
            maps = est_mod.rk4_step_maps(block.A, block.B, cfg.h)
            # Channel-major, one row per initial state: y and gap are (10, N+1).
            y = sim_mod._drive_lti(block, maps, layout, x0)[:, 0, :].T
            np.abs(y, out=y)
            gap = constants.bound(np.linalg.norm(x0, axis=0)[:, None], 1.0, sigma, t)
            gap -= y
            violations += int(np.sum(gap < 0.0))
            total += gap.size
            margin = min(margin, float(np.min(gap)))
            del y, gap    # not held while the next gain is driven
        del layout    # not held while the next block size's is laid out
    gate.require(violations, "<=", max_violations, f"{violations} violations over {total} samples")
    return f"{max_violations} violations", f"{violations} violations, worst margin {margin:.4g}"


@_check("lyapunov-residuals")
def check_lyapunov_residuals(gate):
    """Residual of the unit-gain companion Lyapunov equations, n = 1..6."""
    residual_tol = 1e-10
    residuals = []
    for n in range(1, 7):
        A = est_mod.build_f_block(n, 1.0).A
        P = numerics.lyapunov_solve(A, np.eye(n))
        r = float(np.linalg.norm(A.T @ P + P @ A + np.eye(n)))
        residuals.append(r)
        gate.require(r, "<", residual_tol, f"n={n}: residual {r:.3g} {{op}} {{limit}}")
    return f"all < {_num(residual_tol)}", f"worst {max(residuals):.3g}"


@_check("transfer-equivalence")
def check_transfer_equivalence(gate):
    """Frequency response of the composed realization against the closed-form
    cascade recursion, per-frequency response vector, relative error ``response_tol``."""
    response_tol = 1e-9
    worst = 0.0
    for order in (1, 2, 3):
        for sigma in (1.0, 5.0, 20.0):
            omegas = np.logspace(-2, 3, 20)
            H = est_mod.frequency_response(est_mod.compose_cascade(order, sigma), omegas)
            for omega, response in zip(omegas, H[:, :, 0]):
                ref = np.array([est_mod.closed_form_transfer(order, sigma, i, float(omega))
                                for i in range(1, order + 1)])
                rel = float(np.linalg.norm(response - ref) / np.linalg.norm(ref))
                worst = max(worst, rel)
    gate.require(worst, "<", response_tol,
                 f"worst relative response error {worst:.3g} {{op}} {{limit}}")
    return f"< {_num(response_tol)}", f"worst {worst:.3g}"


@_check("ideal-tracking", budget=1.0)
def check_ideal_tracking(gate):
    """Ideally corrected Newton flow on the quadratic tracker contracts the
    tracking error exactly like e^-t and drives the loss to the floor."""
    dev_tol, loss_tol = 1e-6, 1e-10
    e0, dev, stats = _ideal_tracking_stats()
    window_loss = stats.loss_sup
    gate.require(dev, "<=", dev_tol,
                 f"|tracking error - {e0:.4f} e^-t| sup {dev:.3g} {{op}} {{limit}}")
    gate.require(window_loss, "<", loss_tol,
                 f"final-window loss {window_loss:.3g} {{op}} {{limit}}")
    return (f"deviation <= {_num(dev_tol)}, loss < {_num(loss_tol)}",
            f"deviation {dev:.3g}, loss {window_loss:.3g}")


@_check("loss-ordering", budget=5.0)
def check_loss_ordering(gate):
    """Final-window mean losses order as ideal < estimated(sigma=20) <
    estimated(sigma=5) < uncorrected, each pair separated by ``min_ratio``."""
    min_ratio = 2.0
    losses = {name: stats.loss_mean for name, stats in _ordering_stats().items()}
    chain = ["ideal", f"estimated{BENCH_SIGMA_HIGH:g}", f"estimated{BENCH_SIGMA_LOW:g}", "none"]
    for a, b in zip(chain, chain[1:]):
        gate.require(losses[a], "<", losses[b],
                     f"{a} loss {losses[a]:.4g} {{op}} {b} loss {losses[b]:.4g}")
    for a, b in zip(chain, chain[1:]):
        ratio = losses[b] / losses[a]
        gate.require(ratio, ">=", min_ratio,
                     f"{b}/{a} mean-loss ratio {ratio:.3f} {{op}} {{limit}}")
    return (f"ordered, consecutive ratios >= {_num(min_ratio)}",
            ", ".join(f"{name}={losses[name]:.4g}" for name in chain))


@_check("redesign-cancellation")
def check_redesign_cancellation(gate):
    """The recorded redesign certificate stays at or below ``lhs_tol`` along every
    corrected trajectory (exact cancellation for the ideal correction, by
    construction for the estimated one)."""
    lhs_tol = 1e-9
    worst = {"ideal-tracking": _ideal_tracking_stats()[2].lhs_max}
    for name, stats in _ordering_stats().items():
        if name == "none":
            continue  # no correction: nothing for the condition to certify
        worst[name] = stats.lhs_max
    for name, value in worst.items():
        gate.require(value, "<=", lhs_tol, f"{name}: max lhs {value:.3g} {{op}} {{limit}}")
    return f"max lhs <= {_num(lhs_tol)}", f"worst {max(worst.values()):.3g}"


@_check("noise-robustness", budget=5.0)
def check_noise_robustness(gate):
    """Gaussian measurement noise (variance 0.01, seed 42) degrades the
    sigma = 20 runs by less than ``factor`` and never produces a
    non-finite state."""
    factor = 10.0
    sup_clean = _derivative_error(BENCH_SIGMA_HIGH)
    sup_noisy = _derivative_error(BENCH_SIGMA_HIGH, variance=NOISE_VARIANCE, seed=NOISE_SEED)

    cost = flows_mod.QuadraticTrackingCost(3)
    signal = sig_mod.benchmark_parameter_path()
    cfg = sim_mod.SimConfig(t0=0.0, tf=10.0, h=1e-3)
    est_cfg = est_mod.DirtyDerivativeConfig(1, BENCH_SIGMA_HIGH, 3)
    loss_clean = _ordering_stats()[f"estimated{BENCH_SIGMA_HIGH:g}"].loss_sup
    noisy_opt = sim_mod.run_interconnection(
        cost, signal, flows_mod.CorrectionMode.ESTIMATED, cfg, est_cfg=est_cfg,
        noise=sig_mod.NoiseSpec(NOISE_VARIANCE, NOISE_SEED))
    loss_noisy = record_mod.steady_state_sup(noisy_opt, "loss")
    limit_text = f"{{op}} {_num(factor)} x noise-free"
    gate.require(sup_noisy, "<", factor * sup_clean,
                 f"estimation error {sup_noisy:.4f} {limit_text} {sup_clean:.4f}")
    gate.require(loss_noisy, "<", factor * loss_clean,
                 f"loss {loss_noisy:.4g} {limit_text} {loss_clean:.4g}")
    return (f"noisy < {_num(factor)} x noise-free",
            f"est {sup_noisy:.3f}/{sup_clean:.3f}, loss {loss_noisy:.3g}/{loss_clean:.3g}")


def run_checks(names=None):
    """Run the battery (or the named subset) and return CheckResults."""
    unknown = set(names or ()) - {name for name, _ in CHECKS}
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    return [fn() for name, fn in CHECKS if not names or name in names]
