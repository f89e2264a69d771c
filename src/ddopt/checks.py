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
import time
from dataclasses import dataclass, field

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


class _Gate:
    """Collects sub-assertions for one check."""

    def __init__(self):
        self.ok = True
        self.details = []

    def require(self, condition: bool, message: str) -> None:
        self.ok = self.ok and bool(condition)
        self.details.append(("PASS" if condition else "FAIL") + "  " + message)


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
                gate.require(runtime < budget, f"runtime {runtime:.2f}s < {budget:g}s")
            return CheckResult(name, gate.ok, expected, measured, runtime, gate.details)

        del check.__wrapped__    # its signature is its own: no arguments
        CHECKS.append((name, check))
        return check

    return register


# ---------------------------------------------------------------------------
# Shared experiment runs (cached so dependent checks reuse them).

BENCH_SIGMA_LOW = 5.0
BENCH_SIGMA_HIGH = 20.0
SWEEP_SIGMAS = (40.0, 80.0, 160.0, 320.0)
NOISE_VARIANCE = 0.01
NOISE_SEED = 42


@functools.lru_cache(maxsize=None)
def _derivative_run(sigma: float, variance: float = 0.0, seed: int = 0) -> record_mod.Trajectory:
    cfg = sim_mod.SimConfig(t0=0.0, tf=10.0, h=1e-3)
    est_cfg = est_mod.DirtyDerivativeConfig(1, sigma, 1)
    noise = sig_mod.NoiseSpec(variance, seed)
    return sim_mod.run_derivative_experiment(sig_mod.sinusoid_5t_minus_2(), noise, est_cfg, cfg)


@functools.lru_cache(maxsize=None)
def _ideal_tracking_run() -> record_mod.Trajectory:
    cost = flows_mod.QuadraticTrackingCost(3)
    cfg = sim_mod.SimConfig(t0=0.0, tf=15.0, h=1e-3)
    return sim_mod.run_interconnection(cost, sig_mod.benchmark_parameter_path(),
                                       flows_mod.CorrectionMode.IDEAL, cfg)


@functools.lru_cache(maxsize=None)
def _ordering_runs():
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
    return dict(zip(names, sim_mod.run_interconnections(cost, signal, specs, cfg)))


# ---------------------------------------------------------------------------
# Checks.

@_check("sinusoid-error")
def check_sinusoid_error(gate):
    """Measured steady-state first-derivative error against the exact
    frequency-domain oracle for sin(5t-2), k = 1, sigma in {5, 20}."""
    measured = []
    expected = []
    for sigma in (BENCH_SIGMA_LOW, BENCH_SIGMA_HIGH):
        start = time.perf_counter()
        traj = _derivative_run(sigma)
        runtime = time.perf_counter() - start
        sup = record_mod.steady_state_sup(traj, "est_error")
        oracle = est_mod.steady_state_sinusoid_error(
            est_mod.DirtyDerivativeConfig(1, sigma, 1), 1, 1.0, 5.0)
        measured.append(f"sigma={sigma:g}: {sup:.5f} ({runtime:.2f}s)")
        expected.append(f"sigma={sigma:g}: {oracle:.5f} +-2%")
        gate.require(abs(sup - oracle) <= 0.02 * oracle,
                     f"sigma={sigma:g}: sup {sup:.6f} vs oracle {oracle:.6f}")
        gate.require(runtime < 1.0, f"sigma={sigma:g}: runtime {runtime:.2f}s < 1s")
    return "; ".join(expected), "; ".join(measured)


@_check("polynomial-exactness", budget=1.0)
def check_polynomial_exactness(gate):
    """Degree-2 polynomial input, k = 2: both estimates exact to 1e-6 by the
    end of the run (polynomials of degree <= k have no residual error)."""
    cfg = sim_mod.SimConfig(t0=0.0, tf=5.0, h=1e-3)
    est_cfg = est_mod.DirtyDerivativeConfig(2, 10.0, 1)
    signal = sig_mod.AnalyticSignal((sig_mod.Polynomial((1.0, 2.0, 0.5)),))
    traj = sim_mod.run_derivative_experiment(signal, sig_mod.NoiseSpec(), est_cfg, cfg)
    t_end = float(traj.t[-1])
    d1 = float(traj.column("thetahat_0")[-1])
    d2 = float(traj.column("thetahat2_0")[-1])
    e1 = abs(d1 - (2.0 + t_end))
    e2 = abs(d2 - 1.0)
    gate.require(e1 <= 1e-6, f"first derivative error {e1:.3g} <= 1e-6")
    gate.require(e2 <= 1e-6, f"second derivative error {e2:.3g} <= 1e-6")
    return f"estimates ({2.0 + t_end:g}, 1) +-1e-6", f"({d1:.8f}, {d2:.8f})"


@_check("sigma-scaling", budget=10.0)
def check_sigma_scaling(gate):
    """Log-log slope of steady-state error versus sigma matches the
    -(k+1-i) power law for (k,i) in {(1,1), (2,1), (2,2)}."""
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
        gate.require(abs(slope - target) <= 0.25,
                     f"(k={order},i={i}): slope {slope:.4f} within {target}+-0.25")
    return "slopes -1, -2, -1 (+-0.25)", "; ".join(measured)


@_check("block-output-bound", budget=5.0)
def check_block_output_bound(gate):
    """Simulated output of each cascade block stays below the decay plus
    input-gain bound computed from its Lyapunov solution."""
    rng = np.random.default_rng(20260811)
    cfg = sim_mod.SimConfig(t0=0.0, tf=10.0, h=1e-3)
    t = cfg.times()
    # Ten initial states per block, driven as ten channels of one input.
    u = np.sin(cfg.stage_times())
    U = np.broadcast_to(u[:, None], (len(u), 10))
    violations = 0
    total = 0
    margin = math.inf
    for n in (1, 2, 3):
        layout = sim_mod._chunk_layout(U, n)     # shared by the gains
        for sigma in (2.0, 10.0):
            block = est_mod.build_f_block(n, sigma)
            constants = est_mod.output_bound_constants(n, sigma)
            x0 = rng.standard_normal((10, n)).T     # the stream of ten draws of n
            maps = est_mod.rk4_step_maps(block.A, block.B, cfg.h)
            y = sim_mod._drive_lti(block, maps, layout, x0)[:, 0, :]
            bound = constants.bound(np.linalg.norm(x0, axis=0), 1.0, sigma, t[:, None])
            gap = bound - np.abs(y)
            violations += int(np.sum(gap < 0.0))
            total += gap.size
            margin = min(margin, float(np.min(gap)))
        del layout    # not held while the next block size's is laid out
    gate.require(violations == 0, f"{violations} violations over {total} samples")
    return "0 violations", f"{violations} violations, worst margin {margin:.4g}"


@_check("lyapunov-residuals")
def check_lyapunov_residuals(gate):
    """Residual of the unit-gain companion Lyapunov equations, n = 1..6."""
    residuals = []
    for n in range(1, 7):
        A = est_mod.build_f_block(n, 1.0).A
        P = numerics.lyapunov_solve(A, np.eye(n))
        r = float(np.linalg.norm(A.T @ P + P @ A + np.eye(n)))
        residuals.append(r)
        gate.require(r < 1e-10, f"n={n}: residual {r:.3g} < 1e-10")
    return "all < 1e-10", f"worst {max(residuals):.3g}"


@_check("transfer-equivalence")
def check_transfer_equivalence(gate):
    """Frequency response of the composed realization against the closed-form
    cascade recursion, per-frequency response vector, relative error 1e-9."""
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
    gate.require(worst < 1e-9, f"worst relative response error {worst:.3g} < 1e-9")
    return "< 1e-9", f"worst {worst:.3g}"


@_check("ideal-tracking", budget=1.0)
def check_ideal_tracking(gate):
    """Ideally corrected Newton flow on the quadratic tracker contracts the
    tracking error exactly like e^-t and drives the loss to the floor."""
    traj = _ideal_tracking_run()
    theta0 = sig_mod.benchmark_parameter_path().eval_many([0.0], 0)[0]
    e0 = float(np.linalg.norm(theta0))
    predicted = e0 * np.exp(-(traj.t - traj.t[0]))
    dev = float(np.max(np.abs(traj.column("tracking_error") - predicted)))
    window_loss = record_mod.steady_state_sup(traj, "loss")
    gate.require(dev <= 1e-6, f"|tracking error - {e0:.4f} e^-t| sup {dev:.3g} <= 1e-6")
    gate.require(window_loss < 1e-10, f"final-window loss {window_loss:.3g} < 1e-10")
    return ("deviation <= 1e-6, loss < 1e-10",
            f"deviation {dev:.3g}, loss {window_loss:.3g}")


@_check("loss-ordering", budget=5.0)
def check_loss_ordering(gate):
    """Final-window mean losses order as ideal < estimated(sigma=20) <
    estimated(sigma=5) < uncorrected, each pair separated by a factor 2."""
    losses = {name: record_mod.steady_state_mean(traj, "loss")
              for name, traj in _ordering_runs().items()}
    chain = ["ideal", f"estimated{BENCH_SIGMA_HIGH:g}", f"estimated{BENCH_SIGMA_LOW:g}", "none"]
    for a, b in zip(chain, chain[1:]):
        gate.require(losses[a] < losses[b], f"{a} loss {losses[a]:.4g} < {b} loss {losses[b]:.4g}")
    for a, b in zip(chain, chain[1:]):
        ratio = losses[b] / losses[a]
        gate.require(ratio >= 2.0, f"{b}/{a} mean-loss ratio {ratio:.3f} >= 2")
    return ("ordered, consecutive ratios >= 2",
            ", ".join(f"{name}={losses[name]:.4g}" for name in chain))


@_check("redesign-cancellation")
def check_redesign_cancellation(gate):
    """The recorded redesign certificate stays at or below 1e-9 along every
    corrected trajectory (exact cancellation for the ideal correction, by
    construction for the estimated one)."""
    worst = {"ideal-tracking": float(np.max(_ideal_tracking_run().column("redesign_lhs")))}
    for name, traj in _ordering_runs().items():
        if name == "none":
            continue  # no correction: nothing for the condition to certify
        worst[name] = float(np.max(traj.column("redesign_lhs")))
    for name, value in worst.items():
        gate.require(value <= 1e-9, f"{name}: max lhs {value:.3g} <= 1e-9")
    return "max lhs <= 1e-9", f"worst {max(worst.values()):.3g}"


@_check("noise-robustness", budget=5.0)
def check_noise_robustness(gate):
    """Gaussian measurement noise (variance 0.01, seed 42) degrades the
    sigma = 20 runs by less than a factor 10 and never produces a
    non-finite state."""
    clean_est = _derivative_run(BENCH_SIGMA_HIGH)
    noisy_est = _derivative_run(BENCH_SIGMA_HIGH, variance=NOISE_VARIANCE, seed=NOISE_SEED)
    sup_clean = record_mod.steady_state_sup(clean_est, "est_error")
    sup_noisy = record_mod.steady_state_sup(noisy_est, "est_error")

    cost = flows_mod.QuadraticTrackingCost(3)
    signal = sig_mod.benchmark_parameter_path()
    cfg = sim_mod.SimConfig(t0=0.0, tf=10.0, h=1e-3)
    est_cfg = est_mod.DirtyDerivativeConfig(1, BENCH_SIGMA_HIGH, 3)
    clean_opt = _ordering_runs()[f"estimated{BENCH_SIGMA_HIGH:g}"]
    noisy_opt = sim_mod.run_interconnection(
        cost, signal, flows_mod.CorrectionMode.ESTIMATED, cfg, est_cfg=est_cfg,
        noise=sig_mod.NoiseSpec(NOISE_VARIANCE, NOISE_SEED))
    loss_clean = record_mod.steady_state_sup(clean_opt, "loss")
    loss_noisy = record_mod.steady_state_sup(noisy_opt, "loss")
    gate.require(sup_noisy < 10.0 * sup_clean,
                 f"estimation error {sup_noisy:.4f} < 10 x noise-free {sup_clean:.4f}")
    gate.require(loss_noisy < 10.0 * loss_clean,
                 f"loss {loss_noisy:.4g} < 10 x noise-free {loss_clean:.4g}")
    return ("noisy < 10 x noise-free",
            f"est {sup_noisy:.3f}/{sup_clean:.3f}, loss {loss_noisy:.3g}/{loss_clean:.3g}")


def run_checks(names=None):
    """Run the battery (or the named subset) and return CheckResults."""
    known = {name for name, _ in CHECKS}
    if names:
        unknown = set(names) - known
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
    results = []
    for name, fn in CHECKS:
        if names and name not in names:
            continue
        results.append(fn())
    return results
