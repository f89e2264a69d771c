"""Fixed-step simulation engine and experiment runners.

Two kinds of dynamics are stepped here:

* the nonlinear optimizer flow, integrated by classical RK4;
* the linear estimator cascade, advanced by its precomputed RK4 step maps,
  which sample the continuous input at every RK4 stage (t, t+h/2, t+h).

Every LTI run goes through one batch path, :func:`_drive_lti`: the sampled
input grid is cut into chunks of 64 steps, each chunk's outputs come from
matrix products with kernels built from powers of the step map, and only
the states at the chunk starts are carried from chunk to chunk. The result
equals stepping the estimator sample by sample up to roundoff, with no
Python loop over the grid steps.

Each run evaluates its clean signal once, on the stage grid, records every
other stage, and measures it with noise added. A sweep's gains share the
measurement and the true derivatives (:func:`run_derivative_experiments`),
and their trajectories are yielded one at a time, so only one gain's
outputs are in memory at once.

The estimator is open loop (its input, the measured parameter, does not
depend on the optimizer state), so the interconnection computes the whole
estimate first and the flow loop then only reads it: the estimate at each
grid point is held constant over the optimizer's RK4 step.

The interconnection runs that share a parameter path (none, ideal and
estimated at each gain) are integrated together by
:func:`run_interconnections`: one RK4 loop advances the stacked states
(runs, n), stores only them and checks them for non-finite values a block
of steps at a time; the other columns are computed after the loop on blocks
of rows, through the same ``flows`` functions.
:func:`write_csvs` writes every CSV file, the runs' trajectories together,
formatting the columns they have in common once.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import estimator as est_mod
from . import flows as flows_mod
from . import signals as sig_mod

STEADY_STATE_FRACTION = 0.2  # metrics use the final 20% of a run
# Step budget: the grids of a run grow with the step count (and with the
# number of runs integrated together), so a run past it is refused before
# anything is allocated. About 67 times the longest shipped run (30k steps).
MAX_STEPS = 2_000_000
# Rows handled per block by the flow loop's finiteness check, when deriving
# the other columns and when writing CSVs, so that buffers and temporaries
# (such as stacked Hessians or formatted text) do not grow with run length.
_RECORD_BLOCK_ROWS = 256
# Steps per chunk of the LTI kernel in _drive_lti.
_CHUNK = 64


class NonFiniteStateError(Exception):
    """Integration produced NaN or infinity; carries the offending time."""

    def __init__(self, t: float):
        super().__init__(f"state became non-finite at t = {t!r}")
        self.t = t


class InsufficientDataError(ValueError):
    """Not enough usable points for the requested fit."""


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step run description: the grid t0, t0+h, ..., tf."""

    t0: float = 0.0
    tf: float = 10.0
    h: float = 1e-3

    def __post_init__(self):
        if not self.tf > self.t0:
            raise ValueError("tf must be greater than t0")
        if not self.h > 0.0:
            raise ValueError("step h must be > 0")
        if (self.tf - self.t0) / self.h < 10:
            raise ValueError("run must span at least 10 steps")
        if (self.tf - self.t0) / self.h > MAX_STEPS:
            raise ValueError(f"run must span at most {MAX_STEPS} steps")

    @property
    def num_steps(self) -> int:
        return int(round((self.tf - self.t0) / self.h))

    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.num_steps + 1)

    def stage_times(self) -> np.ndarray:
        """Integer and half-step sample times, t0, t0+h/2, t0+h, ..., tf."""
        return self.t0 + 0.5 * self.h * np.arange(2 * self.num_steps + 1)


class Trajectory:
    """Time-indexed record of named scalar columns (t first)."""

    def __init__(self, columns: dict):
        if "t" not in columns:
            raise ValueError("trajectory needs a 't' column")
        self.columns = {}
        length = None
        for name, values in columns.items():
            arr = np.asarray(values, dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} is not one-dimensional")
            if length is None:
                length = arr.shape[0]
            elif arr.shape[0] != length:
                raise ValueError(f"column {name!r} has length {arr.shape[0]}, expected {length}")
            self.columns[name] = arr
        t = self.columns["t"]
        if len(t) >= 2 and not np.all(np.diff(t) > 0):
            raise ValueError("time column must be strictly increasing")

    @property
    def t(self) -> np.ndarray:
        return self.columns["t"]

    def __len__(self) -> int:
        return len(self.t)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def check_finite(self) -> None:
        for name, arr in self.columns.items():
            if not np.all(np.isfinite(arr)):
                bad = int(np.flatnonzero(~np.isfinite(arr))[0])
                raise NonFiniteStateError(float(self.t[bad]))

    def window_mask(self) -> np.ndarray:
        """Boolean mask selecting the final ``STEADY_STATE_FRACTION`` of the run."""
        t = self.t
        return t >= t[0] + (1.0 - STEADY_STATE_FRACTION) * (t[-1] - t[0])

    def to_csv(self, path) -> None:
        """Write all columns, 17 significant digits, LF line endings."""
        write_csvs([(self.columns, path)])

    @classmethod
    def from_csv(cls, path) -> "Trajectory":
        with open(path, "r", newline="") as fh:
            header = fh.readline().strip()
            names = header.split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
        data = np.array([[float(v) for v in row] for row in rows])
        if data.size == 0 or data.shape[1] != len(names):
            raise ValueError(f"malformed trajectory CSV {path}")
        return cls({name: data[:, i] for i, name in enumerate(names)})


def write_csvs(pairs) -> None:
    """Write each ``(columns, path)`` pair as :meth:`Trajectory.to_csv` does;
    ``columns`` maps names to equal-length float arrays, as that attribute.

    The files are written together, block of rows by block of rows. In each
    block every distinct column (by its bytes) is formatted once, so the
    columns that runs integrated together share, such as the time, the
    parameter path and a minimizer equal to it, cost one formatting pass.
    Files may differ in length.
    """
    with contextlib.ExitStack() as stack:
        files = []
        for columns, path in pairs:
            fh = stack.enter_context(open(path, "w", newline="\n"))
            fh.write(",".join(columns) + "\n")
            files.append((fh, list(columns.values())))
        for start in range(0, max((len(columns[0]) for _, columns in files), default=0),
                           _RECORD_BLOCK_ROWS):
            stop = start + _RECORD_BLOCK_ROWS
            cells = {}
            for fh, columns in files:
                if start >= len(columns[0]):
                    continue
                keys = []
                for col in columns:
                    part = col[start:stop]
                    key = part.tobytes()
                    if key not in cells:
                        values = part.tolist()
                        text = "\n".join(["%.17g"] * len(values)) % tuple(values)
                        cells[key] = text.split("\n")
                    keys.append(key)
                fh.write("\n".join(map(",".join, zip(*[cells[key] for key in keys]))) + "\n")


def steady_state_sup(traj: Trajectory, column: str) -> float:
    """Sup of |column| over the steady-state window, the final
    ``STEADY_STATE_FRACTION`` of the run."""
    return float(np.max(np.abs(traj.column(column))[traj.window_mask()]))


def steady_state_mean(traj: Trajectory, column: str) -> float:
    """Mean of column over the steady-state window."""
    return float(np.mean(traj.column(column)[traj.window_mask()]))


def column_name(prefix: str, order: int = 1, channel: int | None = None) -> str:
    """Recorded column name: order i >= 2 appends i, a channel _c (thetahat2_0)."""
    name = prefix if order == 1 else f"{prefix}{order}"
    return name if channel is None else f"{name}_{channel}"


def _add_channels(cols: dict, prefix: str, values: np.ndarray, order: int = 1) -> None:
    for c in range(values.shape[1]):
        cols[column_name(prefix, order, c)] = values[:, c]


def slope_fit(points) -> float:
    """Least-squares slope of log(error) versus log(sigma).

    ``points`` is a sequence of (sigma, error) pairs; fewer than three, or
    a value that is not positive, raise :class:`InsufficientDataError`.
    """
    pts = list(points)
    if len(pts) < 3:
        raise InsufficientDataError(f"need at least 3 points, got {len(pts)}")
    sig = np.array([p[0] for p in pts], dtype=np.float64)
    err = np.array([p[1] for p in pts], dtype=np.float64)
    if np.any(sig <= 0.0) or np.any(err <= 0.0):
        raise InsufficientDataError("slope fit needs positive sigma and error values")
    x = np.log(sig)
    y = np.log(err)
    x = x - x.mean()
    return float(np.dot(x, y) / np.dot(x, x))


def _scan_linear(T: np.ndarray, V: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """States of x[j+1] = T x[j] + V[j]; returns (N+1, n, m).

    :func:`_drive_lti` calls it on the chunk start states, with T the step
    map to the power of the chunk length and one step per chunk. Overflow
    is tolerated here (unstable gain/step combinations); callers surface it
    through the trajectory finiteness check.
    """
    N = V.shape[0]
    X = np.empty((N + 1,) + x0.shape)
    X[0] = x0
    x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(N):
            x = T @ x + V[j]
            X[j + 1] = x
    return X


def _drive_lti(realization, maps, W: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Outputs (N+1, q, m) of a discretized realization driven by m channels.

    ``maps`` is the RK4 tuple (Phi, M0, M1, M2) of
    :func:`estimator.rk4_step_maps`, ``W`` the inputs sampled on
    :meth:`SimConfig.stage_times`, shape (2N+1, m), and ``x0`` the (n, m)
    initial state. Outputs are at the integer sample times.

    The recurrence x[j+1] = T x[j] + taps u[j], with T = Phi, is evaluated in
    chunks of L = ``_CHUNK`` steps. ``taps`` holds the S = 3 input columns of
    one step, the first columns of M0, M1 and M2, with u[j] = W[2j], W[2j+1],
    W[2j+2]. The samples are laid out as ``Wf``, shape (L*S, chunks*m): row
    l*S + s holds tap s of step l of a chunk, column c*m + i chunk c of
    channel i, and the last chunk is padded with zeros. Three kernels, built
    once per call from powers of T, then map whole chunks with matrix
    products:

    * ``G``, block (i, l) = C T^(i-l) taps for l <= i, zero above: the
      output after step i of a chunk that starts from zero;
    * ``E``, block l = T^(L-1-l) taps: the state at the end of such a chunk;
    * ``H``, block i = C T^(i+1): the response after step i to the chunk's
      start state.

    The start states follow their own linear recurrence,
    s[c+1] = T^L s[c] + (E @ Wf)[c], one step per chunk through
    :func:`_scan_linear`, and the outputs are G @ Wf + H @ starts + D w.
    ``L`` is one constant, not a per-size tuning: with the outputs fused
    into these products, 64 was the fastest of 16, 32, 64 and 128, or within
    20% of it, at every shipped state size (1, 4, 9 and 16), and a fixed
    chunk keeps each run's rounding independent of any tuning.
    """
    C, D = realization.C, realization.D
    T, M0, M1, M2 = maps
    taps = np.column_stack([M0[:, 0], M1[:, 0], M2[:, 0]])
    L, n, q, S = _CHUNK, T.shape[0], C.shape[0], taps.shape[1]
    N, m = (len(W) - 1) // 2, W.shape[1]
    chunks = -(-N // L)

    # Tap s of step l of chunk c is Wp[2 (c L + l) + s].
    Wp = np.zeros((2 * chunks * L + 1, m))
    Wp[:len(W)] = W
    row, col = Wp.strides
    Wf = np.lib.stride_tricks.as_strided(
        Wp, (L, S, chunks, m), (2 * row, row, 2 * L * row, col),
        writeable=False).reshape(L * S, chunks * m)

    with np.errstate(over="ignore", invalid="ignore"):
        # Powers T^0 .. T^L and columns T^d taps, by doubling. The columns
        # are propagated themselves, not taken as P[d] @ taps: that rounds
        # closer to the per-step recurrence (checked in tests/test_sim.py
        # against an extended-precision reference).
        P = np.empty((L + 1, n, n))
        PB = np.empty((L, n, S))
        P[0], P[1], PB[0] = np.eye(n), T, taps
        k = 1
        while k < L:
            P[k + 1:2 * k + 1] = P[1:k + 1] @ P[k]
            PB[k:2 * k] = P[k] @ PB[:k]
            k *= 2
        CPB = C @ PB                                        # C T^d taps, (L, q, S)
        i, l = np.tril_indices(L)
        G = np.zeros((L, q, L, S))
        G[i, :, l, :] = CPB[i - l]
        G = G.reshape(L * q, L * S)
        E = PB[::-1].transpose(1, 0, 2).reshape(n, L * S)
        H = (C @ P[1:]).reshape(L * q, n)

        V = (E @ Wf).reshape(n, chunks, m).transpose(1, 0, 2)
        starts = _scan_linear(P[L], V[:-1], x0)             # (chunks, n, m)
        Y = G @ Wf + H @ starts.transpose(1, 0, 2).reshape(n, chunks * m)
        out = np.empty((N + 1, q, m))
        out[0] = C @ x0
        out[1:] = Y.reshape(L, q, chunks, m).transpose(2, 0, 1, 3).reshape(chunks * L, q, m)[:N]
        out += D[:, 0][None, :, None] * W[::2, None, :]
        return out


def simulate_realization(realization, input_values: np.ndarray, cfg: SimConfig,
                         x0: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Drive one LTI realization with a sampled input; returns (times, outputs).

    ``input_values`` holds the scalar input sampled on
    :meth:`SimConfig.stage_times`. Outputs are (N+1, q) at the integer
    sample times.
    """
    n = realization.state_dim
    N = cfg.num_steps
    if x0 is None:
        x0 = np.zeros(n)
    x0 = np.asarray(x0, dtype=np.float64).reshape(n, 1)
    u = np.asarray(input_values, dtype=np.float64)
    if u.shape[0] != 2 * N + 1:
        raise ValueError("input must be sampled on the stage grid")
    maps = est_mod.rk4_step_maps(realization.A, realization.B, cfg.h)
    return cfg.times(), _drive_lti(realization, maps, u[:, None], x0)[:, :, 0]


def run_derivative_experiments(signal: sig_mod.AnalyticSignal, noise: sig_mod.NoiseSpec,
                               est_cfgs, cfg: SimConfig) -> Iterator[Trajectory]:
    """Feed the same (possibly noisy) signal samples to one estimator per
    config in ``est_cfgs``; yields one trajectory per config, in order.

    Every config is validated before anything runs, and each run sees the
    samples it would draw alone. Runs are built and driven as they are
    consumed; one that turns non-finite raises :class:`NonFiniteStateError`
    when reached. Each trajectory records the clean signal, the true
    derivatives, all k estimates and the per-order estimation error norms.
    """
    est_cfgs = list(est_cfgs)
    if not est_cfgs:
        raise ValueError("no estimator configs to run")
    for est_cfg in est_cfgs:
        if signal.dim != est_cfg.signal_dim:
            raise ValueError(f"signal dim {signal.dim} does not match estimator "
                             f"signal_dim {est_cfg.signal_dim}")
    return _derivative_runs(signal, noise, est_cfgs, cfg)


def _derivative_runs(signal, noise, est_cfgs, cfg) -> Iterator[Trajectory]:
    t_rec = cfg.times()
    # Overflow is reported by the finiteness check; the error state is left before each yield.
    with np.errstate(over="ignore", invalid="ignore"):
        clean = signal.eval_many(cfg.stage_times(), 0)
        W = sig_mod.sample_noisy_grid(clean, noise)
        # true[order]: the exact order-th derivative at the recorded times.
        true = [clean[::2]] + [signal.eval_many(t_rec, order)
                               for order in range(1, max(c.order for c in est_cfgs) + 1)]
    for est_cfg in est_cfgs:
        estimator = est_mod.build_estimator(est_cfg, cfg.h)
        Y = _drive_lti(estimator.continuous, estimator.rk4_maps, W, estimator.state)
        cols = {"t": t_rec}
        _add_channels(cols, "theta", true[0])
        with np.errstate(over="ignore", invalid="ignore"):
            for order in range(1, est_cfg.order + 1):
                hat = Y[:, order - 1, :]
                _add_channels(cols, "thetadot", true[order], order)
                _add_channels(cols, "thetahat", hat, order)
                cols[column_name("est_error", order)] = np.linalg.norm(hat - true[order], axis=1)
        traj = Trajectory(cols)
        traj.check_finite()
        yield traj


def run_derivative_experiment(signal: sig_mod.AnalyticSignal, noise: sig_mod.NoiseSpec,
                              est_cfg: est_mod.DirtyDerivativeConfig, cfg: SimConfig) -> Trajectory:
    """One run of :func:`run_derivative_experiments`: (possibly noisy) signal
    samples fed to the estimator configured by ``est_cfg``."""
    return next(run_derivative_experiments(signal, noise, [est_cfg], cfg))


def run_interconnections(cost: flows_mod.CostModel, signal: sig_mod.AnalyticSignal, runs,
                         cfg: SimConfig, noise: sig_mod.NoiseSpec = sig_mod.NoiseSpec(),
                         x0: np.ndarray | None = None) -> list[Trajectory]:
    """Newton flows tracking the moving minimizer, one per ``(mode, est_cfg)``
    pair in ``runs`` (``est_cfg`` is used by estimated runs only), integrated
    together; returns one trajectory per run, in order.

    The runs share the parameter path, the initial state and the (noisy when
    configured) parameter samples. They differ only in the velocity the
    correction is fed: zero (none), the exact velocity at the stage times
    (ideal), or the run's estimate (estimated). The estimator is open loop,
    so each estimate is computed for the whole grid first, and a flow step
    holds the estimate at its start constant over the optimizer's RK4 step.
    The stacked state (runs, n) advances in one RK4 loop that stores only
    the state; the other columns are computed from the stored states after
    the loop. Each run comes out bit-identical to the same run alone.

    The recorded ``redesign_lhs`` column is the Lyapunov redesign certificate
    for the correction in use, evaluated at the estimate in estimated runs
    and at the exact velocity otherwise; for the uncorrected flow it is the
    raw drift term <grad_theta V, theta_dot>, which no condition constrains.
    """
    if signal.dim != cost.p:
        raise ValueError(f"signal dim {signal.dim} does not match cost parameter dim {cost.p}")
    runs = list(runs)
    if not runs:
        raise ValueError("no runs to integrate")
    Mode = flows_mod.CorrectionMode
    for mode, est_cfg in runs:
        if mode is Mode.ESTIMATED:
            if est_cfg is None:
                raise ValueError("estimated mode requires an estimator config")
            if est_cfg.signal_dim != signal.dim:
                raise ValueError("estimator signal_dim does not match signal dim")

    n, p, B = cost.n, cost.p, len(runs)
    N = cfg.num_steps
    h = cfg.h
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64)
    if x0.shape != (n,):
        raise ValueError(f"x0 shape {x0.shape} does not match cost dimension {n}")
    x = np.tile(x0, (B, 1))

    ts_all = cfg.stage_times()
    with np.errstate(over="ignore", invalid="ignore"):   # see check_finite below
        theta_all = signal.eval_many(ts_all, 0)    # exact path at stage times
        theta_dot_all = signal.eval_many(ts_all, 1)
    if any(mode is Mode.ESTIMATED for mode, _ in runs):   # only estimates read it
        meas_all = sig_mod.sample_noisy_grid(theta_all, noise)

    # Velocity fed to the correction at the grid points (RK4 stage 1), at
    # the midpoint stages 2-3 and at stage 4 of each step: zero, the exact
    # velocity, or the estimate held over the step.
    v0 = np.zeros((N + 1, B, p))
    vm, v1 = np.zeros((2, N, B, p))
    for b, (mode, est_cfg) in enumerate(runs):
        if mode is Mode.ESTIMATED:
            estimator = est_mod.build_estimator(est_cfg, h)
            v0[:, b] = _drive_lti(estimator.continuous, estimator.rk4_maps, meas_all,
                                  estimator.state)[:, 0, :]
            vm[:, b] = v1[:, b] = v0[:-1, b]
        elif mode is Mode.IDEAL:
            v0[:, b] = theta_dot_all[0::2]
            vm[:, b] = theta_dot_all[1::2]
            v1[:, b] = theta_dot_all[2::2]

    X = np.empty((N + 1, B, n))
    X[0] = x

    def check_finite(start, stop):
        # The states after steps start .. stop-1. A non-finite state
        # component stays non-finite (x + dx is inf or nan whenever x is), so
        # the first non-finite row is the step at which the run failed.
        finite = np.isfinite(X[start + 1:stop + 1]).all(axis=(1, 2))
        if not finite.all():
            j = start + int(np.argmin(finite))
            raise NonFiniteStateError(cfg.t0 + j * h + h)

    rhs = flows_mod.corrected_newton_rhs
    # Overflow from unstable gain/step combinations is surfaced as
    # NonFiniteStateError, not as numpy warnings mid-loop.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, N, _RECORD_BLOCK_ROWS):
            stop = min(start + _RECORD_BLOCK_ROWS, N)
            try:
                for j in range(start, stop):
                    th_m = theta_all[2 * j + 1]
                    k1 = rhs(cost, x, theta_all[2 * j], v0[j])
                    k2 = rhs(cost, x + 0.5 * h * k1, th_m, vm[j])
                    k3 = rhs(cost, x + 0.5 * h * k2, th_m, vm[j])
                    k4 = rhs(cost, x + h * k3, theta_all[2 * j + 2], v1[j])
                    x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    X[j + 1] = x
            except Exception:
                # A cost may reject a non-finite state (numerics.solve_linear
                # does); report the step that produced it instead.
                check_finite(start, j)
                raise
            check_finite(start, stop)

        # The grid points are every other stage.
        theta = theta_all[::2]
        theta_dot = theta_dot_all[::2]
        xstar = cost.minimizer(theta)
        uncorrected = [mode is Mode.NONE for mode, _ in runs]
        estimated = np.array([mode is Mode.ESTIMATED for mode, _ in runs])
        loss, tracking, lhs = np.empty((3, len(X), B))
        for start in range(0, len(X), _RECORD_BLOCK_ROWS):
            rows = slice(start, start + _RECORD_BLOCK_ROWS)
            x_r, theta_r, v_r = X[rows], theta[rows, None, :], v0[rows]
            u = flows_mod.ideal_correction(cost, x_r, theta_r, v_r)
            u[:, uncorrected] = 0.0
            # The certificate is evaluated at the estimate in estimated runs
            # and at the exact velocity otherwise, the uncorrected flow's too.
            v_cert = np.where(estimated[:, None], v_r, theta_dot[rows, None, :])
            _, gxV, gtV = flows_mod.lyapunov_gradients(cost, x_r, theta_r)
            lhs[rows] = flows_mod.check_redesign_condition(gxV, gtV, u, v_cert)[0]
            loss[rows] = cost.value(x_r, theta_r)
            tracking[rows] = np.linalg.norm(x_r - xstar[rows, None, :], axis=-1)
        est_error = np.linalg.norm(v0 - theta_dot[:, None, :], axis=-1)

    t_rec = cfg.times()
    trajectories = []
    for b, (mode, _) in enumerate(runs):
        estimated = mode is Mode.ESTIMATED
        cols = {"t": t_rec}
        _add_channels(cols, "theta", theta)
        _add_channels(cols, "thetadot", theta_dot)
        if estimated:
            _add_channels(cols, "thetahat", v0[:, b])
        _add_channels(cols, "x", X[:, b])
        _add_channels(cols, "xstar", xstar)
        cols["loss"] = loss[:, b]
        cols["tracking_error"] = tracking[:, b]
        if estimated:
            cols["est_error"] = est_error[:, b]
        cols["redesign_lhs"] = lhs[:, b]
        traj = Trajectory(cols)
        traj.check_finite()
        trajectories.append(traj)
    return trajectories


def run_interconnection(cost: flows_mod.CostModel, signal: sig_mod.AnalyticSignal,
                        mode: flows_mod.CorrectionMode, cfg: SimConfig,
                        est_cfg: est_mod.DirtyDerivativeConfig | None = None,
                        noise: sig_mod.NoiseSpec = sig_mod.NoiseSpec(),
                        x0: np.ndarray | None = None) -> Trajectory:
    """One run of :func:`run_interconnections`: the Newton flow tracking the
    moving minimizer with correction ``mode``, optionally closed over the
    derivative estimator configured by ``est_cfg``."""
    return run_interconnections(cost, signal, [(mode, est_cfg)], cfg, noise=noise, x0=x0)[0]
