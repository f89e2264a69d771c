"""Fixed-step simulation engine and experiment runners.

Two kinds of dynamics are stepped here:

* the optimizer flow, integrated by classical RK4;
* the linear estimator cascade, advanced by its precomputed RK4 step maps,
  which sample the continuous input at every RK4 stage (t, t+h/2, t+h).

Every estimator run goes through one batch path, :func:`_drive_lti`: the
sampled input grid is cut into chunks of 64 steps, each chunk's outputs
come from matrix products with kernels built from powers of the step map,
and the states at the chunk starts, themselves a linear recurrence, come
from a log-depth scan (:func:`_scan_linear`). The result equals stepping
the estimator sample by sample up to roundoff, with no Python loop over
the grid steps or the chunks. The caller lays the grid out in chunks
(:func:`_chunk_layout`), once per state size for all the runs it drives
over that grid: each chunk's samples, followed by free columns that every
run overwrites with its own chunk start states, and the largest sample of
the chunks a windowed run skips, taken once.

Each run evaluates its clean signal once, on the stage grid, records every
other stage, and measures it with noise added. A sweep reads only the
steady-state window of each run (:func:`steady_state_errors`): its gains
share the measurement, its layout and the true derivatives, and the
estimates, the true derivatives and the error norms are computed on the
window's rows only.

The estimator is open loop (its input, the measured parameter, does not
depend on the optimizer state), so the interconnection computes the whole
estimate first and the flow then only reads it: the estimate at each
grid point is held constant over the optimizer's RK4 step.

The interconnection runs that share a parameter path (none, ideal and
estimated at each gain) are integrated together by
:func:`run_interconnections`, the one place that turns a run's correction
mode into the velocities its flow steps are fed: one stage tuple (th0, thm,
th1, v0, vm, v1) of (N, runs, p) arrays laid out once, theta and each run's
velocity at each step's start, middle and end stage. The kind of slope the
cost's one flow hook (:meth:`flows.CostModel.newton_field_slope`) returns
picks the integrator. A float slope, the quadratic tracker's, marks a field
affine in the state: its RK4 steps are an elementwise affine recurrence,
evaluated over the whole run by a log-depth scan (:func:`_scan_affine`).
Every other flow goes through one window driver (:func:`_flow_states`), 256
RK4 steps at a time: an array slope, the logcosh tracker's, has each window
solved by Newton's method, each update one such scan; the runs of a cost
without a slope, and runs whose states turn non-finite or whose Newton
solve does not settle, are stepped from then on, which finds the step at
which a state failed. Either way the other columns are computed from the
states on blocks of rows, through the same ``flows`` functions, elementwise
for a cost that declares a diagonal Hessian
(:meth:`flows.CostModel.diagonal_hessian`). Each path also
measures, from the step derivatives it forms anyway, how much a span of a
run's RK4 steps amplifies a deviation. The runs come out as
:class:`record.Trajectory` records, which :mod:`record` writes as CSV.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import estimator as est_mod
from . import flows as flows_mod
from . import signals as sig_mod
from .record import NonFiniteStateError, Trajectory, column_name, steady_state_sup

# Step budget, summed over the runs integrated together: their grids grow
# with that sum, so a run (SimConfig) or an optimize batch (the CLI) past it
# is refused before anything is allocated. About 67 times the longest
# shipped run (30k steps).
MAX_STEPS = 2_000_000
# Steps per window of _flow_states, and rows per block when deriving the
# other columns, so that buffers and temporaries (such as stacked Hessians)
# do not grow with run length.
_RECORD_BLOCK_ROWS = 256
# Steps per chunk of the LTI kernel in _drive_lti.
_CHUNK = 64
# Newton iterations a window of _flow_states may take before its unconverged
# runs are stepped.
_NEWTON_ITERATIONS = 24
# Magnitude below which steady_state_errors vouches for the rows it does not
# compute: the outputs _drive_lti skips and the true derivatives. Values
# below it (with a rounding error of a few ulps) keep the squares in a norm of
# their differences over any practical number of channels finite.
_SAFE_MAGNITUDE = 2.0 ** 500


class InsufficientDataError(ValueError):
    """Not enough usable points for the requested fit."""


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step run description: the grid t0 + j h for j = 0, ..., N, with
    N = round((tf - t0) / h). It ends at t0 + N h, short of tf or past it when
    h does not divide the span: tf = 10, h = 0.3 ends at 9.9, and tf = 1.0006,
    h = 1e-3 at 1.001."""

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
        # h/2 past a few float spacings of the largest time keeps the stage
        # times apart whatever the rounding; nearer, they are compared.
        if not (0.5 * self.h > 4.0 * np.spacing(abs(self.t0) + self.h * self.num_steps)
                or np.all(np.diff(self.stage_times()) > 0.0)):
            raise ValueError("stage times t0 + j h/2 must strictly increase in float64; "
                             "h is below their spacing near t0 or tf")

    @property
    def num_steps(self) -> int:
        return int(round((self.tf - self.t0) / self.h))

    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.num_steps + 1)

    def stage_times(self) -> np.ndarray:
        """Integer and half-step sample times, t0, t0+h/2, t0+h, ..., t0+N h."""
        return self.t0 + 0.5 * self.h * np.arange(2 * self.num_steps + 1)


def _norm(a):
    """Euclidean norm over the trailing (component or channel) axis, the
    bits of ``np.linalg.norm(a, axis=-1)`` for up to 7 components."""
    return np.sqrt(flows_mod.component_sum(np.square(a)))


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
    map to the power of the chunk length and one step per chunk. The
    recurrence is a prefix sum over the terms S[0] = x0, S[j+1] = V[j],
    x[j] = sum_i T^(j-i) S[i], evaluated by Hillis-Steele doubling: the pass
    for k = 1, 2, 4, ... adds T^k S[j-k] to every S[j] with j >= k, from the
    sums of the previous pass, and squares the power. After ceil(log2(N+1))
    passes S[j] = x[j]. The terms are kept time-major, (N+1, m, n), so each
    pass is one matrix product.

    Overflow is tolerated here (unstable gain/step combinations); callers
    surface it through the trajectory finiteness check. A power that
    overflows would also turn terms the recurrence never amplifies, such as
    a zero state, into NaN (inf * 0), so when one does the states are
    stepped one at a time instead.
    """
    N, n, m = V.shape[0], T.shape[0], x0.shape[1]
    S = np.empty((N + 1, m, n))
    S[0] = x0.T
    S[1:] = V.transpose(0, 2, 1)
    rows = S.reshape((N + 1) * m, n)
    P, k = T, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while k <= N:
            if not np.isfinite(P).all():
                X = np.empty((N + 1, n, m))
                X[0] = x0
                for j in range(N):
                    X[j + 1] = T @ X[j] + V[j]
                return X
            rows[k * m:] += rows[:-k * m] @ P.T
            P = P @ P
            k *= 2
    return S.transpose(0, 2, 1)


class _ChunkLayout(NamedTuple):
    """A sampled grid cut into the chunks of :func:`_drive_lti`, for one
    state size; made by :func:`_chunk_layout`."""

    W: np.ndarray       # the samples, (2N+1, m)
    rows: np.ndarray    # (m, chunks, R + n): each chunk's samples, then n free columns
    first: int          # the first output row kept
    skip: int           # the chunks whose outputs are not computed
    peak: float         # the largest |sample| of those chunks, 0 if none


def _chunk_layout(W: np.ndarray, n: int, first: int = 0) -> _ChunkLayout:
    """``W``, the inputs of m channels sampled on
    :meth:`SimConfig.stage_times`, shape (2N+1, m), laid out for
    :func:`_drive_lti` on realizations of state size ``n`` that keep the
    output rows ``first`` .. N.

    Chunk c of L = ``_CHUNK`` steps reads the R = 2L+1 samples W[2cL] ..
    W[2cL+2L] (neighbouring chunks share one). They are copied once into
    ``rows``, shape (m, chunks, R + n): row (i, c) holds those samples of
    channel i, zero past the end of the run, and then n free columns, into
    which each run writes its chunk start states. Chunk c holds the output
    rows cL+1 .. cL+L; the ``skip`` chunks whose rows all precede ``first``
    are not multiplied out, save that two chunks are always kept (a one-row
    product goes to a matrix-vector kernel, which sums in another order) and
    that ``skip`` is rounded down to an even count. Some OpenBLAS kernels
    (Haswell's dgemm) sum a product's rows alike in groups down to pairs but
    a lone last row in another order; skipping an even count keeps the
    parity of the rows multiplied, so the last row is alone in the product
    exactly when it is alone in the whole run's (a product split between
    threads can still differ at the split). ``peak`` is the skipped
    chunks' largest |sample|, by which :func:`_drive_lti` vouches for their
    rows. One layout serves every realization of that state size driven by
    ``W``.
    """
    L, R = _CHUNK, 2 * _CHUNK + 1
    N, m = (len(W) - 1) // 2, W.shape[1]
    chunks = -(-N // L)
    # The chunks that end inside the run are strided views of W; a last one
    # that ends past it is padded with zeros.
    full = N // L
    row, col = W.strides
    rows = np.empty((m, chunks, R + n))
    rows[:, :full, :R] = np.lib.stride_tricks.as_strided(W, (m, full, R),
                                                         (col, 2 * L * row, row), writeable=False)
    if full < chunks:
        rows[:, full, :R] = 0.0
        rows[:, full, :len(W) - 2 * full * L] = W[2 * full * L:].T
    skip = min(max(first - 1, 0) // L, max(chunks - 2, 0)) // 2 * 2
    peak = np.abs(W[:2 * skip * L + 1]).max() if skip else 0.0
    return _ChunkLayout(W, rows, first, skip, peak)


def _drive_lti(realization, maps, layout: _ChunkLayout, x0: np.ndarray) -> np.ndarray | None:
    """Outputs (N+1, q, m) of a discretized realization driven by m channels.

    ``maps`` is the RK4 tuple (Phi, M0, M1, M2) of
    :func:`estimator.rk4_step_maps`, ``layout`` the input grid laid out by
    the caller (:func:`_chunk_layout`) for the realization's state size n,
    and ``x0`` the (n, m) initial state. Outputs are at the integer sample
    times; the result is a transposed view of an (m, N+1, q) array.

    The recurrence x[j+1] = T x[j] + b0 W[2j] + b1 W[2j+1] + b2 W[2j+2], with
    T = Phi and b0, b1, b2 the first columns of M0, M1, M2, is evaluated in
    the layout's chunks of L = ``_CHUNK`` steps. Three kernels, built once
    per call from powers of T, map whole chunks with matrix products:

    * ``G``, (R, L, q): G[r, i] is the weight of sample r in the output after
      step i of a chunk that starts from zero, the sum of C T^(i-l) b_s over
      the steps l <= i and taps s with 2l + s = r, plus D on the output's own
      sample r = 2i + 2. Save for sample 0, which ends no step, it depends
      only on the lag 2(i+1) - r, so it is gathered from one kernel of lags;
    * ``E``, (R, n): the weights of the state at the end of such a chunk, the
      same sums of T^(L-1-l) b_s;
    * ``H``, (n, L, q): H[:, i] = (C T^(i+1))^T, the response after step i to
      the chunk's start state.

    Summing the two taps that share a sample in the kernel, rather than in
    each step, makes the product a third smaller than one column per tap
    and rounds closer to an extended-precision reference (checked in
    tests/test_sim.py). The start states follow their own linear
    recurrence, s[c+1] = T^L s[c] + (samples of chunk c) @ E, which
    :func:`_scan_linear` evaluates in log-depth. They overwrite the
    layout's free columns, and the outputs are ``rows`` @ [G; H], one
    product per channel written straight into the output buffer. ``L`` is
    one constant, not a per-size tuning: with the outputs fused into these
    products, 64 was the fastest of 16, 32, 64 and 128, or within 20% of
    it, at every shipped state size (1, 4, 9 and 16), and a fixed chunk
    keeps each run's rounding independent of any tuning.

    With the layout's ``first`` > 0 only the rows ``first`` .. N are
    returned, equal bit for bit to those rows of the whole result, and the
    product skips the layout's ``skip`` chunks; the scan still covers every
    chunk. The skipped rows are vouched for instead: None is
    returned unless each is finite and below ``_SAFE_MAGNITUDE``, as shown
    by a bound from the skipped chunks' largest sample (the layout's
    ``peak``) and start state and the kernels' column sums, and by row 0
    and the rows of the first kept chunk before ``first``.
    """
    C, D = realization.C, realization.D
    T, M0, M1, M2 = maps
    W, Wr, first, skip, peak = layout
    taps = np.column_stack([M0[:, 0], M1[:, 0], M2[:, 0]])
    L, n, q, S = _CHUNK, T.shape[0], C.shape[0], taps.shape[1]
    N, m, chunks = (len(W) - 1) // 2, W.shape[1], Wr.shape[1]
    R = 2 * L + 1

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
        # The sample d half-steps before the end of step i of a chunk reaches
        # the state after that step with weight lag[d, :n] and the output
        # with lag[d, n:]: tap s of step i - (d - 2 + s)/2, summed over the
        # taps that share the sample. Row R holds the zero weight of later
        # samples.
        reach = np.concatenate([PB, CPB], axis=1)           # (L, n + q, S)
        lag = np.zeros((R + 1, n + q))
        lag[:R - 1:2] = reach[:, :, 2]
        lag[1:R:2] = reach[:, :, 1]
        lag[2:R:2] += reach[:, :, 0]
        lag[0, n:] += D[:, 0]
        E = lag[R - 1::-1, :n].copy()                      # a BLAS operand
        d = 2 * np.arange(1, L + 1) - np.arange(R)[:, None]    # (R, L)
        GH = np.empty((R + n, L * q))
        G = GH[:R].reshape(R, L, q)
        G[...] = np.take(lag[:, n:], np.where(d < 0, R, d), axis=0)
        G[0] = CPB[:, :, 0]                                 # sample 0 ends no step
        GH[R:] = (C @ P[1:]).transpose(2, 0, 1).reshape(n, L * q)

        V = Wr[:, :, :R] @ E                                # (m, chunks, n)
        starts = _scan_linear(P[L], V[:, :-1].transpose(1, 2, 0), x0)    # (chunks, n, m)
        Wr[:, :, R:] = starts.transpose(2, 0, 1)
        # out[:, 0] is row 0 whichever chunks are skipped.
        out = np.empty((m, (chunks - skip) * L + 1, q))
        out[:, 0] = (C @ x0 + D @ W[:1]).T
        np.matmul(Wr[:, skip:], GH, out=out[:, 1:].reshape(m, chunks - skip, L * q))
        if first:
            bound = (np.abs(out[:, :first - skip * L]).max()
                     + peak * np.abs(GH[:R]).sum(axis=0).max()
                     + np.abs(starts[:skip]).max(initial=0.0) * np.abs(GH[R:]).sum(axis=0).max())
            if not bound < _SAFE_MAGNITUDE:
                return None
        return out[:, first - skip * L:N + 1 - skip * L].transpose(1, 2, 0)


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
    return cfg.times(), _drive_lti(realization, maps, _chunk_layout(u[:, None], n), x0)[:, :, 0]


def _check_signal_dim(signal: sig_mod.AnalyticSignal, est_cfgs) -> None:
    for est_cfg in est_cfgs:
        if signal.dim != est_cfg.signal_dim:
            raise ValueError(f"signal dim {signal.dim} does not match estimator "
                             f"signal_dim {est_cfg.signal_dim}")


def run_derivative_experiment(signal: sig_mod.AnalyticSignal, noise: sig_mod.NoiseSpec,
                              est_cfg: est_mod.DirtyDerivativeConfig, cfg: SimConfig) -> Trajectory:
    """(Possibly noisy) signal samples fed to the estimator configured by
    ``est_cfg``. The trajectory records the clean signal, the true
    derivatives, all k estimates and the per-order estimation error norms; a
    run that turns non-finite raises :class:`NonFiniteStateError`."""
    _check_signal_dim(signal, [est_cfg])
    t_rec = cfg.times()
    # Overflow is reported by the finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        clean = signal.eval_many(cfg.stage_times(), 0)
        W = sig_mod.sample_noisy_grid(clean, noise)
        true = [signal.eval_many(t_rec, order) for order in range(1, est_cfg.order + 1)]
    estimator = est_mod.build_estimator(est_cfg, cfg.h)
    Y = _drive_lti(estimator.continuous, estimator.rk4_maps,
                   _chunk_layout(W, len(estimator.state)), estimator.state)
    cols = {"t": t_rec}
    _add_channels(cols, "theta", clean[::2])
    with np.errstate(over="ignore", invalid="ignore"):
        for order, exact in enumerate(true, start=1):
            hat = Y[:, order - 1, :]
            _add_channels(cols, "thetadot", exact, order)
            _add_channels(cols, "thetahat", hat, order)
            cols[column_name("est_error", order)] = _norm(hat - exact)
    traj = Trajectory(cols)
    traj.check_finite()
    return traj


def steady_state_errors(signal: sig_mod.AnalyticSignal, noise: sig_mod.NoiseSpec,
                        est_cfgs, cfg: SimConfig) -> list[np.ndarray]:
    """Steady-state sups of ``est_error`` .. ``est_error<k>`` for each config,
    one array per config in order, bit for bit those :func:`steady_state_sup`
    reads from its :func:`run_derivative_experiment`.

    The configs are validated before anything runs and share one sampling
    of the grid, laid out once per state size (:func:`_chunk_layout`). True
    derivatives, estimates and error norms are computed only on the
    window's rows (:meth:`Trajectory.window_mask`): ``_drive_lti`` skips the
    chunks before them and vouches for their outputs. The whole
    run fails if any value it records is not finite, so the window stands
    for it only when every sample is finite (so is the signal column), each
    order's ``sup_derivative_bound`` is below ``_SAFE_MAGNITUDE`` (so are the
    true derivatives, and with the vouched estimates the error norms before
    the window), and the window's errors are finite. A non-finite state
    stays non-finite at every later chunk start and reaches every output of
    those chunks through the product (0 * inf is NaN), so it shows there.
    Any other config is run whole when reached, and a failure raises that
    run's error at that run's time.
    """
    est_cfgs = list(est_cfgs)
    if not est_cfgs:
        raise ValueError("no estimator configs to run")
    _check_signal_dim(signal, est_cfgs)
    t_rec = cfg.times()
    first = int(np.argmax(Trajectory({"t": t_rec}).window_mask()))
    orders = range(1, max(c.order for c in est_cfgs) + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        W = sig_mod.sample_noisy_grid(signal.eval_many(cfg.stage_times(), 0), noise)
        true = [signal.eval_many(t_rec[first:], order) for order in orders]
    bounded = [signal.sup_derivative_bound(order) < _SAFE_MAGNITUDE for order in orders]
    finite = bool(np.isfinite(W).all())
    sups, layouts = [], {}    # one layout per state size
    for est_cfg in est_cfgs:
        k = est_cfg.order
        estimator = est_mod.build_estimator(est_cfg, cfg.h)
        Y = sup = None
        if finite and all(bounded[:k]):
            n = len(estimator.state)
            if n not in layouts:
                layouts[n] = _chunk_layout(W, n, first)
            Y = _drive_lti(estimator.continuous, estimator.rk4_maps, layouts[n], estimator.state)
        if Y is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                sup = np.array([_norm(Y[:, i, :] - true[i]).max() for i in range(k)])
        if sup is None or not np.isfinite(sup).all():
            traj = run_derivative_experiment(signal, noise, est_cfg, cfg)
            sup = np.array([steady_state_sup(traj, column_name("est_error", order))
                            for order in range(1, k + 1)])
        sups.append(sup)
    return sups


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
    The integrators read the stage tuple (module docstring), built here once,
    theta as views, and released before recording. The slope that
    :meth:`flows.CostModel.newton_field_slope` returns at the first state
    picks the integrator: for a float slope, an affine field, each run's RK4
    steps are evaluated as an elementwise affine recurrence
    (:func:`_affine_states`), and only runs that turn non-finite are stepped,
    to find the failing step; otherwise the runs go through
    :func:`_flow_states`, stepped throughout if there is no slope. The other
    columns are computed from the stored states afterwards, a block of rows
    at a time, the correction and the certificate's gradients by
    :func:`flows.redesign_terms`. Each run comes out bit-identical to the
    same run alone. A step h that spans half a period of the path's fastest
    sinusoid is warned of, and so is one whose RK4 steps amplify a deviation
    over some span of a run (:func:`_flow_states`), the whole run included:
    one gone wrong can settle on a stable spurious fixed point of the RK4 map.

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
            _check_signal_dim(signal, [est_cfg])

    n, p, B = cost.n, cost.p, len(runs)
    N, h = cfg.num_steps, cfg.h
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64)
    if x0.shape != (n,):
        raise ValueError(f"x0 shape {x0.shape} does not match cost dimension {n}")
    # The fastest sinusoid of the path; a cos2 component's canonical w is 2 omega.
    omega = max((abs(c.canonical()[2]) for c in signal.components
                 if isinstance(c, sig_mod.Sinusoid) and c.amplitude != 0.0), default=0.0)
    if omega * h >= np.pi:
        warnings.warn(f"omega_max * h = {omega * h:.3g} >= pi at h = {h:.3g}, omega_max = "
                      f"{omega:.3g}: the grid has fewer than two points per period of the "
                      "parameter path", stacklevel=2)

    ts_all = cfg.stage_times()
    # Overflow is reported as NonFiniteStateError, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        theta_all = signal.eval_many(ts_all, 0)    # exact path at stage times
        theta_dot_all = signal.eval_many(ts_all, 1)
        # The grid points are every other stage.
        theta, theta_dot = theta_all[::2], theta_dot_all[::2]
        slope = cost.newton_field_slope(x0, theta_all[0], np.zeros(p))[1]

    # The velocity each correction is fed at the grid points (recorded); a
    # step holds the estimate (or zero) at its start.
    v0 = np.zeros((N + 1, B, p))
    meas_all, layouts = None, {}    # one layout of the measurement per state size
    for b, (mode, est_cfg) in enumerate(runs):
        if mode is Mode.IDEAL:
            v0[:, b] = theta_dot
        elif mode is Mode.ESTIMATED:
            if meas_all is None:
                meas_all = sig_mod.sample_noisy_grid(theta_all, noise)
            estimator = est_mod.build_estimator(est_cfg, h)
            n = len(estimator.state)
            if n not in layouts:
                layouts[n] = _chunk_layout(meas_all, n)
            v0[:, b] = _drive_lti(estimator.continuous, estimator.rk4_maps, layouts[n],
                                  estimator.state)[:, 0, :]
    del meas_all, layouts    # not held while the flows run

    # The stage tuple; ideal runs are fed the exact velocity at each stage.
    ideal = np.array([mode is Mode.IDEAL for mode, _ in runs])[:, None]
    stages = (*np.broadcast_arrays(theta_all[0:-2:2, None], theta_all[1::2, None],
                                   theta_all[2::2, None], v0[:-1]),
              *(np.where(ideal, theta_dot_all[s::2, None], v0[:-1]) for s in (1, 2)))
    if isinstance(slope, float):
        X, amplification = _affine_states(cost, slope, stages, x0, h)
        # Non-finite values spread through the scan; stepping finds the step.
        bad = ~np.isfinite(X).all(axis=(0, 2))
        if bad.any():
            X[:, bad] = _flow_states(cost, [s[:, bad] for s in stages], x0, cfg, True)[0]
    else:
        X, amplification = _flow_states(cost, stages, x0, cfg, slope is None)
    del stages
    if amplification.max() > 1.0:
        warnings.warn(f"the flow's RK4 steps amplify a deviation by up to {amplification.max():.3g}"
                      f" > 1 at h = {h:.3g} in {np.sum(amplification > 1.0)} of {B} runs: the "
                      "discrete flow is unstable along its states", stacklevel=2)

    with np.errstate(over="ignore", invalid="ignore"):
        xstar = cost.minimizer(theta)
        estimated = np.array([mode is Mode.ESTIMATED for mode, _ in runs])
        loss, tracking, lhs = np.empty((3, len(X), B))
        for start in range(0, len(X), _RECORD_BLOCK_ROWS):
            rows = slice(start, start + _RECORD_BLOCK_ROWS)
            x_r, theta_r, v_r = X[rows], theta[rows, None, :], v0[rows]
            # An uncorrected run is fed zero velocity, so its u is zero.
            u, gxV, gtV = flows_mod.redesign_terms(cost, x_r, theta_r, v_r)
            # The certificate is evaluated at the estimate in estimated runs
            # and at the exact velocity otherwise, the uncorrected flow's too.
            v_cert = np.where(estimated[:, None], v_r, theta_dot[rows, None, :])
            lhs[rows] = flows_mod.check_redesign_condition(gxV, gtV, u, v_cert)
            loss[rows] = cost.value(x_r, theta_r)
            tracking[rows] = _norm(x_r - xstar[rows, None, :])
        est_error = _norm(v0 - theta_dot[:, None, :])

    t_rec = cfg.times()
    trajectories = []
    for b in range(B):
        cols = {"t": t_rec}
        _add_channels(cols, "theta", theta)
        _add_channels(cols, "thetadot", theta_dot)
        if estimated[b]:
            _add_channels(cols, "thetahat", v0[:, b])
        _add_channels(cols, "x", X[:, b])
        _add_channels(cols, "xstar", xstar)
        cols["loss"] = loss[:, b]
        cols["tracking_error"] = tracking[:, b]
        if estimated[b]:
            cols["est_error"] = est_error[:, b]
        cols["redesign_lhs"] = lhs[:, b]
        traj = Trajectory(cols)
        traj.check_finite()
        trajectories.append(traj)
    return trajectories


def _affine_states(cost, a, stages, x0, h):
    """States (N+1, runs, n) of the flows x' = a x + f(theta, v), by RK4, and
    each run's amplification (:func:`_flow_states`), for a cost whose field
    (:meth:`flows.CostModel.newton_field_slope`) has the float slope ``a``;
    f is that field at x = 0.

    Per component, one RK4 step is x + q x + V[j], with q = Phi - 1 and V the
    stage weights M0, M1, M2 of ``estimator.rk4_step_maps(a, 1, h)`` applied
    to f at the start, middle and end stage, one call per stage of the
    ``stages`` tuple for every run. All runs go through one :func:`_scan_affine`
    call, with the first step from x0 folded into V[0]; the scan is
    elementwise, so each run comes out the same whichever runs are with it.
    """
    _, M0, M1, M2 = (float(M[0, 0]) for M in
                     est_mod.rk4_step_maps(np.array([[a]]), np.eye(1), h))
    ha = h * a
    # q = Phi - 1 = ha + ha^2/2 + ha^3/6 + ha^4/24, summed without the 1.
    # Phi rounded to float64 is off by up to eps/2, which the slow decay
    # (about 1/|ha| steps) would amplify to eps/(2|ha|) in the state: 20 to
    # 65 times the stepped recurrence's own error at h = 1e-3.
    q = ha * (1.0 + ha / 2.0 * (1.0 + ha / 3.0 * (1.0 + ha / 4.0)))

    th0, thm, th1, v0, vm, v1 = stages
    X = np.empty((len(th0) + 1, th0.shape[1], len(x0)))
    X[0] = x0
    field, zero = cost.newton_field_slope, np.zeros_like(x0)
    with np.errstate(over="ignore", invalid="ignore"):
        X[1:] = (M0 * field(zero, th0, v0)[0] + M1 * field(zero, thm, vm)[0]
                 + M2 * field(zero, th1, v1)[0])
        X[1] += x0 + q * x0
        _scan_affine(np.full((len(X) - 1, 1, 1), q), X[1:])
        # Every step has derivative 1 + q: a span that grows is longest as the whole run.
        return X, np.full(X.shape[1], np.maximum(abs(1.0 + q), 1.0) ** (len(X) - 1))


def _flow_states(cost, stages, x0, cfg, step_all):
    """States (N+1, runs, n) of the corrected Newton flows fed the
    ``stages`` tuple, a window of ``_RECORD_BLOCK_ROWS`` RK4 steps
    (:func:`_rk4_step`) at a time, each from the previous window's last
    state; and each run's amplification, the largest factor by which a span
    of its steps (the empty one included) amplifies a deviation.

    Unless ``step_all``, each window is solved by
    Newton's method on the whole window (parallel-in-time, as in DEER: Lim
    et al. 2024). An iteration evaluates the RK4 step x[j+1] = F_j(x[j]) on
    every guessed state at once, with its derivative F_j' = 1 + q_j from the
    same four stage evaluations (:func:`_rk4_step`); the update d of the
    guesses solves d[j+1] = F_j' d[j] + F_j(x[j]) - x[j+1], d[0] = 0, an
    elementwise affine recurrence (:func:`_scan_affine`). Where the guesses
    already satisfy the recurrence the update is exactly zero, so the fixed
    point is the stepped one. A run stops iterating when its own update is
    at most 4 eps max(1, max|x|); runs are decided one by one, so each comes
    out the same whichever runs are solved with it. A run also stops once its
    update has stalled at rounding level: at most 2^-36 max(1, max|x|) and
    no longer halving, as on a ramp path, where updates summed over about
    1/h steps of slow decay hover above the tolerance. A run keeps the q of
    its last iteration.

    A run that turns non-finite or is still moving after
    ``_NEWTON_ITERATIONS``, and every run if ``step_all``, is stepped by
    :func:`_step_window` from then on, which raises
    :class:`NonFiniteStateError` at the step that failed and gives its q.
    """
    (N, B, _), n, h = stages[0].shape, len(x0), cfg.h
    X = np.empty((N + 1, B, n))
    X[0] = x0
    ending, most = np.zeros((2, B, n))
    tol, stalled = 4.0 * np.finfo(np.float64).eps, 2.0 ** -36
    with np.errstate(over="ignore", invalid="ignore"):
        stepped = np.full(B, step_all)
        for start in range(0, N, _RECORD_BLOCK_ROWS):
            stop = min(start + _RECORD_BLOCK_ROWS, N)
            rows = [s[start:stop] for s in stages]
            window = X[start:stop + 1]
            window[1:] = window[0]
            offsets = np.empty((stop - start, B, n))   # each run's q
            live = np.flatnonzero(~stepped)
            last = np.full(B, np.inf)    # each run's previous update
            for _ in range(_NEWTON_ITERATIONS):
                if not live.size:
                    break
                runs = slice(None) if live.size == B else live    # views while all are live
                y = window[:, runs]
                x1, q = _rk4_step(cost, y[:-1], [s[:, runs] for s in rows], h)
                offsets[:, runs] = q    # before the scan overwrites it
                update = _scan_affine(q, x1 - y[1:])
                y[1:] += update
                window[1:, runs] = y[1:]
                # Per run maxima; a NaN propagates through them.
                size = np.maximum(1.0, np.abs(y).max(axis=0).max(axis=1))
                bad = ~np.isfinite(size)
                step = np.abs(update).max(axis=0).max(axis=1)
                moving = ~((step <= tol * size)
                           | ((step <= stalled * size) & (step >= 0.5 * last[live])))
                last[live] = step
                stepped[live[bad]] = True
                live = live[moving & ~bad]
            stepped[live] = True
            if stepped.any():
                runs = np.flatnonzero(stepped)
                y = window[:, runs]
                offsets[:, runs] = _step_window(cost, y, [s[:, runs] for s in rows], h,
                                                cfg.t0 + np.arange(start, stop) * h + h)
                window[1:, runs] = y[1:]
            # Per run and component, the largest sum of log|1 + q| over a span of
            # steps, and over one ending at the window's last step (at least 0).
            gains = np.log(np.maximum(np.abs(1.0 + offsets), np.finfo(float).tiny))
            sums = np.cumsum(gains, axis=0)
            ends = sums - np.minimum.accumulate(np.concatenate([-ending[None], sums]))[1:]
            most, ending = np.maximum(most, ends.max(axis=0)), ends[-1]
        return X, np.exp(most.max(axis=1))


def _rk4_step(cost, x, stage, h):
    """One RK4 step of the corrected Newton flow from x, its stages evaluated
    by :meth:`flows.CostModel.newton_field_slope` fed theta and the velocity
    at the step's start, middle and end stage, one step's rows of the
    ``stages`` tuple. Returns the next state and q, the offset from 1 of the
    step's derivative in x (elementwise), from the chained stage slopes, or
    -1 for a cost without them, its Jacobian at the minimizer: then
    q = R(-h) - 1, R the RK4 map."""
    field, (th0, thm, th1, v0, vm, v1) = cost.newton_field_slope, stage
    k1, s1 = field(x, th0, v0)
    k2, s2 = field(x + 0.5 * h * k1, thm, vm)
    k3, s3 = field(x + 0.5 * h * k2, thm, vm)
    k4, s4 = field(x + h * k3, th1, v1)
    if s1 is None:
        s1 = s2 = s3 = s4 = -1.0
    d2 = s2 * (1.0 + 0.5 * h * s1)
    d3 = s3 * (1.0 + 0.5 * h * d2)
    d4 = s4 * (1.0 + h * d3)
    return (x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
            (h / 6.0) * (s1 + 2.0 * d2 + 2.0 * d3 + d4))


def _step_window(cost, y, stages, h, times):
    """Fills y[1:] (steps, runs, n) by successive :func:`_rk4_step` calls
    from y[0], fed the ``stages`` tuple cut to its steps and runs; returns
    their q. ``times`` holds the time after each step; the first step whose
    state is not finite raises :class:`NonFiniteStateError` with it, also
    when the cost raised on such a state (as ``numerics.solve_linear``
    does)."""
    q = np.empty_like(y[1:])
    done = 0
    try:
        for stage in zip(*stages):
            y[done + 1], q[done] = _rk4_step(cost, y[done], stage, h)
            done += 1
    finally:
        # A non-finite state component stays non-finite (x + dx is inf or
        # nan whenever x is), so the first non-finite row is the failing step.
        finite = np.isfinite(y[1:done + 1]).all(axis=(1, 2))
        if not finite.all():
            raise NonFiniteStateError(float(times[np.argmin(finite)]))
    return q


def _scan_affine(q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d[1:] of the elementwise recurrence d[j+1] = d[j] + q[j] d[j] + b[j]
    from d[0] = 0, over the leading axis, by Hillis-Steele doubling as in
    :func:`_scan_linear`. A step map is carried as its offset q from 1 (two
    compose to q + q' + q q'), so 1 + q is never rounded. ``q`` broadcasts
    against ``b``; both are overwritten, and ``b`` is returned."""
    k = 1
    while k < len(b):
        b[k:] += b[:-k] + q[k:] * b[:-k]
        if 2 * k < len(b):
            q[k:] += q[:-k] + q[k:] * q[:-k]
        k *= 2
    return b


def run_interconnection(cost: flows_mod.CostModel, signal: sig_mod.AnalyticSignal,
                        mode: flows_mod.CorrectionMode, cfg: SimConfig,
                        est_cfg: est_mod.DirtyDerivativeConfig | None = None,
                        noise: sig_mod.NoiseSpec = sig_mod.NoiseSpec(),
                        x0: np.ndarray | None = None) -> Trajectory:
    """One run of :func:`run_interconnections`: the Newton flow tracking the
    moving minimizer with correction ``mode``, optionally closed over the
    derivative estimator configured by ``est_cfg``."""
    return run_interconnections(cost, signal, [(mode, est_cfg)], cfg, noise=noise, x0=x0)[0]
