"""Cascaded dirty-derivative estimator.

The classic dirty derivative sigma*s/(s+sigma) approximates differentiation
with a causal first-order filter. The order-k generalization built here
estimates derivatives 1..k of a measured signal through a recursive cascade:

    What_k = branch_k(W)
    What_i = branch_i(W) + f_block_i(What_{i+1})     for i = k-1 .. 1

where branch_i realizes sigma^i s^i / (s+sigma)^i and f_block_i realizes
((s+sigma)^i - sigma^i) / (s (s+sigma)^i). All blocks have every pole at
-sigma, so the gain sigma sets both the tracking bandwidth and the size of
the steady-state estimation error.

The cascade is advanced by one discrete-time map for a fixed step h: the
linear one-step map of classical Runge-Kutta, sampling the input at t, t+h/2
and t+h. The measured signal is a smooth continuous-time trajectory, and
holding it constant over a step instead injects an O(sigma*omega*h)
artifact that can dwarf the estimator's own error at large sigma. The exact
zero-order-hold pair of :func:`zoh_discretize` stays as the reference that
map is checked against.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import numerics

# Largest estimator order k. The cascade has k^2 states, and the LTI kernel
# holds 65 powers of its step map, 65 k^4 float64: 165 MiB at k = 24, and
# 6.28 GiB at k = 60. An order past it is refused before any cascade is built.
MAX_ORDER = 24


@dataclass(frozen=True)
class LtiRealization:
    """State-space quadruple (A, B, C, D)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=np.float64))
        B = np.atleast_2d(np.asarray(self.B, dtype=np.float64))
        C = np.atleast_2d(np.asarray(self.C, dtype=np.float64))
        D = np.atleast_2d(np.asarray(self.D, dtype=np.float64))
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise ValueError(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise ValueError(f"C has {C.shape[1]} columns, expected {n}")
        if D.shape != (C.shape[0], B.shape[1]):
            raise ValueError(f"D shape {D.shape} inconsistent with C/B")
        for name, m in (("A", A), ("B", B), ("C", C), ("D", D)):
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class DirtyDerivativeConfig:
    """Estimator order 1 <= k <= MAX_ORDER, gain sigma > 0, signal dimension
    m >= 1; the cascade's entries, which grow as sigma**k, must stay in the
    float range."""

    order: int
    gain: float
    signal_dim: int = 1

    def __post_init__(self):
        if not self.gain > 0.0:
            raise ValueError("gain must be > 0")
        if self.signal_dim < 1:
            raise ValueError("signal_dim must be >= 1")
        _rescaled_cascade(self.order, self.gain)


def _power(sigma: float, i: int) -> float:
    """sigma**i, or inf past the float range, where Python's ** raises
    OverflowError."""
    try:
        return sigma ** i
    except OverflowError:
        return math.inf


def _companion(last_row: np.ndarray) -> np.ndarray:
    n = len(last_row)
    A = np.zeros((n, n))
    A[:-1, 1:] = np.eye(n - 1)
    A[-1, :] = last_row
    return A


def build_f_block(n: int, sigma: float) -> LtiRealization:
    """Companion-form realization of ((s+sigma)^n - sigma^n) / (s (s+sigma)^n).

    Last row of A holds -C(n,j) sigma^(n-j) for columns j = 0..n-1, with ones
    on the superdiagonal; B = e1, C = e1^T, D = 0.
    """
    if n < 1:
        raise ValueError("block order must be >= 1")
    if not sigma > 0.0:
        raise ValueError("gain must be > 0")
    last = np.array([-math.comb(n, j) * _power(sigma, n - j) for j in range(n)])
    B = np.zeros((n, 1))
    B[0, 0] = 1.0
    C = np.zeros((1, n))
    C[0, 0] = 1.0
    return LtiRealization(_companion(last), B, C, np.zeros((1, 1)))


def build_branch_block(i: int, sigma: float) -> LtiRealization:
    """Minimal realization of the biproper branch sigma^i s^i / (s+sigma)^i.

    Polynomial division gives D = sigma^i plus the strictly proper remainder
    -sigma^i ((s+sigma)^i - s^i) / (s+sigma)^i, realized in controllable
    canonical form (superdiagonal ones, B = e_i).
    """
    if i < 1:
        raise ValueError("block order must be >= 1")
    if not sigma > 0.0:
        raise ValueError("gain must be > 0")
    den = np.array([math.comb(i, j) * _power(sigma, i - j) for j in range(i)])
    A = _companion(-den)
    B = np.zeros((i, 1))
    B[-1, 0] = 1.0
    C = (-_power(sigma, i) * den).reshape(1, i)
    D = np.array([[_power(sigma, i)]])
    return LtiRealization(A, B, C, D)


def compose_cascade(order: int, sigma: float) -> LtiRealization:
    """Single-input, order-k-output realization of the whole cascade.

    State layout: branch blocks 1..k, then f-blocks 1..k-1 (state dimension
    k^2 in total). Output row i is the i-th derivative estimate.

    The blocks are assembled at unit gain and the result rescaled through
    H_i(s) = sigma^i * Hhat_i(s / sigma), which keeps every matrix entry
    within a few powers of sigma of unity; composing sigma-gain blocks
    directly produces sigma^(2i)-sized entries that poison downstream
    linear algebra. An order outside 1..MAX_ORDER, or a gain whose rescaled
    entries pass the float range, raises ValueError.
    """
    return LtiRealization(*_rescaled_cascade(order, sigma))


def _rescaled_cascade(order: int, sigma: float):
    """The (A, B, C, D) of :func:`compose_cascade`, or ValueError."""
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be between 1 and {MAX_ORDER}")
    unit = _unit_cascade(order)
    powers = np.array([[_power(sigma, i)] for i in range(1, order + 1)])
    with np.errstate(over="ignore", invalid="ignore"):   # reported just below
        A, B, C, D = unit.A * sigma, unit.B * sigma, unit.C * powers, unit.D * powers
    if not all(np.isfinite(m).all() for m in (A, B, C, D)):
        raise ValueError(f"gain {sigma:g} puts the order-{order} cascade's entries, which "
                         f"grow as sigma**{order}, past the float range")
    return A, B, C, D


@functools.lru_cache(maxsize=None)
def _unit_cascade(order: int) -> LtiRealization:
    """The cascade of :func:`compose_cascade` at gain 1; callers must not
    modify its arrays."""
    branches = [build_branch_block(i, 1.0) for i in range(1, order + 1)]
    fblocks = [build_f_block(i, 1.0) for i in range(1, order)]

    sizes = [b.state_dim for b in branches] + [f.state_dim for f in fblocks]
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(int)
    total = int(offsets[-1])

    def branch_slice(i):  # i is 1-based
        return slice(offsets[i - 1], offsets[i])

    def f_slice(i):
        return slice(offsets[order + i - 1], offsets[order + i])

    A = np.zeros((total, total))
    B = np.zeros((total, 1))
    C = np.zeros((order, total))
    D = np.zeros((order, 1))

    for i, blk in enumerate(branches, start=1):
        sl = branch_slice(i)
        A[sl, sl] = blk.A
        B[sl, :] = blk.B
        C[i - 1, sl] = blk.C[0]
        D[i - 1, 0] = blk.D[0, 0]
    for i, blk in enumerate(fblocks, start=1):
        sl = f_slice(i)
        A[sl, sl] = blk.A
        C[i - 1, sl] = blk.C[0]
    # Each f-block is driven by the next-higher estimate, which is an affine
    # function of the assembled state and the input.
    for i, blk in enumerate(fblocks, start=1):
        sl = f_slice(i)
        A[sl, :] += blk.B @ C[[i], :]
        B[sl, :] += blk.B * D[i, 0]
    return LtiRealization(A, B, C, D)


def zoh_discretize(A: np.ndarray, B: np.ndarray, h: float):
    """Exact zero-order-hold pair (e^{Ah}, int_0^h e^{As} ds B)."""
    n, p = A.shape[0], B.shape[1]
    M = np.zeros((n + p, n + p))
    M[:n, :n] = A
    M[:n, n:] = B
    E = numerics.expm(M * h)
    return E[:n, :n], E[:n, n:]


def rk4_step_maps(A: np.ndarray, B: np.ndarray, h: float):
    """Linear one-step maps of classical RK4 for x' = A x + B u(t).

    Returns (Phi, M0, M1, M2) such that one step is
    x+ = Phi x + M0 u(t) + M1 u(t + h/2) + M2 u(t + h).
    """
    with np.errstate(over="ignore", invalid="ignore"):   # a run reports the overflow
        hA = h * A
        hA2 = hA @ hA
        hA3 = hA2 @ hA
        Phi = np.eye(A.shape[0]) + hA + hA2 / 2.0 + hA3 / 6.0 + (hA3 @ hA) / 24.0
        hB = h * B
        M0 = hB / 6.0 + hA @ hB / 6.0 + hA2 @ hB / 12.0 + hA3 @ hB / 24.0
        M1 = 2.0 * hB / 3.0 + hA @ hB / 3.0 + hA2 @ hB / 12.0
        M2 = hB / 6.0
    return Phi, M0, M1, M2


class DirtyDerivativeEstimator:
    """Order-k estimator running m parallel scalar channels.

    Channels share the RK4 step maps; the state is an (n, m) array,
    zero-initialized. The runners in ``sim`` read only its maps and initial
    state and scan whole input grids; ``output``/``step_sampled`` are the
    per-sample reference that batch results are tested against.
    """

    def __init__(self, config: DirtyDerivativeConfig, step: float):
        if not step > 0.0:
            raise ValueError("step must be > 0")
        if config.gain * step > 0.5:
            warnings.warn(
                f"sigma*h = {config.gain * step:.3g} > 0.5: the discretized "
                "estimator is close to its accuracy/stability limit",
                stacklevel=2,
            )
        self.config = config
        self.continuous = compose_cascade(config.order, config.gain)
        self.rk4_maps = rk4_step_maps(self.continuous.A, self.continuous.B, float(step))
        self.state = np.zeros((self.continuous.state_dim, config.signal_dim))

    def _check_sample(self, sample) -> np.ndarray:
        sample = np.asarray(sample, dtype=np.float64)
        if sample.shape != (self.config.signal_dim,):
            raise ValueError(
                f"sample shape {sample.shape} does not match signal_dim {self.config.signal_dim}")
        return sample

    def output(self, sample) -> np.ndarray:
        """Estimates at the current time given the current sample, (k, m)."""
        sample = self._check_sample(sample)
        return self.continuous.C @ self.state + self.continuous.D @ sample[np.newaxis, :]

    def step_sampled(self, sample, sample_mid, sample_next) -> np.ndarray:
        """Emit estimates at the current time, then advance one RK4 step using
        the signal sampled at t, t+h/2 and t+h. Returns (k, m)."""
        sample = self._check_sample(sample)
        sample_mid = self._check_sample(sample_mid)
        sample_next = self._check_sample(sample_next)
        estimates = self.output(sample)
        Phi, M0, M1, M2 = self.rk4_maps
        self.state = (Phi @ self.state + M0 @ sample[np.newaxis, :]
                      + M1 @ sample_mid[np.newaxis, :] + M2 @ sample_next[np.newaxis, :])
        return estimates


def build_estimator(config: DirtyDerivativeConfig, step: float) -> DirtyDerivativeEstimator:
    """Compose the cascade, precompute its RK4 step maps, zero the state."""
    return DirtyDerivativeEstimator(config, step)


def frequency_response(realization: LtiRealization, omega) -> np.ndarray:
    """C (j*omega*I - A)^{-1} B + D: a complex (q, p) array for a scalar
    ``omega``, (len(omega), q, p) for an array of frequencies."""
    omega = np.asarray(omega, dtype=np.float64)
    M = 1j * omega[..., None, None] * np.eye(realization.state_dim) - realization.A
    B = np.broadcast_to(realization.B, omega.shape + realization.B.shape)
    return realization.C @ numerics.solve_linear(M, B) + realization.D


def branch_transfer(i: int, sigma: float, s: complex) -> complex:
    """sigma^i s^i / (s+sigma)^i by direct scalar evaluation."""
    return (sigma * s / (s + sigma)) ** i


def f_transfer(i: int, sigma: float, s: complex) -> complex:
    """((s+sigma)^i - sigma^i) / (s (s+sigma)^i) by direct scalar evaluation."""
    return ((s + sigma) ** i - sigma ** i) / (s * (s + sigma) ** i)


def closed_form_transfer(order: int, sigma: float, i: int, omega: float) -> complex:
    """Transfer from the measured signal to the i-th estimate, evaluated at
    j*omega straight from the cascade recursion (independent of the
    state-space composition; this is the equivalence oracle)."""
    if not 1 <= i <= order:
        raise ValueError(f"derivative index {i} outside 1..{order}")
    if omega == 0.0:
        # Every branch has a zero at s = 0 and the f-blocks are finite there.
        return 0.0 + 0.0j
    s = 1j * omega
    H = branch_transfer(order, sigma, s)
    for j in range(order - 1, i - 1, -1):
        H = branch_transfer(j, sigma, s) + f_transfer(j, sigma, s) * H
    return H


def steady_state_sinusoid_error(config: DirtyDerivativeConfig, i: int,
                                amplitude: float, omega: float) -> float:
    """Exact asymptotic error amplitude of the i-th estimate for input
    a*sin(omega t + phase), independent of the phase."""
    if omega == 0.0:
        return 0.0
    H = closed_form_transfer(config.order, config.gain, i, omega)
    return abs(amplitude) * abs(H - (1j * omega) ** i)


@dataclass(frozen=True)
class OutputBoundConstants:
    """Constants of the decay/input-gain bound for one f-block:

    |y(t)| <= |x(0)| * transient_gain * exp(-decay_rate * t)
              + input_gain * sup|u| / sigma
    """

    transient_gain: float
    decay_rate: float
    input_gain: float

    def bound(self, x0_norm: float, u_sup: float, sigma: float, t):
        t = np.asarray(t, dtype=np.float64)
        bound = x0_norm * self.transient_gain * np.exp(-self.decay_rate * t)
        bound += self.input_gain * u_sup / sigma
        return bound


def output_bound_constants(n: int, sigma: float) -> OutputBoundConstants:
    """Bound constants for the order-n block, derived from the Lyapunov
    solution P of A_n^T P + P A_n = -I for the sigma = 1 companion matrix."""
    lam_min, lam_max = _unit_lyapunov_extremes(n)
    transient_gain = max(1.0, _power(sigma, n - 1)) * math.sqrt(lam_max / lam_min)
    decay_rate = sigma / (4.0 * lam_max)
    input_gain = 2.0 * math.sqrt(lam_max ** 3 / lam_min)
    return OutputBoundConstants(transient_gain, decay_rate, input_gain)


@functools.lru_cache(maxsize=None)
def _unit_lyapunov_extremes(n: int) -> tuple[float, float]:
    """Smallest and largest eigenvalue of that P, solved once per block
    order: it does not depend on sigma."""
    unit = build_f_block(n, 1.0)
    P = numerics.lyapunov_solve(unit.A, np.eye(n))
    return numerics.eig_extremes_symmetric(P)
