"""Parameter trajectories with exact derivatives of every order.

A signal is a vector of scalar components, each one of a small closed set of
descriptors: sinusoids and polynomials (a constant is a degree-0
polynomial). Keeping the set closed means every component has closed-form
derivatives of any order, which the runners and the verification checks use
as ground truth (:meth:`AnalyticSignal.eval_many` evaluates them on a time
grid), and an exact supremum bound for each order
(:meth:`AnalyticSignal.sup_derivative_bound`), which no check uses.
Parameters are finite; :func:`sample_noisy_grid` adds noise to given values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class Sinusoid:
    """amplitude * kind(omega * t + phase), kind in {sin, cos, cos2}.

    cos2 is squared cosine; it is rewritten as amp/2 + (amp/2) cos(2u) so
    derivatives of all orders stay single sinusoids.
    """

    amplitude: float
    omega: float
    phase: float = 0.0
    kind: str = "sin"

    def __post_init__(self):
        if self.kind not in ("sin", "cos", "cos2"):
            raise ValueError(f"unknown sinusoid kind {self.kind!r}")
        if not all(map(math.isfinite, (self.amplitude, self.omega, self.phase))):
            raise ValueError(f"sinusoid parameters must be finite, got {self}")

    def canonical(self):
        """The same signal as ``(offset, a, w, phi)``: offset + a*cos(w t + phi)."""
        if self.kind == "sin":
            return 0.0, self.amplitude, self.omega, self.phase - _HALF_PI
        if self.kind == "cos":
            return 0.0, self.amplitude, self.omega, self.phase
        return 0.5 * self.amplitude, 0.5 * self.amplitude, 2.0 * self.omega, 2.0 * self.phase

    def eval(self, t, order: int):
        offset, a, w, phi = self.canonical()
        w = np.float64(w)   # its power overflows to inf, where a float power raises
        value = a * (w ** order) * np.cos(w * np.asarray(t, dtype=np.float64) + phi + order * _HALF_PI)
        if order == 0:
            value = value + offset
        return value

    def sup_derivative(self, order: int) -> float:
        offset, a, w, phi = self.canonical()
        if order == 0:
            return abs(a) + abs(offset)
        if a == 0.0:
            return 0.0
        with np.errstate(over="ignore"):   # overflows to inf
            return float(abs(a) * np.abs(np.float64(w)) ** order)


@dataclass(frozen=True)
class Polynomial:
    """c0 + c1 t + ... + cd t^d."""

    coefficients: tuple = field(default=(0.0,))

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if not self.coefficients:
            raise ValueError("polynomial needs at least one coefficient")
        if not all(map(math.isfinite, self.coefficients)):
            raise ValueError(f"polynomial coefficients must be finite, got {self.coefficients}")

    def _derivative_coefficients(self, order: int):
        coeffs = list(self.coefficients)
        for _ in range(order):
            coeffs = [i * c for i, c in enumerate(coeffs)][1:]
            if not coeffs:
                return [0.0]
        return coeffs

    def eval(self, t, order: int):
        coeffs = self._derivative_coefficients(order)
        t = np.asarray(t, dtype=np.float64)
        out = np.zeros_like(t)
        for c in reversed(coeffs):
            out = out * t + c
        return out

    def sup_derivative(self, order: int) -> float:
        coeffs = list(self.coefficients)
        degree = len(coeffs) - 1
        while degree > 0 and coeffs[degree] == 0.0:
            degree -= 1
        if degree > order:
            return math.inf
        if degree < order:
            return 0.0
        return abs(coeffs[degree]) * math.factorial(degree)


@dataclass(frozen=True)
class AnalyticSignal:
    """Vector-valued signal; one descriptor per component."""

    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("signal needs at least one component")

    @property
    def dim(self) -> int:
        return len(self.components)

    def eval_many(self, ts: np.ndarray, order: int = 0) -> np.ndarray:
        """Exact order-th time derivative (order 0 = value) at each time of
        the grid ``ts``; returns shape (len(ts), dim)."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        ts = np.asarray(ts, dtype=np.float64)
        return np.column_stack([c.eval(ts, order) for c in self.components])

    def sup_derivative_bound(self, order: int) -> float:
        """Supremum over t >= 0 of the 2-norm of the order-th derivative.

        Per-component suprema combined by root-sum-of-squares; returns +inf
        when any component is an unbounded polynomial at that order.
        """
        sups = [c.sup_derivative(order) for c in self.components]
        if any(math.isinf(s) for s in sups):
            return math.inf
        return math.sqrt(sum(s * s for s in sups))


@dataclass(frozen=True)
class NoiseSpec:
    """Per-sample Gaussian measurement noise; variance 0 disables the channel."""

    variance: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.variance < 0.0:
            raise ValueError("noise variance must be >= 0")
        if not math.isfinite(self.variance):
            raise ValueError("noise variance must be finite")
        if self.seed < 0:
            raise ValueError("noise seed must be >= 0")

    @property
    def enabled(self) -> bool:
        return self.variance > 0.0

    def make_rng(self) -> np.random.Generator:
        """Fresh PCG64 generator for one run; draw order is the sample order."""
        return np.random.default_rng(self.seed)


def sample_noisy_grid(values: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """Signal ``values`` sampled on a grid, shape (samples, dim), plus one
    i.i.d. Gaussian draw per entry from a fresh ``noise.make_rng()``.

    Draws are taken in sample order, so noise is per sample, not per time
    point, and every call with one spec adds the same draws. With variance
    0 the values are returned as they are.
    """
    if not noise.enabled:
        return values
    return values + noise.make_rng().normal(0.0, math.sqrt(noise.variance), size=values.shape)


# Canonical experiment signals.

def sinusoid_5t_minus_2() -> AnalyticSignal:
    """Scalar sin(5t - 2) test signal."""
    return AnalyticSignal((Sinusoid(1.0, 5.0, -2.0, "sin"),))


def benchmark_parameter_path() -> AnalyticSignal:
    """[cos(5t-2), sin(5t-2), cos^2(5t-2)] tracking-benchmark trajectory."""
    return AnalyticSignal((
        Sinusoid(1.0, 5.0, -2.0, "cos"),
        Sinusoid(1.0, 5.0, -2.0, "sin"),
        Sinusoid(1.0, 5.0, -2.0, "cos2"),
    ))
