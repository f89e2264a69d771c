"""Time-varying cost models and continuous-time optimization vector fields.

The central flow is the continuous-time Newton method

    x' = -hess(x, theta)^{-1} grad(x, theta) + u,

with the correction u = -hess^{-1} cross @ v that compensates the motion
of the minimizer, where v is the exact parameter velocity (ideal), an
online estimate of it, or zero for the uncorrected flow. The redesign
condition checker evaluates the scalar certificate

    <grad_x V, u> + <grad_theta V, v>  <=  0,      V = 0.5 ||grad f||^2,

which the Newton correction satisfies with equality.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from . import numerics

REDESIGN_TOL = 1e-9


class CorrectionMode(enum.Enum):
    NONE = "none"
    IDEAL = "ideal"
    ESTIMATED = "estimated"

    @classmethod
    def from_string(cls, name: str) -> "CorrectionMode":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown correction mode {name!r}; "
                             f"expected one of {[m.value for m in cls]}") from None


class CostModel:
    """Smooth strongly convex cost f(x, theta) with derivative oracles.

    Subclasses fill in ``value``, ``gradient``, ``hessian`` (n x n, symmetric,
    eigenvalues >= mu) and ``cross_hessian`` (n x p, the derivative of the
    gradient with respect to theta), plus a ``minimizer`` oracle when the
    argmin is known in closed form.

    Every method accepts a leading batch axis: ``x`` of shape (..., n) and
    ``theta`` of shape (..., p), broadcast against each other. ``value``
    then returns shape (...), ``gradient`` (..., n), ``hessian`` (..., n, n)
    and ``cross_hessian`` (..., n, p); a matrix that does not depend on the
    point may be returned as a single (n, n) or (n, p) matrix, which
    broadcasts the same way.

    :meth:`newton_field` is the flow's right-hand side. Its default goes
    through ``gradient``, ``cross_hessian`` and ``solve_hessian``; a subclass
    may replace it with a closed form, provided the result is bit-identical
    to that general path (the sign of an exact zero aside).
    """

    name = "abstract"

    def __init__(self, n: int, p: int, mu: float):
        if n < 1 or p < 1:
            raise ValueError("dimensions must be >= 1")
        if not mu > 0.0:
            raise ValueError("strong-convexity modulus must be > 0")
        self.n = n
        self.p = p
        self.mu = mu

    def value(self, x, theta):
        raise NotImplementedError

    def gradient(self, x, theta) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, x, theta) -> np.ndarray:
        raise NotImplementedError

    def cross_hessian(self, x, theta) -> np.ndarray:
        raise NotImplementedError

    def minimizer(self, theta) -> np.ndarray:
        raise NotImplementedError

    def solve_hessian(self, x, theta, rhs) -> np.ndarray:
        """Solve hess(x, theta) y = rhs.

        ``rhs`` has shape (..., n); each batch entry is solved on its own.
        Subclasses with structured Hessians may shortcut this, provided the
        result is bit-identical to partial-pivot elimination on the full
        matrix (true for identity and diagonal Hessians).
        """
        H = self.hessian(x, theta)
        rhs = np.asarray(rhs)
        batch = np.broadcast_shapes(rhs.shape[:-1], H.shape[:-2])
        H = np.broadcast_to(H, batch + H.shape[-2:])
        rhs = np.broadcast_to(rhs, batch + rhs.shape[-1:])
        out = np.empty(rhs.shape, dtype=np.result_type(H, rhs))
        for i in np.ndindex(batch):
            out[i] = numerics.solve_linear(H[i], rhs[i])
        return out

    def newton_field(self, x, theta, velocity) -> np.ndarray:
        """-hess^{-1} (grad + cross @ velocity). See :func:`corrected_newton_rhs`."""
        g = self.gradient(x, theta) + _matvec(self.cross_hessian(x, theta), velocity)
        return -self.solve_hessian(x, theta, g)


class QuadraticTrackingCost(CostModel):
    """f(x, theta) = 0.5 ||x - theta||^2 (n = p, identity Hessian)."""

    name = "quadratic-tracking"

    def __init__(self, dim: int):
        super().__init__(dim, dim, mu=1.0)
        self._eye = np.eye(dim)
        self._eye.setflags(write=False)
        self._neg_eye = -np.eye(dim)
        self._neg_eye.setflags(write=False)

    def value(self, x, theta):
        d = np.asarray(x) - np.asarray(theta)
        return 0.5 * np.sum(d * d, axis=-1)

    def gradient(self, x, theta) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) - np.asarray(theta, dtype=np.float64)

    def hessian(self, x, theta) -> np.ndarray:
        return self._eye

    def cross_hessian(self, x, theta) -> np.ndarray:
        return self._neg_eye

    def minimizer(self, theta) -> np.ndarray:
        return np.asarray(theta, dtype=np.float64).copy()

    def solve_hessian(self, x, theta, rhs) -> np.ndarray:
        # Identity Hessian: elimination returns the rhs unchanged.
        return np.asarray(rhs, dtype=np.float64).copy()

    def newton_field(self, x, theta, velocity) -> np.ndarray:
        # Identity Hessian, cross-Hessian -I: -(d - v), elementwise.
        d = np.asarray(x, dtype=np.float64) - np.asarray(theta, dtype=np.float64)
        return -(d - np.asarray(velocity, dtype=np.float64))


class LogCoshTrackingCost(CostModel):
    """f(x, theta) = sum log cosh(x_i - theta_i) + (mu/2) ||x - theta||^2.

    A non-quadratic strongly convex tracker whose Hessian varies with the
    state; mu = 0.1 is a conservative modulus (the log-cosh part only adds
    curvature).
    """

    name = "logcosh"

    def __init__(self, dim: int):
        super().__init__(dim, dim, mu=0.1)
        self._eye = np.eye(dim)
        self._eye.setflags(write=False)

    @staticmethod
    def _logcosh(u: np.ndarray) -> np.ndarray:
        # log cosh u = |u| + log1p(exp(-2|u|)) - log 2, stable for large |u|.
        a = np.abs(u)
        return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)

    def value(self, x, theta):
        d = np.asarray(x, dtype=np.float64) - np.asarray(theta, dtype=np.float64)
        return np.sum(self._logcosh(d), axis=-1) + 0.5 * self.mu * np.sum(d * d, axis=-1)

    def gradient(self, x, theta) -> np.ndarray:
        d = np.asarray(x, dtype=np.float64) - np.asarray(theta, dtype=np.float64)
        return np.tanh(d) + self.mu * d

    def _curvature(self, d: np.ndarray) -> np.ndarray:
        # phi''(d) = sech^2 d + mu; cosh overflows to inf at large |d|,
        # which gives mu exactly.
        return 1.0 / np.cosh(d) ** 2 + self.mu

    def hessian(self, x, theta) -> np.ndarray:
        d = np.asarray(x, dtype=np.float64) - np.asarray(theta, dtype=np.float64)
        return self._curvature(d)[..., None] * self._eye

    def cross_hessian(self, x, theta) -> np.ndarray:
        return -self.hessian(x, theta)

    def minimizer(self, theta) -> np.ndarray:
        return np.asarray(theta, dtype=np.float64).copy()

    def solve_hessian(self, x, theta, rhs) -> np.ndarray:
        # Diagonal Hessian: elimination reduces to elementwise division.
        d = np.asarray(x, dtype=np.float64) - np.asarray(theta, dtype=np.float64)
        return np.asarray(rhs, dtype=np.float64) / self._curvature(d)

    def newton_field(self, x, theta, velocity) -> np.ndarray:
        # Diagonal Hessian phi''(d), cross-Hessian its negative:
        # -(phi'(d) - phi''(d) v) / phi''(d), elementwise, phi'' computed once.
        d = np.asarray(x, dtype=np.float64) - np.asarray(theta, dtype=np.float64)
        curvature = self._curvature(d)
        g = np.tanh(d) + self.mu * d - curvature * np.asarray(velocity, dtype=np.float64)
        return -(g / curvature)


_COSTS = {
    QuadraticTrackingCost.name: QuadraticTrackingCost,
    LogCoshTrackingCost.name: LogCoshTrackingCost,
}


def cost_by_name(name: str, dim: int) -> CostModel:
    try:
        return _COSTS[name](dim)
    except KeyError:
        raise ValueError(f"unknown cost {name!r}; expected one of {sorted(_COSTS)}") from None


def _matvec(M, v) -> np.ndarray:
    """M @ v over leading batch axes: (..., n, p) with (..., p) -> (..., n)."""
    return (M @ np.asarray(v, dtype=np.float64)[..., None])[..., 0]


def ideal_correction(cost: CostModel, x, theta, theta_dot) -> np.ndarray:
    """-hess^{-1} cross @ theta_dot, the minimizer-motion compensation; exact
    when ``theta_dot`` is the true parameter velocity, and fed the online
    estimate of it in estimated mode."""
    rhs = _matvec(cost.cross_hessian(x, theta), theta_dot)
    return -cost.solve_hessian(x, theta, rhs)


def corrected_newton_rhs(cost: CostModel, x, theta, velocity) -> np.ndarray:
    """Newton field plus correction in a single Hessian solve.

    ``velocity`` is the parameter-rate vector the correction should cancel
    (exact or estimated); a zero velocity gives the correction-free Newton
    field -hess^{-1} grad. Equal to that field plus :func:`ideal_correction`
    by linearity of the solve. Delegates to :meth:`CostModel.newton_field`,
    which the shipped costs evaluate elementwise.
    """
    return cost.newton_field(x, theta, velocity)


def lyapunov_gradients(cost: CostModel, x, theta):
    """V = 0.5 ||grad f||^2 with its x- and theta-gradients.

    Returns (V, hess @ grad, cross^T @ grad); the last is a p-vector.
    """
    g = cost.gradient(x, theta)
    V = 0.5 * np.sum(g * g, axis=-1)
    grad_x_V = _matvec(cost.hessian(x, theta), g)
    grad_theta_V = _matvec(np.swapaxes(cost.cross_hessian(x, theta), -1, -2), g)
    return V, grad_x_V, grad_theta_V


def check_redesign_condition(grad_x_V, grad_theta_V, u, theta_rate):
    """Evaluate <grad_x V, u> + <grad_theta V, theta_rate>.

    ``theta_rate`` is the parameter velocity plus any disturbance (or the
    online estimate standing in for it). Returns (lhs, lhs <= REDESIGN_TOL),
    both of the shape of the leading batch axes.
    """
    lhs = (np.sum(np.multiply(grad_x_V, u), axis=-1)
           + np.sum(np.multiply(grad_theta_V, theta_rate), axis=-1))
    return lhs, lhs <= REDESIGN_TOL
