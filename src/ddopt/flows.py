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

    :meth:`newton_field_slope` is the one flow hook: the flow's right-hand
    side with its derivative in x, its slope. The kind of slope picks how
    ``sim`` integrates the flow:

    * None, the default, whose field goes through ``gradient``,
      ``cross_hessian`` and ``solve_hessian``: the flow's RK4 steps are taken
      one after another, a window at a time;
    * an array, the diagonal of the Jacobian of a field whose component i
      depends only on x_i, theta_i and velocity_i (n = p): each window is
      solved by Newton's method, and the slopes measure how much the steps
      amplify a deviation;
    * a float a, for a field that is affine in x with that constant slope,
      elementwise (n = p): the flow is evaluated as an LTI system, forced by
      the field at x = 0.

    A subclass that declares a closed-form field must keep it bit-identical
    to the general path (the sign of an exact zero aside).

    :meth:`diagonal_hessian` declares a Hessian diag(c) and cross-Hessian
    -diag(c); ``sim`` then records the certificate's terms elementwise from c
    (:func:`redesign_terms`), and by default through the matrices. Each
    recorded value must be bit-identical to that general path, the sign of
    an exact zero aside.
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
        return numerics.solve_linear(np.broadcast_to(H, batch + H.shape[-2:]),
                                     np.broadcast_to(rhs, batch + rhs.shape[-1:]))

    def newton_field_slope(self, x, theta, velocity):
        """(-hess^{-1} (grad + cross @ velocity), its slope in x): see
        :func:`corrected_newton_rhs`. The slope of a field whose component i
        depends only on x_i, theta_i and velocity_i (n = p) is the diagonal
        of its Jacobian, shaped like ``x`` and ``theta`` broadcast, or a
        float if constant; None here, for a field not declared elementwise."""
        g = self.gradient(x, theta) + _matvec(self.cross_hessian(x, theta), velocity)
        return -self.solve_hessian(x, theta, g), None

    def diagonal_hessian(self, x, theta):
        """The diagonal c, shaped like ``x`` and ``theta`` broadcast (a float
        if constant), of a Hessian diag(c) whose cross-Hessian is -diag(c)
        (n = p); None if the derivatives do not have that form."""
        return None


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
        return 0.5 * component_sum(d * d)

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

    def newton_field_slope(self, x, theta, velocity):
        # Affine in x with slope -1; at x = 0 the field has the bits of
        # theta + velocity, signed zeros included.
        return (theta - x) + velocity, -1.0

    def diagonal_hessian(self, x, theta) -> float:
        return 1.0


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
        return component_sum(self._logcosh(d)) + 0.5 * self.mu * component_sum(d * d)

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

    def diagonal_hessian(self, x, theta) -> np.ndarray:
        d = np.asarray(x, dtype=np.float64) - np.asarray(theta, dtype=np.float64)
        return self._curvature(d)

    def newton_field_slope(self, x, theta, velocity):
        # Diagonal Hessian phi''(d), cross-Hessian its negative: the field is
        # -(phi'(d) - phi''(d) v) / phi''(d), elementwise, and its slope is
        # -1 + phi'(d) phi'''(d) / phi''(d)^2, phi''' = -2 sech^2 d tanh d. Both
        # share d, phi'', tanh d and phi'; the in-place steps round as the
        # expressions -(g / c) and -1 - 2 g (c - mu) tanh / c^2 written out do.
        d = np.asarray(x, dtype=np.float64) - np.asarray(theta, dtype=np.float64)
        curvature, tanh = self._curvature(d), np.tanh(d)
        grad = np.multiply(d, self.mu, out=d)
        grad += tanh
        field = curvature * np.asarray(velocity, dtype=np.float64)
        np.subtract(grad, field, out=field)
        np.negative(np.divide(field, curvature, out=field), out=field)
        slope = grad * 2.0
        slope *= curvature - self.mu
        slope *= tanh
        slope /= np.square(curvature, out=tanh)
        return field, np.subtract(-1.0, slope, out=slope)


_COSTS = {
    QuadraticTrackingCost.name: QuadraticTrackingCost,
    LogCoshTrackingCost.name: LogCoshTrackingCost,
}


def cost_by_name(name: str, dim: int) -> CostModel:
    try:
        return _COSTS[name](dim)
    except KeyError:
        raise ValueError(f"unknown cost {name!r}; expected one of {sorted(_COSTS)}") from None


def component_sum(a) -> np.ndarray:
    """Sum over the trailing axis by elementwise adds in order from +0.0,
    bit for bit ``np.sum(a, axis=-1)`` up to 7 components (numpy sums 8 or
    more pairwise), and about ten times faster on a short axis."""
    a = np.asarray(a)
    total = np.zeros(a.shape[:-1], a.dtype)
    for i in range(a.shape[-1]):
        total += a[..., i]
    return total


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
    by linearity of the solve. Delegates to
    :meth:`CostModel.newton_field_slope`, which the shipped costs evaluate
    elementwise.
    """
    return cost.newton_field_slope(x, theta, velocity)[0]


def redesign_terms(cost: CostModel, x, theta, velocity):
    """(u, grad_x V, grad_theta V): :func:`ideal_correction` fed ``velocity``
    and the gradients of :func:`lyapunov_gradients`; elementwise from one
    evaluation of c if the cost declares :meth:`CostModel.diagonal_hessian`,
    rounded as the general path's products and solve."""
    c = cost.diagonal_hessian(x, theta)
    if c is None:
        return (ideal_correction(cost, x, theta, velocity),
                *lyapunov_gradients(cost, x, theta)[1:])
    grad_x_V = c * cost.gradient(x, theta)
    return -((-c * np.asarray(velocity, dtype=np.float64)) / c), grad_x_V, -grad_x_V


def lyapunov_gradients(cost: CostModel, x, theta):
    """V = 0.5 ||grad f||^2 with its x- and theta-gradients.

    Returns (V, hess @ grad, cross^T @ grad); the last is a p-vector.
    """
    g = cost.gradient(x, theta)
    V = 0.5 * component_sum(g * g)
    grad_x_V = _matvec(cost.hessian(x, theta), g)
    grad_theta_V = _matvec(np.swapaxes(cost.cross_hessian(x, theta), -1, -2), g)
    return V, grad_x_V, grad_theta_V


def check_redesign_condition(grad_x_V, grad_theta_V, u, theta_rate):
    """Evaluate <grad_x V, u> + <grad_theta V, theta_rate>.

    ``theta_rate`` is the parameter velocity plus any disturbance (or the
    online estimate standing in for it). Returns (lhs, lhs <= REDESIGN_TOL),
    both of the shape of the leading batch axes.
    """
    lhs = (component_sum(np.multiply(grad_x_V, u))
           + component_sum(np.multiply(grad_theta_V, theta_rate)))
    return lhs, lhs <= REDESIGN_TOL
