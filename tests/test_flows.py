import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference
from ddopt import flows, numerics, signals, sim


class FixedDiagonalCost(flows.CostModel):
    """f(x) = 0.5 x^T diag(2, 4) x, parameter-independent gradient."""

    def __init__(self):
        super().__init__(2, 1, mu=2.0)

    def value(self, x, theta):
        x = np.asarray(x)
        return 0.5 * float(x @ (np.array([2.0, 4.0]) * x))

    def gradient(self, x, theta):
        return np.array([2.0, 4.0]) * np.asarray(x, dtype=np.float64)

    def hessian(self, x, theta):
        return np.diag([2.0, 4.0])

    def cross_hessian(self, x, theta):
        return np.zeros((2, 1))

    def minimizer(self, theta):
        return np.zeros(2)


class ScaledQuadratic(flows.CostModel):
    def __init__(self, scale):
        super().__init__(2, 2, mu=scale)
        self.scale = scale

    def value(self, x, theta):
        d = np.asarray(x) - np.asarray(theta)
        return 0.5 * self.scale * float(d @ d)

    def gradient(self, x, theta):
        return self.scale * (np.asarray(x, dtype=np.float64) - np.asarray(theta, dtype=np.float64))

    def hessian(self, x, theta):
        return self.scale * np.eye(2)

    def cross_hessian(self, x, theta):
        return -self.scale * np.eye(2)

    def minimizer(self, theta):
        return np.asarray(theta, dtype=np.float64).copy()


class TestNewtonRhs:
    def test_zero_at_minimizer(self):
        cost = flows.QuadraticTrackingCost(3)
        theta = np.array([1.0, -2.0, 0.5])
        rhs = flows.corrected_newton_rhs(cost, theta.copy(), theta, np.zeros(3))
        assert np.array_equal(rhs, np.zeros(3))

    def test_quadratic_displacement(self):
        cost = flows.QuadraticTrackingCost(3)
        theta = np.zeros(3)
        x = np.array([1.0, -2.0, 0.5])
        rhs = flows.corrected_newton_rhs(cost, x, theta, np.zeros(3))
        assert np.allclose(rhs, [-1.0, 2.0, -0.5], atol=1e-15)

    def test_diagonal_cost_scaling_invariance(self):
        # -diag(2,4)^{-1} (2, 4) = (-1, -1): Newton normalizes the curvature.
        cost = FixedDiagonalCost()
        rhs = flows.corrected_newton_rhs(cost, np.array([1.0, 1.0]), np.zeros(1),
                                         np.zeros(1))
        assert np.allclose(rhs, [-1.0, -1.0], atol=1e-15)

    def test_matches_explicit_solve(self):
        # The solve_hessian shortcut must be bit-identical to elimination on
        # the full Hessian.
        rng = np.random.default_rng(17)
        for cost in (flows.QuadraticTrackingCost(3), flows.LogCoshTrackingCost(3),
                     FixedDiagonalCost()):
            for _ in range(20):
                x = rng.standard_normal(cost.n)
                theta = rng.standard_normal(cost.p)
                rhs = rng.standard_normal(cost.n)
                direct = numerics.solve_linear(cost.hessian(x, theta), rhs)
                assert np.array_equal(cost.solve_hessian(x, theta, rhs), direct)


# Exact zeros, and |x - theta| up to 2e3, past 710.5, where cosh overflows to
# inf and phi'' is mu.
_COORD = st.one_of(st.just(0.0), st.floats(-1e3, 1e3))


@st.composite
def _field_inputs(draw):
    """x, theta and velocity (..., n) whose batch shapes broadcast against each
    other; the velocity is zero or drawn."""
    n = draw(st.integers(1, 3))
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=3, max_dims=2, max_side=4))
    x, theta, velocity = (draw(hnp.arrays(np.float64, shape + (n,), elements=_COORD))
                          for shape in shapes.input_shapes)
    return x, theta, draw(st.sampled_from([np.zeros_like(velocity), velocity]))


def _closed_forms(mu, x, theta, velocity):
    """The logcosh field -(phi'(d) - phi''(d) v) / phi''(d) and its slope
    -1 - 2 phi'(d) (phi''(d) - mu) tanh d / phi''(d)^2, each evaluated alone."""
    d = x - theta
    curvature = 1.0 / np.cosh(d) ** 2 + mu
    tanh = np.tanh(d)
    return (-((tanh + mu * d - curvature * velocity) / curvature),
            -1.0 - 2.0 * (tanh + mu * d) * (curvature - mu) * tanh / curvature ** 2)


class TestNewtonField:
    @settings(max_examples=200, deadline=None)
    @given(inputs=_field_inputs())
    @example(inputs=(np.array([[800.0, -800.0, 0.5]]), np.zeros(3), np.array([[1.0, -2.0, 0.0]])))
    def test_closed_form_equals_general_path(self, inputs):
        # The logcosh cost evaluates the field elementwise; the CostModel
        # default builds the full Hessian and cross-Hessian. They must agree
        # bit for bit as values (the sign of an exact zero aside: the
        # general path's matmul sums from +0.0).
        x, theta, velocity = inputs
        cost = flows.LogCoshTrackingCost(x.shape[-1])
        with np.errstate(over="ignore"):
            fused = cost.newton_field_slope(x, theta, velocity)[0]
            general = flows.CostModel.newton_field_slope(cost, x, theta, velocity)[0]
        assert fused.shape == general.shape
        assert np.all(np.isfinite(fused))
        assert np.array_equal(fused, general)

    # The logcosh cost evaluates its field and slope together, with shared
    # and in-place temporaries; each must equal its expression alone.
    @settings(max_examples=200, deadline=None)
    @given(inputs=_field_inputs())
    @example(inputs=(np.array([[800.0, -800.0, 0.0]]), np.zeros(3), np.array([[1.0, -2.0, 0.0]])))
    @example(inputs=(np.zeros((2, 1, 2)), np.zeros((3, 2)), np.zeros(2)))
    def test_field_and_slope_equal_their_closed_forms(self, inputs):
        x, theta, velocity = inputs
        before = [a.copy() for a in inputs]
        cost = flows.LogCoshTrackingCost(x.shape[-1])
        with np.errstate(over="ignore"):
            field, slope = cost.newton_field_slope(x, theta, velocity)
            general = flows.CostModel.newton_field_slope(cost, x, theta, velocity)[0]
            closed_field, closed_slope = _closed_forms(cost.mu, x, theta, velocity)
            alone = flows.corrected_newton_rhs(cost, x, theta, velocity)
        for a, b in zip(inputs, before):
            assert np.array_equal(a, b)    # the inputs are not overwritten
        assert field.shape == np.broadcast_shapes(x.shape, theta.shape, velocity.shape)
        assert slope.shape == np.broadcast_shapes(x.shape, theta.shape)
        assert np.all(np.isfinite(field)) and np.all(np.isfinite(slope))
        # The sign of an exact zero aside: the general path's matmul sums from +0.0.
        assert np.array_equal(field, general)
        for got, closed in ((field, closed_field), (alone, closed_field), (slope, closed_slope)):
            assert np.array_equal(got, closed)
            assert np.array_equal(np.signbit(got), np.signbit(closed))

    @settings(max_examples=100, deadline=None)
    @given(inputs=_field_inputs())
    def test_slope_matches_finite_differences(self, inputs):
        # The logcosh field is elementwise; its slope is the diagonal of the
        # field's Jacobian, finite everywhere (the cosh overflow included).
        x, theta, velocity = inputs
        cost = flows.LogCoshTrackingCost(x.shape[-1])
        step = 1e-6 * np.maximum(1.0, np.abs(x))
        with np.errstate(over="ignore"):
            slope = cost.newton_field_slope(x, theta, velocity)[1]
            fd = (cost.newton_field_slope(x + step, theta, velocity)[0]
                  - cost.newton_field_slope(x - step, theta, velocity)[0]) / (2.0 * step)
        assert slope.shape == np.broadcast_shapes(x.shape, np.shape(theta))
        assert np.all(np.isfinite(slope))
        assert np.all(np.abs(slope - fd) <= 1e-5 * np.maximum(1.0, np.abs(slope)))

    def test_slope_default_is_none(self):
        # A cost that declares nothing has no slope; the default hook returns
        # the field through the gradient, cross-Hessian and Hessian solve.
        cost = ScaledQuadratic(2.0)
        x, theta, velocity = np.array([1.0, -3.0]), np.ones(2), np.array([0.5, 2.0])
        field, slope = cost.newton_field_slope(x, theta, velocity)
        assert slope is None
        g = cost.gradient(x, theta) + cost.cross_hessian(x, theta) @ velocity
        assert np.array_equal(field, -cost.solve_hessian(x, theta, g))
        assert np.array_equal(flows.corrected_newton_rhs(cost, x, theta, velocity), field)

    @settings(max_examples=200, deadline=None)
    @given(inputs=_field_inputs())
    @example(inputs=(np.array([[1.0, -0.0, 0.0]]), np.array([0.0, -0.0, 2.0]),
                     np.array([[1.0, -0.0, -2.0]])))
    def test_quadratic_closed_form_equals_general_path(self, inputs):
        # The quadratic field (theta - x) + v, slope -1, equals the general
        # path as values (the sign of an exact zero aside). At x = 0 it has
        # the bits of theta + v, signed zeros included: the affine forcing
        # sim reads there is that sum, as it was before the field was declared.
        x, theta, velocity = inputs
        cost = flows.QuadraticTrackingCost(x.shape[-1])
        field, slope = cost.newton_field_slope(x, theta, velocity)
        general = flows.CostModel.newton_field_slope(cost, x, theta, velocity)[0]
        assert slope == -1.0 and isinstance(slope, float)
        assert field.shape == general.shape
        assert np.array_equal(field, general)
        at_zero = cost.newton_field_slope(np.zeros_like(x), theta, velocity)[0]
        expected = np.broadcast_to(theta + velocity, at_zero.shape)
        assert np.array_equal(at_zero, expected)
        assert np.array_equal(np.signbit(at_zero), np.signbit(expected))


class TestCorrections:
    def test_quadratic_passes_velocity_through(self):
        cost = flows.QuadraticTrackingCost(3)
        v = np.array([1.0, 2.0, 3.0])
        u = flows.ideal_correction(cost, np.zeros(3), np.ones(3), v)
        assert np.allclose(u, v, atol=1e-15)

    def test_zero_velocity(self):
        cost = flows.LogCoshTrackingCost(2)
        u = flows.ideal_correction(cost, np.ones(2), np.zeros(2), np.zeros(2))
        assert np.array_equal(u, np.zeros(2))

    def test_zero_cross_derivative(self):
        u = flows.ideal_correction(FixedDiagonalCost(), np.ones(2), np.zeros(1), np.array([5.0]))
        assert np.array_equal(u, np.zeros(2))

    @settings(max_examples=100, deadline=None)
    @given(inputs=_field_inputs())
    def test_declared_redesign_terms_equal_the_general_path(self, inputs):
        # Both shipped costs declare a diagonal Hessian, so redesign_terms
        # computes the correction and the gradients of V elementwise; the
        # general path's matrices give the same values (the sign of an exact
        # zero aside).
        x, theta, velocity = inputs
        for cost in (flows.QuadraticTrackingCost(x.shape[-1]),
                     flows.LogCoshTrackingCost(x.shape[-1])):
            with np.errstate(over="ignore"):
                declared = flows.redesign_terms(cost, x, theta, velocity)
                general = (flows.ideal_correction(cost, x, theta, velocity),
                           *flows.lyapunov_gradients(cost, x, theta)[1:])
            for got, want in zip(declared, general):
                assert got.shape == want.shape
                assert np.array_equal(got, want)

    def test_corrected_rhs_is_sum_of_parts(self):
        rng = np.random.default_rng(8)
        for cost in (flows.QuadraticTrackingCost(2), flows.LogCoshTrackingCost(2)):
            for _ in range(10):
                x, theta, v = rng.standard_normal((3, 2))
                combined = flows.corrected_newton_rhs(cost, x, theta, v)
                parts = (flows.corrected_newton_rhs(cost, x, theta, np.zeros(2))
                         + flows.ideal_correction(cost, x, theta, v))
                assert np.allclose(combined, parts, atol=1e-14)

    def test_corrected_rhs_without_velocity(self):
        cost = flows.QuadraticTrackingCost(2)
        x, theta = np.array([1.0, 0.0]), np.zeros(2)
        newton = -cost.solve_hessian(x, theta, cost.gradient(x, theta))
        assert np.array_equal(flows.corrected_newton_rhs(cost, x, theta, np.zeros(2)), newton)


class TestLyapunovGradients:
    def test_zero_at_minimizer(self):
        cost = flows.LogCoshTrackingCost(3)
        theta = np.array([0.1, 0.2, 0.3])
        V, gx, gt = flows.lyapunov_gradients(cost, theta.copy(), theta)
        assert V == 0.0
        assert np.array_equal(gx, np.zeros(3))
        assert np.array_equal(gt, np.zeros(3))

    def test_quadratic_unit_displacement(self):
        cost = flows.QuadraticTrackingCost(3)
        x = np.array([1.0, 0.0, 0.0])
        V, gx, gt = flows.lyapunov_gradients(cost, x, np.zeros(3))
        assert V == 0.5
        assert np.array_equal(gx, [1.0, 0.0, 0.0])
        assert np.array_equal(gt, [-1.0, 0.0, 0.0])

    def test_cost_scaling_quadruples_value(self):
        x = np.array([0.4, -1.2])
        theta = np.zeros(2)
        V1 = flows.lyapunov_gradients(ScaledQuadratic(1.0), x, theta)[0]
        V2 = flows.lyapunov_gradients(ScaledQuadratic(2.0), x, theta)[0]
        assert V2 == pytest.approx(4.0 * V1, rel=1e-14)


class TestRedesignCondition:
    def test_zero_input_zero_drift(self):
        lhs = flows.check_redesign_condition(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2))
        assert lhs == 0.0

    def test_positive_lhs_fails(self):
        lhs = flows.check_redesign_condition(np.array([1.0]), np.array([0.0]),
                                             np.array([1.0]), np.array([0.0]))
        assert lhs == 1.0

    def test_ideal_correction_cancels_exactly(self):
        rng = np.random.default_rng(6)
        for cost in (flows.QuadraticTrackingCost(3), flows.LogCoshTrackingCost(3)):
            for _ in range(50):
                x, theta, v = rng.standard_normal((3, 3))
                u = flows.ideal_correction(cost, x, theta, v)
                _, gx, gt = flows.lyapunov_gradients(cost, x, theta)
                lhs = flows.check_redesign_condition(gx, gt, u, v)
                assert abs(lhs) <= 1e-9


# Finite terms, exact zeros of both signs, and magnitudes whose sums and
# squares overflow to inf.
_TERM = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False))


class TestComponentSum:
    @settings(max_examples=300, deadline=None)
    @given(a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=7),
                        elements=_TERM))
    @example(a=np.full((4, 3), -0.0))
    def test_equals_numpy_up_to_seven_components(self, a):
        # numpy adds up to 7 trailing components in order from +0.0, so the
        # bits agree, the sign of a zero included (an all -0.0 row sums to +0.0).
        with np.errstate(over="ignore", invalid="ignore"):
            pairs = [(flows.component_sum(a), np.sum(a, axis=-1)),
                     (np.sqrt(flows.component_sum(a * a)), np.linalg.norm(a, axis=-1))]
        for got, want in pairs:
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @settings(max_examples=100, deadline=None)
    @given(a=hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(8, 40)),
                        elements=st.floats(-1e6, 1e6)))
    def test_close_to_numpy_past_seven_components(self, a):
        # numpy sums 8 or more components pairwise; the orders agree to the
        # 1e-12 relative tolerance of a reordered sum.
        tol = 1e-12 * np.sum(np.abs(a), axis=-1)
        assert np.all(np.abs(flows.component_sum(a) - np.sum(a, axis=-1)) <= tol)
        norm = np.linalg.norm(a, axis=-1)
        assert np.all(np.abs(np.sqrt(flows.component_sum(a * a)) - norm) <= 1e-12 * norm)


class TestOracleConsistency:
    COSTS = (flows.QuadraticTrackingCost(3), flows.LogCoshTrackingCost(3))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        h = 1e-6
        for cost in self.COSTS:
            for _ in range(50):
                x = rng.uniform(-2.0, 2.0, cost.n)
                theta = rng.uniform(-2.0, 2.0, cost.p)
                g = cost.gradient(x, theta)
                for i in range(cost.n):
                    e = np.zeros(cost.n)
                    e[i] = h
                    fd = (cost.value(x + e, theta) - cost.value(x - e, theta)) / (2 * h)
                    assert abs(fd - g[i]) <= 1e-6 * max(1.0, abs(g[i]))

    def test_second_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(32)
        h = 1e-5
        for cost in self.COSTS:
            for _ in range(50):
                x = rng.uniform(-2.0, 2.0, cost.n)
                theta = rng.uniform(-2.0, 2.0, cost.p)
                H = cost.hessian(x, theta)
                X = cost.cross_hessian(x, theta)
                for i in range(cost.n):
                    e = np.zeros(cost.n)
                    e[i] = h
                    fd_h = (cost.gradient(x + e, theta) - cost.gradient(x - e, theta)) / (2 * h)
                    assert np.all(np.abs(fd_h - H[:, i]) <= 1e-5 * np.maximum(1.0, np.abs(H[:, i])))
                for i in range(cost.p):
                    e = np.zeros(cost.p)
                    e[i] = h
                    fd_x = (cost.gradient(x, theta + e) - cost.gradient(x, theta - e)) / (2 * h)
                    assert np.all(np.abs(fd_x - X[:, i]) <= 1e-5 * np.maximum(1.0, np.abs(X[:, i])))

    def test_diagonal_hessian_declares_both_matrices(self):
        # Each shipped cost declares Hessian diag(c) and cross-Hessian
        # -diag(c); a cost that does not declares None.
        rng = np.random.default_rng(35)
        for cost in self.COSTS:
            for _ in range(20):
                x = rng.uniform(-3.0, 3.0, cost.n)
                theta = rng.uniform(-3.0, 3.0, cost.p)
                c = np.broadcast_to(cost.diagonal_hessian(x, theta), (cost.n,))
                assert np.array_equal(cost.hessian(x, theta), np.diag(c))
                assert np.array_equal(cost.cross_hessian(x, theta), -np.diag(c))
        assert FixedDiagonalCost().diagonal_hessian(np.ones(2), np.zeros(1)) is None

    def test_minimizer_zeroes_gradient(self):
        rng = np.random.default_rng(33)
        for cost in self.COSTS:
            for _ in range(100):
                theta = rng.uniform(-5.0, 5.0, cost.p)
                xstar = cost.minimizer(theta)
                assert np.linalg.norm(cost.gradient(xstar, theta)) <= 1e-9

    def test_hessian_strong_convexity(self):
        rng = np.random.default_rng(34)
        for cost in self.COSTS:
            for _ in range(20):
                x = rng.uniform(-3.0, 3.0, cost.n)
                theta = rng.uniform(-3.0, 3.0, cost.p)
                H = cost.hessian(x, theta)
                assert np.array_equal(H, H.T)
                assert np.min(np.linalg.eigvalsh(H)) >= cost.mu - 1e-12

    def test_logcosh_stable_for_large_arguments(self):
        cost = flows.LogCoshTrackingCost(1)
        value = cost.value(np.array([1000.0]), np.zeros(1))
        assert math.isfinite(value)
        # log cosh u -> |u| - log 2 for large |u|
        assert value == pytest.approx(1000.0 - math.log(2.0) + 0.05 * 1e6, rel=1e-12)


class TestContraction:
    def test_ideal_newton_contracts_like_exponential(self):
        # With the exact correction on the quadratic tracker the error obeys
        # e' = -e; RK4 reproduces the decay to integrator precision.
        cost = flows.QuadraticTrackingCost(3)
        signal = signals.benchmark_parameter_path()
        cfg = sim.SimConfig(t0=0.0, tf=10.0, h=1e-3)

        def rhs(t, x):
            theta, theta_dot = (signal.eval_many([t], order)[0] for order in (0, 1))
            return flows.corrected_newton_rhs(cost, x, theta, theta_dot)

        traj = reference.integrate_rk4(rhs, np.zeros(3), cfg)
        x = np.column_stack([traj.column(f"x_{i}") for i in range(3)])
        theta = signal.eval_many(traj.t, 0)
        err = np.linalg.norm(x - theta, axis=1)
        e0 = np.linalg.norm(theta[0])
        assert np.max(np.abs(err - e0 * np.exp(-traj.t))) <= 1e-8


class TestLookups:
    def test_cost_by_name(self):
        assert isinstance(flows.cost_by_name("quadratic-tracking", 3),
                          flows.QuadraticTrackingCost)
        assert isinstance(flows.cost_by_name("logcosh", 2), flows.LogCoshTrackingCost)
        with pytest.raises(ValueError):
            flows.cost_by_name("cubic", 2)

    def test_mode_from_string(self):
        assert flows.CorrectionMode.from_string("ideal") is flows.CorrectionMode.IDEAL
        assert flows.CorrectionMode.from_string(" NONE ") is flows.CorrectionMode.NONE
        with pytest.raises(ValueError):
            flows.CorrectionMode.from_string("magic")
