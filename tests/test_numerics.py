import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ddopt import numerics


class TestSolveLinear:
    def test_identity(self):
        x = numerics.solve_linear(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(x, [1.0, 2.0, 3.0])

    def test_diagonal(self):
        x = numerics.solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        assert np.array_equal(x, [1.0, 2.0])

    def test_two_by_two_inverse(self):
        # A^{-1} = [[-2, -1], [1, 0]] by hand, so A^{-1} (1, 0) = (-2, 1).
        A = np.array([[0.0, 1.0], [-1.0, -2.0]])
        x = numerics.solve_linear(A, np.array([1.0, 0.0]))
        assert np.allclose(x, [-2.0, 1.0], atol=1e-14)

    def test_singular_raises(self):
        with pytest.raises(numerics.SingularMatrixError):
            numerics.solve_linear(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))

    def test_near_singular_raises(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        with pytest.raises(numerics.SingularMatrixError):
            numerics.solve_linear(A, np.array([1.0, 1.0]))

    def test_zero_matrix_raises(self):
        with pytest.raises(numerics.SingularMatrixError):
            numerics.solve_linear(np.zeros((2, 2)), np.array([1.0, 1.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            numerics.solve_linear(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            numerics.solve_linear(np.eye(2), np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("A,b", [(np.stack([np.eye(2)] * 3), np.ones((2, 2))),
                                     (np.ones((2, 3)), np.ones(2))])
    def test_stack_or_shape_mismatch(self, A, b):
        with pytest.raises(ValueError):
            numerics.solve_linear(A, b)

    def test_complex_system(self):
        A = np.array([[1.0 + 1.0j, 0.0], [0.0, 2.0]])
        x = numerics.solve_linear(A, np.array([1.0 + 0.0j, 4.0 + 2.0j]))
        assert np.allclose(A @ x, [1.0, 4.0 + 2.0j], atol=1e-14)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        B = rng.standard_normal((4, 2))
        X = numerics.solve_linear(A, B)
        assert X.shape == (4, 2)
        assert np.allclose(A @ X, B, atol=1e-12)

    def test_roundtrip_random_well_conditioned(self):
        # A x recovers b to 1e-9 relative for diagonally dominant A up to 8x8.
        rng = np.random.default_rng(7)
        for n in range(1, 9):
            for _ in range(10):
                A = rng.standard_normal((n, n)) + n * np.eye(n)
                b = rng.standard_normal(n)
                x = numerics.solve_linear(A, b)
                assert np.linalg.norm(A @ x - b) <= 1e-9 * max(1.0, np.linalg.norm(b))

    def test_small_and_general_paths_agree(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        b = rng.standard_normal(3)
        x_small = numerics.solve_linear(A, b)
        x_general = numerics.solve_linear(A, b.reshape(3, 1))[:, 0]
        assert np.allclose(x_small, x_general, rtol=1e-14)

    def test_badly_scaled_but_regular(self):
        # Columns differ by 1e8 in scale; per-column pivot thresholds must pass it.
        A = np.array([[1e8, 1.0], [0.0, 1e-4]])
        x = numerics.solve_linear(A, np.array([1e8, 1e-4]))
        assert np.allclose(x, [1.0, 1.0], rtol=1e-9)


@st.composite
def _stacked_systems(draw):
    """A stack of well-conditioned real or complex systems whose rows are
    permuted, so elimination must pivot, with one or several right-hand
    sides per system."""
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 20))
    k = draw(st.sampled_from([None, 1, 3]))
    dtype = draw(st.sampled_from([np.float64, np.complex128]))
    entries = st.floats(-1.0, 1.0) if dtype is np.float64 else st.complex_numbers(max_magnitude=1.0)
    A = draw(hnp.arrays(dtype, (m, n, n), elements=entries)) + 2 * n * np.eye(n)
    A = A[:, draw(st.permutations(range(n)))]
    b = draw(hnp.arrays(dtype, (m, n) if k is None else (m, n, k), elements=entries))
    return A, b


class TestSolveLinearStacked:
    @settings(max_examples=100, deadline=None)
    @given(systems=_stacked_systems())
    def test_stack_equals_each_system_alone(self, systems):
        A, b = systems
        x = numerics.solve_linear(A, b)
        assert x.shape == b.shape
        for Ai, bi, xi in zip(A, b, x):
            assert np.array_equal(numerics.solve_linear(Ai, bi), xi)
        columns = (len(A), A.shape[-1], -1)
        assert np.allclose(A @ x.reshape(columns), b.reshape(columns), atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(systems=_stacked_systems(), data=st.data())
    def test_one_singular_member_raises(self, systems, data):
        A, b = systems
        n = A.shape[-1]
        s = data.draw(st.integers(0, len(A) - 1))
        if n == 1:
            A[s] = 0.0
        else:
            i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                      unique=True))
            A[s, :, j] = data.draw(st.floats(0.5, 2.0)) * A[s, :, i]
        with pytest.raises(numerics.SingularMatrixError):
            numerics.solve_linear(A, b)


class TestExpm:
    def test_zero_matrix(self):
        assert np.array_equal(numerics.expm(np.zeros((2, 2))), np.eye(2))

    def test_diagonal(self):
        E = numerics.expm(np.diag([math.log(2.0), math.log(3.0)]))
        assert np.allclose(E, np.diag([2.0, 3.0]), rtol=1e-12)

    def test_nilpotent_first_order(self):
        h = 0.37
        E = numerics.expm(np.array([[0.0, h], [0.0, 0.0]]))
        assert np.allclose(E, [[1.0, h], [0.0, 1.0]], atol=1e-15)

    def test_inverse_identity(self):
        # expm(A) expm(-A) = I within 1e-9 elementwise, stable A with norm <= 10.
        rng = np.random.default_rng(5)
        for n in (2, 3, 5):
            for _ in range(5):
                A = rng.standard_normal((n, n))
                A = A - (np.max(np.real(np.linalg.eigvals(A))) + 0.5) * np.eye(n)
                A *= 10.0 / max(1.0, np.linalg.norm(A, 2))
                P = numerics.expm(A) @ numerics.expm(-A)
                assert np.max(np.abs(P - np.eye(n))) <= 1e-9

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            numerics.expm(np.array([[np.inf, 0.0], [0.0, 0.0]]))


class TestLyapunov:
    def test_scalar(self):
        P = numerics.lyapunov_solve(np.array([[-1.0]]), np.array([[1.0]]))
        assert np.allclose(P, [[0.5]], atol=1e-14)

    def test_companion_two_by_two(self):
        # Solving the three scalar equations by hand gives [[1.5, .5], [.5, .5]].
        A = np.array([[0.0, 1.0], [-1.0, -2.0]])
        P = numerics.lyapunov_solve(A, np.eye(2))
        assert np.allclose(P, [[1.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_decoupled_diagonal(self):
        P = numerics.lyapunov_solve(np.diag([-1.0, -2.0]), np.eye(2))
        assert np.allclose(P, np.diag([0.5, 0.25]), atol=1e-14)

    def test_residual_and_symmetry(self):
        rng = np.random.default_rng(9)
        for n in range(1, 7):
            A = rng.standard_normal((n, n)) - (n + 2.0) * np.eye(n)
            Q = rng.standard_normal((n, n))
            Q = Q @ Q.T + np.eye(n)
            P = numerics.lyapunov_solve(A, Q)
            assert np.array_equal(P, P.T)
            assert np.linalg.norm(A.T @ P + P @ A + Q) <= 1e-10

    def test_non_hurwitz_raises(self):
        with pytest.raises(numerics.SingularMatrixError):
            numerics.lyapunov_solve(np.array([[0.0]]), np.array([[1.0]]))

    def test_asymmetric_q_rejected(self):
        with pytest.raises(ValueError):
            numerics.lyapunov_solve(np.array([[-1.0]]), np.array([[1.0, 0.0]]))


class TestEigExtremes:
    def test_diagonal(self):
        lo, hi = numerics.eig_extremes_symmetric(np.diag([0.5, 0.25]))
        assert (lo, hi) == (0.25, 0.5)

    def test_two_by_two_closed_form(self):
        # trace/2 +- sqrt((trace/2)^2 - det) = 1 -+ 1/sqrt(2).
        lo, hi = numerics.eig_extremes_symmetric(np.array([[1.5, 0.5], [0.5, 0.5]]))
        assert abs(lo - (1.0 - 1.0 / math.sqrt(2.0))) <= 1e-10
        assert abs(hi - (1.0 + 1.0 / math.sqrt(2.0))) <= 1e-10

    def test_identity(self):
        assert numerics.eig_extremes_symmetric(np.eye(3)) == (1.0, 1.0)

    def test_matches_reference_on_random(self):
        rng = np.random.default_rng(13)
        for n in (2, 4, 6):
            for _ in range(5):
                S = rng.standard_normal((n, n))
                S = 0.5 * (S + S.T)
                lo, hi = numerics.eig_extremes_symmetric(S)
                evals = np.linalg.eigvalsh(S)
                assert abs(lo - evals[0]) <= 1e-9
                assert abs(hi - evals[-1]) <= 1e-9

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            numerics.eig_extremes_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
