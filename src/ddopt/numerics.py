"""Small dense linear-algebra kernel.

Thin checked wrappers over LAPACK (through numpy/scipy) for the tiny
matrices involved (n below ~30): an LU solve with per-column pivot
thresholds, the matrix exponential, a Lyapunov solve by Kronecker
vectorization, and symmetric eigenvalue extremes. Matrices and vectors are
ordinary float64 (or complex128) numpy arrays; shape, finiteness and pivot
size are validated at the operation boundary. ``scipy.linalg`` is imported
by the functions that call it, not with the module: it takes most of the
time of importing ddopt, and the run commands mostly do not need it.
"""

from __future__ import annotations

import warnings

import numpy as np


class SingularMatrixError(Exception):
    """A linear solve hit a pivot too small to trust."""


# Pivot threshold, relative to the largest initial magnitude of the pivot's column.
PIVOT_RTOL = 1e-12


def _check_finite(a: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")


def _square_dim(A: np.ndarray) -> int:
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A.shape[0]


def solve_linear(A, b):
    """Solve A x = b by LU factorization with partial pivoting (LAPACK).

    ``b`` may be a vector or a matrix of stacked right-hand sides; the result
    has the same shape. Complex inputs are supported (used by the frequency
    response helper). Raises :class:`SingularMatrixError` when a pivot falls
    below ``PIVOT_RTOL`` times the largest initial magnitude of its column.
    """
    A = np.asarray(A)
    b = np.asarray(b)
    n = _square_dim(A)
    if b.shape[0] != n:
        raise ValueError(f"rhs dimension {b.shape[0]} does not match matrix size {n}")
    _check_finite(A, "matrix")
    _check_finite(b, "rhs")

    # Pivot thresholds are per elimination column, relative to that column's
    # largest initial magnitude, so badly scaled but regular systems pass.
    tol = PIVOT_RTOL * np.max(np.abs(A), axis=0)
    import scipy.linalg
    with warnings.catch_warnings():
        # An exactly zero pivot is reported below as SingularMatrixError.
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    pivots = np.diag(lu)
    small = np.flatnonzero(np.abs(pivots) <= tol)
    if small.size:
        col = int(small[0])
        raise SingularMatrixError(
            f"pivot {pivots[col].item()!r} in column {col} below threshold {tol[col].item()!r}")
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def expm(A):
    """Matrix exponential e^A (scaling-and-squaring Pade, via scipy)."""
    A = np.asarray(A, dtype=np.float64)
    _square_dim(A)
    _check_finite(A, "matrix")
    import scipy.linalg
    return scipy.linalg.expm(A)


def lyapunov_solve(A, Q):
    """Solve A^T P + P A = -Q for symmetric P.

    Vectorizes to the n^2 x n^2 dense system (I (x) A^T + A^T (x) I) vec(P)
    = -vec(Q) and symmetrizes the result. ``A`` must be Hurwitz for a
    positive-definite solution to exist; a singular Kronecker system (raised
    as :class:`SingularMatrixError`) signals it is not.
    """
    A = np.asarray(A, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    n = _square_dim(A)
    if Q.shape != (n, n):
        raise ValueError(f"Q shape {Q.shape} does not match A shape {A.shape}")
    if not np.allclose(Q, Q.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.max(np.abs(Q))))):
        raise ValueError("Q must be symmetric")
    eye = np.eye(n)
    K = np.kron(eye, A.T) + np.kron(A.T, eye)
    # Column-major vec so that vec(A^T P) = (I (x) A^T) vec(P).
    p = solve_linear(K, -Q.flatten(order="F"))
    P = p.reshape((n, n), order="F")
    return 0.5 * (P + P.T)


def eig_extremes_symmetric(P):
    """Extreme eigenvalues (smallest, largest) of a symmetric matrix."""
    P = np.asarray(P, dtype=np.float64)
    _square_dim(P)
    _check_finite(P, "matrix")
    if not np.allclose(P, P.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.max(np.abs(P))))):
        raise ValueError("matrix must be symmetric")
    evals = np.linalg.eigvalsh(P)
    return float(evals[0]), float(evals[-1])
