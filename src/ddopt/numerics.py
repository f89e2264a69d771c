"""Small dense linear-algebra kernel, in numpy, for the tiny matrices involved
(n below ~40): partial-pivot Gaussian elimination over stacked systems with
per-column pivot thresholds, the matrix exponential, a Lyapunov solve by
Kronecker vectorization, and symmetric eigenvalue extremes. Arrays are
float64 (or complex128); shape, finiteness and pivot size are validated at
the operation boundary.
"""

from __future__ import annotations

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
    """Solve A x = b by Gaussian elimination with partial pivoting.

    ``A`` is a matrix (n, n) or a stack (..., n, n), and ``b`` one right-hand
    side (..., n) or several (..., n, k) per system; the result, real or
    complex, is shaped like ``b``. Each step is elementwise over the stack,
    so a system gives the same bits alone as stacked. Raises
    :class:`SingularMatrixError` when a pivot falls below ``PIVOT_RTOL``
    times the largest initial magnitude of its column.
    """
    A, b = np.asarray(A), np.asarray(b)
    if (A.ndim < 2 or A.shape[-1] != A.shape[-2] or b.ndim > A.ndim
            or b.shape[:A.ndim - 1] != A.shape[:-1]):
        raise ValueError(f"cannot solve matrices of shape {A.shape} for rhs of shape {b.shape}")
    _check_finite(A, "matrix")
    _check_finite(b, "rhs")

    # Each system as one augmented matrix [A | b], the stack flattened to one axis.
    n = A.shape[-1]
    M = np.concatenate([A, b if b.ndim == A.ndim else b[..., None]], axis=-1)
    M = M.astype(np.result_type(M, np.float64), copy=False).reshape(-1, n, M.shape[-1])
    # Pivot thresholds are per elimination column, relative to that column's
    # largest initial magnitude, so badly scaled but regular systems pass.
    tol = PIVOT_RTOL * np.max(np.abs(M[:, :, :n]), axis=1)
    systems = np.arange(len(M))
    for k in range(n):
        p = k + np.argmax(np.abs(M[:, k:, k]), axis=1)
        M[systems, k], M[systems, p] = M[systems, p], M[systems, k]
        pivot = M[:, k, k]
        small = np.flatnonzero(np.abs(pivot) <= tol[:, k])
        if small.size:
            raise SingularMatrixError(f"pivot {pivot[small[0]].item()!r} in column {k} "
                                      f"below threshold {tol[small[0], k].item()!r}")
        M[:, k + 1:, k + 1:] -= M[:, k + 1:, k, None] / pivot[:, None, None] * M[:, None, k, k + 1:]
    x = M[:, :, n:]
    for k in range(n - 1, -1, -1):
        x[:, k] /= M[:, k, k, None]
        x[:, :k] -= M[:, :k, k, None] * x[:, None, k]
    return x.reshape(b.shape)


def expm(A):
    """Matrix exponential e^A (scaling-and-squaring Pade, via scipy from the
    ``test`` extra); it serves only :func:`ddopt.estimator.zoh_discretize`."""
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
    P = solve_linear(K, -Q.flatten(order="F")).reshape((n, n), order="F")
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
