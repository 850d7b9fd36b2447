"""Dense linear algebra for the model families: SPD solves and least
squares.  Backed by LAPACK through numpy (Cholesky / Householder QR),
with the contracts enforced here."""

from __future__ import annotations

import numpy as np


class NumericalError(RuntimeError):
    """Raised on numerical failure (non-SPD matrix, rank deficiency)."""


def solve_spd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive-definite A via Cholesky."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if b.shape[0] != A.shape[0]:
        raise ValueError("dimension mismatch between A and b")
    scale = max(1.0, np.abs(A).max())
    if np.abs(A - A.T).max() > 1e-9 * scale:
        raise ValueError("A is not symmetric within 1e-9")
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise NumericalError("matrix is not positive definite") from None
    z = np.linalg.solve(L, b)  # general LU solve, partial pivoting (LAPACK gesv)
    return np.linalg.solve(L.T, z)


def least_squares(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimize ||y - X beta||_2 via Householder QR.

    Raises NumericalError when an R diagonal falls below 1e-12 * ||X||
    (rank deficiency).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    n, p = X.shape
    if n < p:
        raise ValueError(f"need n >= p, got n={n}, p={p}")
    if y.shape[0] != n:
        raise ValueError("dimension mismatch between X and y")
    Q, R = np.linalg.qr(X)  # reduced QR, Householder-based
    norm_x = np.abs(X).max()
    if norm_x == 0.0 or np.abs(np.diag(R)).min() < 1e-12 * norm_x:
        raise NumericalError("X is rank deficient")
    return np.linalg.solve(R, Q.T @ y)
