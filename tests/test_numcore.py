"""SPD solves and least squares against residual and closed-form oracles."""

import numpy as np
import pytest

from mpgworkbench.numcore import NumericalError, least_squares, solve_spd


def random_spd(rng, d):
    M = rng.normal(size=(d, d))
    return M.T @ M + np.eye(d)


# --- solve_spd

def test_identity_solve(rng):
    b = rng.normal(size=5)
    np.testing.assert_allclose(solve_spd(np.eye(5), b), b, atol=1e-14)


def test_diagonal_solve():
    np.testing.assert_allclose(
        solve_spd(np.diag([4.0, 9.0]), np.array([8.0, 27.0])), [2.0, 3.0],
        atol=1e-12)


def test_random_spd_residual(rng):
    for _ in range(20):
        d = int(rng.integers(1, 12))
        A = random_spd(rng, d)
        b = rng.normal(size=d)
        x = solve_spd(A, b)
        assert np.abs(A @ x - b).max() < 1e-8 * (1.0 + np.abs(b).max())


def test_asymmetric_rejected(rng):
    A = rng.normal(size=(4, 4))
    with pytest.raises(ValueError, match="symmetric"):
        solve_spd(A, np.zeros(4))


def test_not_positive_definite_rejected():
    A = np.array([[1.0, 2.0], [2.0, 1.0]])  # symmetric, indefinite
    with pytest.raises(NumericalError, match="positive definite"):
        solve_spd(A, np.zeros(2))


def test_shape_errors():
    with pytest.raises(ValueError):
        solve_spd(np.ones((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        solve_spd(np.eye(2), np.zeros(3))


# --- least_squares

def test_exact_fit_single_column():
    beta = least_squares(np.array([[1.0], [2.0]]), np.array([2.0, 4.0]))
    np.testing.assert_allclose(beta, [2.0], atol=1e-12)


def test_constant_target_with_intercept_column(rng):
    X = np.column_stack([np.ones(10), rng.normal(size=(10, 3))])
    beta = least_squares(X, np.full(10, 5.0))
    np.testing.assert_allclose(beta, [5.0, 0.0, 0.0, 0.0], atol=1e-10)


def test_matches_normal_equations(rng):
    for _ in range(10):
        n, p = int(rng.integers(8, 40)), int(rng.integers(1, 6))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        beta = least_squares(X, y)
        beta_ne = solve_spd(X.T @ X, X.T @ y)
        np.testing.assert_allclose(beta, beta_ne, atol=1e-8)


def test_residual_orthogonality(rng):
    for _ in range(10):
        n, p = int(rng.integers(10, 60)), int(rng.integers(1, 8))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        r = y - X @ least_squares(X, y)
        assert np.abs(X.T @ r).max() <= 1e-8 * n


def test_rank_deficiency_rejected():
    X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # duplicated direction
    with pytest.raises(NumericalError, match="rank"):
        least_squares(X, np.array([1.0, 2.0, 3.0]))


def test_underdetermined_rejected():
    with pytest.raises(ValueError):
        least_squares(np.ones((2, 3)), np.zeros(2))
