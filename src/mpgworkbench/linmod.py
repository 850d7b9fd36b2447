"""Linear model family: OLS, ridge, lasso, elastic net and L2-regularized
logistic regression.

Penalty conventions (documented because they differ across libraries):

* ridge:       ||y - b0 - X b||^2 + lam * ||b||^2
* lasso:       (1/2n) ||y - b0 - X b||^2 + alpha * ||b||_1
* elastic net: (1/2n) ||y - b0 - X b||^2
               + alpha * l1_ratio * ||b||_1 + (alpha/2) * (1 - l1_ratio) * ||b||^2
* logistic:    sum_i log(1 + exp(-s_i * f(x_i))) + (1/2C) ||b||^2, s_i = +/-1

The intercept is never penalized.  With l1_ratio = 0 the elastic net
matches ridge at lam = n * alpha; with l1_ratio = 1 it matches lasso.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import least_squares, solve_spd


class ConvergenceError(RuntimeError):
    """Iterative fit failed to converge; carries the last iterate."""

    def __init__(self, message: str, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


@dataclass(frozen=True)
class LinearModel:
    coefficients: np.ndarray
    intercept: float


def linear_predict(m: LinearModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape[1] != m.coefficients.shape[0]:
        raise ValueError("dimension mismatch between model and X")
    return m.intercept + X @ m.coefficients


def fit_ols(X: np.ndarray, y: np.ndarray) -> LinearModel:
    """Ordinary least squares with intercept, via QR on [1 | X]."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.column_stack([np.ones(X.shape[0]), X])
    beta = least_squares(design, y)
    return LinearModel(coefficients=beta[1:], intercept=float(beta[0]))


def fit_ridge(X: np.ndarray, y: np.ndarray, lam: float) -> LinearModel:
    """Ridge regression, closed form on centered data (intercept free)."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    yc = y - y_mean
    p = X.shape[1]
    beta = solve_spd(Xc.T @ Xc + lam * np.eye(p), Xc.T @ yc)
    intercept = y_mean - x_mean @ beta
    return LinearModel(coefficients=beta, intercept=float(intercept))


def _centered_moments(X, y):
    """Column means, target mean, and the covariances G = Xc^T Xc / n and
    c = Xc^T yc / n of the centered data, G and c as Python lists."""
    n = X.shape[0]
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    G = Xc.T @ Xc / n
    return x_mean, y_mean, G.tolist(), (Xc.T @ (y - y_mean) / n).tolist()


def _coordinate_descent(X, y, l1: float, l2: float, tol: float, max_sweeps: int):
    """Cyclic coordinate descent for (1/2n)||y - b0 - Xb||^2
    + l1 ||b||_1 + (l2/2) ||b||^2 with covariance updates (Friedman,
    Hastie & Tibshirani 2010): the unpenalized intercept is profiled out
    by centering, and r = c - G beta is kept current in p multiply-adds
    per changed coefficient.  Returns (beta, intercept)."""
    x_mean, y_mean, G, r = _centered_moments(X, y)
    beta = [0.0] * len(r)
    indices = range(len(r))
    coords = [(j, Gj, Gj[j], Gj[j] + l2) for j, Gj in enumerate(G)]
    max_change = float("inf")
    for _ in range(max_sweeps):
        max_change = 0.0
        for j, Gj, Gjj, denom in coords:
            old = beta[j]
            rho = r[j] + Gjj * old
            # soft-threshold rho at l1, then scale (a constant column,
            # whose G_jj is 0, always lands in the zero branch)
            if rho > l1:
                new = (rho - l1) / denom
            elif rho < -l1:
                new = (rho + l1) / denom
            else:
                new = 0.0
            if new != old:
                d = new - old
                for k in indices:
                    r[k] -= d * Gj[k]
                beta[j] = new
                max_change = max(max_change, abs(d))
        if max_change < tol:
            break
    b = np.array(beta)
    fit = (b, float(y_mean - x_mean @ b))
    if max_change >= tol:
        raise ConvergenceError(
            f"coordinate descent did not converge in {max_sweeps} sweeps",
            last_iterate=fit,
        )
    return fit


def fit_lasso(X: np.ndarray, y: np.ndarray, alpha: float,
              tol: float = 1e-7, max_sweeps: int = 10000) -> LinearModel:
    """Lasso: the elastic net at l1_ratio = 1 (l1 = alpha, l2 = 0)."""
    return fit_elastic_net(X, y, alpha, 1.0, tol, max_sweeps)


def lasso_alpha_max(X: np.ndarray, y: np.ndarray) -> float:
    """Smallest alpha at which every lasso coefficient is exactly zero."""
    # the cold-start sweep's first rho for every coordinate, bit for bit,
    # so soft-thresholding at this alpha zeroes every coefficient
    _, _, _, c = _centered_moments(np.asarray(X, dtype=float),
                                   np.asarray(y, dtype=float))
    return max(abs(v) for v in c)


def fit_elastic_net(X: np.ndarray, y: np.ndarray, alpha: float, l1_ratio: float,
                    tol: float = 1e-7, max_sweeps: int = 10000) -> LinearModel:
    """Elastic net via coordinate descent (combined shrink-and-threshold)."""
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if not 0.0 <= l1_ratio <= 1.0:
        raise ValueError("l1_ratio must lie in [0, 1]")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    l1 = alpha * l1_ratio
    l2 = alpha * (1.0 - l1_ratio)
    beta, intercept = _coordinate_descent(X, y, l1, l2, tol, max_sweeps)
    return LinearModel(coefficients=beta, intercept=float(intercept))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_objective(w: np.ndarray, X: np.ndarray, s: np.ndarray, C: float) -> float:
    """Penalized negative log-likelihood; w = [intercept, beta], s = +/-1."""
    z = s * (w[0] + X @ w[1:])
    # log(1 + exp(-z)) computed stably
    loss = np.logaddexp(0.0, -z).sum()
    return float(loss + (w[1:] @ w[1:]) / (2.0 * C))


def logistic_gradient(w: np.ndarray, X: np.ndarray, s: np.ndarray, C: float) -> np.ndarray:
    z = s * (w[0] + X @ w[1:])
    coef = -s * _sigmoid(-z)  # d/df log(1+exp(-s f)) = -s sigma(-s f)
    grad = np.empty_like(w)
    grad[0] = coef.sum()
    grad[1:] = X.T @ coef + w[1:] / C
    return grad


def fit_logistic(X: np.ndarray, labels: np.ndarray, C: float,
                 tol: float = 1e-8, max_iter: int = 100) -> LinearModel:
    """L2-regularized logistic regression by damped Newton iterations."""
    if C <= 0:
        raise ValueError("C must be > 0")
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if not np.isin(classes, (0, 1)).all():
        raise ValueError("labels must be in {0, 1}")
    if classes.size < 2:
        raise ValueError("both classes must be present")
    s = np.where(labels == 1, 1.0, -1.0)
    n, p = X.shape
    w = np.zeros(p + 1)
    obj = logistic_objective(w, X, s, C)
    for _ in range(max_iter):
        grad = logistic_gradient(w, X, s, C)
        if np.abs(grad).max() < tol:
            break
        z = s * (w[0] + X @ w[1:])
        prob = _sigmoid(-z)
        weights = prob * (1.0 - prob)  # sigma(z)(1 - sigma(z)) is sign-symmetric
        design = np.column_stack([np.ones(n), X])
        H = design.T @ (design * weights[:, None])
        H[1:, 1:] += np.eye(p) / C
        H[np.diag_indices_from(H)] += 1e-12  # guard for flat regions
        step = solve_spd(H, grad)
        t = 1.0
        while t > 1e-12:
            candidate = w - t * step
            cand_obj = logistic_objective(candidate, X, s, C)
            if cand_obj <= obj:
                w = candidate
                obj = cand_obj
                break
            t /= 2.0
        else:
            break  # no descent possible; gradient is numerically flat
    else:
        grad = logistic_gradient(w, X, s, C)
        if np.abs(grad).max() >= tol:
            raise ConvergenceError("logistic Newton did not converge",
                                   last_iterate=w)
    return LinearModel(coefficients=w[1:], intercept=float(w[0]))


def logistic_scores(m: LinearModel, X: np.ndarray) -> np.ndarray:
    """Class-1 probabilities through the logistic link; always in (0, 1)."""
    p = _sigmoid(linear_predict(m, X))
    return np.clip(p, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
