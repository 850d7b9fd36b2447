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

from .numcore import NumericalError, least_squares, solve_spd


class ConvergenceError(NumericalError):
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
    c = Xc^T yc / n of the centered data."""
    n = X.shape[0]
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    return x_mean, y_mean, Xc.T @ Xc / n, Xc.T @ (y - y_mean) / n


def _coordinate_descent(G, c, l1, l2, tol: float, max_sweeps: int):
    """Cyclic coordinate descent for (1/2n)||y - b0 - Xb||^2
    + l1 ||b||_1 + (l2/2) ||b||^2 with covariance updates (Friedman,
    Hastie & Tibshirani 2010): the unpenalized intercept is profiled out
    by centering, and r = c - G beta is kept current in p multiply-adds
    per changed coefficient.  L fits run as lanes in lock-step, lane i
    with its own G[i] (p x p), c[i], l1[i] and l2[i], each doing one fit's
    arithmetic; a lane freezes after its first sweep that changes no
    coefficient by tol or more.  Returns the (L, p) coefficients and the
    mask of lanes still moving after max_sweeps sweeps."""
    n_lanes, p = c.shape
    G = np.ascontiguousarray(G.transpose(1, 2, 0))  # G[j]: row j per lane
    r = c.T.copy()  # (p, L), like beta
    beta = np.zeros((p, n_lanes))
    coords = [(r[j], G[j], G[j, j], G[j, j] + l2, beta[j]) for j in range(p)]
    neg_l1 = -l1
    moving = np.ones(n_lanes, dtype=bool)
    # a constant column (G_jj = 0) at l2 = 0 divides by 0 only in the
    # branches np.where discards: it always lands in the zero branch
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_sweeps):
            if not moving.any():
                break
            change = np.zeros(n_lanes)
            for rj, Gj, Gjj, denom, old in coords:
                rho = rj + Gjj * old
                # soft-threshold rho at l1, then scale
                new = np.where(rho > l1, (rho - l1) / denom,
                               np.where(rho < neg_l1, (rho + l1) / denom, 0.0))
                # a lane that did not move leaves r untouched: even
                # subtracting 0 * G_jk could turn -0.0 into +0.0
                moved = (new != old) & moving
                d = new - old
                np.subtract(r, d * Gj, out=r, where=moved)
                np.copyto(old, new, where=moved)
                np.maximum(change, np.abs(d), out=change, where=moved)
            moving &= change >= tol
    return beta.T.copy(), moving


def fit_lasso(X: np.ndarray, y: np.ndarray, alpha: float,
              tol: float = 1e-7, max_sweeps: int = 10000) -> LinearModel:
    """Lasso: the elastic net at l1_ratio = 1 (l1 = alpha, l2 = 0)."""
    return fit_elastic_net(X, y, alpha, 1.0, tol, max_sweeps)


def fit_elastic_net(X: np.ndarray, y: np.ndarray, alpha: float, l1_ratio: float,
                    tol: float = 1e-7, max_sweeps: int = 10000) -> LinearModel:
    """Elastic net via coordinate descent (combined shrink-and-threshold)."""
    return fit_elastic_net_grid([(X, y)], [alpha], l1_ratio, tol, max_sweeps)[0][0]


def fit_elastic_net_grid(folds: list, alphas, l1_ratio: float,
                         tol: float = 1e-7,
                         max_sweeps: int = 10000) -> list[list[LinearModel]]:
    """Elastic nets on each training set (X, y) of ``folds`` at each of
    ``alphas``, as lanes of one coordinate descent: per fold, the models
    in alpha order.  ConvergenceError names the first stuck fit."""
    if any(alpha <= 0 for alpha in alphas):
        raise ValueError("alpha must be > 0")
    if not 0.0 <= l1_ratio <= 1.0:
        raise ValueError("l1_ratio must lie in [0, 1]")
    moments = [_centered_moments(np.asarray(X, dtype=float),
                                 np.asarray(y, dtype=float)) for X, y in folds]
    alphas = np.asarray(alphas, dtype=float)
    k, n_alphas = len(folds), alphas.size  # lane i: fold i // n_alphas
    beta, stuck = _coordinate_descent(
        np.repeat([m[2] for m in moments], n_alphas, axis=0),
        np.repeat([m[3] for m in moments], n_alphas, axis=0),
        np.tile(alphas * l1_ratio, k), np.tile(alphas * (1.0 - l1_ratio), k),
        tol, max_sweeps)
    per_fold = beta.reshape(k, n_alphas, -1)
    fits = [[LinearModel(b, float(y_mean - x_mean @ b)) for b in lanes]
            for lanes, (x_mean, y_mean, _, _) in zip(per_fold, moments)]
    if stuck.any():
        fold, a = divmod(int(stuck.argmax()), n_alphas)
        m = fits[fold][a]
        raise ConvergenceError(
            f"coordinate descent did not converge in {max_sweeps} sweeps "
            f"at alpha={float(alphas[a])} on fold {fold + 1} of {k}",
            last_iterate=(m.coefficients, m.intercept))
    return fits


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
