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

# fixed points of the iterative fits, read when each fit runs
ACTIVE_SET_MAX_ITER = 1_000  # lock-step iterations of the lasso / elastic-net solve
NEWTON_TOL = 1e-8  # logistic Newton stops at this largest |gradient| entry
NEWTON_MAX_ITER = 100


class ConvergenceError(NumericalError):
    """Iterative fit failed to converge; carries the last iterate as
    (coefficients, intercept)."""

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


def _active_set(G, c, l1, l2):
    """Exact primal active-set solve (Osborne, Presnell & Turlach 2000) of
    (1/2n)||y - b0 - Xb||^2 + l1 ||b||_1 + (l2/2)||b||^2 in covariance form,
    min (1/2) b'Ab - c'b + l1 ||b||_1 with A = G + l2 I, for L lanes in
    lock-step (lane i: its own G[i], c[i], l1[i], l2[i]).  Each iteration
    solves the open lanes' active blocks (identity off the active set S)
    by Gauss-Jordan, which maps a copy of a column of A_SS to exactly a
    unit vector: y, the optimum on S, and u = A_SS^-1 A_Sk.  After a full
    step a lane enters its most violated zero coefficient, |c - Ab|_k > l1,
    from y along s_k (e_k - u), by its excess over the Schur complement or,
    if that is not positive, without bound (a null direction); else it
    steps to y.  An active coefficient reaching zero first blocks the step
    and leaves S.  A lane finishes when nothing enters, or when a full step
    repeats a signed active set: in exact arithmetic each one lowers the
    objective.  Returns the (L, p) coefficients and the open lanes' mask."""
    n_lanes, p = c.shape
    A, eye, b = G + l2[:, None, None] * np.eye(p), np.eye(p), np.zeros(c.shape)
    todo, full = np.ones((2, n_lanes), dtype=bool)  # full: the last step was full
    seen = [np.full(n_lanes, np.nan)]  # signed active sets after full steps
    for it in range(ACTIVE_SET_MAX_ITER + 1):
        g = c - (A @ b[..., None])[..., 0]
        excess = np.where(b == 0.0, np.abs(g) - l1[:, None], -np.inf)
        k = excess.argmax(axis=1)  # entering, if the last step was full
        seen.append(np.where(full, np.sign(b) @ 3.0 ** np.arange(p), np.nan))
        todo &= ~full | ((excess.max(axis=1) > 0.0)
                         & ~(np.array(seen[:-1]) == seen[-1]).any(axis=0))
        if it == ACTIVE_SET_MAX_ITER or not todo.any():
            break
        o = np.flatnonzero(todo)
        lane, Ao, bo, ko, fo = np.arange(o.size), A[o], b[o], k[o], full[o]
        act, Ak, sk = bo != 0.0, Ao[lane, ko], np.sign(g[o, ko])
        rhs = np.stack([c[o] - l1[o, None] * np.sign(bo), Ak], axis=2)
        T = np.concatenate([np.where(act[:, :, None] & act[:, None, :], Ao, eye),
                            np.where(act[:, :, None], rhs, 0.0)], axis=2)
        T = np.ascontiguousarray(T.transpose(1, 2, 0))  # lanes last: rows contiguous
        for j in np.flatnonzero(act.any(axis=0)):  # the rest are unit vectors
            T[j, j:] /= T[j, j]
            T[:, j:] -= np.where(eye[:, j, None, None], 0.0, T[:, j, None]) * T[j, j:]
        y, u = T[:, p].T, T[:, p + 1].T
        z, w = np.where(fo[:, None], [y, sk[:, None] * (eye[ko] - u)], [bo, y - bo])
        schur = Ao[lane, ko, ko] - (Ak * u).sum(axis=1)
        length = np.where(~fo, 1.0, np.divide(excess[o, ko], schur, out=np.full(
            o.size, np.inf), where=schur > 0.0))
        reach = np.divide(-z, w, out=np.full(z.shape, np.inf), where=z * w < 0.0)
        step = np.minimum(length, reach.min(axis=1))
        full[o] = fo = step >= length
        b[o] = z + step[:, None] * w
        b[o[~fo], reach[~fo].argmin(axis=1)] = 0.0
    return b, todo


def fit_lasso(folds: list, alphas, *, names=None) -> list[list[LinearModel]]:
    """Lassos: the elastic nets at l1_ratio = 1 (l1 = alpha, l2 = 0)."""
    return fit_elastic_net(folds, alphas, 1.0, names=names)


def fit_elastic_net(folds: list, alphas, l1_ratio: float, *,
                    names=None) -> list[list[LinearModel]]:
    """Elastic nets on each training set (X, y) of ``folds`` at each of
    ``alphas``, as lanes of one active-set solve: per fold, the models
    in alpha order.  ConvergenceError names the first stuck fit, and its
    training set by ``names`` (default "fold i of k")."""
    if any(alpha <= 0 for alpha in alphas):
        raise ValueError("alpha must be > 0")
    if not 0.0 <= l1_ratio <= 1.0:
        raise ValueError("l1_ratio must lie in [0, 1]")
    moments = [_centered_moments(np.asarray(X, dtype=float),
                                 np.asarray(y, dtype=float)) for X, y in folds]
    alphas = np.asarray(alphas, dtype=float)
    k, n_alphas = len(folds), alphas.size  # lane i: fold i // n_alphas
    beta, stuck = _active_set(
        np.repeat([m[2] for m in moments], n_alphas, axis=0),
        np.repeat([m[3] for m in moments], n_alphas, axis=0),
        np.tile(alphas * l1_ratio, k), np.tile(alphas * (1.0 - l1_ratio), k))
    per_fold = beta.reshape(k, n_alphas, -1)
    fits = [[LinearModel(b, float(y_mean - x_mean @ b)) for b in lanes]
            for lanes, (x_mean, y_mean, _, _) in zip(per_fold, moments)]
    if stuck.any():
        fold, a = divmod(int(stuck.argmax()), n_alphas)
        m = fits[fold][a]
        name = names[fold] if names else f"fold {fold + 1} of {k}"
        raise ConvergenceError(
            f"active-set solve did not converge in {ACTIVE_SET_MAX_ITER} "
            f"iterations at alpha={float(alphas[a])} on {name}",
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


def fit_logistic(X: np.ndarray, labels: np.ndarray, C: float) -> LinearModel:
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
    for it in range(NEWTON_MAX_ITER + 1):
        grad = logistic_gradient(w, X, s, C)
        if np.abs(grad).max() < NEWTON_TOL:
            break
        if it == NEWTON_MAX_ITER:
            raise ConvergenceError("logistic Newton did not converge",
                                   last_iterate=(w[1:], float(w[0])))
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
    return LinearModel(coefficients=w[1:], intercept=float(w[0]))


def logistic_scores(m: LinearModel, X: np.ndarray) -> np.ndarray:
    """Class-1 probabilities through the logistic link; always in (0, 1)."""
    p = _sigmoid(linear_predict(m, X))
    return np.clip(p, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
