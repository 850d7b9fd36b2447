"""Linear family: OLS, ridge, lasso, elastic net and logistic regression
against closed-form and finite-difference oracles."""

import numpy as np
import pytest

from mpgworkbench.experiments import ExperimentConfig
from mpgworkbench.linmod import (ConvergenceError, fit_elastic_net, fit_lasso,
                                 fit_logistic, fit_ols, fit_ridge,
                                 lasso_alpha_max, linear_predict,
                                 logistic_gradient, logistic_objective,
                                 logistic_scores)
from mpgworkbench.metrics import regression_metrics


def orthonormal_design(rng, n, p):
    """Centered design with (1/n) X^T X = I, so lasso has a closed form."""
    M = rng.normal(size=(n, p))
    Q, _ = np.linalg.qr(M - M.mean(axis=0))  # columns stay mean-zero
    return Q * np.sqrt(n)


# --- OLS

def test_ols_exact_linear_data(rng):
    x = rng.normal(size=(30, 1))
    m = fit_ols(x, 3.0 * x[:, 0])
    np.testing.assert_allclose(m.coefficients, [3.0], atol=1e-10)
    assert abs(m.intercept) < 1e-10
    assert regression_metrics(3.0 * x[:, 0], linear_predict(m, x), p=1).r2 == pytest.approx(1.0)


def test_ols_constant_target(rng):
    X = rng.normal(size=(20, 3))
    m = fit_ols(X, np.full(20, 4.5))
    np.testing.assert_allclose(m.coefficients, 0.0, atol=1e-10)
    assert m.intercept == pytest.approx(4.5)


def test_ols_residuals_orthogonal_on_protocol(protocol):
    m = fit_ols(protocol.Xtr, protocol.ytr)
    r = protocol.ytr - linear_predict(m, protocol.Xtr)
    assert abs(r.sum()) < 1e-8  # intercept column
    assert np.abs(protocol.Xtr.T @ r).max() <= 1e-8 * protocol.Xtr.shape[0]


# --- ridge

def test_ridge_zero_lambda_equals_ols(rng):
    X = rng.normal(size=(25, 4))
    y = rng.normal(size=25)
    a = fit_ridge(X, y, 0.0)
    b = fit_ols(X, y)
    np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-9)
    assert a.intercept == pytest.approx(b.intercept, abs=1e-9)


def test_ridge_scalar_closed_form(rng):
    x = rng.normal(size=40)
    x = (x - x.mean())
    x /= np.linalg.norm(x)  # centered, unit norm
    y = rng.normal(size=40)
    b_ols = x @ y
    for lam in (0.1, 1.0, 10.0):
        m = fit_ridge(x[:, None], y, lam)
        assert m.coefficients[0] == pytest.approx(b_ols / (1.0 + lam), rel=1e-9)


def test_ridge_total_shrinkage(rng):
    X = rng.normal(size=(30, 5))
    y = rng.normal(size=30)
    m = fit_ridge(X, y, 1e6)
    assert np.linalg.norm(m.coefficients) < 1e-3


def test_ridge_negative_lambda_rejected():
    with pytest.raises(ValueError):
        fit_ridge(np.ones((3, 1)), np.zeros(3), -1.0)


def test_ridge_norm_nonincreasing_in_lambda(rng):
    X = rng.normal(size=(40, 6))
    y = rng.normal(size=40)
    norms = [np.linalg.norm(fit_ridge(X, y, lam).coefficients)
             for lam in np.logspace(-3, 3, 12)]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_ols_train_r2_dominates_ridge(rng):
    X = rng.normal(size=(50, 5))
    y = rng.normal(size=50)
    r2_ols = regression_metrics(y, linear_predict(fit_ols(X, y), X), p=5).r2
    for lam in (0.1, 1.0, 10.0):
        r2_ridge = regression_metrics(
            y, linear_predict(fit_ridge(X, y, lam), X), p=5).r2
        assert r2_ols >= r2_ridge - 1e-12


# --- lasso

def test_lasso_soft_threshold_closed_form(rng):
    X = orthonormal_design(rng, 64, 1)
    y = 0.8 * X[:, 0]
    m = fit_lasso(X, y, alpha=0.3)
    assert m.coefficients[0] == pytest.approx(0.5, abs=1e-6)


def test_lasso_alpha_max_zeroes_everything(rng):
    X = rng.normal(size=(40, 5))
    y = rng.normal(size=40)
    a_max = lasso_alpha_max(X, y)
    m = fit_lasso(X, y, alpha=a_max * 1.000001)
    assert np.all(m.coefficients == 0.0)
    assert m.sparsity == 5
    # just below the threshold at least one coefficient activates
    m2 = fit_lasso(X, y, alpha=a_max * 0.9)
    assert np.any(m2.coefficients != 0.0)


def test_lasso_small_alpha_approaches_ols(rng):
    X = rng.normal(size=(50, 4))
    y = rng.normal(size=50)
    m = fit_lasso(X, y, alpha=1e-8)
    ols = fit_ols(X, y)
    np.testing.assert_allclose(m.coefficients, ols.coefficients, atol=1e-4)


def test_lasso_invalid_alpha():
    with pytest.raises(ValueError):
        fit_lasso(np.ones((3, 1)), np.zeros(3), 0.0)


def test_lasso_nonconvergence_carries_iterate(rng):
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    with pytest.raises(ConvergenceError) as exc:
        fit_lasso(X, y, alpha=1e-6, max_sweeps=1)
    assert exc.value.last_iterate is not None


def test_lasso_zero_set_grows_along_path(rng):
    X = rng.normal(size=(60, 8))
    y = X @ rng.normal(size=8) + 0.1 * rng.normal(size=60)
    zero_sets = []
    for alpha in np.logspace(-3, 0, 8):
        m = fit_lasso(X, y, alpha)
        zero_sets.append(frozenset(np.flatnonzero(m.coefficients == 0.0)))
    for small, big in zip(zero_sets, zero_sets[1:]):
        assert small <= big


# --- elastic net

def test_enet_l1_ratio_one_equals_lasso(rng):
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    a = fit_elastic_net(X, y, 0.2, 1.0)
    b = fit_lasso(X, y, 0.2)
    np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-9)


def test_enet_l1_ratio_zero_equals_ridge(rng):
    n = 30
    X = rng.normal(size=(n, 4))
    y = rng.normal(size=n)
    alpha = 0.3
    a = fit_elastic_net(X, y, alpha, 0.0)
    b = fit_ridge(X, y, n * alpha)
    np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-6)


def test_enet_orthonormal_closed_form(rng):
    X = orthonormal_design(rng, 64, 1)
    b = 0.9
    y = b * X[:, 0]
    alpha, l1r = 0.4, 0.5
    m = fit_elastic_net(X, y, alpha, l1r)
    expected = (b - alpha * l1r) / (1.0 + alpha * (1.0 - l1r))
    assert m.coefficients[0] == pytest.approx(expected, abs=1e-6)


def test_enet_invalid_params():
    with pytest.raises(ValueError):
        fit_elastic_net(np.ones((3, 1)), np.zeros(3), 0.1, 1.5)
    with pytest.raises(ValueError):
        fit_elastic_net(np.ones((3, 1)), np.zeros(3), -0.1, 0.5)


# --- logistic

def test_logistic_symmetric_pair():
    X = np.array([[-1.0], [1.0]])
    m = fit_logistic(X, np.array([0, 1]), C=1.0)
    assert abs(m.intercept) < 1e-8
    assert logistic_scores(m, np.array([[0.0]]))[0] == pytest.approx(0.5)


def test_logistic_gradient_matches_finite_differences(rng):
    for _ in range(10):
        n, p = int(rng.integers(6, 25)), int(rng.integers(1, 5))
        X = rng.normal(size=(n, p))
        s = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        C = float(rng.uniform(0.1, 10.0))
        w = rng.normal(size=p + 1)
        grad = logistic_gradient(w, X, s, C)
        h = 1e-5
        for j in range(p + 1):
            e = np.zeros(p + 1)
            e[j] = h
            fd = (logistic_objective(w + e, X, s, C)
                  - logistic_objective(w - e, X, s, C)) / (2.0 * h)
            assert abs(grad[j] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_logistic_converged_gradient_is_small(rng):
    X = rng.normal(size=(50, 3))
    labels = (X[:, 0] + 0.3 * rng.normal(size=50) > 0).astype(int)
    m = fit_logistic(X, labels, C=1.0)
    s = np.where(labels == 1, 1.0, -1.0)
    w = np.concatenate([[m.intercept], m.coefficients])
    assert np.abs(logistic_gradient(w, X, s, 1.0)).max() < 1e-8


def test_logistic_separable_data_converges():
    # perfect separation: finite C keeps the optimum finite
    X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    m = fit_logistic(X, np.array([0, 0, 1, 1]), C=100.0)
    assert np.isfinite(m.coefficients).all()


def test_logistic_input_validation():
    with pytest.raises(ValueError):
        fit_logistic(np.ones((3, 1)), np.array([1, 1, 1]), C=1.0)
    with pytest.raises(ValueError):
        fit_logistic(np.ones((3, 1)), np.array([0, 1, 2]), C=1.0)
    with pytest.raises(ValueError):
        fit_logistic(np.ones((2, 1)), np.array([0, 1]), C=0.0)


# --- prediction surfaces

def test_zero_coefficients_predict_intercept(rng):
    from mpgworkbench.linmod import LinearModel
    m = LinearModel(coefficients=np.zeros(3), intercept=2.5, family="ols")
    np.testing.assert_array_equal(linear_predict(m, rng.normal(size=(5, 3))),
                                  np.full(5, 2.5))


def test_logistic_scores_monotone_and_open_interval(rng):
    X = rng.normal(size=(30, 2))
    labels = (X[:, 0] > 0).astype(int)
    m = fit_logistic(X, labels, C=1.0)
    grid = np.linspace(-5, 5, 21)[:, None] * np.ones((1, 2))
    scores = logistic_scores(m, grid)
    assert np.all(scores > 0.0) and np.all(scores < 1.0)
    direction = np.sign(m.coefficients.sum())
    diffs = np.diff(scores) * direction
    assert np.all(diffs >= 0.0)


def test_predict_dimension_mismatch(rng):
    m = fit_ols(rng.normal(size=(10, 2)), rng.normal(size=10))
    with pytest.raises(ValueError):
        linear_predict(m, np.ones((4, 3)))


# --- coordinate descent against a reference copy of its sweep

# The coordinate-descent sweep as it was before its scalars became
# Python floats: beta and col_sq numpy arrays, numpy scalar arithmetic,
# residual.mean().  Kept verbatim as the oracle the fits must match bit
# for bit.

def reference_soft_threshold(x: float, t: float) -> float:
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def reference_coordinate_descent(X, y, l1: float, l2: float, tol: float,
                                 max_sweeps: int):
    """Cyclic coordinate descent for (1/2n)||y - b0 - Xb||^2
    + l1 ||b||_1 + (l2/2) ||b||^2.  Returns (beta, intercept)."""
    n, p = X.shape
    col_sq = (X * X).sum(axis=0) / n  # (1/n) ||x_j||^2
    beta = np.zeros(p)
    intercept = y.mean()
    residual = y - intercept  # y - b0 - X beta, maintained incrementally
    for _ in range(max_sweeps):
        max_change = 0.0
        for j in range(p):
            xj = X[:, j]
            old = beta[j]
            rho = (xj @ residual) / n + col_sq[j] * old
            new = reference_soft_threshold(rho, l1) / (col_sq[j] + l2)
            if new != old:
                residual -= (new - old) * xj
                beta[j] = new
                max_change = max(max_change, abs(new - old))
        new_intercept = intercept + residual.mean()
        if new_intercept != intercept:
            residual -= new_intercept - intercept
            max_change = max(max_change, abs(new_intercept - intercept))
            intercept = new_intercept
        if max_change < tol:
            return beta, intercept
    raise ConvergenceError(
        f"coordinate descent did not converge in {max_sweeps} sweeps",
        last_iterate=(beta, intercept),
    )


def cd_problems(rng, protocol):
    """The seed-1 standardized training split, and a raw design whose
    columns differ in scale and offset."""
    X = rng.normal(size=(80, 6)) * [1.0, 3.0, 0.2, 1.0, 10.0, 1.0] + 2.0
    y = X @ rng.normal(size=6) + rng.normal(size=80)
    return [(protocol.Xtr, protocol.ytr), (X, y)]


@pytest.mark.parametrize("l1_ratio", [1.0, 0.5])
def test_cd_matches_reference_sweep(rng, protocol, l1_ratio):
    alpha_grid = ExperimentConfig().alpha_grid
    assert len(alpha_grid) == 15
    for X, y in cd_problems(rng, protocol):
        a_max = lasso_alpha_max(X, y)
        for alpha in alpha_grid + (a_max,):
            if l1_ratio == 1.0:
                m = fit_lasso(X, y, alpha)
            else:
                m = fit_elastic_net(X, y, alpha, l1_ratio)
            beta, intercept = reference_coordinate_descent(
                X, y, alpha * l1_ratio, alpha * (1.0 - l1_ratio), 1e-7, 10000)
            assert m.coefficients.tobytes() == beta.tobytes()
            assert m.intercept.hex() == float(intercept).hex()
        lasso = fit_lasso(X, y, a_max)
        assert np.all(lasso.coefficients == 0.0)


def test_cd_nonconvergence_iterate_matches_reference(rng, protocol):
    for X, y in cd_problems(rng, protocol):
        with pytest.raises(ConvergenceError) as exc:
            fit_elastic_net(X, y, 1e-4, 0.5, max_sweeps=1)
        with pytest.raises(ConvergenceError) as ref:
            reference_coordinate_descent(X, y, 1e-4 * 0.5, 1e-4 * 0.5,
                                         1e-7, 1)
        beta, intercept = exc.value.last_iterate
        ref_beta, ref_intercept = ref.value.last_iterate
        assert beta.tobytes() == ref_beta.tobytes()
        assert float(intercept).hex() == float(ref_intercept).hex()
