"""Linear family: OLS, ridge, lasso, elastic net and logistic regression
against closed-form and finite-difference oracles."""

import hashlib
import itertools
import json

import numpy as np
import pytest
from conftest import enet_fit, lasso_alpha_max, lasso_fit, seed1_cv_folds

from mpgworkbench import experiments, linmod
from mpgworkbench.experiments import (FIXED, ExperimentConfig,
                                      run_regression_suite)
from mpgworkbench.linmod import (ConvergenceError, _centered_moments,
                                 fit_elastic_net, fit_logistic, fit_ols,
                                 fit_ridge, linear_predict, logistic_gradient,
                                 logistic_objective, logistic_scores)
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
    assert regression_metrics(3.0 * x[:, 0], linear_predict(m, x), p=1)["r2"] == pytest.approx(1.0)


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
    r2_ols = regression_metrics(y, linear_predict(fit_ols(X, y), X), p=5)["r2"]
    for lam in (0.1, 1.0, 10.0):
        r2_ridge = regression_metrics(
            y, linear_predict(fit_ridge(X, y, lam), X), p=5)["r2"]
        assert r2_ols >= r2_ridge - 1e-12


# --- lasso

def test_lasso_soft_threshold_closed_form(rng):
    X = orthonormal_design(rng, 64, 1)
    y = 0.8 * X[:, 0]
    m = lasso_fit(X, y, alpha=0.3)
    assert m.coefficients[0] == pytest.approx(0.5, abs=1e-6)


def test_lasso_alpha_max_zeroes_everything(rng):
    X = rng.normal(size=(40, 5))
    y = rng.normal(size=40)
    a_max = lasso_alpha_max(X, y)
    m = lasso_fit(X, y, alpha=a_max * 1.000001)
    assert np.all(m.coefficients == 0.0)
    # just below the threshold at least one coefficient activates
    m2 = lasso_fit(X, y, alpha=a_max * 0.9)
    assert np.any(m2.coefficients != 0.0)


def test_lasso_small_alpha_approaches_ols(rng):
    X = rng.normal(size=(50, 4))
    y = rng.normal(size=50)
    m = lasso_fit(X, y, alpha=1e-8)
    ols = fit_ols(X, y)
    np.testing.assert_allclose(m.coefficients, ols.coefficients, atol=1e-4)


def test_lasso_invalid_alpha():
    with pytest.raises(ValueError):
        lasso_fit(np.ones((3, 1)), np.zeros(3), 0.0)


def test_lasso_nonconvergence_carries_iterate(rng, monkeypatch):
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    monkeypatch.setattr(linmod, "ACTIVE_SET_MAX_ITER", 1)
    with pytest.raises(ConvergenceError) as exc:
        lasso_fit(X, y, alpha=1e-6)
    assert exc.value.last_iterate is not None


def test_logistic_nonconvergence_carries_iterate(rng, monkeypatch):
    """As the CD fits do, logistic regression carries its last iterate
    as (coefficients, intercept), which the CLI prints."""
    X = rng.normal(size=(50, 3))
    labels = (X[:, 0] + 0.5 * rng.normal(size=50) > 0).astype(int)
    monkeypatch.setattr(linmod, "NEWTON_MAX_ITER", 1)
    with pytest.raises(ConvergenceError) as exc:
        fit_logistic(X, labels, C=1.0)
    coefficients, intercept = exc.value.last_iterate
    assert coefficients.shape == (3,) and isinstance(intercept, float)


def test_lasso_zero_set_grows_along_path(rng):
    X = rng.normal(size=(60, 8))
    y = X @ rng.normal(size=8) + 0.1 * rng.normal(size=60)
    zero_sets = []
    for alpha in np.logspace(-3, 0, 8):
        m = lasso_fit(X, y, alpha)
        zero_sets.append(frozenset(np.flatnonzero(m.coefficients == 0.0)))
    for small, big in zip(zero_sets, zero_sets[1:]):
        assert small <= big


# --- elastic net

def test_enet_l1_ratio_one_equals_lasso(rng):
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    a = enet_fit(X, y, 0.2, 1.0)
    b = lasso_fit(X, y, 0.2)
    np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-9)


def test_enet_l1_ratio_zero_equals_ridge(rng):
    n = 30
    X = rng.normal(size=(n, 4))
    y = rng.normal(size=n)
    alpha = 0.3
    a = enet_fit(X, y, alpha, 0.0)
    b = fit_ridge(X, y, n * alpha)
    np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-6)


def test_enet_orthonormal_closed_form(rng):
    X = orthonormal_design(rng, 64, 1)
    b = 0.9
    y = b * X[:, 0]
    alpha, l1r = 0.4, 0.5
    m = enet_fit(X, y, alpha, l1r)
    expected = (b - alpha * l1r) / (1.0 + alpha * (1.0 - l1r))
    assert m.coefficients[0] == pytest.approx(expected, abs=1e-6)


def test_enet_invalid_params():
    with pytest.raises(ValueError):
        enet_fit(np.ones((3, 1)), np.zeros(3), 0.1, 1.5)
    with pytest.raises(ValueError):
        enet_fit(np.ones((3, 1)), np.zeros(3), -0.1, 0.5)


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
    m = LinearModel(coefficients=np.zeros(3), intercept=2.5)
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


# --- the lasso / elastic-net solve against every sign pattern and the KKT
# conditions

def sign_pattern_oracle(X, y, l1: float, l2: float) -> list:
    """Every b that meets the KKT conditions of (1/2n)||y - b0 - Xb||^2
    + l1 ||b||_1 + (l2/2) ||b||^2 among the 3^p sign patterns s (p <= 8):
    b solves (G + l2 I)_SS b_S = c_S - l1 s_S on the support S of s, with
    the centered covariances G and c, carries the signs s there, and has
    |c - (G + l2 I) b|_j <= l1 off S.  Singular supports are skipped."""
    _, _, G, c = _centered_moments(X, y)
    p = c.size
    A = G + l2 * np.eye(p)
    found = []
    for support in itertools.product((False, True), repeat=p):
        S = np.flatnonzero(support)
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=S.size)))
        try:
            B = np.linalg.solve(A[np.ix_(S, S)], (c[S] - l1 * signs).T).T
        except np.linalg.LinAlgError:
            continue
        for b_S in B[(np.sign(B) == signs).all(axis=1)]:
            b = np.zeros(p)
            b[S] = b_S
            if np.all(np.abs(np.delete(c - A @ b, S)) <= l1):
                found.append(b)
    return found


def cd_problems(rng, protocol):
    """The seed-1 standardized training split, a raw design whose columns
    differ in scale and offset, and that design with a constant column."""
    X = rng.normal(size=(80, 6)) * [1.0, 3.0, 0.2, 1.0, 10.0, 1.0] + 2.0
    y = X @ rng.normal(size=6) + rng.normal(size=80)
    return [(protocol.Xtr, protocol.ytr), (X, y),
            (np.column_stack([X, np.full(80, 3.7)]), y)]


def fit_cd(X, y, alpha, l1_ratio):
    if l1_ratio == 1.0:
        return lasso_fit(X, y, alpha)
    return enet_fit(X, y, alpha, l1_ratio)


def kkt_violations(X, y, beta, intercept, l1, l2):
    """Subgradient KKT residuals of (beta, intercept), each divided by
    1e-13 times the scale of its own rounding: |X|^T |e| / n for the
    coefficients, mean |y| for the intercept (profiled out by centering),
    e = y - intercept - X beta."""
    n = X.shape[0]
    e = y - intercept - X @ beta
    grad = X.T @ e / n - l2 * beta  # minus the smooth part's gradient
    viol = np.where(beta != 0.0, np.abs(grad - l1 * np.sign(beta)),
                    np.maximum(np.abs(grad) - l1, 0.0))
    return np.append(viol / (np.abs(X).T @ np.abs(e) / n),
                     abs(e.mean()) / np.abs(y).mean()) / 1e-13


@pytest.mark.parametrize("l1_ratio", [1.0, 0.5])
def test_cd_matches_reference_sweep(rng, protocol, l1_ratio):
    """On each seed-1 CV fold and each cd_problem, at every alpha_grid
    value and the problem's alpha_max, exactly one sign pattern of the
    reference sweep meets the KKT conditions, and the fit is its b within
    1e-12 of max |b|: exactly zero where b is."""
    assert len(FIXED["alpha_grid"]) == 15
    for X, y in seed1_cv_folds(protocol) + cd_problems(rng, protocol):
        alphas = FIXED["alpha_grid"] + (lasso_alpha_max(X, y),)
        for alpha in alphas:
            m = fit_cd(X, y, alpha, l1_ratio)
            [ref] = sign_pattern_oracle(X, y, alpha * l1_ratio,
                                        alpha * (1.0 - l1_ratio))
            assert np.array_equal(m.coefficients == 0.0, ref == 0.0)
            assert np.abs(m.coefficients - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("l1_ratio", [1.0, 0.5])
def test_cd_meets_kkt_conditions(rng, protocol, l1_ratio):
    for X, y in cd_problems(rng, protocol):
        a_max = lasso_alpha_max(X, y)
        for alpha in FIXED["alpha_grid"] + (a_max,):
            m = fit_cd(X, y, alpha, l1_ratio)
            viol = kkt_violations(X, y, m.coefficients, m.intercept,
                                  alpha * l1_ratio, alpha * (1.0 - l1_ratio))
            assert viol.max() <= 1.0


@pytest.mark.parametrize("l1_ratio", [1.0, 0.5])
def test_cd_degenerate_design(rng, l1_ratio):
    """A duplicated column and a column scaled by 2 make active blocks
    singular at l2 = 0 (the lasso): an entering coefficient whose Schur
    complement is not positive steps along the block's null direction.
    At every alpha the fit meets KKT at rounding level, with no
    LinAlgError and no RuntimeWarning (an error under the ini), and at
    alpha = 0.0316227766 its fitted values are within 1e-6 of those of
    the coordinate descent it replaced, whose coefficients are pinned
    (the lasso's split between the duplicates is free)."""
    X0 = rng.normal(size=(40, 4))
    y = X0 @ rng.normal(size=4) + rng.normal(size=40)
    X = np.column_stack([X0, X0[:, 1], 2.0 * X0[:, 2]])
    for alpha in FIXED["alpha_grid"]:
        m = fit_cd(X, y, alpha, l1_ratio)
        viol = kkt_violations(X, y, m.coefficients, m.intercept,
                              alpha * l1_ratio, alpha * (1.0 - l1_ratio))
        assert viol.max() <= 1.0
    coefficients, intercept = {
        1.0: ([-0.3833035996, 1.233254126, 0.0, -0.8203782904, 0.0720882243,
               0.2499254688], -0.0920039572),
        0.5: ([-0.3975700029, 0.6567209576, 0.0, -0.8253257238, 0.6567131106,
               0.2526685021], -0.09323346367)}[l1_ratio]
    m = fit_cd(X, y, 0.0316227766, l1_ratio)
    assert np.abs(linear_predict(m, X) - X @ coefficients - intercept).max() <= 1e-6


def test_lasso_alpha_max_is_exact(rng, protocol):
    # alpha_max is the largest |c_j| bit for bit: at it no coefficient
    # enters (|c_j| > alpha fails), one float below it one does
    for X, y in cd_problems(rng, protocol):
        a_max = lasso_alpha_max(X, y)
        assert np.all(lasso_fit(X, y, a_max).coefficients == 0.0)
        below = lasso_fit(X, y, float(np.nextafter(a_max, 0.0)))
        assert np.any(below.coefficients != 0.0)


def test_cd_nonconvergence_iterate_matches_reference(protocol, monkeypatch):
    """Capped at one iteration, the fit stops after its first step: the
    coefficient with the largest |c_j| enters alone, at its one-coefficient
    optimum soft(c_j, l1) / (G_jj + l2)."""
    X, y = protocol.Xtr, protocol.ytr
    monkeypatch.setattr(linmod, "ACTIVE_SET_MAX_ITER", 1)
    with pytest.raises(ConvergenceError) as exc:
        enet_fit(X, y, 1e-4, 0.5)
    beta, intercept = exc.value.last_iterate
    x_mean, y_mean, G, c = _centered_moments(X, y)
    j = np.abs(c).argmax()
    ref = np.zeros_like(c)
    ref[j] = np.sign(c[j]) * (abs(c[j]) - 1e-4 * 0.5) / (G[j, j] + 1e-4 * 0.5)
    assert np.abs(beta - ref).max() <= 1e-15
    assert abs(intercept - (y_mean - x_mean @ ref)) <= 1e-15


def test_cd_constant_column_gets_zero_coefficient(rng):
    X = np.column_stack([rng.normal(size=30), np.full(30, 3.0)])
    y = 2.0 * X[:, 0] + rng.normal(size=30)
    for m in (lasso_fit(X, y, 0.1), enet_fit(X, y, 0.1, 0.5)):
        assert m.coefficients[1] == 0.0
        assert m.coefficients[0] > 1.0


# --- lanes against one-lane calls

def assert_fit_bits_equal(fit, ref):
    """(beta, intercept) pairs equal bit for bit, signs of zero included."""
    assert fit[0].tobytes() == ref[0].tobytes()
    assert fit[1].hex() == ref[1].hex()


@pytest.mark.parametrize("l1_ratio", [1.0, 0.5])
def test_cd_lanes_match_scalar_sweep(rng, protocol, l1_ratio):
    """All 150 seed-1 CV lanes (10 folds x alpha_grid) in one call, and
    each cd_problem along alpha_grid plus its alpha_max, are bitwise
    equal to one scalar fit (a one-lane call) at a time."""
    grid = FIXED["alpha_grid"]
    runs = [(seed1_cv_folds(protocol), grid)]
    runs += [([(X, y)], grid + (lasso_alpha_max(X, y),))
             for X, y in cd_problems(rng, protocol)]
    for folds, alphas in runs:
        fits = fit_elastic_net(folds, alphas, l1_ratio)
        assert [len(models) for models in fits] == [len(alphas)] * len(folds)
        for (X, y), models in zip(folds, fits):
            for alpha, m in zip(alphas, models):
                ref = fit_cd(X, y, alpha, l1_ratio)
                assert_fit_bits_equal((m.coefficients, m.intercept),
                                      (ref.coefficients, ref.intercept))


def test_cd_lanes_nonconvergence_names_first_stuck_lane(protocol, monkeypatch):
    # at alpha 10 no coefficient enters, so each fold's first lane
    # finishes at its first pricing and the first stuck lane is the second
    folds = seed1_cv_folds(protocol)
    monkeypatch.setattr(linmod, "ACTIVE_SET_MAX_ITER", 1)
    with pytest.raises(ConvergenceError,
                       match=r"1 iterations at alpha=0\.0001 on fold 1 of 10") as exc:
        fit_elastic_net(folds, (10.0, 1e-4), 0.5)
    with pytest.raises(ConvergenceError) as ref:
        enet_fit(*folds[0], 1e-4, 0.5)
    assert_fit_bits_equal(exc.value.last_iterate, ref.value.last_iterate)


@pytest.mark.parametrize("name, fit_name, l1_ratio", [
    ("Lasso Regression", "fit_lasso", 1.0),
    ("Elastic Net Regression", "fit_elastic_net", 0.5),
])
def test_cd_final_fits_are_lanes_of_the_cv_descent(protocol, regression_suite, monkeypatch,
                                                   name, fit_name, l1_ratio):
    """The regression suite fits the training split as one more lane
    group of the Lasso and Elastic Net CV solves.  That group's lanes are
    bitwise equal to single fits, the report's row scores its lane at the
    selected alpha, and a stuck lane of that group names the training
    split, not an eleventh fold."""
    fit, calls, solve = getattr(experiments, fit_name), [], linmod._active_set

    def stuck_final(*args):
        beta, stuck = solve(*args)
        stuck[-1] = True  # the training split's lane at the largest alpha
        return beta, stuck

    def stuck_fit(*args, **kwargs):
        calls.append((args, kwargs))
        with monkeypatch.context() as patch:
            patch.setattr(linmod, "_active_set", stuck_final)
            return fit(*args, **kwargs)

    monkeypatch.setattr(experiments, fit_name, stuck_fit)
    with pytest.raises(ConvergenceError,
                       match=r"at alpha=10\.0 on the training split$"):
        run_regression_suite(ExperimentConfig(), protocol)
    (args, kwargs), = calls
    finals = fit(*args, **kwargs)[-1]
    for alpha, m in zip(FIXED["alpha_grid"], finals, strict=True):
        ref = enet_fit(protocol.Xtr, protocol.ytr, alpha, l1_ratio)
        assert_fit_bits_equal((m.coefficients, m.intercept),
                              (ref.coefficients, ref.intercept))
    row, = (r for r in regression_suite["table"] if r["model"] == name)
    final = finals[FIXED["alpha_grid"].index(row["hyperparams"]["alpha"])]
    assert row == {**row, **regression_metrics(
        protocol.yte, linear_predict(final, protocol.Xte), p=protocol.Xte.shape[1])}


def test_cd_cv_fold_scores_are_pinned(regression_suite):
    # sha256 of the seed-1 lasso and elastic-net cv_fold_scores, recorded
    # from the exact active-set solve
    scores = {r["model"]: r["cv_fold_scores"] for r in regression_suite["table"]
              if r["model"] in ("Lasso Regression", "Elastic Net Regression")}
    assert len(scores) == 2
    digest = hashlib.sha256(json.dumps(scores, sort_keys=True).encode()).hexdigest()
    assert digest == ("f10d08ba6490f3de53801e10ab7d55ef974bcc0e"
                      "9fbb019aa4d4f211d8ec03fc")
