"""Experiment orchestration: the regression suite, the classification
grid, and the linear-model diagnostics, all under one reproducible
protocol.

Protocol defaults: 70/30 shuffled split at
seed 1, features and target standardized with training statistics,
10-fold cross-validation on the training split for hyperparameter
selection, regression metrics reported in standardized target units.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .ingest import (DataError, Dataset, load_dataset, reference_data_path,
                     require_varying)
from .kernelmod import (KernelSpec, fit_svc_smo, fit_svr, gamma_scale,
                        kernel_matrix, solve_svr_dual, svm_decision)
from .linmod import (fit_elastic_net, fit_lasso, fit_logistic, fit_ols,
                     fit_ridge, linear_predict, logistic_scores)
from .metrics import (classification_report, confusion_matrix,
                      dataset_correlations, histogram, regression_metrics,
                      roc_curve)
from .preprocess import (apply_standardizer, fit_standardizer, kfold,
                         polynomial_feature_count, polynomial_features,
                         train_test_split)
from .rng import derive_seeds
from .treemod import (fit_cart, fit_random_forest, forest_max_features,
                      forest_predict, tree_predict)

# positions in the splitmix64 seed chain derived from the master seed
# (2 and 3 seeded the SVM solvers, which no longer draw; the forest keeps 4)
_SEED_SPLIT, _SEED_KFOLD, _SEED_FOREST = 0, 1, 4


# The paper's fixed model settings, read when each fit runs.  The grids
# ascend: the CV tie rule keeps the smallest of equally good values, and
# each CV fold solves the SVR's C grid as one path (solve_svr_dual), as
# the final SVR fit solves the grid up to the selected C (fit_svr).
FIXED = {
    "c_grid": (1.0, 10.0, 100.0),
    "svr_epsilon": 0.1,
    "svr_c_grid": (1.0, 10.0, 100.0),
    "forest_trees": 100,
    "poly_degree": 2,
    "elastic_net_l1_ratio": 0.5,
    "alpha_grid": tuple(float(f"{v:.10g}") for v in np.logspace(-4, 1, 15)),
    "eda_bins": 10,
    "residual_bins": 20,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """The run settings a caller chooses (CLI flags, config file)."""

    data_path: str | None = None  # None -> packaged reference file
    seed: int = 1
    split_ratio: float = 0.7
    threshold_mpg: float = 25.0
    cv_folds: int = 10

    def __post_init__(self):
        """Reject out-of-range settings before any data is read or any
        output written.  Each condition states what must hold, so NaN
        fails it too."""
        if not 0.0 < self.split_ratio < 1.0:
            raise ValueError("split_ratio must lie strictly between 0 and 1")
        if not 0.0 < self.threshold_mpg < np.inf:
            raise ValueError("threshold_mpg must be finite and above 0")
        if not self.cv_folds >= 2:
            raise ValueError("cv_folds must be >= 2")

    def resolved_data_path(self) -> str:
        return self.data_path or reference_data_path()

    def to_dict(self) -> dict:
        """The config as given, with the fixed settings: data_path stays
        None for the packaged file, so reports agree across checkouts
        (data_sha256 in the provenance identifies the data)."""
        return {**dataclasses.asdict(self), **FIXED}


@dataclass
class ProtocolData:
    """Everything downstream of ingest + split + standardization."""

    dataset: Dataset
    train_idx: np.ndarray
    test_idx: np.ndarray
    Xtr: np.ndarray  # standardized features, training statistics
    Xte: np.ndarray
    ytr: np.ndarray  # standardized target, training statistics
    yte: np.ndarray
    Xtr_raw: np.ndarray
    ytr_raw: np.ndarray
    labels_tr: np.ndarray
    labels_te: np.ndarray
    kfold_seed: int  # the CV fold layout's seed
    forest_seed: int


def _standardized(X, y, train, test, split: str, rows=None):
    """(Xtr, ytr, Xte, yte): rows ``train`` and ``test`` of X and y,
    standardized with the training rows' statistics.  A column constant
    in the training rows is a DataError naming it and ``split``; so is a
    standardized value whose square is not finite (|v| >= 2**511), which
    names its data row, rows[i] for row i of X (default i), counted from 1."""
    Xs, ys = X[train], y[train, None]
    require_varying(Xs, ys[:, 0], f"the {split}")
    fx, fy = fit_standardizer(Xs), fit_standardizer(ys)
    out = (apply_standardizer(fx, Xs), apply_standardizer(fy, ys)[:, 0],
           apply_standardizer(fx, X[test]), apply_standardizer(fy, y[test, None])[:, 0])
    huge = np.abs(np.vstack([np.column_stack(out[:2]), np.column_stack(out[2:])])) >= 2.0**511
    if huge.any():
        row = np.append(train, test)[huge.any(axis=1).argmax()]
        raise DataError(f"data row {(row if rows is None else rows[row]) + 1} is too large "
                        f"to square once standardized with the {split}")
    return out


def prepare_protocol(config: ExperimentConfig) -> ProtocolData:
    dataset = load_dataset(config.resolved_data_path())
    seeds = derive_seeds(config.seed, 5)
    split = train_test_split(len(dataset.y), config.split_ratio, seeds[_SEED_SPLIT])
    Xtr, ytr, Xte, yte = _standardized(dataset.X, dataset.y, split.train,
                                       split.test, "training split")
    labels = (dataset.y >= config.threshold_mpg).astype(int)  # 1: high efficiency
    return ProtocolData(
        dataset=dataset,
        train_idx=split.train,
        test_idx=split.test,
        Xtr=Xtr,
        Xte=Xte,
        ytr=ytr,
        yte=yte,
        Xtr_raw=dataset.X[split.train],
        ytr_raw=dataset.y[split.train],
        labels_tr=labels[split.train],
        labels_te=labels[split.test],
        kfold_seed=seeds[_SEED_KFOLD], forest_seed=seeds[_SEED_FOREST],
    )


def cross_validate(paths: dict, X: np.ndarray, y: np.ndarray, k: int,
                   seed: int, rows=None) -> dict:
    """k-fold CV of several models' hyperparameter paths on one fold layout.

    Each fold is standardized once, with its training statistics.  Each
    model's path is called once, as ``paths[name](folds)`` with the list
    of all k folds' (Xtr, ytr, Xte), and returns per fold the held-out
    predictions for every grid value of that model, in grid order; so a
    path may fit the folds together.  Scores are held-out R^2
    (scale-invariant, so the standardized units don't matter).  Returns
    name -> one {"fold_scores": [...], "mean": float} per grid value.
    Raises DataError, before any fit, when a held-out fold would have
    fewer than 3 rows (adjusted R^2 with p = 1 needs n > 2), and when a
    column is constant in a fold's training rows or a standardized value
    is too large to square (naming its data row, rows[i] for row i of X).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    if n // k < 3:
        raise DataError(f"{k}-fold cross-validation needs at least 3 held-out "
                        f"rows per fold, but the training split has {n} rows")
    layout, folds, held_out = kfold(n, k, seed), [], []
    for i, test_idx in enumerate(layout):
        train_idx = np.concatenate([f for j, f in enumerate(layout) if j != i])
        Xtr, ytr, Xte, yte = _standardized(
            X, y, train_idx, test_idx, f"training rows of CV fold {i + 1}", rows)
        folds.append((Xtr, ytr, Xte))
        held_out.append(yte)
    results = {}
    for name, path in paths.items():
        per_fold = [[regression_metrics(yte, pred, p=1)["r2"] for pred in preds]
                    for yte, preds in zip(held_out, path(folds))]
        results[name] = [{"fold_scores": list(s), "mean": float(np.mean(s))}
                         for s in zip(*per_fold)]
    return results


def _select(grid, results):
    """(value, cv result) with the highest mean CV R^2; ties within 1e-12
    resolve to the earliest grid entry."""
    best = 0
    for i, result in enumerate(results):
        if result["mean"] > results[best]["mean"] + 1e-12:
            best = i
    return grid[best], results[best]


class _Regressor(NamedTuple):
    name: str
    grid: tuple | None  # CV grid; None: no CV
    fit: Callable  # (X, y, selected value) -> model
    predict: Callable  # (model, X) -> predictions
    p: int  # feature count for adjusted R^2
    hyperparams: Callable  # selected value -> reported hyperparameters
    cv_reported: bool
    path: Callable | None = None  # CV path (see cross_validate); None: refit per value


def _regression_table(config: ExperimentConfig, proto: ProtocolData) -> tuple:
    """The seven regressors in report order.  Built per call, so each fit
    is looked up through this module's names when it runs."""
    d = proto.Xtr.shape[1]
    eps, l1_ratio, deg = (FIXED["svr_epsilon"], FIXED["elastic_net_l1_ratio"],
                          FIXED["poly_degree"])
    kern, grid = KernelSpec("rbf", gamma_scale(proto.Xtr)), FIXED["svr_c_grid"]

    def svr_path(folds):
        return [svr_fold(*fold) for fold in folds]

    def svr_fold(Xs, ys, Xq):
        path = solve_svr_dual(kernel_matrix(kern, Xs, Xs), ys, grid, eps)
        K_test = kernel_matrix(kern, Xq, Xs)
        return [K_test @ beta + b for beta, b in path]

    finals = {}  # CD fit -> the training split's models, in alpha order
    enet = partial(fit_elastic_net, l1_ratio=l1_ratio)

    def cd_path(fit):
        # every fold and the training split at every alpha: lanes of one
        # descent, so the selected alpha's final model is already fitted
        def path(folds):
            k = len(folds)
            *fits, finals[fit] = fit(
                [f[:2] for f in folds] + [(proto.Xtr, proto.ytr)],
                FIXED["alpha_grid"],
                names=[f"fold {i} of {k}" for i in range(1, k + 1)]
                + ["the training split"])
            return [[linear_predict(m, f[2]) for m in ms] for ms, f in zip(fits, folds)]
        return path

    def cd_final(fit):  # (X, y) is the training split, fitted by cd_path
        return lambda X, y, a: finals[fit][FIXED["alpha_grid"].index(a)]

    return (
        _Regressor("SVM Regression", grid,
                   lambda X, y, C: fit_svr(X, y, grid[:grid.index(C) + 1], eps, kern),
                   svm_decision, d,
                   lambda C: {"kernel": "rbf", "gamma": kern.gamma, "C": C,
                              "epsilon": eps}, False, svr_path),
        _Regressor("Random Forest Regressor", None,
                   lambda X, y, _: fit_random_forest(
                       X, y, n_trees=FIXED["forest_trees"],
                       seed=proto.forest_seed),
                   forest_predict, d,
                   lambda _: {"n_trees": FIXED["forest_trees"],
                              "max_features": forest_max_features(d)},
                   False),
        _Regressor("Ridge Regression", FIXED["alpha_grid"],
                   lambda X, y, lam: fit_ridge(X, y, lam), linear_predict, d,
                   lambda lam: {"lambda": lam}, True),
        _Regressor("Linear Regression", (None,),
                   lambda X, y, _: fit_ols(X, y), linear_predict, d,
                   lambda _: {}, True),
        _Regressor("Elastic Net Regression", FIXED["alpha_grid"],
                   cd_final(enet), linear_predict, d,
                   lambda a: {"alpha": a, "l1_ratio": l1_ratio}, True,
                   cd_path(enet)),
        _Regressor("Polynomial Regression", None,
                   lambda X, y, _: fit_ols(polynomial_features(X, deg), y),
                   lambda m, X: linear_predict(m, polynomial_features(X, deg)),
                   polynomial_feature_count(d, deg),
                   lambda _: {"degree": deg}, False),
        _Regressor("Lasso Regression", FIXED["alpha_grid"],
                   cd_final(fit_lasso), linear_predict, d,
                   lambda a: {"alpha": a}, True, cd_path(fit_lasso)),
    )


def diagnostics(model, Xte: np.ndarray, yte: np.ndarray, bins: int) -> dict:
    """Figure data for the linear-model diagnostic plots: observed vs
    predicted pairs, residual-vs-predicted pairs, residual histogram."""
    y_pred = linear_predict(model, Xte)
    residuals = np.asarray(yte, dtype=float) - y_pred
    return {
        "true_vs_pred": [[float(a), float(b)] for a, b in zip(yte, y_pred)],
        "pred_vs_residual": [[float(a), float(b)] for a, b in zip(y_pred, residuals)],
        "residual_histogram": histogram(residuals, bins),
    }


def run_regression_suite(config: ExperimentConfig, proto: ProtocolData | None = None) -> dict:
    """Train the seven regression models and score them on the test
    split (standardized units); rows sorted by R^2 descending."""
    proto = proto or prepare_protocol(config)
    table = _regression_table(config, proto)
    # CV on the training split: every grid on one fold layout
    cv = cross_validate(
        {r.name: r.path or (lambda folds, r=r: [
            [r.predict(r.fit(Xs, ys, v), Xq) for v in r.grid]
            for Xs, ys, Xq in folds]) for r in table if r.grid},
        proto.Xtr_raw, proto.ytr_raw, config.cv_folds, proto.kfold_seed, proto.train_idx)
    models, rows = {}, []
    for r in table:
        value, result = _select(r.grid, cv[r.name]) if r.grid else (None, None)
        models[r.name] = model = r.fit(proto.Xtr, proto.ytr, value)
        row = {"model": r.name,
               **regression_metrics(proto.yte, r.predict(model, proto.Xte), p=r.p),
               "hyperparams": r.hyperparams(value),
               "cv_mean_r2": result["mean"] if r.cv_reported else None}
        if r.cv_reported:
            row["cv_fold_scores"] = result["fold_scores"]
        rows.append(row)
    rows.sort(key=lambda r: r["r2"], reverse=True)
    return {"table": rows, "figure_data": {
        **diagnostics(models["Linear Regression"], proto.Xte, proto.yte,
                      FIXED["residual_bins"]),
        "model_comparison": [{"model": r["model"], "r2": r["r2"]} for r in rows],
    }}


def _classifier_row(name, C, labels_true, labels_pred):
    return {"model": name, "C": C,
            **classification_report(confusion_matrix(labels_true, labels_pred))}


class _Family(NamedTuple):
    row_name: str  # format of the row name, given C
    summary: str  # name in the class-wise summaries
    fit: Callable  # (X, labels, C) -> model
    scores: Callable  # (model, X) -> decision scores
    cut: float  # a score at or above it classifies as class 1


def run_classification_grid(config: ExperimentConfig, proto: ProtocolData | None = None) -> dict:
    """The 10-row hyperparameter grid, ROC series for the four reported
    configurations, and the class-wise summary tables."""
    proto = proto or prepare_protocol(config)
    for split, labels in (("training", proto.labels_tr), ("test", proto.labels_te)):
        if np.unique(labels).size < 2:
            raise DataError(f"the {split} split has only class-{labels[0]} rows at "
                            f"threshold {config.threshold_mpg} mpg; both classes "
                            "must be present")
    c_desc = tuple(sorted(FIXED["c_grid"], reverse=True))
    linear, rbf = KernelSpec("linear"), KernelSpec("rbf", gamma_scale(proto.Xtr))
    families = {
        "linear": _Family("SVM (Linear Kernel, C={})", "SVM with Linear Kernel",
                          lambda X, t, C: fit_svc_smo(X, t, C=C, kernel=linear),
                          svm_decision, 0.0),
        "rbf": _Family("SVM (RBF Kernel, C={})", "SVM with RBF Kernel",
                       lambda X, t, C: fit_svc_smo(X, t, C=C, kernel=rbf),
                       svm_decision, 0.0),
        "logistic": _Family("Logistic Regression (C={})", "Logistic Regression",
                            lambda X, t, C: fit_logistic(X, t, C=C), logistic_scores,
                            0.5),
    }
    scores, by_key = {}, {}  # (family, C) -> test scores, row
    for family, f in families.items():
        for C in c_desc:
            scores[family, C] = s = f.scores(f.fit(proto.Xtr, proto.labels_tr, C),
                                              proto.Xte)
            by_key[family, C] = _classifier_row(
                f.row_name.format(C), C, proto.labels_te, (s >= f.cut).astype(int))
    # a leaf's mean is its class-1 share; a tied leaf goes to class 0
    tree = fit_cart(proto.Xtr, proto.labels_tr)
    rows = [*by_key.values(), _classifier_row(
        "Decision Tree", "Default", proto.labels_te,
        (tree_predict(tree, proto.Xte) > 0.5).astype(int))]

    # ROC series for the four reported configurations
    c_max, c_one = max(FIXED["c_grid"]), min(FIXED["c_grid"])
    reported = {"svm_linear_initial": ("linear", c_max),
                "svm_linear_optimized": ("linear", c_one),
                "svm_rbf": ("rbf", c_one), "logistic": ("logistic", c_one)}
    roc_data = {key: roc_curve(scores[f, C], proto.labels_te)
                for key, (f, C) in reported.items()}

    # class-wise summaries from the best C per family (ties -> smaller C)
    summary_sources = [(f.summary, max((by_key[family, C] for C in c_desc),
                                       key=lambda r: (r["accuracy"], -float(r["C"]))))
                       for family, f in families.items()]
    # a kernel-free dual is the linear kernel at default C
    summary_sources.insert(1, ("SVM No Kernel", by_key["linear", c_one]))
    summary_sources.append(("Decision Tree Classification", rows[-1]))
    class_summaries = {
        **{c: [{"model": name, **src[c]} for name, src in summary_sources]
           for c in ("class0", "class1")},
        "note": "SVM No Kernel reports the linear-kernel machine at default C",
    }
    return {"table": rows, "roc": roc_data, "class_summaries": class_summaries}


def run_eda(config: ExperimentConfig, dataset: Dataset | None = None) -> dict:
    """Correlation matrix, per-feature distributions, pairwise data of
    ``dataset``, or of the config's data file when it is None."""
    if dataset is None:
        dataset = load_dataset(config.resolved_data_path())
    high = int((dataset.y >= config.threshold_mpg).sum())
    columns = {"mpg": dataset.y}
    for j, name in enumerate(dataset.column_names):
        columns[name] = dataset.X[:, j]
    return {
        "correlation": dataset_correlations(dataset),
        "distributions": {name: histogram(col, FIXED["eda_bins"])
                          for name, col in columns.items()},
        "pairwise": {name: col.tolist() for name, col in columns.items()},
        "class_counts": {
            "high_efficiency": high,
            "low_efficiency": dataset.y.size - high,
        },
    }


def run_full_report(config: ExperimentConfig) -> dict:
    """All experiment outputs plus provenance, fully deterministic, from
    one read of the data file."""
    proto = prepare_protocol(config)
    # first: it starts by checking that both classes are present
    classification = run_classification_grid(config, proto)
    return {
        "provenance": {
            "config": config.to_dict(),
            "data_sha256": proto.dataset.sha256,
            "version": __version__,
            "n_train": int(proto.train_idx.size),
            "n_test": int(proto.test_idx.size),
        },
        "eda": run_eda(config, proto.dataset),
        "regression": run_regression_suite(config, proto),
        "classification": classification,
    }


def report_to_json(report: dict) -> str:
    """Canonical serialization: sorted keys, full float precision."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
