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


def _standardized(X, y, train, test, split: str, held_out: str, rows=None):
    """(Xtr, ytr, Xte, yte): rows ``train`` and ``test`` of X and y,
    standardized with the training rows' statistics.  A column constant
    in the training rows is a DataError naming it and ``split``, a target
    constant in the test rows (R^2 undefined) one naming ``held_out``, and
    a standardized value whose square is not finite (|v| >= 2**511) one
    naming its data row, rows[i] for row i of X (default i), counted from 1."""
    Xs, ys = X[train], y[train, None]
    require_varying(Xs, ys[:, 0], f"the {split}")
    if y[test].min() == y[test].max():
        raise DataError(f"'mpg' is constant in the {held_out}: R^2 is undefined there")
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
                                       split.test, "training split", "test split")
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


def cv_folds(X: np.ndarray, y: np.ndarray, k: int, seed: int, rows=None) -> list:
    """The k folds of k-fold CV on (X, y), as [(Xtr, ytr, Xte, yte), ...],
    each standardized with its training rows' statistics.

    Raises DataError, on any fold before it returns one, when a held-out
    fold would have fewer than 3 rows (adjusted R^2 with p = 1 needs
    n > 2), and when a column is constant in a fold's training rows, its
    target is constant in a fold's held-out rows, or a standardized value
    is too large to square (naming its data row, rows[i] for row i of X).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    if n // k < 3:
        raise DataError(f"{k}-fold cross-validation needs at least 3 held-out "
                        f"rows per fold, but the training split has {n} rows")
    layout = kfold(n, k, seed)
    return [_standardized(X, y, np.concatenate(layout[:i] + layout[i + 1:]), test,
                          f"training rows of CV fold {i + 1}",
                          f"held-out rows of CV fold {i + 1}", rows)
            for i, test in enumerate(layout)]


def cv_scores(folds: list, preds: list) -> list:
    """Held-out R^2 of ``preds[fold][grid value]``, the predictions for
    each fold's held-out rows (folds as cv_folds returns them) at each
    grid value: one {"fold_scores": [...], "mean": float} per grid value.
    R^2 is scale-invariant, so the standardized units don't matter."""
    per_fold = [[regression_metrics(fold[3], pred, p=1)["r2"] for pred in fold_preds]
                for fold, fold_preds in zip(folds, preds)]
    return [{"fold_scores": list(s), "mean": float(np.mean(s))} for s in zip(*per_fold)]


def _select(grid, results):
    """(value, cv result) with the highest mean CV R^2; ties within 1e-12
    resolve to the earliest grid entry."""
    best = 0
    for i, result in enumerate(results):
        if result["mean"] > results[best]["mean"] + 1e-12:
            best = i
    return grid[best], results[best]


def diagnostics(y_pred: np.ndarray, yte: np.ndarray, bins: int) -> dict:
    """Figure data for the linear-model diagnostic plots from its test
    predictions: observed vs predicted pairs, residual-vs-predicted
    pairs, residual histogram."""
    residuals = np.asarray(yte, dtype=float) - y_pred
    return {
        "true_vs_pred": [[float(a), float(b)] for a, b in zip(yte, y_pred)],
        "pred_vs_residual": [[float(a), float(b)] for a, b in zip(y_pred, residuals)],
        "residual_histogram": histogram(residuals, bins),
    }


def run_regression_suite(config: ExperimentConfig, proto: ProtocolData | None = None) -> dict:
    """Train the seven regression models and score them on the test
    split (standardized units); rows sorted by R^2 descending.  Every
    grid is selected by CV on one fold layout of the training split."""
    proto = proto or prepare_protocol(config)
    Xtr, ytr, Xte, yte, d = proto.Xtr, proto.ytr, proto.Xte, proto.yte, proto.Xtr.shape[1]
    eps, l1_ratio, deg = (FIXED["svr_epsilon"], FIXED["elastic_net_l1_ratio"],
                          FIXED["poly_degree"])
    c_grid, alphas = FIXED["svr_c_grid"], FIXED["alpha_grid"]
    kern = KernelSpec("rbf", gamma_scale(Xtr))
    folds = cv_folds(proto.Xtr_raw, proto.ytr_raw, config.cv_folds, proto.kfold_seed,
                     proto.train_idx)

    def linear_cv(fits):  # per fold, its models in grid order -> CV results
        return cv_scores(folds, [[linear_predict(m, fold[2]) for m in models]
                                 for models, fold in zip(fits, folds)])

    svr_preds = []  # one C path per fold
    for Xs, ys, Xq, _ in folds:
        path = solve_svr_dual(kernel_matrix(kern, Xs, Xs), ys, c_grid, eps)
        K_test = kernel_matrix(kern, Xq, Xs)
        svr_preds.append([K_test @ beta + b for beta, b in path])
    svr_cv = cv_scores(folds, svr_preds)
    ridge_cv = linear_cv([[fit_ridge(Xs, ys, lam) for lam in alphas]
                          for Xs, ys, _, _ in folds])
    ols_cv, = linear_cv([[fit_ols(Xs, ys)] for Xs, ys, _, _ in folds])
    # the training split is one more lane group of each CV solve, so the
    # final models at every alpha are its lanes
    lanes = [fold[:2] for fold in folds] + [(Xtr, ytr)]
    names = [f"fold {i} of {len(folds)}" for i in range(1, len(folds) + 1)]
    names.append("the training split")
    *enet_fits, enet_final = fit_elastic_net(lanes, alphas, l1_ratio, names=names)
    *lasso_fits, lasso_final = fit_lasso(lanes, alphas, names=names)

    def row(name, pred, hyperparams, cv=None, p=d):
        out = {"model": name, **regression_metrics(yte, pred, p=p),
               "hyperparams": hyperparams, "cv_mean_r2": cv["mean"] if cv else None}
        if cv:
            out["cv_fold_scores"] = cv["fold_scores"]
        return out

    C = _select(c_grid, svr_cv)[0]
    lam, ridge_cv = _select(alphas, ridge_cv)
    a_enet, enet_cv = _select(alphas, linear_cv(enet_fits))
    a_lasso, lasso_cv = _select(alphas, linear_cv(lasso_fits))
    rows = [
        row("SVM Regression",
            svm_decision(fit_svr(Xtr, ytr, c_grid[:c_grid.index(C) + 1], eps, kern), Xte),
            {"kernel": "rbf", "gamma": kern.gamma, "C": C, "epsilon": eps}),
        row("Random Forest Regressor", forest_predict(fit_random_forest(
            Xtr, ytr, n_trees=FIXED["forest_trees"], seed=proto.forest_seed), Xte),
            {"n_trees": FIXED["forest_trees"], "max_features": forest_max_features(d)}),
        row("Ridge Regression", linear_predict(fit_ridge(Xtr, ytr, lam), Xte),
            {"lambda": lam}, ridge_cv),
        row("Linear Regression", ols_pred := linear_predict(fit_ols(Xtr, ytr), Xte), {},
            ols_cv),
        row("Elastic Net Regression",
            linear_predict(enet_final[alphas.index(a_enet)], Xte),
            {"alpha": a_enet, "l1_ratio": l1_ratio}, enet_cv),
        row("Polynomial Regression",
            linear_predict(fit_ols(polynomial_features(Xtr, deg), ytr),
                           polynomial_features(Xte, deg)),
            {"degree": deg}, p=polynomial_feature_count(d, deg)),
        row("Lasso Regression", linear_predict(lasso_final[alphas.index(a_lasso)], Xte),
            {"alpha": a_lasso}, lasso_cv),
    ]
    rows.sort(key=lambda r: r["r2"], reverse=True)
    return {"table": rows, "figure_data": {
        **diagnostics(ols_pred, yte, FIXED["residual_bins"]),
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


def _require_both_classes(config: ExperimentConfig, proto: ProtocolData):
    for split, labels in (("training", proto.labels_tr), ("test", proto.labels_te)):
        if np.unique(labels).size < 2:
            raise DataError(f"the {split} split has only class-{labels[0]} rows at "
                            f"threshold {config.threshold_mpg} mpg; both classes "
                            "must be present")


def run_classification_grid(config: ExperimentConfig, proto: ProtocolData | None = None) -> dict:
    """The 10-row hyperparameter grid, ROC series for the four reported
    configurations, and the class-wise summary tables."""
    proto = proto or prepare_protocol(config)
    _require_both_classes(config, proto)
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
    # every data check before the first fit: the classes here, the CV
    # folds' at the start of the regression suite
    _require_both_classes(config, proto)
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
        "classification": run_classification_grid(config, proto),
    }


def report_to_json(report: dict) -> str:
    """Canonical serialization: sorted keys, full float precision."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
