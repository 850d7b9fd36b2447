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
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .ingest import (DataError, Dataset, file_sha256, load_dataset,
                     reference_data_path)
from .kernelmod import (KernelSpec, fit_svc_smo, fit_svr, gamma_scale,
                        kernel_matrix, solve_svr_dual, svm_decision,
                        svm_predict_class)
from .linmod import (fit_elastic_net, fit_lasso, fit_logistic, fit_ols,
                     fit_ridge, linear_predict, logistic_scores)
from .metrics import (classification_report, confusion_matrix,
                      dataset_correlations, histogram, regression_metrics,
                      roc_curve)
from .preprocess import (apply_standardizer, fit_standardizer, kfold,
                         polynomial_features, train_test_split)
from .rng import derive_seeds
from .treemod import (default_max_features, fit_cart, fit_random_forest,
                      forest_predict, tree_predict)

# positions in the splitmix64 seed chain derived from the master seed
_SEED_SPLIT, _SEED_KFOLD, _SEED_SVC, _SEED_SVR, _SEED_FOREST = range(5)

REGRESSION_MODEL_NAMES = (
    "SVM Regression",
    "Random Forest Regressor",
    "Ridge Regression",
    "Linear Regression",
    "Elastic Net Regression",
    "Polynomial Regression",
    "Lasso Regression",
)

#: Models whose Cross Validation column is populated (linear family).
CV_REPORTED_MODELS = (
    "Ridge Regression",
    "Linear Regression",
    "Elastic Net Regression",
    "Lasso Regression",
)


@dataclass(frozen=True)
class ExperimentConfig:
    data_path: str | None = None  # None -> packaged reference file
    seed: int = 1
    split_ratio: float = 0.7
    threshold_mpg: float = 25.0
    cv_folds: int = 10
    c_grid: tuple = (1.0, 10.0, 100.0)
    svr_epsilon: float = 0.1
    svr_c_grid: tuple = (1.0, 10.0, 100.0)
    forest_trees: int = 100
    forest_min_samples_leaf: int = 1
    poly_degree: int = 2
    elastic_net_l1_ratio: float = 0.5
    alpha_grid: tuple = tuple(float(f"{v:.10g}") for v in np.logspace(-4, 1, 15))
    eda_bins: int = 10
    residual_bins: int = 20

    def __post_init__(self):
        """Reject out-of-range settings before any data is read or any
        output written.  Each condition states what must hold, so NaN
        fails it too."""
        checks = [
            (0.0 < self.split_ratio < 1.0,
             "split_ratio must lie strictly between 0 and 1"),
            (self.cv_folds >= 2, "cv_folds must be >= 2"),
            (self.forest_trees >= 1, "forest_trees must be >= 1"),
            (self.svr_epsilon >= 0.0, "svr_epsilon must be >= 0"),
            (0.0 <= self.elastic_net_l1_ratio <= 1.0,
             "elastic_net_l1_ratio must lie in [0, 1]"),
            (self.poly_degree >= 1, "poly_degree must be >= 1"),
            (self.eda_bins >= 1 and self.residual_bins >= 1,
             "eda_bins and residual_bins must be >= 1"),
        ]
        for grid in ("c_grid", "svr_c_grid", "alpha_grid"):
            values = getattr(self, grid)
            checks += [(all(v > 0.0 for v in values),
                        f"{grid} entries must be > 0"),
                       (all(a < b for a, b in zip(values, values[1:])),
                        f"{grid} entries must be strictly increasing")]
        for ok, message in checks:
            if not ok:
                raise ValueError(message)

    def resolved_data_path(self) -> str:
        return self.data_path or reference_data_path()

    def to_dict(self) -> dict:
        """The config as given: data_path stays None for the packaged
        file, so reports agree across checkouts (data_sha256 in the
        provenance identifies the data)."""
        return dataclasses.asdict(self)


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


def prepare_protocol(config: ExperimentConfig) -> ProtocolData:
    dataset = load_dataset(config.resolved_data_path(), config.threshold_mpg)
    seeds = derive_seeds(config.seed, 5)
    split = train_test_split(len(dataset.y), config.split_ratio, seeds[_SEED_SPLIT])
    Xtr_raw = dataset.X[split.train]
    Xte_raw = dataset.X[split.test]
    ytr_raw = dataset.y[split.train]
    yte_raw = dataset.y[split.test]
    sx = fit_standardizer(Xtr_raw)
    sy = fit_standardizer(ytr_raw[:, None])
    return ProtocolData(
        dataset=dataset,
        train_idx=split.train,
        test_idx=split.test,
        Xtr=apply_standardizer(sx, Xtr_raw),
        Xte=apply_standardizer(sx, Xte_raw),
        ytr=apply_standardizer(sy, ytr_raw[:, None])[:, 0],
        yte=apply_standardizer(sy, yte_raw[:, None])[:, 0],
        Xtr_raw=Xtr_raw,
        ytr_raw=ytr_raw,
        labels_tr=dataset.label[split.train],
        labels_te=dataset.label[split.test],
    )


def cross_validate(paths: dict, X: np.ndarray, y: np.ndarray, k: int,
                   seed: int) -> dict:
    """k-fold CV of several models' hyperparameter paths on one fold layout.

    Each fold is standardized once, with its training statistics, and
    ``paths[name](Xtr, ytr, Xte)`` returns the held-out predictions for
    every grid value of that model, in grid order.  Scores are held-out
    R^2 (scale-invariant, so the standardized units don't matter).
    Returns name -> one {"fold_scores": [...], "mean": float} per grid
    value.  Raises DataError, before any fit, when a held-out fold would
    have fewer than 3 rows (adjusted R^2 with p = 1 needs n > 2).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    if n // k < 3:
        raise DataError(f"{k}-fold cross-validation needs at least 3 held-out "
                        f"rows per fold, but the training split has {n} rows")
    folds = kfold(n, k, seed).folds
    scores = {name: [] for name in paths}  # name -> per fold, per grid value
    for i, test_idx in enumerate(folds):
        train_idx = np.concatenate([f for j, f in enumerate(folds) if j != i])
        sx = fit_standardizer(X[train_idx])
        sy = fit_standardizer(y[train_idx, None])
        Xtr = apply_standardizer(sx, X[train_idx])
        ytr = apply_standardizer(sy, y[train_idx, None])[:, 0]
        Xte = apply_standardizer(sx, X[test_idx])
        yte = apply_standardizer(sy, y[test_idx, None])[:, 0]
        for name, path in paths.items():
            scores[name].append([regression_metrics(yte, pred, p=1).r2
                                 for pred in path(Xtr, ytr, Xte)])
    return {name: [{"fold_scores": list(s), "mean": float(np.mean(s))}
                   for s in zip(*per_fold)]
            for name, per_fold in scores.items()}


def _select(grid, results):
    """(value, cv result) with the highest mean CV R^2; ties within 1e-12
    resolve to the earliest grid entry."""
    best = 0
    for i, result in enumerate(results):
        if result["mean"] > results[best]["mean"] + 1e-12:
            best = i
    return grid[best], results[best]


def _regression_fits(config: ExperimentConfig, proto: ProtocolData) -> dict:
    """Fit the seven regression models; returns name -> (predict, p, extras)."""
    seeds = derive_seeds(config.seed, 5)
    d = proto.Xtr.shape[1]
    alphas, l1_ratio = config.alpha_grid, config.elastic_net_l1_ratio
    gamma = gamma_scale(proto.Xtr)
    kern = KernelSpec("rbf", gamma)

    def svr_path(Xs, ys, Xq):
        # the grid ascends, so each optimum stays feasible for the next,
        # larger box and warm-starts it, which greatly cuts solver work
        K = kernel_matrix(kern, Xs, Xs)
        K_test = kernel_matrix(kern, Xq, Xs)
        beta, preds = None, []
        for C in config.svr_c_grid:
            beta, b = solve_svr_dual(K, ys, C, config.svr_epsilon,
                                     seed=seeds[_SEED_SVR], beta0=beta)
            preds.append(K_test @ beta + b)
        return preds

    # --- CV on the training split: every grid on one fold layout
    cv = cross_validate({
        "svr": svr_path,
        "ridge": lambda Xs, ys, Xq: [linear_predict(fit_ridge(Xs, ys, lam), Xq)
                                     for lam in alphas],
        "ols": lambda Xs, ys, Xq: [linear_predict(fit_ols(Xs, ys), Xq)],
        "enet": lambda Xs, ys, Xq: [
            linear_predict(fit_elastic_net(Xs, ys, a, l1_ratio), Xq)
            for a in alphas],
        "lasso": lambda Xs, ys, Xq: [linear_predict(fit_lasso(Xs, ys, a), Xq)
                                     for a in alphas],
    }, proto.Xtr_raw, proto.ytr_raw, config.cv_folds, seeds[_SEED_KFOLD])

    # --- SVR: RBF kernel, C selected by CV on the training split
    svr_c, _ = _select(config.svr_c_grid, cv["svr"])
    svr_model = fit_svr(proto.Xtr, proto.ytr, C=svr_c, epsilon=config.svr_epsilon,
                        kernel=kern, seed=seeds[_SEED_SVR])
    out = {"SVM Regression": (lambda Xq, m=svr_model: svm_decision(m, Xq), d,
                              {"kernel": "rbf", "gamma": gamma, "C": svr_c,
                               "epsilon": config.svr_epsilon})}

    # --- Random forest
    forest = fit_random_forest(proto.Xtr, proto.ytr, "regress",
                               n_trees=config.forest_trees,
                               min_samples_leaf=config.forest_min_samples_leaf,
                               seed=seeds[_SEED_FOREST])
    out["Random Forest Regressor"] = (
        lambda Xq, m=forest: forest_predict(m, Xq), d,
        {"n_trees": config.forest_trees,
         "max_features": default_max_features(d, "regress")})

    # --- Ridge (lambda by CV)
    ridge_lam, ridge_cv = _select(alphas, cv["ridge"])
    ridge = fit_ridge(proto.Xtr, proto.ytr, ridge_lam)
    out["Ridge Regression"] = (lambda Xq, m=ridge: linear_predict(m, Xq), d,
                               {"lambda": ridge_lam, "cv": ridge_cv})

    # --- OLS (its CV column uses the same fold layout)
    ols = fit_ols(proto.Xtr, proto.ytr)
    out["Linear Regression"] = (lambda Xq, m=ols: linear_predict(m, Xq), d,
                                {"cv": cv["ols"][0]})

    # --- Elastic net (alpha by CV, fixed l1_ratio)
    enet_alpha, enet_cv = _select(alphas, cv["enet"])
    enet = fit_elastic_net(proto.Xtr, proto.ytr, enet_alpha, l1_ratio)
    out["Elastic Net Regression"] = (
        lambda Xq, m=enet: linear_predict(m, Xq), d,
        {"alpha": enet_alpha, "l1_ratio": l1_ratio, "cv": enet_cv})

    # --- Polynomial: degree-2 expansion + unregularized OLS
    Xtr_poly = polynomial_features(proto.Xtr, config.poly_degree)
    poly = fit_ols(Xtr_poly, proto.ytr, family="polynomial",
                   hyperparams={"degree": config.poly_degree})
    p_poly = Xtr_poly.shape[1]
    out["Polynomial Regression"] = (
        lambda Xq, m=poly: linear_predict(
            m, polynomial_features(Xq, config.poly_degree)),
        p_poly, {"degree": config.poly_degree})

    # --- Lasso (alpha by CV)
    lasso_alpha, lasso_cv = _select(alphas, cv["lasso"])
    lasso = fit_lasso(proto.Xtr, proto.ytr, lasso_alpha)
    out["Lasso Regression"] = (lambda Xq, m=lasso: linear_predict(m, Xq), d,
                               {"alpha": lasso_alpha, "cv": lasso_cv})

    out["_ols_model"] = ols
    return out


def diagnostics(model, Xte: np.ndarray, yte: np.ndarray, bins: int = 20) -> dict:
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
    fits = _regression_fits(config, proto)
    ols_model = fits.pop("_ols_model")
    rows = []
    for name in REGRESSION_MODEL_NAMES:
        predict, p, extras = fits[name]
        try:
            m = regression_metrics(proto.yte, predict(proto.Xte), p=p)
        except Exception as exc:  # partial report: record per-row failure
            rows.append({"model": name, "error": str(exc)})
            continue
        cv = extras.pop("cv", None)
        row = {
            "model": name,
            "mae": m.mae, "mse": m.mse, "rmse": m.rmse,
            "r2": m.r2, "adj_r2": m.adj_r2,
            "cv_mean_r2": cv["mean"] if (cv and name in CV_REPORTED_MODELS) else None,
            "hyperparams": extras,
        }
        if cv and name in CV_REPORTED_MODELS:
            row["cv_fold_scores"] = cv["fold_scores"]
        rows.append(row)
    rows.sort(key=lambda r: r.get("r2", float("-inf")), reverse=True)
    return {
        "table": rows,
        "figure_data": {
            **diagnostics(ols_model, proto.Xte, proto.yte, config.residual_bins),
            "model_comparison": [
                {"model": r["model"], "r2": r.get("r2")} for r in rows
            ],
        },
    }


def _classifier_row(name, C, labels_true, labels_pred):
    rep = classification_report(confusion_matrix(labels_true, labels_pred))
    return {
        "model": name,
        "C": C,
        "accuracy": rep.accuracy,
        "class0": {"precision": rep.precision[0], "recall": rep.recall[0],
                   "f1": rep.f1[0]},
        "class1": {"precision": rep.precision[1], "recall": rep.recall[1],
                   "f1": rep.f1[1]},
        "flags": list(rep.flags),
    }


def run_classification_grid(config: ExperimentConfig, proto: ProtocolData | None = None) -> dict:
    """The 10-row hyperparameter grid, ROC series for the four reported
    configurations, and the class-wise summary tables."""
    proto = proto or prepare_protocol(config)
    seeds = derive_seeds(config.seed, 5)
    gamma = gamma_scale(proto.Xtr)
    c_desc = tuple(sorted(config.c_grid, reverse=True))

    svm_models = {}  # (kind, C) -> model
    rows = []
    for kind in ("linear", "rbf"):
        kern = KernelSpec(kind, gamma if kind == "rbf" else None)
        for C in c_desc:
            m = fit_svc_smo(proto.Xtr, proto.labels_tr, C=C, kernel=kern,
                            seed=seeds[_SEED_SVC])
            svm_models[(kind, C)] = m
            label = "Linear Kernel" if kind == "linear" else "RBF Kernel"
            rows.append(_classifier_row(f"SVM ({label}, C={C})", C,
                                        proto.labels_te,
                                        svm_predict_class(m, proto.Xte)))
    logit_models = {}
    for C in c_desc:
        m = fit_logistic(proto.Xtr, proto.labels_tr, C=C)
        logit_models[C] = m
        preds = (logistic_scores(m, proto.Xte) >= 0.5).astype(int)
        rows.append(_classifier_row(f"Logistic Regression (C={C})", C,
                                    proto.labels_te, preds))
    tree = fit_cart(proto.Xtr, proto.labels_tr, "classify")
    rows.append(_classifier_row("Decision Tree", "Default",
                                proto.labels_te,
                                tree_predict(tree, proto.Xte).astype(int)))

    # ROC series for the four reported configurations
    c_max = max(config.c_grid)
    c_one = min(config.c_grid)
    roc_specs = {
        "svm_linear_initial": svm_decision(svm_models[("linear", c_max)], proto.Xte),
        "svm_linear_optimized": svm_decision(svm_models[("linear", c_one)], proto.Xte),
        "svm_rbf": svm_decision(svm_models[("rbf", c_one)], proto.Xte),
        "logistic": logistic_scores(logit_models[c_one], proto.Xte),
    }
    roc_data = {}
    for key, scores in roc_specs.items():
        curve = roc_curve(scores, proto.labels_te)
        # +inf anchor threshold serialized as null
        roc_data[key] = {"points": [list(p) for p in curve.points],
                         "thresholds": [None if np.isinf(t) else t
                                        for t in curve.thresholds],
                         "auc": curve.auc}

    # class-wise summaries from the best C per family (ties -> smaller C)
    def best_c(prefix):
        family = [r for r in rows if r["model"].startswith(prefix)]
        return max(family, key=lambda r: (r["accuracy"], -float(r["C"])))

    summary_sources = [
        ("SVM with Linear Kernel", best_c("SVM (Linear")),
        # a kernel-free dual is the linear kernel at default C
        ("SVM No Kernel", next(r for r in rows
                               if r["model"] == f"SVM (Linear Kernel, C={c_one})")),
        ("SVM with RBF Kernel", best_c("SVM (RBF")),
        ("Logistic Regression", best_c("Logistic")),
        ("Decision Tree Classification", rows[-1]),
    ]
    class_summaries = {
        "class0": [{"model": name, **src["class0"]} for name, src in summary_sources],
        "class1": [{"model": name, **src["class1"]} for name, src in summary_sources],
        "note": "SVM No Kernel reports the linear-kernel machine at default C",
    }
    return {"table": rows, "roc": roc_data, "class_summaries": class_summaries}


def run_eda(config: ExperimentConfig) -> dict:
    """Correlation matrix, per-feature distributions, pairwise data."""
    dataset = load_dataset(config.resolved_data_path(), config.threshold_mpg)
    corr = dataset_correlations(dataset)
    columns = {"mpg": dataset.y}
    for j, name in enumerate(dataset.column_names):
        columns[name] = dataset.X[:, j]
    return {
        "correlation": {
            "labels": list(corr.labels),
            "values": [[float(v) for v in row] for row in corr.values],
        },
        "distributions": {name: histogram(col, config.eda_bins)
                          for name, col in columns.items()},
        "pairwise": {name: col.tolist() for name, col in columns.items()},
        "class_counts": {
            "high_efficiency": int(dataset.label.sum()),
            "low_efficiency": int((1 - dataset.label).sum()),
        },
    }


def run_full_report(config: ExperimentConfig) -> dict:
    """All experiment outputs plus provenance, fully deterministic."""
    proto = prepare_protocol(config)
    return {
        "provenance": {
            "config": config.to_dict(),
            "data_sha256": file_sha256(config.resolved_data_path()),
            "version": __version__,
            "n_train": int(proto.train_idx.size),
            "n_test": int(proto.test_idx.size),
        },
        "eda": run_eda(config),
        "regression": run_regression_suite(config, proto),
        "classification": run_classification_grid(config, proto),
    }


def report_to_json(report: dict) -> str:
    """Canonical serialization: sorted keys, full float precision."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
