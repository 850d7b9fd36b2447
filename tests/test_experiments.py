"""Experiment orchestration: protocol shapes, cross-validation semantics,
report structure and end-to-end determinism."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mpgworkbench import experiments
from mpgworkbench.experiments import (FIXED, ExperimentConfig, cross_validate,
                                      prepare_protocol, report_to_json,
                                      run_classification_grid, run_eda,
                                      run_full_report)
from mpgworkbench.ingest import DATA_SHA256, DataError
from mpgworkbench.linmod import fit_ols, linear_predict
from mpgworkbench.preprocess import kfold

# the regression table's rows, and the four whose CV column is reported
REGRESSION_MODELS = ("SVM Regression", "Random Forest Regressor",
                     "Ridge Regression", "Linear Regression",
                     "Elastic Net Regression", "Polynomial Regression",
                     "Lasso Regression")
CV_REPORTED = ("Ridge Regression", "Linear Regression",
               "Elastic Net Regression", "Lasso Regression")


# --- protocol

def test_protocol_split_sizes(protocol):
    assert protocol.train_idx.size == 279
    assert protocol.test_idx.size == 119
    assert protocol.Xtr.shape == (279, 7)
    assert protocol.Xte.shape == (119, 7)


def test_protocol_standardization_is_fit_on_train(protocol):
    np.testing.assert_allclose(protocol.Xtr.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(protocol.Xtr.std(axis=0), 1.0, atol=1e-10)
    np.testing.assert_allclose(protocol.ytr.mean(), 0.0, atol=1e-10)
    np.testing.assert_allclose(protocol.ytr.std(), 1.0, atol=1e-10)
    # test data uses training statistics, so is not exactly centered
    assert abs(protocol.Xte.mean()) > 1e-12


def test_protocol_deterministic():
    a = prepare_protocol(ExperimentConfig())
    b = prepare_protocol(ExperimentConfig())
    np.testing.assert_array_equal(a.train_idx, b.train_idx)
    np.testing.assert_array_equal(a.Xte, b.Xte)


def test_config_resolves_packaged_data():
    cfg = ExperimentConfig()
    assert cfg.resolved_data_path().endswith("auto-mpg.data")
    assert cfg.to_dict()["seed"] == 1


@pytest.mark.parametrize("field, value", [
    ("split_ratio", 0.0), ("split_ratio", 1.0), ("split_ratio", 1.5),
    ("split_ratio", float("nan")), ("cv_folds", 1),
])
def test_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("field, value", [("split_ratio", 0.5), ("cv_folds", 2)])
def test_config_accepts_range_edges(field, value):
    assert getattr(ExperimentConfig(**{field: value}), field) == value


@pytest.mark.parametrize("grid", ["c_grid", "svr_c_grid", "alpha_grid"])
def test_fixed_grids_are_positive_and_ascend(grid):
    # the CV tie rule and the SVR warm start up the C grid rely on it
    values = FIXED[grid]
    assert all(v > 0.0 for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_config_records_the_fixed_settings():
    recorded = ExperimentConfig().to_dict()
    assert {k: recorded[k] for k in FIXED} == FIXED


# --- cross_validate

def ols_cv(X, y, k, seed):
    """The CV result of OLS, the one-entry path of the fold loop."""
    def ols_path(folds):
        return [[linear_predict(fit_ols(Xs, ys), Xq)] for Xs, ys, Xq in folds]

    return cross_validate({"ols": ols_path}, X, y, k, seed)["ols"][0]


def test_cv_perfect_linear_data(rng):
    X = rng.normal(size=(40, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + 4.0
    result = ols_cv(X, y, k=5, seed=0)
    assert all(s == pytest.approx(1.0) for s in result["fold_scores"])


def test_cv_small_folds_run(rng):
    # adjusted R^2 needs n > p + 1 held-out rows, so folds of 3 are the
    # smallest workable size with p=1
    X = rng.normal(size=(30, 2))
    y = X[:, 0] + 0.1 * rng.normal(size=30)
    result = ols_cv(X, y, k=10, seed=0)
    assert len(result["fold_scores"]) == 10


@pytest.mark.parametrize("n, k", [(29, 10), (8, 10)])
def test_cv_rejects_folds_below_three_rows(rng, n, k):
    X = rng.normal(size=(n, 2))
    y = X[:, 0] + rng.normal(size=n)
    with pytest.raises(DataError, match=f"{k}-fold.*{n} rows"):
        ols_cv(X, y, k=k, seed=0)


def test_cv_constant_training_column_is_a_data_error(rng):
    """A column that varies only inside one held-out fold is constant in
    that fold's training rows: a DataError naming the column and fold.
    A column of 12.3 counts too, though its std rounds to ~1e-15."""
    held_out = kfold(30, 6, 3)[2]
    for j, name, value in ((5, "model_year", 70.0), (4, "acceleration", 12.3)):
        X = rng.normal(size=(30, 7))
        y = X[:, 0] + rng.normal(size=30)
        X[:, j] = value
        X[held_out, j] = value + 1.0
        with pytest.raises(DataError, match=f"'{name}' is constant in the "
                                            "training rows of CV fold 3"):
            ols_cv(X, y, k=6, seed=3)



@pytest.mark.parametrize("column", [1, None])  # a feature, then mpg
def test_cv_value_too_large_to_square_names_its_data_row(rng, column):
    """A value that standardizes to about 5 with the training rows that
    hold it, but to 1e300, which has no finite square, in the fold that
    holds it out, is a DataError naming its data row: rows[i] + 1 for
    row i of X, or i + 1 when no rows are given."""
    X = rng.normal(size=(30, 7))
    y = X[:, 0] + rng.normal(size=30)
    (y if column is None else X[:, column])[4] = 1e300
    held_out = next(i for i, f in enumerate(kfold(30, 6, 3), 1) if 4 in f)
    paths = {"none": lambda folds: [[] for _ in folds]}
    with pytest.raises(DataError, match="^data row 5 is too large to square once "
                       f"standardized with the training rows of CV fold {held_out}$"):
        cross_validate(paths, X, y, 6, 3)
    with pytest.raises(DataError, match="^data row 105 "):
        cross_validate(paths, X, y, 6, 3, np.arange(100, 130))

def test_cv_constant_held_out_target_is_a_data_error_before_any_fit(rng):
    """Held-out rows that share one target have no R^2: a DataError naming
    the first such fold, raised before any path fits a fold."""
    layout = kfold(30, 6, 3)
    X = rng.normal(size=(30, 7))
    y = X[:, 0] + rng.normal(size=30)
    for i in (4, 1):
        y[layout[i]] = 20.0
    calls = []
    with pytest.raises(DataError, match="^'mpg' is constant in the held-out "
                                        "rows of CV fold 2: R\\^2 is undefined"):
        cross_validate({"spy": calls.append}, X, y, 6, 3)
    assert calls == []


def test_protocol_constant_test_target_is_a_data_error(tmp_path, protocol,
                                                       reference_text):
    # the packaged file with mpg 20.0 on every row of the seed-1 test split
    rows = reference_text.splitlines()
    for i in protocol.test_idx:
        rows[i] = "20.0 " + rows[i].split(None, 1)[1]
    path = tmp_path / "constant-test.data"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="^'mpg' is constant in the test split: "):
        prepare_protocol(ExperimentConfig(data_path=str(path)))


def test_cv_mean_matches_fold_scores(rng):
    X = rng.normal(size=(30, 2))
    y = X[:, 0] + rng.normal(size=30)
    result = ols_cv(X, y, k=6, seed=3)
    assert result["mean"] == pytest.approx(np.mean(result["fold_scores"]))


def test_cv_scores_every_path_entry_on_one_fold_layout(rng):
    X = rng.normal(size=(30, 2))
    y = X[:, 0] + rng.normal(size=30)

    def two_entry_path(folds):
        preds = [linear_predict(fit_ols(Xs, ys), Xq) for Xs, ys, Xq in folds]
        return [[pred, np.zeros_like(pred)] for pred in preds]

    result = cross_validate({"pair": two_entry_path}, X, y, 6, 3)["pair"]
    assert len(result) == 2
    assert result[0] == ols_cv(X, y, k=6, seed=3)
    # predicting the training-fold mean (0 after standardization)
    assert all(s <= 0.0 for s in result[1]["fold_scores"])


# --- regression suite (session fixture: computed once)

def test_regression_table_has_seven_rows(regression_suite):
    names = [r["model"] for r in regression_suite["table"]]
    assert sorted(names) == sorted(REGRESSION_MODELS)


def test_regression_rows_sorted_by_r2_descending(regression_suite):
    r2s = [r["r2"] for r in regression_suite["table"]]
    assert r2s == sorted(r2s, reverse=True)


def test_cv_column_on_exactly_four_linear_rows(regression_suite):
    with_cv = {r["model"] for r in regression_suite["table"]
               if r["cv_mean_r2"] is not None}
    assert with_cv == set(CV_REPORTED)


def test_nonlinear_models_beat_linear_family(regression_suite):
    by_name = {r["model"]: r["r2"] for r in regression_suite["table"]}
    linear_best = max(by_name[name] for name in CV_REPORTED)
    assert by_name["SVM Regression"] > linear_best
    assert by_name["Random Forest Regressor"] > linear_best


def test_polynomial_p_is_expansion_count(regression_suite):
    rows = {r["model"]: r for r in regression_suite["table"]}
    poly = rows["Polynomial Regression"]
    # adj r2 recomputed with p=35 must match the reported value
    n = 119
    expected = 1.0 - (1.0 - poly["r2"]) * (n - 1) / (n - 35 - 1)
    assert poly["adj_r2"] == pytest.approx(expected, abs=1e-12)


def test_diagnostics_shapes(regression_suite):
    fig = regression_suite["figure_data"]
    assert len(fig["true_vs_pred"]) == 119
    assert len(fig["pred_vs_residual"]) == 119
    assert sum(fig["residual_histogram"]["counts"]) == 119
    assert len(fig["model_comparison"]) == 7


# --- classification grid

def test_grid_has_ten_rows(classification_grid):
    table = classification_grid["table"]
    assert len(table) == 10
    assert [r["model"] for r in table[:3]] == [
        "SVM (Linear Kernel, C=100.0)",
        "SVM (Linear Kernel, C=10.0)",
        "SVM (Linear Kernel, C=1.0)",
    ]
    assert table[-1]["model"] == "Decision Tree"
    assert table[-1]["C"] == "Default"


def test_roc_series_shapes(classification_grid):
    roc = classification_grid["roc"]
    assert set(roc) == {"svm_linear_initial", "svm_linear_optimized",
                        "svm_rbf", "logistic"}
    for curve in roc.values():
        assert curve["points"][0] == [0.0, 0.0]
        assert curve["points"][-1] == [1.0, 1.0]
        assert curve["thresholds"][0] is None  # serialized +inf anchor
        assert 0.0 <= curve["auc"] <= 1.0


def test_class_summaries_shape(classification_grid):
    summaries = classification_grid["class_summaries"]
    expected = ["SVM with Linear Kernel", "SVM No Kernel",
                "SVM with RBF Kernel", "Logistic Regression",
                "Decision Tree Classification"]
    assert [r["model"] for r in summaries["class0"]] == expected
    assert [r["model"] for r in summaries["class1"]] == expected
    for row in summaries["class0"] + summaries["class1"]:
        for key in ("precision", "recall", "f1"):
            assert 0.0 <= row[key] <= 1.0


def test_majority_leaf_tie_resolves_to_lower_class(protocol, monkeypatch):
    """A leaf's mean is its class-1 share; at a tie (0.5) the Decision
    Tree row predicts class 0."""
    X = np.ones((4, 1))  # unsplittable: constant feature
    tree = experiments.fit_cart(X, np.array([0.0, 0.0, 1.0, 1.0]))
    assert tree.is_leaf and tree.prediction == 0.5
    monkeypatch.setattr(experiments, "tree_predict",
                        lambda tree, X: np.full(len(X), 0.5))
    row = run_classification_grid(ExperimentConfig(), protocol)["table"][-1]
    assert row == experiments._classifier_row(
        "Decision Tree", "Default", protocol.labels_te,
        np.zeros_like(protocol.labels_te))


@pytest.mark.parametrize("threshold, split, present", [
    (45.0, "training", 0),  # no training car reaches 45 mpg
    (10.0, "test", 1),  # every test car reaches 10 mpg
])
def test_class_missing_from_a_split_is_a_data_error(threshold, split, present):
    with pytest.raises(DataError, match=f"the {split} split has only "
                                        f"class-{present} rows at threshold "
                                        f"{threshold} mpg"):
        run_classification_grid(ExperimentConfig(threshold_mpg=threshold))


def test_full_report_checks_classes_before_eda_and_regression(monkeypatch):
    calls = []
    for name in ("run_eda", "run_regression_suite"):
        monkeypatch.setattr(experiments, name,
                            lambda *args, name=name: calls.append(name))
    with pytest.raises(DataError, match="only class-0 rows at threshold 45"):
        run_full_report(ExperimentConfig(threshold_mpg=45))
    assert calls == []


def test_full_report_reads_the_data_once(monkeypatch):
    calls = []
    load = experiments.load_dataset

    def counted(*args, **kwargs):
        calls.append(args)
        return load(*args, **kwargs)

    monkeypatch.setattr(experiments, "load_dataset", counted)
    for key, value in {"forest_trees": 2, "svr_c_grid": (1.0, 10.0),
                       "alpha_grid": (0.01, 0.1), "c_grid": (1.0, 10.0)}.items():
        monkeypatch.setitem(FIXED, key, value)
    report = run_full_report(ExperimentConfig(cv_folds=3))
    assert len(calls) == 1
    assert report["provenance"]["data_sha256"] == DATA_SHA256
    assert report["eda"] == run_eda(ExperimentConfig())


def test_accuracies_in_unit_interval(classification_grid):
    for r in classification_grid["table"]:
        assert 0.0 <= r["accuracy"] <= 1.0


# --- EDA and serialization

def test_eda_shapes():
    eda = run_eda(ExperimentConfig())
    assert len(eda["correlation"]["labels"]) == 8
    assert len(eda["correlation"]["values"]) == 8
    assert set(eda["distributions"]) == {"mpg", "cylinders", "displacement",
                                         "horsepower", "weight", "acceleration",
                                         "model_year", "origin"}
    counts = eda["class_counts"]
    assert counts["high_efficiency"] + counts["low_efficiency"] == 398


def test_report_json_round_trips(classification_grid):
    import json
    text = report_to_json({"classification": classification_grid})
    parsed = json.loads(text)
    assert parsed["classification"]["table"][0]["model"].startswith("SVM")


_SEED1_DIGESTS = """
import hashlib
from mpgworkbench.experiments import (ExperimentConfig, report_to_json,
                                      run_classification_grid,
                                      run_regression_suite)
for run in (run_regression_suite, run_classification_grid):
    text = report_to_json(run(ExperimentConfig(seed=1)))
    print(hashlib.sha256(text.encode("utf-8")).hexdigest())
"""


def outputs_at_one_and_two_blas_threads(script: str) -> list[str]:
    """script's stdout with one and with two BLAS threads.  The thread
    count is read when numpy loads, so each count runs in its own
    process."""
    src = str(Path(experiments.__file__).resolve().parents[1])
    procs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")])}
        procs.append(subprocess.Popen([sys.executable, "-c", script],
                                      env=env, stdout=subprocess.PIPE,
                                      text=True))
    outs = [p.communicate(timeout=600)[0] for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    return outs


def test_reports_do_not_depend_on_blas_threads():
    """The seed-1 regression and classification reports hash the same
    with one and with two BLAS threads."""
    outs = outputs_at_one_and_two_blas_threads(_SEED1_DIGESTS)
    assert len(outs[0].split()) == 2
    assert outs[0] == outs[1]


_ENGINE_DIGEST = """
import hashlib
from mpgworkbench import experiments
from mpgworkbench.kernelmod import (KernelSpec, _svr_active_set, gamma_scale,
                                    kernel_matrix, solve_svr_dual)
config = experiments.ExperimentConfig(seed=1)
proto = experiments.prepare_protocol(config)
folds = []
experiments.cross_validate(
    {"capture": lambda fs: folds.extend(fs) or [[] for _ in fs]},
    proto.Xtr_raw, proto.ytr_raw, config.cv_folds, proto.kfold_seed)
Xs, ys, _ = folds[0]
K = kernel_matrix(KernelSpec("rbf", gamma_scale(proto.Xtr)), Xs, Xs)
(beta0, _), = solve_svr_dual(K, ys, (1.0,), 0.1)
start, *_ = _svr_active_set(K, ys, 10.0, 0.1, 10.0 / abs(beta0).max() * beta0, None)
print(hashlib.sha256(start.tobytes()).hexdigest())
"""


def test_active_set_start_does_not_depend_on_blas_threads():
    """The reports read the engine's CV solves only through the SVR's
    selected C, so the report check above cannot see their rounding.  The
    engine's start for the seed-1 warm solve of fold 1 at C = 10 hashes
    the same with one and with two BLAS threads."""
    outs = outputs_at_one_and_two_blas_threads(_ENGINE_DIGEST)
    assert len(outs[0].split()) == 1
    assert outs[0] == outs[1]
