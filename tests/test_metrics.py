"""Evaluation mathematics: regression metrics, confusion-derived metrics,
ROC/AUC against a brute-force pair oracle, correlations and histograms."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpgworkbench.metrics import (adjusted_r2, classification_report,
                                  confusion_matrix, dataset_correlations,
                                  histogram, pearson_correlation,
                                  pearson_matrix, regression_metrics,
                                  roc_curve)


# --- regression metrics

def test_perfect_predictions():
    m = regression_metrics(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]), p=1)
    assert m["mae"] == 0.0 and m["mse"] == 0.0 and m["rmse"] == 0.0
    assert m["r2"] == 1.0 and m["adj_r2"] == 1.0


def test_hand_computed_example():
    m = regression_metrics(np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 2.0]), p=1)
    assert m["mae"] == pytest.approx(2.0 / 3.0)
    assert m["mse"] == pytest.approx(2.0 / 3.0)
    assert m["r2"] == pytest.approx(0.0)
    # two samples are enough
    assert regression_metrics([1, 2], [1.5, 1.5], p=0)["r2"] == 0.0


def test_adjusted_r2_published_example():
    assert adjusted_r2(0.847, 120, 7) == pytest.approx(0.8374, abs=5e-4)


def test_adjusted_r2_undefined_for_small_n():
    with pytest.raises(ValueError):
        adjusted_r2(0.5, 5, 4)


def test_rmse_mae_relation(rng):
    y = rng.normal(size=30)
    pred = y + rng.normal(size=30)
    m = regression_metrics(y, pred, p=2)
    assert m["rmse"] == pytest.approx(np.sqrt(m["mse"]))
    assert m["mae"] <= m["rmse"] + 1e-12
    assert m["adj_r2"] <= m["r2"]


def test_constant_y_true_rejected():
    with pytest.raises(ValueError):
        regression_metrics(np.ones(5), np.zeros(5), p=1)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        regression_metrics(np.ones(4), np.ones(3), p=1)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_prediction_raises(bad):
    # a diverged model fails as a numerical error, not with an inf MAE
    with pytest.raises(FloatingPointError):
        regression_metrics([0.0, 1.0, 2.0], [0.0, 1.0, bad], p=1)


def test_train_mean_predictor_r2_zero(rng):
    y = rng.normal(size=25)
    m = regression_metrics(y, np.full(25, y.mean()), p=1)
    assert m["r2"] == pytest.approx(0.0, abs=1e-12)


# --- confusion matrix / report

def test_all_correct():
    rep = classification_report(
        confusion_matrix(np.array([0, 1, 0, 1]), np.array([0, 1, 0, 1])))
    assert rep["accuracy"] == 1.0
    assert rep["class0"]["f1"] == 1.0 and rep["class1"]["f1"] == 1.0
    assert rep["flags"] == []


def test_hand_counted_example():
    rep = classification_report(
        confusion_matrix(np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1])))
    assert rep["class1"]["precision"] == pytest.approx(2.0 / 3.0)
    assert rep["class1"]["recall"] == 1.0
    assert rep["class1"]["f1"] == pytest.approx(0.8)


def test_no_predicted_positives_flagged_not_raised():
    rep = classification_report(
        confusion_matrix(np.array([0, 1]), np.array([0, 0])))
    assert rep["class1"]["precision"] == 0.0
    assert "precision_1" in rep["flags"]


def test_flags_keep_metric_then_class_order():
    """Flags list every precision, then every recall, then every F1,
    class 0 before class 1 within each."""
    rep = classification_report(confusion_matrix([1, 1], [0, 0]))
    assert rep["flags"] == ["precision_1", "recall_0", "f1_0", "f1_1"]


def test_confusion_validation():
    with pytest.raises(ValueError):
        confusion_matrix(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        confusion_matrix(np.array([0, 2]), np.array([0, 1]))
    with pytest.raises(ValueError):
        confusion_matrix(np.array([0, 1]), np.array([0]))


def test_accuracy_is_prevalence_weighted_recall(rng):
    t = rng.integers(0, 2, 50)
    t[0], t[1] = 0, 1  # both classes present
    q = rng.integers(0, 2, 50)
    rep = classification_report(confusion_matrix(t, q))
    n0 = (t == 0).sum() / t.size
    n1 = (t == 1).sum() / t.size
    assert rep["accuracy"] == pytest.approx(
        n0 * rep["class0"]["recall"] + n1 * rep["class1"]["recall"])


# --- ROC / AUC

def auc_by_pairs(scores, labels):
    """Brute-force concordant-pair statistic with ties counting half."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def test_perfect_ranking_auc_one():
    curve = roc_curve(np.array([0.9, 0.8, 0.3, 0.1]), np.array([1, 1, 0, 0]))
    assert curve["auc"] == 1.0


def test_interleaved_ranking_auc():
    curve = roc_curve(np.array([0.9, 0.6, 0.4, 0.1]), np.array([1, 0, 1, 0]))
    assert curve["auc"] == pytest.approx(0.75)


def test_roc_endpoints_and_monotone(rng):
    scores = rng.normal(size=40)
    labels = rng.integers(0, 2, 40)
    labels[0], labels[1] = 0, 1
    curve = roc_curve(scores, labels)
    assert curve["points"][0] == [0.0, 0.0]
    assert curve["points"][-1] == [1.0, 1.0]
    fpr = [p[0] for p in curve["points"]]
    tpr = [p[1] for p in curve["points"]]
    assert all(a <= b for a, b in zip(fpr, fpr[1:]))
    assert all(a <= b for a, b in zip(tpr, tpr[1:]))
    assert curve["thresholds"][0] is None  # the +inf anchor


def test_tied_scores_grouped():
    curve = roc_curve(np.array([0.5, 0.5, 0.2]), np.array([1, 0, 0]))
    # one point for the tied pair plus the anchor and the final point
    assert len(curve["points"]) == 3
    assert curve["auc"] == pytest.approx(auc_by_pairs(
        np.array([0.5, 0.5, 0.2]), np.array([1, 0, 0])))


def test_auc_equals_pair_statistic(rng):
    for _ in range(50):
        n = int(rng.integers(4, 30))
        scores = np.round(rng.normal(size=n), 1)  # force ties
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 0, 1
        curve = roc_curve(scores, labels)
        assert abs(curve["auc"] - auc_by_pairs(scores, labels)) <= 1e-12


def test_auc_invariant_under_monotone_transform(rng):
    scores = rng.normal(size=30)
    labels = rng.integers(0, 2, 30)
    labels[0], labels[1] = 0, 1
    a = roc_curve(scores, labels)
    b = roc_curve(np.exp(2.0 * scores), labels)
    assert a["auc"] == pytest.approx(b["auc"], abs=1e-12)
    assert a["points"] == b["points"]


def test_roc_one_class_rejected():
    with pytest.raises(ValueError):
        roc_curve(np.array([0.1, 0.2]), np.array([1, 1]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_roc_non_finite_score_raises(bad):
    # an inf would become a threshold; a NaN sorts first and gives AUC 0
    with pytest.raises(FloatingPointError):
        roc_curve([bad, 0.5, 0.0], [1, 0, 0])


# --- correlations

def test_self_and_negated_correlation(rng):
    x = rng.normal(size=50)
    assert pearson_correlation(x, x) == pytest.approx(1.0)
    assert pearson_correlation(x, -x) == pytest.approx(-1.0)


def test_correlation_affine_invariance(rng):
    x = rng.normal(size=40)
    y = rng.normal(size=40)
    r = pearson_correlation(x, y)
    assert pearson_correlation(3.0 * x + 5.0, 0.5 * y - 2.0) == pytest.approx(r)


def test_constant_column_rejected():
    with pytest.raises(ValueError):
        pearson_correlation(np.ones(5), np.arange(5.0))
    # the mean of 30 times 12.3 rounds, so the centred column is not 0
    with pytest.raises(ValueError, match="constant column"):
        pearson_correlation(np.arange(30.0), np.full(30, 12.3))


def test_pearson_matrix_symmetric_unit_diagonal(rng):
    cols = rng.normal(size=(30, 4))
    cm = pearson_matrix(cols, ["a", "b", "c", "d"])
    assert cm["labels"] == ["a", "b", "c", "d"]
    values = np.array(cm["values"])
    np.testing.assert_allclose(values, values.T)
    np.testing.assert_allclose(np.diag(values), 1.0)
    assert np.abs(values).max() <= 1.0 + 1e-12


def test_dataset_correlation_anchors(dataset):
    cm = dataset_correlations(dataset)
    values, labels = np.array(cm["values"]), cm["labels"]
    i = {name: labels.index(name) for name in labels}
    assert values[i["displacement"], i["cylinders"]] == pytest.approx(0.951, abs=5e-3)
    assert values[i["mpg"], i["weight"]] == pytest.approx(-0.832, abs=5e-3)
    assert values[i["displacement"], i["weight"]] == pytest.approx(0.933, abs=5e-3)


# --- histogram

def test_histogram_hand_binned():
    h = histogram(np.array([1.0, 1.0, 2.0, 3.0]), 3)
    assert h["counts"] == [2, 1, 1]
    np.testing.assert_allclose(h["edges"], [1.0, 5.0 / 3.0, 7.0 / 3.0, 3.0])


def test_histogram_single_value():
    h = histogram(np.full(7, 2.0), 4)
    assert sum(h["counts"]) == 7


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50),
       st.integers(min_value=1, max_value=10))
@example([100.0, 99.99999999999999], 2)
def test_histogram_counts_sum_to_n(values, bins):
    h = histogram(np.array(values), bins)
    assert sum(h["counts"]) == len(values)


def test_histogram_validation():
    with pytest.raises(ValueError):
        histogram(np.array([]), 3)
    with pytest.raises(ValueError):
        histogram(np.ones(3), 0)
