"""Evaluation mathematics: regression metrics, confusion-based
classification metrics, ROC/AUC, Pearson correlation and histograms."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class RegressionMetrics:
    mae: float
    mse: float
    rmse: float
    r2: float
    adj_r2: float


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class ClassificationReport:
    accuracy: float
    precision: dict  # class -> value
    recall: dict
    f1: dict
    flags: tuple = ()  # names of metrics zeroed by an empty denominator


@dataclass(frozen=True)
class RocCurve:
    points: tuple  # ((fpr, tpr), ...) sorted by threshold descending
    thresholds: tuple  # matching score values; +inf for the (0, 0) anchor
    auc: float


@dataclass(frozen=True)
class CorrelationMatrix:
    values: np.ndarray
    labels: tuple


def adjusted_r2(r2: float, n: int, p: int) -> float:
    if n <= p + 1:
        raise ValueError(f"adjusted R^2 undefined for n={n}, p={p}")
    return 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)


def regression_metrics(y_true: np.ndarray, y_pred: np.ndarray, p: int) -> RegressionMetrics:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have equal length")
    n = y_true.size
    if n < 2:
        raise ValueError("need n >= 2")
    err = y_true - y_pred
    sst = float(((y_true - y_true.mean()) ** 2).sum())
    if sst == 0.0:
        raise ValueError("constant y_true: R^2 undefined")
    mae = float(np.abs(err).mean())
    mse = float((err * err).mean())
    sse = mse * n
    r2 = 1.0 - sse / sst
    return RegressionMetrics(mae=mae, mse=mse, rmse=float(np.sqrt(mse)), r2=r2,
                             adj_r2=adjusted_r2(r2, n, p))


def confusion_matrix(labels_true: np.ndarray, labels_pred: np.ndarray) -> ConfusionMatrix:
    t = np.asarray(labels_true).astype(int)
    q = np.asarray(labels_pred).astype(int)
    if t.size == 0:
        raise ValueError("empty input")
    if t.shape != q.shape:
        raise ValueError("length mismatch")
    if not (np.isin(t, (0, 1)).all() and np.isin(q, (0, 1)).all()):
        raise ValueError("labels must be in {0, 1}")
    return ConfusionMatrix(
        tp=int(((t == 1) & (q == 1)).sum()),
        fp=int(((t == 0) & (q == 1)).sum()),
        tn=int(((t == 0) & (q == 0)).sum()),
        fn=int(((t == 1) & (q == 0)).sum()),
    )


def classification_report(cm: ConfusionMatrix) -> ClassificationReport:
    """Per-class precision/recall/F1 plus accuracy (class 1 = positive).
    A zero denominator yields metric 0 and records a flag."""
    flags = []

    def ratio(num, den, name):
        if den == 0:
            flags.append(name)
            return 0.0
        return num / den

    precision = {
        0: ratio(cm.tn, cm.tn + cm.fn, "precision_0"),
        1: ratio(cm.tp, cm.tp + cm.fp, "precision_1"),
    }
    recall = {
        0: ratio(cm.tn, cm.tn + cm.fp, "recall_0"),
        1: ratio(cm.tp, cm.tp + cm.fn, "recall_1"),
    }
    f1 = {}
    for c in (0, 1):
        s = precision[c] + recall[c]
        f1[c] = ratio(2.0 * precision[c] * recall[c], s, f"f1_{c}")
    accuracy = (cm.tp + cm.tn) / cm.total
    return ClassificationReport(accuracy=accuracy, precision=precision,
                                recall=recall, f1=f1, flags=tuple(flags))


def roc_curve(scores: np.ndarray, labels: np.ndarray) -> RocCurve:
    """ROC by sweeping thresholds over descending unique scores; tied
    scores are grouped into a single point.  AUC by trapezoidal rule."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(int)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    lab = labels[order]
    tps = np.cumsum(lab == 1)
    fps = np.cumsum(lab == 0)
    last_of_group = np.flatnonzero(np.append(s[1:] != s[:-1], True))
    tpr = np.concatenate([[0.0], tps[last_of_group] / n_pos])
    fpr = np.concatenate([[0.0], fps[last_of_group] / n_neg])
    thresholds = np.concatenate([[np.inf], s[last_of_group]])
    auc = float(((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1])).sum() / 2.0)
    points = tuple((float(x), float(t)) for x, t in zip(fpr, tpr))
    return RocCurve(points=points, thresholds=tuple(float(t) for t in thresholds),
                    auc=auc)


def pearson_correlation(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ac = a - a.mean()
    bc = b - b.mean()
    denom = np.sqrt((ac * ac).sum() * (bc * bc).sum())
    if denom == 0.0:
        raise ValueError("constant column: correlation undefined")
    return float((ac * bc).sum() / denom)


def pearson_matrix(columns: np.ndarray, labels) -> CorrelationMatrix:
    """Symmetric correlation matrix over the given columns (n x k)."""
    columns = np.asarray(columns, dtype=float)
    k = columns.shape[1]
    labels = tuple(labels)
    if len(labels) != k:
        raise ValueError("label count must match column count")
    values = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            r = pearson_correlation(columns[:, i], columns[:, j])
            values[i, j] = values[j, i] = r
    return CorrelationMatrix(values=values, labels=labels)


def dataset_correlations(dataset) -> CorrelationMatrix:
    """Correlation matrix over mpg plus the seven features, computed on
    the full imputed dataset (pre-split)."""
    cols = np.column_stack([dataset.y, dataset.X])
    return pearson_matrix(cols, ("mpg",) + tuple(dataset.column_names))


def histogram(series: np.ndarray, bins: int) -> dict:
    """Equal-width histogram over [min, max]; last bin right-inclusive."""
    series = np.asarray(series, dtype=float)
    if series.size == 0:
        raise ValueError("empty series")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    counts, edges = np.histogram(series, bins=bins)
    return {"edges": edges.tolist(), "counts": counts.tolist()}
