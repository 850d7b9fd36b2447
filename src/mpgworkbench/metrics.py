"""Evaluation mathematics: regression metrics, confusion-based
classification metrics, ROC/AUC, Pearson correlation and histograms.

Results are Python floats and ints, or dicts and lists of them in the
shape the report stores: a regression-table row's metrics, a
classification row's scores and flags, a ROC series, the correlation
block and a histogram.  The experiments put them into the report as
they are."""

from __future__ import annotations

import numpy as np


def adjusted_r2(r2: float, n: int, p: int) -> float:
    if n <= p + 1:
        raise ValueError(f"adjusted R^2 undefined for n={n}, p={p}")
    return 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)


def regression_metrics(y_true: np.ndarray, y_pred: np.ndarray, p: int) -> dict:
    """{"mae", "mse", "rmse", "r2", "adj_r2"} of the predictions, with p
    features counted by the adjusted R^2.  A non-finite prediction (a
    diverged model) raises FloatingPointError."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have equal length")
    if not np.isfinite(y_pred).all():
        raise FloatingPointError("non-finite prediction")
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
    return {"mae": mae, "mse": mse, "rmse": float(np.sqrt(mse)), "r2": r2,
            "adj_r2": adjusted_r2(r2, n, p)}


def confusion_matrix(labels_true: np.ndarray, labels_pred: np.ndarray) -> dict:
    """{"tp", "fp", "tn", "fn"} counts of 0/1 labels (class 1 = positive)."""
    t = np.asarray(labels_true).astype(int)
    q = np.asarray(labels_pred).astype(int)
    if t.size == 0:
        raise ValueError("empty input")
    if t.shape != q.shape:
        raise ValueError("length mismatch")
    if not (np.isin(t, (0, 1)).all() and np.isin(q, (0, 1)).all()):
        raise ValueError("labels must be in {0, 1}")
    return {
        "tp": int(((t == 1) & (q == 1)).sum()),
        "fp": int(((t == 0) & (q == 1)).sum()),
        "tn": int(((t == 0) & (q == 0)).sum()),
        "fn": int(((t == 1) & (q == 0)).sum()),
    }


def classification_report(cm: dict) -> dict:
    """{"accuracy", "class0", "class1", "flags"} of confusion counts: each
    class maps to its {"precision", "recall", "f1"} (class 1 = positive).
    A zero denominator yields metric 0 and adds its name to "flags", in
    the order precision_0, precision_1, recall_0, recall_1, f1_0, f1_1."""
    flags = []

    def ratio(num, den, name):
        if den == 0:
            flags.append(name)
            return 0.0
        return num / den

    tp, fp, tn, fn = cm["tp"], cm["fp"], cm["tn"], cm["fn"]
    precision = (ratio(tn, tn + fn, "precision_0"), ratio(tp, tp + fp, "precision_1"))
    recall = (ratio(tn, tn + fp, "recall_0"), ratio(tp, tp + fn, "recall_1"))
    f1 = [ratio(2.0 * p * r, p + r, f"f1_{c}")
          for c, (p, r) in enumerate(zip(precision, recall))]
    return {"accuracy": (tp + tn) / (tp + fp + tn + fn),
            **{f"class{c}": {"precision": precision[c], "recall": recall[c],
                             "f1": f1[c]} for c in (0, 1)},
            "flags": flags}


def roc_curve(scores: np.ndarray, labels: np.ndarray) -> dict:
    """ROC by sweeping thresholds over descending unique scores; tied
    scores are grouped into a single point.  AUC by trapezoidal rule.
    Returns {"points": [[fpr, tpr], ...], "thresholds": [...], "auc"},
    points from (0, 0) to (1, 1); the threshold of the (0, 0) anchor,
    +inf, is None.  A non-finite score (a diverged decision function)
    raises FloatingPointError."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(int)
    if not np.isfinite(scores).all():
        raise FloatingPointError("non-finite score")
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
    auc = float(((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1])).sum() / 2.0)
    return {"points": np.column_stack([fpr, tpr]).tolist(),
            "thresholds": [None, *s[last_of_group].tolist()], "auc": auc}


def pearson_correlation(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.min() == a.max() or b.min() == b.max():
        raise ValueError("constant column: correlation undefined")
    # scaled by exact powers of two first, so that no square overflows
    a, b = (np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (a, b))
    ac, bc = a - a.mean(), b - b.mean()
    return float((ac * bc).sum() / np.sqrt((ac * ac).sum() * (bc * bc).sum()))


def pearson_matrix(columns: np.ndarray, labels) -> dict:
    """Symmetric correlation matrix over the given columns (n x k), as
    {"labels": [...], "values": [[...], ...]}."""
    columns = np.asarray(columns, dtype=float)
    k = columns.shape[1]
    labels = list(labels)
    if len(labels) != k:
        raise ValueError("label count must match column count")
    values = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            r = pearson_correlation(columns[:, i], columns[:, j])
            values[i, j] = values[j, i] = r
    return {"labels": labels, "values": values.tolist()}


def dataset_correlations(dataset) -> dict:
    """pearson_matrix over mpg plus the seven features, computed on the
    full imputed dataset (pre-split)."""
    cols = np.column_stack([dataset.y, dataset.X])
    return pearson_matrix(cols, ["mpg", *dataset.column_names])


def histogram(series: np.ndarray, bins: int) -> dict:
    """Equal-width histogram over [min, max]; last bin right-inclusive.

    A range too narrow to hold ``bins`` distinct float edges (min == max,
    or a few ulps apart) is widened around itself, as numpy does for a
    constant series, so every value still lands in a bin."""
    series = np.asarray(series, dtype=float)
    if series.size == 0:
        raise ValueError("empty series")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    lo, hi = float(series.min()), float(series.max())
    edges = np.linspace(lo, hi, bins + 1)
    if np.any(edges[:-1] >= edges[1:]):
        pad = max(0.5, bins * float(np.spacing(max(abs(lo), abs(hi)))))
        lo, hi = lo - pad, hi + pad
    counts, edges = np.histogram(series, bins=bins, range=(lo, hi))
    return {"edges": edges.tolist(), "counts": counts.tolist()}
