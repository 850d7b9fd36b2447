"""CART decision trees (classification and regression) and bootstrap-
aggregated random forests.

Split search is exact and deterministic: candidate thresholds are the
midpoints between consecutive sorted unique feature values, and a value
equal to the threshold goes LEFT.  Classification splits maximize Gini
impurity decrease; regression splits maximize variance reduction.  Ties
between equally good splits resolve to the lower feature index, then the
lower threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import Xoshiro256StarStar, derive_seeds


@dataclass
class TreeNode:
    # split node fields
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    # leaf fields
    prediction: float | None = None
    n_samples: int = 0
    impurity: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[TreeNode, ...]
    per_tree_seeds: tuple[int, ...]
    max_features: int
    n_trees: int
    task: str


def gini_impurity(labels: np.ndarray) -> float:
    counts = np.bincount(labels.astype(int))
    p = counts / labels.size
    return float(1.0 - (p * p).sum())


def _best_split(cols: np.ndarray, tn: np.ndarray, task: str,
                features: list[int], min_samples_leaf: int):
    """Best (feature, threshold, weighted child impurity) over the
    candidate columns ``cols`` (one per entry of ``features``), or None
    when no valid split exists."""
    n = tn.size
    pos = np.arange(len(features))
    order = cols.argsort(axis=0, kind="stable")
    xs = cols[order, pos]
    ts = tn[order]
    # split after position i puts sorted indices [0..i] left; valid where
    # the value strictly increases (threshold = midpoint)
    valid = xs[:-1] < xs[1:]
    n_left = np.arange(1.0, n)[:, None]
    n_right = n - n_left
    if min_samples_leaf > 1:
        valid &= ((n_left >= min_samples_leaf)
                  & (n_right >= min_samples_leaf))
    if not valid.any():
        return None
    if task == "classify":
        ones = ts.cumsum(axis=0)[:-1]
        p_l = ones / n_left
        p_r = (ts.sum(axis=0) - ones) / n_right
        g_l = 2.0 * p_l * (1.0 - p_l)  # binary Gini
        g_r = 2.0 * p_r * (1.0 - p_r)
        child = (n_left * g_l + n_right * g_r) / n
    else:
        csum = ts.cumsum(axis=0)[:-1]
        sq = ts * ts
        csq = sq.cumsum(axis=0)[:-1]
        sse_l = csq - csum * csum / n_left
        sse_r = (sq.sum(axis=0) - csq) - (ts.sum(axis=0) - csum) ** 2 / n_right
        child = (sse_l + sse_r) / n  # weighted variance
    child[~valid] = np.inf
    # argmin takes each feature's lowest threshold among equal minima;
    # across features, ties keep the earlier feature
    k = child.argmin(axis=0)
    best_child = child[k, pos].tolist()
    thresholds = ((xs[k, pos] + xs[k + 1, pos]) / 2.0).tolist()
    best = None  # (child_impurity, feature, threshold)
    for c, f, thr in zip(best_child, features, thresholds):
        if not math.isfinite(c):
            continue
        if best is None or c < best[0] - 1e-15:
            best = (c, f, thr)
    return best


def fit_cart(X: np.ndarray, target: np.ndarray, task: str,
             max_depth: int | None = None, min_samples_leaf: int = 1,
             max_features: int | None = None, seed: int = 0) -> TreeNode:
    """Greedy recursive partitioning; stops on max_depth,
    min_samples_leaf, zero impurity, or no impurity-decreasing split."""
    if task not in ("classify", "regress"):
        raise ValueError(f"unknown task {task!r}")
    X = np.asarray(X, dtype=float)
    target = np.asarray(target, dtype=float)
    if X.shape[0] == 0:
        raise ValueError("empty input")
    if min_samples_leaf < 1:
        raise ValueError("min_samples_leaf must be >= 1")
    d = X.shape[1]
    if max_features is None:
        max_features = d
    if not 1 <= max_features <= d:
        raise ValueError("max_features out of range")
    rng = Xoshiro256StarStar(seed)

    def grow(idx: np.ndarray, depth: int) -> TreeNode:
        tn = target[idx]
        if task == "classify":
            impurity = gini_impurity(tn)
            # majority class; a tie goes to the lower class index
            prediction = float(np.argmax(np.bincount(tn.astype(int))))
        else:
            # bitwise tn.mean() and tn.var(), without numpy's wrappers
            mean = tn.sum() / idx.size
            impurity = float(((tn - mean) ** 2).sum() / idx.size)
            prediction = float(mean)
        leaf = TreeNode(prediction=prediction, n_samples=idx.size,
                        impurity=impurity)
        if impurity <= 0.0 or idx.size < 2 * min_samples_leaf:
            return leaf
        if max_depth is not None and depth >= max_depth:
            return leaf
        if max_features < d:
            feats = sorted(rng.sample_indices(d, max_features))
        else:
            feats = list(range(d))
        found = _best_split(X[idx][:, feats], tn, task, feats, min_samples_leaf)
        if found is None:
            return leaf
        child_impurity, f, thr = found
        if impurity - child_impurity <= 1e-15:
            return leaf  # accepted splits must strictly decrease impurity
        go_left = X[idx, f] <= thr
        node = TreeNode(feature=f, threshold=thr,
                        n_samples=idx.size, impurity=impurity)
        node.left = grow(idx[go_left], depth + 1)
        node.right = grow(idx[~go_left], depth + 1)
        return node

    return grow(np.arange(X.shape[0]), 0)


def tree_predict(root: TreeNode, X: np.ndarray) -> np.ndarray:
    """Deterministic traversal; values equal to a threshold go left."""
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape[0])
    for i, row in enumerate(X):
        node = root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out[i] = node.prediction
    return out


def default_max_features(d: int, task: str) -> int:
    """Canonical forest defaults: ceil(d/3) for regression, ceil(sqrt(d))
    for classification."""
    if task == "regress":
        return math.ceil(d / 3)
    return math.ceil(math.sqrt(d))


def fit_random_forest(X: np.ndarray, target: np.ndarray, task: str,
                      n_trees: int = 100, max_features: int | None = None,
                      min_samples_leaf: int = 1, max_depth: int | None = None,
                      seed: int = 0, bootstrap: bool = True) -> ForestModel:
    """Bagged CART ensemble; each tree gets its own splitmix64-derived
    seed for the bootstrap draw and per-split feature subsampling."""
    X = np.asarray(X, dtype=float)
    target = np.asarray(target, dtype=float)
    n, d = X.shape
    if n < 2:
        raise ValueError("need at least 2 samples")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    if max_features is None:
        max_features = default_max_features(d, task)
    if not 1 <= max_features <= d:
        raise ValueError("max_features out of range")
    tree_seeds = derive_seeds(seed, 2 * n_trees)
    trees = []
    for t in range(n_trees):
        boot_seed, split_seed = tree_seeds[2 * t], tree_seeds[2 * t + 1]
        if bootstrap:
            rng = Xoshiro256StarStar(boot_seed)
            idx = np.array([rng.randbelow(n) for _ in range(n)])
        else:
            idx = np.arange(n)
        trees.append(fit_cart(X[idx], target[idx], task,
                              max_depth=max_depth,
                              min_samples_leaf=min_samples_leaf,
                              max_features=max_features, seed=split_seed))
    return ForestModel(trees=tuple(trees),
                       per_tree_seeds=tuple(tree_seeds),
                       max_features=max_features, n_trees=n_trees, task=task)


def forest_predict(m: ForestModel, X: np.ndarray) -> np.ndarray:
    """Mean over trees (regression) or majority vote with ties resolving
    to the lower class (classification)."""
    preds = np.stack([tree_predict(t, X) for t in m.trees])
    if m.task == "regress":
        return preds.mean(axis=0)
    votes_one = (preds == 1.0).sum(axis=0)
    return (votes_one * 2 > m.n_trees).astype(int)  # tie -> class 0 (lower)
