"""CART decision trees (classification and regression) and bootstrap-
aggregated regression forests, both grown to pure leaves.

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

from .rng import XoshiroLanes, derive_seeds


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


# most padded rows in one batched split search; bounds its working memory
_CHUNK_ROWS = 2048


def _row_sums(V: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Sum of the first sizes[i] entries of each row of V, bitwise what
    numpy's sum gives for that row alone."""
    out = np.empty(sizes.size)
    # numpy adds fewer than 8 entries in order, starting from +0.0 ...
    small = sizes < 8
    head = V[small, :7]
    head[:, 0] += 0.0
    out[small] = head.cumsum(axis=1)[np.arange(head.shape[0]), sizes[small] - 1]
    # ... and more pairwise, which one sum over rows of one width repeats
    widths = {}
    large = np.flatnonzero(~small)
    for i, s in zip(large.tolist(), sizes[large].tolist()):
        widths.setdefault(s, []).append(i)
    for s, sel in widths.items():
        out[sel] = V[sel, :s].sum(axis=1)
    return out


def _node_stats(V: np.ndarray, sizes: np.ndarray, task: str):
    """(prediction, impurity) of each node i with targets V[i, :sizes[i]]:
    its mean and variance, or its majority class (a tie goes to 0) and
    binary Gini, bitwise as computed for that node alone."""
    total = _row_sums(V, sizes)
    if task == "classify":
        p0, p1 = (sizes - total) / sizes, total / sizes
        return (total > sizes - total).astype(float), 1.0 - (p0 * p0 + p1 * p1)
    mean = total / sizes
    return mean, _row_sums((V - mean[:, None]) ** 2, sizes) / sizes


def _chunks(sizes: list[int]) -> list[list[int]]:
    """Node positions in batches for the split search, largest first:
    sizes within 4x of each other, which bounds the padding, and at most
    _CHUNK_ROWS padded rows (or a single node)."""
    chunks = []
    for i in sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True):
        if chunks:
            top = sizes[chunks[-1][0]]
            if 4 * sizes[i] >= top and (len(chunks[-1]) + 1) * top <= _CHUNK_ROWS:
                chunks[-1].append(i)
                continue
        chunks.append([i])
    return chunks


def _best_splits(X, F, R, size, V, task):
    """Best (child impurity, feature, threshold) of each node i of a
    padded batch, which holds the rows R[i, :size[i]] with targets V[i]
    and draws the candidate features F[i]; the child impurity is inf
    where no split is valid.  Each value is bitwise what a search of the
    node alone gives."""
    m, P = R.shape
    k = F.shape[1]
    mi, ki = np.arange(m)[:, None, None], np.arange(k)[None, :, None]
    # padding values are +inf, so a stable sort keeps them last
    real = np.arange(P) < size[:, None]
    cols = np.where(real[:, None, :], X[R[:, None, :], F[:, :, None]], np.inf)
    order = cols.argsort(axis=2, kind="stable")
    xs = cols[mi, ki, order]
    ts = V[mi, order]
    # split after position i puts sorted rows [0..i] left; valid where the
    # value strictly increases (threshold = midpoint)
    valid = ((xs[..., :-1] < xs[..., 1:])
             & (np.arange(P - 1) < size[:, None, None] - 1))
    n = size[:, None, None]
    n_left = np.arange(1.0, P)
    n_right = np.maximum(n - n_left, 1.0)  # clamps padding only

    def total(cumulative, t):
        # a node's column sums: in row order, but pairwise for one column
        if k == 1:
            return _row_sums(t[:, 0, :], size)[:, None, None]
        return cumulative[mi, ki, n - 1]

    csum = ts.cumsum(axis=2)
    tot = total(csum, ts)
    csum = csum[..., :-1]
    if task == "classify":
        p_l = csum / n_left
        p_r = (tot - csum) / n_right
        g_l = 2.0 * p_l * (1.0 - p_l)  # binary Gini
        g_r = 2.0 * p_r * (1.0 - p_r)
        child = (n_left * g_l + n_right * g_r) / n
    else:
        sq = ts * ts
        csq = sq.cumsum(axis=2)
        sqtot = total(csq, sq)
        csq = csq[..., :-1]
        sse_l = csq - csum * csum / n_left
        sse_r = (sqtot - csq) - (tot - csum) ** 2 / n_right
        child = (sse_l + sse_r) / n  # weighted variance
    child = np.where(valid, child, np.inf)
    # argmin takes each feature's lowest threshold among equal minima;
    # across features, ties keep the earlier feature
    at = child.argmin(axis=2)[..., None]
    per_feature = child[mi, ki, at][..., 0]
    thresholds = ((xs[mi, ki, at] + xs[mi, ki, at + 1]) / 2.0)[..., 0]
    best, feature, threshold = np.full(m, np.inf), F[:, 0], thresholds[:, 0]
    for j in range(k):
        c = per_feature[:, j]
        take = np.isfinite(c) & (c < best - 1e-15)
        best = np.where(take, c, best)
        feature = np.where(take, F[:, j], feature)
        threshold = np.where(take, thresholds[:, j], threshold)
    return best, feature, threshold


def _grow(X: np.ndarray, target: np.ndarray, boots: np.ndarray, task: str,
          max_features: int, rng: XoshiroLanes | None) -> list[TreeNode]:
    """Grow one tree on the rows boots[t] of each lane t, in lock-step.

    Each round splits the top node of every tree's depth-first stack, so
    each tree draws its ``max_features`` candidates per split from its
    lane of ``rng`` in the same preorder as one recursive grower would
    (``rng`` is None when every feature is a candidate).  A node stops on
    zero impurity or when no split decreases it.  Its rows are a segment
    of its lane's row of ``rows``, in bootstrap order; a split partitions
    the segment stably, left rows first."""
    n_lanes, n = boots.shape
    d = X.shape[1]
    rows = np.zeros((n_lanes, n + 1), dtype=np.intp)  # padding uses column n
    rows[:, :n] = boots
    prediction, impurity = _node_stats(target[boots], np.full(n_lanes, n), task)
    roots = [TreeNode(prediction=p, n_samples=n, impurity=i)
             for p, i in zip(prediction.tolist(), impurity.tolist())]
    # a pure node (a one-row node always is) is a leaf and draws nothing
    stacks = [[(root, 0)] if root.impurity > 0.0 else [] for root in roots]
    live = [t for t in range(n_lanes) if stacks[t]]
    while live:
        tops = [stacks[t].pop() for t in live]
        lanes = np.array(live)
        if rng is None:
            feats = np.broadcast_to(np.arange(d), (len(live), d))
        else:
            feats = np.sort(rng.sample_indices(d, max_features, lanes), axis=1)
        sizes = [node.n_samples for node, _ in tops]
        for chunk in _chunks(sizes):
            lane = lanes[chunk][:, None]
            size = np.array([sizes[i] for i in chunk])
            real = np.arange(size[0]) < size[:, None]
            at = np.where(real, [[tops[i][1]] for i in chunk]
                          + np.arange(size[0]), n)
            R = rows[lane, at]
            best, feature, threshold = _best_splits(X, feats[chunk], R, size,
                                                    target[R], task)
            impurity = np.array([tops[i][0].impurity for i in chunk])
            # accepted splits must strictly decrease impurity
            split = np.flatnonzero(np.isfinite(best)
                                   & ~(impurity - best <= 1e-15))
            if not split.size:
                continue
            # partition the split nodes' rows stably, left rows first and
            # padding last, and write them back
            R, real, size = R[split], real[split], size[split]
            feature, threshold = feature[split], threshold[split]
            goes_right = ~(X[R, feature[:, None]] <= threshold[:, None])
            side = np.where(real, goes_right, 2)
            R = R[np.arange(split.size)[:, None],
                  side.argsort(axis=1, kind="stable")]
            rows[lane[split], at[split]] = R
            # the left children, then the right children
            n_left = (side == 0).sum(axis=1)
            sizes_c = np.concatenate([n_left, size - n_left])
            offset = np.concatenate([np.zeros_like(n_left), n_left])
            at_c = np.minimum(offset[:, None] + np.arange(sizes_c.max()),
                              R.shape[1] - 1)
            parent = np.tile(np.arange(split.size), 2)[:, None]
            prediction, impurity = _node_stats(target[R[parent, at_c]],
                                               sizes_c, task)
            prediction, impurity = prediction.tolist(), impurity.tolist()
            for i, (c, f, thr, nl) in enumerate(zip(
                    split.tolist(), feature.tolist(), threshold.tolist(),
                    n_left.tolist())):
                node, a = tops[chunk[c]]
                node.feature, node.threshold, node.prediction = f, thr, None
                node.left = TreeNode(prediction=prediction[i], n_samples=nl,
                                     impurity=impurity[i])
                j = split.size + i
                node.right = TreeNode(prediction=prediction[j],
                                      n_samples=node.n_samples - nl,
                                      impurity=impurity[j])
                stack = stacks[live[chunk[c]]]
                if node.right.impurity > 0.0:
                    stack.append((node.right, a + nl))
                if node.left.impurity > 0.0:
                    stack.append((node.left, a))
        live = [t for t in live if stacks[t]]
    return roots


def fit_cart(X: np.ndarray, target: np.ndarray, task: str) -> TreeNode:
    """Greedy recursive partitioning over every feature; stops on zero
    impurity or when no split decreases it.  Classification labels are 0
    and 1."""
    if task not in ("classify", "regress"):
        raise ValueError(f"unknown task {task!r}")
    X = np.asarray(X, dtype=float)
    target = np.asarray(target, dtype=float)
    if X.shape[0] == 0:
        raise ValueError("empty input")
    if task == "classify" and not np.isin(target, (0.0, 1.0)).all():
        raise ValueError("classification labels must be 0 or 1")
    return _grow(X, target, np.arange(X.shape[0])[None, :], task,
                 X.shape[1], None)[0]


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


def forest_max_features(d: int) -> int:
    """Features drawn per split of a regression forest: ceil(d/3)."""
    return math.ceil(d / 3)


def fit_random_forest(X: np.ndarray, y: np.ndarray, n_trees: int = 100,
                      seed: int = 0) -> ForestModel:
    """Bagged regression trees, grown side by side; each tree gets its own
    splitmix64-derived seeds for the bootstrap draw and for per-split
    feature subsampling."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    if n < 2 or d < 1:
        raise ValueError("need at least 2 samples and 1 feature")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    tree_seeds = derive_seeds(seed, 2 * n_trees)
    lanes = np.arange(n_trees)
    draws = XoshiroLanes(tree_seeds[0::2])
    boots = np.empty((n_trees, n), dtype=np.intp)
    for i in range(n):
        boots[:, i] = draws.randbelow(n, lanes)
    trees = _grow(X, y, boots, "regress", forest_max_features(d),
                  XoshiroLanes(tree_seeds[1::2]))
    return ForestModel(trees=tuple(trees))


def forest_predict(m: ForestModel, X: np.ndarray) -> np.ndarray:
    """Mean of the trees' predictions."""
    return np.stack([tree_predict(t, X) for t in m.trees]).mean(axis=0)
