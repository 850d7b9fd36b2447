"""CART decision trees (classification and regression) and bootstrap-
aggregated regression forests, both grown to pure leaves.

Split search is exact and deterministic: candidate thresholds are the
midpoints between consecutive sorted unique feature values, and a value
equal to the threshold goes LEFT.  Classification splits maximize Gini
impurity decrease; regression splits maximize variance reduction.  Ties
between equally good splits resolve to the lower feature index, then the
lower threshold.

A forest's trees live in one array of NODE records, which the grower
appends to once per lock-step round and prediction walks level by level
for every tree and row at once; TreeNode is a read-only view of one node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import XoshiroLanes, derive_seeds


# one record per node, in creation order; a leaf's feature, threshold,
# left and right are -1, and a split node's prediction is its mean
NODE = np.dtype([("feature", np.intp), ("threshold", float),
                 ("left", np.intp), ("right", np.intp), ("prediction", float),
                 ("n_samples", np.intp), ("impurity", float)])


@dataclass(frozen=True, eq=False)
class ForestModel:
    nodes: np.ndarray  # of NODE records; tree t is rooted at node t
    n_trees: int

    @property
    def trees(self) -> tuple[TreeNode, ...]:
        return tuple(TreeNode(self.nodes, t) for t in range(self.n_trees))


class TreeNode:
    """Read-only view of node ``i``: each field reads as a Python number,
    and ``left`` and ``right`` as views (None at a leaf)."""

    def __init__(self, nodes: np.ndarray, i: int):
        self.nodes, self.i = nodes, i

    def __getattr__(self, field):
        if field not in NODE.names:
            raise AttributeError(field)
        value = self.nodes[field][self.i].item()
        if field in ("left", "right"):
            return TreeNode(self.nodes, value) if value >= 0 else None
        return value

    @property
    def is_leaf(self) -> bool:
        return self.left is None


# most padded rows in one batched split search; bounds its working memory
_CHUNK_ROWS = 2048


def _row_sums(V: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Sum of the first sizes[i] entries of each row of V, bitwise what
    numpy's sum gives for that row alone: a masked sum hands each row's
    unmasked run to the same pairwise loop."""
    return V.sum(axis=1, where=np.arange(V.shape[1]) < sizes[:, None])


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


def _chunks(sizes: np.ndarray) -> list[np.ndarray]:
    """Node positions in batches for the split search, largest first:
    sizes within 4x of each other, which bounds the padding, and at most
    _CHUNK_ROWS padded rows (or a single node)."""
    order = np.argsort(-sizes, kind="stable")
    ranked = sizes[order]
    chunks, start = [], 0
    while start < order.size:
        top = ranked[start]
        # ranked falls, so the sizes within 4x of top are a prefix of it
        stop = min(np.searchsorted(-4 * ranked, -top, side="right"),
                   start + max(1, _CHUNK_ROWS // top))
        chunks.append(order[start:stop])
        start = stop
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
          max_features: int, rng: XoshiroLanes | None) -> ForestModel:
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
    nodes = np.full(n_lanes * (2 * n - 1), -1, NODE)  # 2n - 1 nodes at most
    feature, threshold, left, right, prediction, n_samples, impurity = (
        nodes[field] for field in NODE.names)  # views that write to nodes
    n_samples[:n_lanes] = n
    prediction[:n_lanes], impurity[:n_lanes] = _node_stats(
        target[boots], n_samples[:n_lanes], task)
    count = n_lanes
    # each lane's depth-first stack of (node, offset of the node's rows)
    stack = np.zeros((n_lanes, n, 2), dtype=np.intp)
    stack[:, 0, 0] = np.arange(n_lanes)
    # a pure node (a one-row node always is) is a leaf and draws nothing
    depth = (impurity[:n_lanes] > 0.0).astype(np.intp)
    while (live := np.flatnonzero(depth)).size:
        depth[live] -= 1
        node, offset = stack[live, depth[live]].T
        if rng is None:
            feats = np.broadcast_to(np.arange(d), (live.size, d))
        else:
            feats = np.sort(rng.sample_indices(d, max_features, live), axis=1)
        sizes = n_samples[node]
        found = []
        for chunk in _chunks(sizes):
            lane = live[chunk][:, None]
            size = sizes[chunk]
            real = np.arange(size[0]) < size[:, None]
            at = np.where(real, offset[chunk][:, None] + np.arange(size[0]), n)
            R = rows[lane, at]
            best, f, thr = _best_splits(X, feats[chunk], R, size, target[R],
                                        task)
            # accepted splits must strictly decrease impurity
            split = np.flatnonzero(
                np.isfinite(best) & ~(impurity[node[chunk]] - best <= 1e-15))
            # partition the split nodes' rows stably, left rows first and
            # padding last, and write them back
            R, real = R[split], real[split]
            f, thr = f[split], thr[split]
            goes_right = ~(X[R, f[:, None]] <= thr[:, None])
            side = np.where(real, goes_right, 2)
            rows[lane[split], at[split]] = R[np.arange(split.size)[:, None],
                                             side.argsort(axis=1, kind="stable")]
            found.append((chunk[split], f, thr, (side == 0).sum(axis=1)))
        c, f, thr, n_left = map(np.concatenate, zip(*found))
        # the left children, then the right children
        parent, k = node[c], c.size
        child = count + np.arange(2 * k)
        count += 2 * k
        feature[parent], threshold[parent] = f, thr
        left[parent], right[parent] = child[:k], child[k:]
        sizes_c = n_samples[child] = np.concatenate([n_left, sizes[c] - n_left])
        at_c = np.concatenate([offset[c], offset[c] + n_left])
        lane_c = np.tile(live[c], 2)
        at = np.minimum(at_c[:, None] + np.arange(sizes_c.max(initial=1)), n)
        prediction[child], impurity[child] = _node_stats(
            target[rows[lane_c[:, None], at]], sizes_c, task)
        # push the right child, then the left one, so each lane pops its
        # nodes in preorder
        entries = np.stack([child, at_c], axis=1)
        for half in (slice(k, None), slice(None, k)):
            push = impurity[child[half]] > 0.0
            lane = lane_c[half][push]
            stack[lane, depth[lane]] = entries[half][push]
            depth[lane] += 1
    return ForestModel(nodes[:count].copy(), n_lanes)


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
                 X.shape[1], None).trees[0]


def _leaf_values(nodes: np.ndarray, roots: np.ndarray,
                 X: np.ndarray) -> np.ndarray:
    """(len(roots), n_rows) predictions of the trees at roots on the rows
    of X, walked level by level; values equal to a threshold go left."""
    X = np.asarray(X, dtype=float)
    at = np.repeat(roots, X.shape[0])
    row = np.tile(np.arange(X.shape[0]), roots.size)
    feature, threshold, left, right = (
        nodes[field] for field in ("feature", "threshold", "left", "right"))
    todo = np.flatnonzero(left[at] >= 0)
    while todo.size:
        a = at[todo]
        at[todo] = a = np.where(X[row[todo], feature[a]] <= threshold[a],
                                left[a], right[a])
        todo = todo[left[a] >= 0]
    return nodes["prediction"][at].reshape(roots.size, X.shape[0])


def tree_predict(root: TreeNode, X: np.ndarray) -> np.ndarray:
    """Deterministic traversal; values equal to a threshold go left."""
    return _leaf_values(root.nodes, np.array([root.i]), X)[0]


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
    return _grow(X, y, boots, "regress", forest_max_features(d),
                 XoshiroLanes(tree_seeds[1::2]))


def forest_predict(m: ForestModel, X: np.ndarray) -> np.ndarray:
    """Mean of the trees' predictions."""
    return _leaf_values(m.nodes, np.arange(m.n_trees), X).mean(axis=0)
