"""CART trees and regression forests: split correctness, boundary rules,
determinism, and ensemble properties."""

import hashlib
import importlib.util
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import keyed_draw

from mpgworkbench import experiments
from mpgworkbench.rng import Xoshiro256StarStar, derive_seeds, splitmix64_next
from mpgworkbench.treemod import (fit_cart, fit_random_forest,
                                  forest_max_features, forest_predict,
                                  tree_predict)


def walk(node):
    yield node
    if not node.is_leaf:
        yield from walk(node.left)
        yield from walk(node.right)


# --- impurity

def gini_impurity(labels: np.ndarray) -> float:
    """Gini impurity of a label set: the reference grower's
    classification criterion."""
    counts = np.bincount(labels.astype(int))
    p = counts / labels.size
    return float(1.0 - (p * p).sum())


def test_gini_balanced_binary():
    assert gini_impurity(np.array([0, 0, 1, 1])) == pytest.approx(0.5)


def test_gini_pure():
    assert gini_impurity(np.array([1, 1, 1])) == 0.0


# --- CART

def test_separable_pair_single_split():
    X = np.array([[0.0], [1.0]])
    tree = fit_cart(X, np.array([0, 1]))
    assert not tree.is_leaf
    assert tree.threshold == pytest.approx(0.5)  # midpoint
    np.testing.assert_array_equal(tree_predict(tree, X), [0.0, 1.0])


def test_boundary_value_goes_left():
    X = np.array([[0.0], [1.0]])
    tree = fit_cart(X, np.array([0.0, 1.0]))
    at_threshold = np.array([[tree.threshold]])
    assert tree_predict(tree, at_threshold)[0] == tree.left.prediction


def test_leaf_only_tree_constant_prediction(rng):
    X = rng.normal(size=(5, 2))
    tree = fit_cart(X, np.full(5, 3.0))
    assert tree.is_leaf and tree.left is None and tree.right is None
    X[0] = [np.inf, -np.inf]
    np.testing.assert_array_equal(tree_predict(tree, X), np.full(5, 3.0))


def test_zero_training_error_without_conflicts(rng):
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    tree = fit_cart(X, y)
    np.testing.assert_allclose(tree_predict(tree, X), y, atol=1e-12)
    labels = rng.integers(0, 2, 40).astype(float)
    ctree = fit_cart(X, labels)
    np.testing.assert_array_equal(tree_predict(ctree, X), labels)


def test_accepted_splits_strictly_decrease_impurity(rng):
    X = rng.normal(size=(60, 4))
    y = rng.normal(size=60)
    tree = fit_cart(X, y)
    for node in walk(tree):
        if not node.is_leaf:
            children = (node.left.impurity * node.left.n_samples
                        + node.right.impurity * node.right.n_samples)
            assert node.impurity * node.n_samples > children


def test_cart_input_validation():
    with pytest.raises(ValueError):
        fit_cart(np.empty((0, 2)), np.empty(0))


# --- forest

def test_default_max_features():
    assert forest_max_features(7) == 3  # ceil(7/3)
    assert forest_max_features(9) == 3


def test_forest_deterministic(rng):
    X = rng.normal(size=(30, 3))
    y = rng.normal(size=30)
    a = fit_random_forest(X, y, n_trees=5, seed=11)
    b = fit_random_forest(X, y, n_trees=5, seed=11)
    Xq = rng.normal(size=(10, 3))
    np.testing.assert_array_equal(forest_predict(a, Xq), forest_predict(b, Xq))
    c = fit_random_forest(X, y, n_trees=5, seed=12)
    assert not np.array_equal(forest_predict(c, Xq), forest_predict(a, Xq))


def test_forest_prediction_within_tree_envelope(rng):
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    forest = fit_random_forest(X, y, n_trees=7, seed=2)
    Xq = rng.normal(size=(12, 3))
    per_tree = np.stack([tree_predict(t, Xq) for t in forest.trees])
    mean = forest_predict(forest, Xq)
    assert np.all(mean >= per_tree.min(axis=0) - 1e-12)
    assert np.all(mean <= per_tree.max(axis=0) + 1e-12)


def test_forest_param_validation(rng):
    X = rng.normal(size=(10, 2))
    y = rng.normal(size=10)
    with pytest.raises(ValueError):
        fit_random_forest(X, y, n_trees=0, seed=0)
    with pytest.raises(ValueError):
        fit_random_forest(X[:1], y[:1], n_trees=100, seed=0)
    with pytest.raises(ValueError):  # no feature to draw
        fit_random_forest(X[:, :0], y, n_trees=100, seed=0)


# --- the grower against a reference copy of its node loop

# The tree grower as it was before its node statistics and split search
# were trimmed: t.var()/t.mean() per node, every column of the node's rows
# gathered, np.take_along_axis and a per-feature argmin loop.  Kept
# verbatim as the oracle fit_cart must match: bit for bit on its regress
# task, and split for split on its Gini classify task.

@dataclass
class TreeNode:
    """A node of the reference grower's trees."""

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


def reference_node_impurity(t: np.ndarray, task: str) -> float:
    if task == "classify":
        return gini_impurity(t)
    return float(t.var())


def reference_leaf_prediction(t: np.ndarray, task: str) -> float:
    if task == "classify":
        counts = np.bincount(t.astype(int))
        return float(np.argmax(counts))  # tie -> lower class index
    return float(t.mean())


def reference_best_split(Xn: np.ndarray, tn: np.ndarray, task: str,
                          features: np.ndarray, min_samples_leaf: int):
    """Best (feature, threshold, weighted child impurity) over candidate
    features, or None when no valid split exists."""
    n = tn.size
    cols = Xn[:, features]  # one column per candidate feature
    order = np.argsort(cols, axis=0, kind="stable")
    xs = np.take_along_axis(cols, order, axis=0)
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
        ones = np.cumsum(ts, axis=0)[:-1]
        p_l = ones / n_left
        p_r = (ts.sum(axis=0) - ones) / n_right
        g_l = 2.0 * p_l * (1.0 - p_l)  # binary Gini
        g_r = 2.0 * p_r * (1.0 - p_r)
        child = (n_left * g_l + n_right * g_r) / n
    else:
        csum = np.cumsum(ts, axis=0)[:-1]
        csq = np.cumsum(ts * ts, axis=0)[:-1]
        sse_l = csq - csum * csum / n_left
        sse_r = ((ts * ts).sum(axis=0) - csq) - (ts.sum(axis=0) - csum) ** 2 / n_right
        child = (sse_l + sse_r) / n  # weighted variance
    child[~valid] = np.inf
    best = None  # (child_impurity, feature, threshold); ties keep the
    # earlier feature and (via argmin) the lowest threshold
    for j, f in enumerate(features):
        k = int(np.argmin(child[:, j]))
        c = float(child[k, j])
        if not np.isfinite(c):
            continue
        if best is None or c < best[0] - 1e-15:
            best = (c, int(f), float((xs[k, j] + xs[k + 1, j]) / 2.0))
    return best


def reference_fit_cart(X: np.ndarray, target: np.ndarray, task: str,
                       max_depth: int | None = None,
                       min_samples_leaf: int = 1,
                       max_features: int | None = None,
                       key: int = 0) -> TreeNode:
    """Greedy recursive partitioning; stops on max_depth,
    min_samples_leaf, zero impurity, or no impurity-decreasing split.
    The root draws its max_features candidates from ``key``, and a
    child from the splitmix64 output of its parent's key ^ 1 (left) or
    ^ 2 (right)."""
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

    def grow(idx: np.ndarray, depth: int, key: int) -> TreeNode:
        tn = target[idx]
        impurity = reference_node_impurity(tn, task)
        leaf = TreeNode(prediction=reference_leaf_prediction(tn, task),
                        n_samples=idx.size, impurity=impurity)
        if impurity <= 0.0 or idx.size < 2 * min_samples_leaf:
            return leaf
        if max_depth is not None and depth >= max_depth:
            return leaf
        if max_features < d:
            feats = np.array(sorted(keyed_draw(key, d, max_features)))
        else:
            feats = np.arange(d)
        found = reference_best_split(X[idx], tn, task, feats,
                                     min_samples_leaf)
        if found is None:
            return leaf
        child_impurity, f, thr = found
        if impurity - child_impurity <= 1e-15:
            return leaf  # accepted splits must strictly decrease impurity
        go_left = X[idx, f] <= thr
        node = TreeNode(feature=f, threshold=thr,
                        n_samples=idx.size, impurity=impurity)
        node.left = grow(idx[go_left], depth + 1, splitmix64_next(key ^ 1)[1])
        node.right = grow(idx[~go_left], depth + 1,
                          splitmix64_next(key ^ 2)[1])
        return node

    return grow(np.arange(X.shape[0]), 0, key)


def dump(node):
    """A fitted tree as nested tuples of exact values."""
    if node.is_leaf:
        return (node.prediction.hex(), node.impurity.hex(), node.n_samples)
    return (node.feature, node.threshold.hex(), node.impurity.hex(),
            node.n_samples, dump(node.left), dump(node.right))


def oracle_inputs(rng, task):
    """Continuous features, a column of heavily tied values, a rounded
    one, and a target that is constant where X[:, 2] > 0.5 (so some
    subtrees stop at zero impurity)."""
    X = rng.normal(size=(70, 5))
    X[:, 1] = rng.integers(0, 4, 70)
    X[:, 3] = np.round(X[:, 3], 1)
    if task == "classify":
        target = (X[:, 0] + 0.5 * rng.normal(size=70) > 0).astype(float)
    else:
        target = X[:, 0] + 0.3 * rng.normal(size=70)
    target[X[:, 2] > 0.5] = 1.0
    return X, target


def structure(node, predict):
    """A fitted tree's splits and leaf sizes as nested tuples of exact
    values, with predict(leaf) at each leaf."""
    if node.is_leaf:
        return (node.n_samples, predict(node))
    return (node.feature, node.threshold.hex(), node.n_samples,
            structure(node.left, predict), structure(node.right, predict))


def matches_gini_tree(tree, X, labels):
    """Whether a variance tree on 0/1 labels has the Gini reference
    tree's splits, with a leaf mean above 0.5 where its majority is 1."""
    ref = reference_fit_cart(X, labels, "classify")
    return (structure(tree, lambda leaf: float(leaf.prediction > 0.5))
            == structure(ref, lambda leaf: leaf.prediction))


# every tree grows to leaf size 1; test_forest_matches_reference_grower
# covers the per-split feature draws.  On 0/1 labels the variance tree
# is the Gini tree: 2p(1 - p) is twice the variance
@pytest.mark.parametrize("task", ["regress", "classify"])
def test_cart_matches_reference_grower(rng, task):
    for _ in range(3):
        X, target = oracle_inputs(rng, task)
        tree = fit_cart(X, target)
        if task == "classify":
            assert matches_gini_tree(tree, X, target)
        else:
            assert dump(tree) == dump(reference_fit_cart(X, target, task))


def exact_weighted_gini(labels, go_left):
    """Weighted child Gini impurity of a split, in exact arithmetic."""
    total = Fraction(0)
    for side in (labels[go_left], labels[~go_left]):
        p = Fraction(int(side.sum()), side.size)
        total += side.size * 2 * p * (1 - p)
    return total / labels.size


def test_exact_gini_tie_may_round_to_either_split():
    """At this input two root splits on feature 0 tie in exact
    arithmetic, and the Gini and variance formulas round them apart: the
    variance tree takes the lower threshold, the Gini tree the higher."""
    gen = np.random.default_rng(5)
    for _ in range(3):
        X, labels = oracle_inputs(gen, "classify")
    tree, ref = fit_cart(X, labels), reference_fit_cart(X, labels, "classify")
    splits = [(t.feature, t.threshold) for t in (tree, ref)]
    assert splits[0] != splits[1]
    for f, thr in splits:
        assert exact_weighted_gini(labels, X[:, f] <= thr) == Fraction(19, 60)


def test_protocol_tree_is_the_gini_tree(protocol):
    """The report's Decision Tree, node for node."""
    tree = fit_cart(protocol.Xtr, protocol.labels_tr)
    assert matches_gini_tree(tree, protocol.Xtr, protocol.labels_tr)


def test_protocol_cart_node_bits_are_pinned(protocol):
    """sha256 of the NODE records of a CART tree on the seed-1 training
    targets, recorded before forest trees were grown on weighted rows: a
    CART tree weights every row 1, and its records must not move."""
    nodes = fit_cart(protocol.Xtr, protocol.ytr).nodes
    assert hashlib.sha256(nodes.tobytes()).hexdigest() == (
        "4ad1f21dcaaba470f8f9252deb33194de4de176da3c4d4717f1344b73002e0cf")


def test_cart_matches_reference_grower_on_signed_zeros():
    """Pure leaves of -0.0 targets: numpy's sum starts from +0.0, so their
    mean is +0.0, and a sum that starts from the first entry gives -0.0."""
    X = np.arange(12.0)[:, None]
    target = np.array([-0.0] * 3 + [2.0, 5.0] + [-0.0] * 7)
    assert dump(fit_cart(X, target)) == dump(
        reference_fit_cart(X, target, "regress"))


@pytest.mark.parametrize("seed", [196, 1486, 1830])
def test_cart_matches_reference_grower_on_one_column(seed):
    """With one candidate column numpy sums its targets pairwise, not in
    row order; at these inputs a total summed in row order picks a
    different split."""
    gen = np.random.default_rng(seed)
    n = int(gen.integers(10, 80))
    X = gen.integers(0, 6, size=(n, 1)).astype(float)
    target = np.round(gen.normal(size=n) * 10 ** gen.uniform(-2, 3),
                      int(gen.integers(0, 4)))
    assert dump(fit_cart(X, target)) == dump(
        reference_fit_cart(X, target, "regress"))


def reference_fit_random_forest(X, y, n_trees, seed):
    """The forest's trees as the reference grower makes them, one at a
    time: each bootstrap drawn by a scalar generator, then a recursive
    tree on its repeated rows whose root draws its features from the
    tree's feature seed, and each child from its own key.  Returns
    (tree, bootstrap rows) pairs."""
    n, d = X.shape
    tree_seeds = derive_seeds(seed, 2 * n_trees)
    trees = []
    for t in range(n_trees):
        draws = Xoshiro256StarStar(tree_seeds[2 * t])
        idx = np.array([draws.randbelow(n) for _ in range(n)])
        trees.append((reference_fit_cart(
            X[idx], y[idx], "regress", max_features=forest_max_features(d),
            key=tree_seeds[2 * t + 1]), idx))
    return trees


def exact_sse(t):
    """Summed squared error of targets about their mean, exactly."""
    s = [Fraction(v) for v in t]
    return sum(v * v for v in s) - sum(s) ** 2 / len(s)


def exact_child_sse(x, t, threshold):
    """Exact summed squared error of a split's two children, over a
    node's rows counted with multiplicity."""
    return exact_sse(t[x <= threshold]) + exact_sse(t[x > threshold])


def tie_divergences(tree, ref, x, t):
    """Walk a weighted tree and the repeated-row reference tree together
    over a node's bootstrap rows x, t (with multiplicity): the split
    features, thresholds and n_samples must be equal, and the leaf
    predictions within 1e-12 relative.  Each node's impurity must be its
    rows' exact variance within 1e-12 relative, or within 1e-28 of their
    mean square where that variance is rounding-sized (an ulp-off mean of
    equal targets).  Where the chosen splits differ, both must tie in
    exact child SSE; that subtree is not descended.  Returns how many
    subtrees stopped at such a tie."""
    assert tree.n_samples == ref.n_samples == t.size
    exact = exact_sse(t) / t.size
    assert (abs(Fraction(tree.impurity) - exact)
            <= 1e-12 * exact + Fraction(1e-28 * np.mean(t * t)))
    assert tree.is_leaf == ref.is_leaf
    if tree.is_leaf:
        assert abs(tree.prediction - ref.prediction) <= 1e-12 * abs(ref.prediction)
        return 0
    if (tree.feature, tree.threshold) != (ref.feature, ref.threshold):
        assert (exact_child_sse(x[:, tree.feature], t, tree.threshold)
                == exact_child_sse(x[:, ref.feature], t, ref.threshold))
        return 1
    go_left = x[:, tree.feature] <= tree.threshold
    return (tie_divergences(tree.left, ref.left, x[go_left], t[go_left])
            + tie_divergences(tree.right, ref.right, x[~go_left], t[~go_left]))


# d = 5, 4, 3 draw 2, 2 and 1 features per split: a draw from range(4)
# has a power-of-two bound, and one candidate column takes numpy's
# pairwise sum.  A tree grown on weighted distinct rows sums in another
# order than one grown on the repeated rows, so two splits that tie in
# exact arithmetic may round either way
@pytest.mark.parametrize("task", ["regress"])
def test_forest_matches_reference_grower(rng, task):
    X, target = oracle_inputs(rng, task)
    for d in (5, 4, 3):
        for seed in (3, 17):
            forest = fit_random_forest(X[:, :d], target, n_trees=10, seed=seed)
            ref = reference_fit_random_forest(X[:, :d], target, 10, seed)
            for tree, (ref_tree, idx) in zip(forest.trees, ref, strict=True):
                tie_divergences(tree, ref_tree, X[idx, :d], target[idx])


def zero_gain_splits(node, x, t):
    """Splits of a tree over its node's bootstrap rows x, t (with
    multiplicity) that do not decrease their node's exact SSE."""
    if node.is_leaf:
        return 0
    go_left = x[:, node.feature] <= node.threshold
    return (int(exact_child_sse(x[:, node.feature], t, node.threshold) >= exact_sse(t))
            + zero_gain_splits(node.left, x[go_left], t[go_left])
            + zero_gain_splits(node.right, x[~go_left], t[~go_left]))


def test_forest_splits_strictly_decrease_exact_sse():
    """XOR of two binary features, each row three times: a node whose
    weighted class shares match on both sides of a split gains nothing
    from it and stays a leaf.  Only this rule reads the weighted sum of
    squares, since the child SSE's other terms do not depend on it."""
    X = np.repeat([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], 3, axis=0)
    y = np.repeat([0.0, 1.0, 1.0, 0.0], 3)
    forest = fit_random_forest(X, y, n_trees=40, seed=7)
    ref = reference_fit_random_forest(X, y, 40, seed=7)
    assert sum(zero_gain_splits(tree, X[idx], y[idx])
               for tree, (_, idx) in zip(forest.trees, ref, strict=True)) == 0


def test_protocol_forest_bits_are_pinned(protocol):
    """sha256 of the seed-1 protocol forest, re-recorded when its trees
    first grew on their distinct bootstrap rows weighted by count."""
    forest = fit_random_forest(protocol.Xtr, protocol.ytr,
                               n_trees=experiments.FIXED["forest_trees"],
                               seed=protocol.forest_seed)
    digest = hashlib.sha256(repr([dump(t) for t in forest.trees]).encode())
    assert digest.hexdigest() == (
        "7e6862d6dc8e654440cd7123a9786397470601ae27158f53d8cf708eb26ba958")


# --- the batched walk against a row-at-a-time walk of the node view

def walk_predict(tree, X):
    """Each row of X walked down the node view alone: the oracle of the
    level-by-level walk."""
    out = []
    for row in X:
        node = tree
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out.append(node.prediction)
    return np.array(out)


def tie_rows(tree, X):
    """For each row of X and each split on its path, the row moved onto
    that split's threshold.  It still reaches the split, since a threshold
    lies between two values of its node's rows, and it ties there."""
    out = []
    for row in X:
        node = tree
        while not node.is_leaf:
            tie = row.copy()
            tie[node.feature] = node.threshold
            out.append(tie)
            node = node.left if row[node.feature] <= node.threshold else node.right
    return np.array(out)


@pytest.mark.parametrize("task", ["regress", "classify"])
def test_cart_walk_matches_node_view_walk(rng, task):
    X, target = oracle_inputs(rng, task)
    tree = fit_cart(X, target)
    Q = np.concatenate([X, tie_rows(tree, X), rng.normal(size=(30, 5))])
    assert tree_predict(tree, Q).tobytes() == walk_predict(tree, Q).tobytes()


def test_forest_walk_matches_node_view_walk(rng):
    X, target = oracle_inputs(rng, "regress")
    forest = fit_random_forest(X, target, n_trees=20, seed=5)
    Q = np.concatenate([X, rng.normal(size=(30, 5)),
                        *(tie_rows(t, X[:10]) for t in forest.trees)])
    per_tree = [walk_predict(t, Q) for t in forest.trees]
    for tree, expected in zip(forest.trees, per_tree):
        assert tree_predict(tree, Q).tobytes() == expected.tobytes()
    # the mean over trees in tree order (past 8 trees, a pairwise sum
    # over them would round differently)
    assert forest_predict(forest, Q).tobytes() == (
        np.stack(per_tree).mean(axis=0).tobytes())


def test_node_view_reads_python_numbers(rng):
    """repr of a numpy scalar differs from a Python number's, and dump's
    repr is what the forest pin hashes."""
    X, target = oracle_inputs(rng, "regress")
    for node in walk(fit_cart(X, target)):
        fields = (node.feature, node.n_samples, node.threshold,
                  node.prediction, node.impurity)
        assert [type(v) for v in fields] == [int, int, float, float, float]


def test_benchmark_tree_shape_on_the_protocol_forest(protocol):
    """perfbench's node count and depth walk .is_leaf, .left and .right of
    each element of ForestModel.trees."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    forest = fit_random_forest(protocol.Xtr, protocol.ytr,
                               n_trees=experiments.FIXED["forest_trees"],
                               seed=protocol.forest_seed)
    shapes = [layers._tree_shape(tree) for tree in forest.trees]
    assert sum(n for n, _ in shapes) == 30658
    assert max(depth for _, depth in shapes) == 19
