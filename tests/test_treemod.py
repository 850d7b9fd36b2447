"""CART trees and random forests: split correctness, boundary rules,
determinism, and ensemble properties."""

import numpy as np
import pytest

from mpgworkbench import treemod
from mpgworkbench.rng import Xoshiro256StarStar
from mpgworkbench.treemod import (ForestModel, TreeNode, default_max_features,
                                  fit_cart, fit_random_forest, forest_predict,
                                  gini_impurity, tree_predict)


def walk(node):
    yield node
    if not node.is_leaf:
        yield from walk(node.left)
        yield from walk(node.right)


# --- impurity

def test_gini_balanced_binary():
    assert gini_impurity(np.array([0, 0, 1, 1])) == pytest.approx(0.5)


def test_gini_pure():
    assert gini_impurity(np.array([1, 1, 1])) == 0.0


# --- CART

def test_separable_pair_single_split():
    X = np.array([[0.0], [1.0]])
    tree = fit_cart(X, np.array([0, 1]), "classify")
    assert not tree.is_leaf
    assert tree.threshold == pytest.approx(0.5)  # midpoint
    np.testing.assert_array_equal(tree_predict(tree, X), [0.0, 1.0])


def test_boundary_value_goes_left():
    X = np.array([[0.0], [1.0]])
    tree = fit_cart(X, np.array([0.0, 1.0]), "regress")
    at_threshold = np.array([[tree.threshold]])
    assert tree_predict(tree, at_threshold)[0] == tree.left.prediction


def test_leaf_only_tree_constant_prediction(rng):
    X = rng.normal(size=(5, 2))
    tree = fit_cart(X, np.full(5, 3.0), "regress")
    assert tree.is_leaf
    np.testing.assert_array_equal(tree_predict(tree, X), np.full(5, 3.0))


def test_zero_training_error_without_conflicts(rng):
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    tree = fit_cart(X, y, "regress")
    np.testing.assert_allclose(tree_predict(tree, X), y, atol=1e-12)
    labels = rng.integers(0, 2, 40).astype(float)
    ctree = fit_cart(X, labels, "classify")
    np.testing.assert_array_equal(tree_predict(ctree, X), labels)


def test_accepted_splits_strictly_decrease_impurity(rng):
    X = rng.normal(size=(60, 4))
    y = rng.normal(size=60)
    tree = fit_cart(X, y, "regress", max_depth=4)
    for node in walk(tree):
        if not node.is_leaf:
            children = (node.left.impurity * node.left.n_samples
                        + node.right.impurity * node.right.n_samples)
            assert node.impurity * node.n_samples > children


def test_train_mse_nonincreasing_in_depth(rng):
    X = rng.normal(size=(80, 3))
    y = rng.normal(size=80)
    errors = []
    for depth in (1, 2, 4, 8, None):
        tree = fit_cart(X, y, "regress", max_depth=depth)
        errors.append(float(((tree_predict(tree, X) - y) ** 2).mean()))
    assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))


def test_majority_leaf_tie_resolves_to_lower_class():
    X = np.ones((4, 1))  # unsplittable: constant feature
    tree = fit_cart(X, np.array([0.0, 0.0, 1.0, 1.0]), "classify")
    assert tree.is_leaf and tree.prediction == 0.0


def test_min_samples_leaf_respected(rng):
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    tree = fit_cart(X, y, "regress", min_samples_leaf=5)
    for node in walk(tree):
        if node.is_leaf:
            assert node.n_samples >= 5


def test_cart_input_validation():
    with pytest.raises(ValueError):
        fit_cart(np.empty((0, 2)), np.empty(0), "regress")
    with pytest.raises(ValueError):
        fit_cart(np.ones((2, 1)), np.zeros(2), "cluster")
    with pytest.raises(ValueError):
        fit_cart(np.ones((2, 1)), np.zeros(2), "regress", min_samples_leaf=0)
    with pytest.raises(ValueError):
        fit_cart(np.ones((2, 1)), np.zeros(2), "regress", max_features=3)


# --- forest

def test_default_max_features():
    assert default_max_features(7, "regress") == 3  # ceil(7/3)
    assert default_max_features(7, "classify") == 3  # ceil(sqrt(7))
    assert default_max_features(9, "classify") == 3


def test_single_tree_no_bootstrap_equals_cart(rng):
    X = rng.normal(size=(25, 3))
    y = rng.normal(size=25)
    forest = fit_random_forest(X, y, "regress", n_trees=1, max_features=3,
                               bootstrap=False, seed=9)
    single = fit_cart(X, y, "regress")
    np.testing.assert_array_equal(forest_predict(forest, X),
                                  tree_predict(single, X))


def test_forest_deterministic(rng):
    X = rng.normal(size=(30, 3))
    y = rng.normal(size=30)
    a = fit_random_forest(X, y, "regress", n_trees=5, seed=11)
    b = fit_random_forest(X, y, "regress", n_trees=5, seed=11)
    Xq = rng.normal(size=(10, 3))
    np.testing.assert_array_equal(forest_predict(a, Xq), forest_predict(b, Xq))
    assert a.per_tree_seeds == b.per_tree_seeds
    c = fit_random_forest(X, y, "regress", n_trees=5, seed=12)
    assert c.per_tree_seeds != a.per_tree_seeds


def test_forest_prediction_within_tree_envelope(rng):
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    forest = fit_random_forest(X, y, "regress", n_trees=7, seed=2)
    Xq = rng.normal(size=(12, 3))
    per_tree = np.stack([tree_predict(t, Xq) for t in forest.trees])
    mean = forest_predict(forest, Xq)
    assert np.all(mean >= per_tree.min(axis=0) - 1e-12)
    assert np.all(mean <= per_tree.max(axis=0) + 1e-12)


def test_forest_classification_majority_vote(rng):
    X = rng.normal(size=(50, 2))
    labels = (X[:, 0] > 0).astype(float)
    forest = fit_random_forest(X, labels, "classify", n_trees=9, seed=4)
    preds = forest_predict(forest, X)
    assert set(np.unique(preds)) <= {0, 1}
    assert (preds == labels).mean() > 0.9


def test_forest_vote_tie_resolves_to_class_zero():
    leaf0 = TreeNode(prediction=0.0, n_samples=1)
    leaf1 = TreeNode(prediction=1.0, n_samples=1)
    m = ForestModel(trees=(leaf0, leaf1), per_tree_seeds=(0, 1),
                    max_features=1, n_trees=2, task="classify")
    assert forest_predict(m, np.zeros((1, 1)))[0] == 0


def test_forest_param_validation(rng):
    X = rng.normal(size=(10, 2))
    y = rng.normal(size=10)
    with pytest.raises(ValueError):
        fit_random_forest(X, y, "regress", n_trees=0)
    with pytest.raises(ValueError):
        fit_random_forest(X, y, "regress", max_features=5)
    with pytest.raises(ValueError):
        fit_random_forest(X[:1], y[:1], "regress")


# --- the grower against a reference copy of its node loop

# The tree grower as it was before its node statistics and split search
# were trimmed: t.var()/t.mean() per node, every column of the node's rows
# gathered, np.take_along_axis and a per-feature argmin loop.  Kept
# verbatim as the oracle fit_cart must match bit for bit.

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
                       seed: int = 0) -> TreeNode:
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
        impurity = reference_node_impurity(tn, task)
        leaf = TreeNode(prediction=reference_leaf_prediction(tn, task),
                        n_samples=idx.size, impurity=impurity)
        if impurity <= 0.0 or idx.size < 2 * min_samples_leaf:
            return leaf
        if max_depth is not None and depth >= max_depth:
            return leaf
        if max_features < d:
            feats = np.array(sorted(rng.sample_indices(d, max_features)))
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
        node.left = grow(idx[go_left], depth + 1)
        node.right = grow(idx[~go_left], depth + 1)
        return node

    return grow(np.arange(X.shape[0]), 0)


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


@pytest.mark.parametrize("task", ["regress", "classify"])
@pytest.mark.parametrize("min_samples_leaf", [1, 3])
@pytest.mark.parametrize("max_features", [2, 5])
def test_cart_matches_reference_grower(rng, task, min_samples_leaf,
                                       max_features):
    for seed in range(3):
        X, target = oracle_inputs(rng, task)
        tree = fit_cart(X, target, task, min_samples_leaf=min_samples_leaf,
                        max_features=max_features, seed=seed)
        ref = reference_fit_cart(X, target, task,
                                 min_samples_leaf=min_samples_leaf,
                                 max_features=max_features, seed=seed)
        assert dump(tree) == dump(ref)


@pytest.mark.parametrize("task", ["regress", "classify"])
def test_forest_matches_reference_grower(rng, monkeypatch, task):
    X, target = oracle_inputs(rng, task)
    for seed in (3, 17):
        forest = fit_random_forest(X, target, task, n_trees=10, seed=seed)
        with monkeypatch.context() as m:  # same bootstraps, reference trees
            m.setattr(treemod, "fit_cart", reference_fit_cart)
            ref = fit_random_forest(X, target, task, n_trees=10, seed=seed)
        assert [dump(t) for t in forest.trees] == [dump(t) for t in ref.trees]
