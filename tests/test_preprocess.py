"""Standardization, splitting, k-fold partitioning, polynomial expansion,
and the deterministic generators underneath them."""

import numpy as np
import pytest
from conftest import sample_indices
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgworkbench.preprocess import (apply_standardizer, fit_standardizer,
                                     kfold, polynomial_feature_count,
                                     polynomial_features, train_test_split)
from mpgworkbench.rng import (Xoshiro256StarStar, XoshiroLanes, derive_seeds,
                              splitmix64_next)


# --- generators (bit-exact public reference vectors)

def test_splitmix64_reference_vector():
    # published outputs for seed 0
    expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert derive_seeds(0, 3) == expected


def test_splitmix64_next_is_stateless_pure():
    state, out = splitmix64_next(0)
    state2, out2 = splitmix64_next(0)
    assert (state, out) == (state2, out2)


def test_xoshiro_reference_vector():
    # reference outputs from state (1, 2, 3, 4)
    g = Xoshiro256StarStar(0)
    g.s = [1, 2, 3, 4]
    assert [g.next_u64() for _ in range(6)] == [
        11520, 0, 1509978240, 1215971899390074240,
        1216172134540287360, 607988272756665600]


def test_randbelow_bounds_and_determinism():
    a = Xoshiro256StarStar(7)
    b = Xoshiro256StarStar(7)
    draws = [a.randbelow(10) for _ in range(200)]
    assert draws == [b.randbelow(10) for _ in range(200)]
    assert all(0 <= d < 10 for d in draws)
    assert len(set(draws)) == 10  # all residues reachable


def test_randbelow_rejects_nonpositive():
    with pytest.raises(ValueError):
        Xoshiro256StarStar(0).randbelow(0)


def test_lanes_match_scalar_generators():
    """Each lane draws what a scalar generator with its seed draws.
    2**63 + 1 rejects about half its draws; the powers of two reject
    none, and their limit 2**64 does not fit in a uint64."""
    seeds = derive_seeds(9, 100)
    lanes = np.arange(100)
    gen = XoshiroLanes(seeds)
    scalar = [Xoshiro256StarStar(s) for s in seeds]
    for _ in range(1000):
        assert gen.next_u64(lanes).tolist() == [g.next_u64() for g in scalar]
    for n in (1, 2, 4, 7, 279, 2**63 + 1):
        for _ in range(10):
            assert gen.randbelow(n, lanes).tolist() == [
                g.randbelow(n) for g in scalar]


def test_lanes_advance_only_the_lanes_drawn():
    seeds = derive_seeds(4, 6)
    gen = XoshiroLanes(seeds)
    scalar = [Xoshiro256StarStar(s) for s in seeds]
    for lanes in ([0, 3], [5], [1, 2, 3, 4], [3]):
        picks = gen.sample_indices(7, 3, np.array(lanes))
        assert picks.tolist() == [sample_indices(scalar[t], 7, 3) for t in lanes]
    assert gen.next_u64(np.arange(6)).tolist() == [g.next_u64() for g in scalar]
    with pytest.raises(ValueError):
        gen.randbelow(0, np.arange(6))


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=50))
def test_shuffle_is_a_permutation(seed, n):
    items = list(range(n))
    Xoshiro256StarStar(seed).shuffle(items)
    assert sorted(items) == list(range(n))


def test_sample_indices_distinct_and_in_range():
    got = XoshiroLanes([3]).sample_indices(10, 4, np.array([0]))[0].tolist()
    assert len(got) == 4 == len(set(got))
    assert all(0 <= i < 10 for i in got)
    with pytest.raises(ValueError):
        XoshiroLanes([3]).sample_indices(3, 4, np.array([0]))


# --- standardizer

def test_standardizer_two_point_column():
    s = fit_standardizer(np.array([[1.0], [3.0]]))
    assert s.means[0] == 2.0
    assert s.stds[0] == 1.0  # population convention


def test_apply_to_fitting_matrix_centers_and_scales(rng):
    M = rng.normal(size=(40, 5)) * 3.0 + 7.0
    out = apply_standardizer(fit_standardizer(M), M)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-10)


def test_standardized_matrix_is_a_fixed_point(rng):
    M = rng.normal(size=(30, 3))
    Z = apply_standardizer(fit_standardizer(M), M)
    s = fit_standardizer(Z)
    np.testing.assert_allclose(s.means, 0.0, atol=1e-10)
    np.testing.assert_allclose(s.stds, 1.0, atol=1e-10)


def test_constant_column_error_names_column():
    M = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    with pytest.raises(ValueError, match="column 1"):
        fit_standardizer(M)
    M = np.column_stack([np.arange(30.0), np.full(30, 12.3)])
    assert M[:, 1].std() > 0.0  # the mean rounds, so the std is not 0
    with pytest.raises(ValueError, match="column 1"):
        fit_standardizer(M)


def test_apply_single_value():
    s = fit_standardizer(np.array([[1.0], [3.0]]))  # mean 2, std 1
    assert apply_standardizer(s, np.array([[3.0]]))[0, 0] == 1.0


def test_invert_round_trip(rng):
    M = rng.normal(size=(20, 4))
    s = fit_standardizer(M)
    np.testing.assert_allclose(apply_standardizer(s, M) * s.stds + s.means,
                               M, atol=1e-12)


def test_apply_dimension_mismatch():
    s = fit_standardizer(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValueError, match="mismatch"):
        apply_standardizer(s, np.zeros((3, 3)))


def test_standardizer_never_peeks_at_test_rows(rng):
    M = rng.normal(size=(50, 3))
    train, test = M[:35], M[35:].copy()
    s = fit_standardizer(train)
    test[:] = 1e9  # mutating test data must not affect anything learned
    s2 = fit_standardizer(train)
    np.testing.assert_array_equal(s.means, s2.means)
    np.testing.assert_array_equal(s.stds, s2.stds)


# --- train/test split

def test_split_sizes_and_partition():
    split = train_test_split(10, 0.7, 1)
    assert split.train.size == 7 and split.test.size == 3
    assert sorted(np.concatenate([split.train, split.test])) == list(range(10))


def test_split_deterministic():
    a = train_test_split(100, 0.7, 42)
    b = train_test_split(100, 0.7, 42)
    np.testing.assert_array_equal(a.train, b.train)
    np.testing.assert_array_equal(a.test, b.test)
    c = train_test_split(100, 0.7, 43)
    assert not np.array_equal(a.train, c.train)


def test_reference_split_sizes_round_half_up():
    split = train_test_split(398, 0.7, 1)
    assert split.train.size == 279  # round-half-up(278.6)
    assert split.test.size == 119


def test_split_degenerate_and_invalid():
    with pytest.raises(ValueError):
        train_test_split(10, 0.01, 1)  # empty train
    with pytest.raises(ValueError):
        train_test_split(10, 1.0, 1)
    with pytest.raises(ValueError):
        train_test_split(1, 0.5, 1)


@given(st.integers(min_value=4, max_value=200),
       st.floats(min_value=0.2, max_value=0.8),
       st.integers(min_value=0, max_value=2**32))
def test_split_partition_property(n, ratio, seed):
    split = train_test_split(n, ratio, seed)
    together = np.concatenate([split.train, split.test])
    assert sorted(together) == list(range(n))
    assert split.train.size == int(np.floor(ratio * n + 0.5))


# --- k-fold

def test_kfold_leave_one_out_singletons():
    folds = kfold(10, 10, 0)
    assert [f.size for f in folds] == [1] * 10


def test_kfold_sizes_with_remainder():
    folds = kfold(10, 3, 0)
    assert sorted(f.size for f in folds) == [3, 3, 4]
    assert folds[0].size == 4  # first folds take the extra element


def test_kfold_invalid_k():
    with pytest.raises(ValueError):
        kfold(10, 1, 0)
    with pytest.raises(ValueError):
        kfold(10, 11, 0)


@given(st.integers(min_value=2, max_value=100),
       st.integers(min_value=2, max_value=100),
       st.integers(min_value=0, max_value=2**32))
def test_kfold_partition_property(n, k, seed):
    if k > n:
        n, k = k, n
    folds = kfold(n, k, seed)
    assert sorted(np.concatenate(folds)) == list(range(n))
    sizes = [f.size for f in folds]
    assert max(sizes) - min(sizes) <= 1


# --- polynomial features

def test_poly_degree2_two_columns():
    M = np.array([[2.0, 3.0], [5.0, 7.0]])
    out = polynomial_features(M, 2)
    # order: x1, x2, x1^2, x1*x2, x2^2
    np.testing.assert_array_equal(
        out, [[2, 3, 4, 6, 9], [5, 7, 25, 35, 49]])
    assert polynomial_feature_count(2, 2) == 5


def test_poly_degree1_identity(rng):
    M = rng.normal(size=(6, 4))
    np.testing.assert_array_equal(polynomial_features(M, 1), M)


def test_poly_feature_count_d7_degree2():
    assert polynomial_feature_count(7, 2) == 35
    assert polynomial_features(np.ones((2, 7)), 2).shape == (2, 35)


def test_poly_invalid_degree():
    with pytest.raises(ValueError):
        polynomial_features(np.ones((2, 2)), 0)
