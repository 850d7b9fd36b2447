"""Standardization, splitting, k-fold partitioning, polynomial expansion,
and the deterministic generators underneath them."""

import dataclasses

import numpy as np
import pytest
from conftest import keyed_draw
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgworkbench.metrics import dataset_correlations
from mpgworkbench.preprocess import (apply_standardizer, fit_standardizer,
                                     kfold, polynomial_feature_count,
                                     polynomial_features, train_test_split)
from mpgworkbench.rng import (MASK64, Xoshiro256StarStar, bootstrap_draws,
                              derive_seeds, keyed_sample, splitmix64_next)


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


@pytest.mark.parametrize("n", [1, 2, 4, 7, 279, 2**64 // 40 + 1, 2**63 + 1])
def test_bootstrap_draws_match_scalar_generators(n):
    """Each seed's row holds its scalar generator's first 30 randbelow(n)
    draws.  The powers of two accept every draw, and their rejection
    limit 2**64 does not fit in a uint64.  2**64 // 40 + 1 rejects about 1
    draw in 40 and 2**63 + 1 about half, so 16 of the 40 lanes and then
    all of them draw a rejected value among their first 30 outputs and
    are redrawn."""
    seeds = derive_seeds(12, 40)
    limit = (2**64 // n) * n
    redrawn = {2**64 // 40 + 1: 16, 2**63 + 1: 40}.get(n, 0)
    outputs = [Xoshiro256StarStar(s) for s in seeds]
    assert sum(any(g.next_u64() >= limit for _ in range(30)) for g in outputs) == redrawn
    assert bootstrap_draws(seeds, n, 30).tolist() == [
        [g.randbelow(n) for _ in range(30)] for g in map(Xoshiro256StarStar, seeds)]


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=50))
def test_shuffle_is_a_permutation(seed, n):
    items = list(range(n))
    Xoshiro256StarStar(seed).shuffle(items)
    assert sorted(items) == list(range(n))


def splitmix64_key_of(output: int) -> int:
    """The key whose splitmix64 stream starts with ``output``: the
    finalizer inverted step by step, then one Weyl step back."""
    def unshift(y, k):  # inverse of x ^ (x >> k)
        x = y
        for _ in range(64 // k):
            x = y ^ (x >> k)
        return x

    z = unshift(output, 31) * pow(0x94D049BB133111EB, -1, 2**64) & MASK64
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) & MASK64
    return (unshift(z, 30) - 0x9E3779B97F4A7C15) & MASK64


# (2**64 // 7) * 7 = 2**64 - 2, so a draw from range(7) rejects the top two
REJECTED_KEYS = [splitmix64_key_of(2**64 - 1), splitmix64_key_of(2**64 - 2)]


def test_keyed_sample_matches_scalar_draws():
    """The vectorized draw is the scalar one, key by key: n = 4 and 8 are
    powers of two, whose bound 2**64 rejects nothing."""
    keys = derive_seeds(13, 400) + REJECTED_KEYS
    for n, k in ((7, 3), (4, 2), (8, 3), (3, 1), (5, 5)):
        got = keyed_sample(np.array(keys, dtype=np.uint64), n, k)
        assert got.tolist() == [keyed_draw(key, n, k) for key in keys]
        assert all(len(set(row)) == k for row in got.tolist())


@pytest.mark.parametrize("key", REJECTED_KEYS)
def test_keyed_sample_rejects_as_randbelow_does(key):
    """The key's first output is rejected from range(7), so the key draws
    what the state one step along its stream draws."""
    state, first = splitmix64_next(key)
    assert first >= 2**64 - 2
    drawn = keyed_sample(np.array([key, state], dtype=np.uint64), 7, 3)
    assert drawn[0].tolist() == drawn[1].tolist() == keyed_draw(key, 7, 3)


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


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=7),
       st.integers(min_value=-1000, max_value=1000))
def test_a_column_times_a_power_of_two_keeps_the_bits(dataset, j, k):
    """Scaling column j of the packaged data (mpg, then the features) by
    2^k is exact, and so are the mean, the centred squares and the
    square root of standardization and Pearson correlation, done
    scale-safely: the standardized matrix and the correlation block keep
    every bit, though the squares of weight * 2^500 would overflow."""
    M = np.column_stack([dataset.y, dataset.X])
    S = M.copy()
    S[:, j] = np.ldexp(S[:, j], k)
    assert np.array_equal(apply_standardizer(fit_standardizer(S), S),
                          apply_standardizer(fit_standardizer(M), M))
    scaled = dataclasses.replace(dataset, X=S[:, 1:], y=S[:, 0])
    assert dataset_correlations(scaled) == dataset_correlations(dataset)


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
