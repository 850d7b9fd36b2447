"""Standardization, reproducible splitting, k-fold partitioning and
polynomial feature expansion."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .rng import Xoshiro256StarStar


@dataclass(frozen=True)
class Standardizer:
    """Per-column location/scale learned on training data.

    Uses the population convention (divisor n) for the standard deviation.
    Applying a fitted standardizer to its own fitting matrix yields
    per-column mean 0 and population std 1.
    """

    means: np.ndarray
    stds: np.ndarray


@dataclass(frozen=True)
class SplitIndices:
    train: np.ndarray
    test: np.ndarray


def fit_standardizer(M: np.ndarray) -> Standardizer:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] < 2:
        raise ValueError("need a 2-D matrix with at least 2 rows")
    constant = np.flatnonzero(M.min(axis=0) == M.max(axis=0))
    if constant.size:
        raise ValueError(f"column {constant[0]} is constant; cannot standardize")
    # each column scaled by an exact power of two, so that no square
    # overflows or underflows; on valid data, the same bits
    e = np.frexp(np.abs(M).max(axis=0))[1]
    M = np.ldexp(M, -e)
    return Standardizer(np.ldexp(M.mean(axis=0), e), np.ldexp(M.std(axis=0), e))


def apply_standardizer(s: Standardizer, M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.shape[-1] != s.means.shape[0]:
        raise ValueError(
            f"dimension mismatch: standardizer has {s.means.shape[0]} columns, "
            f"matrix has {M.shape[-1]}"
        )
    return (M - s.means) / s.stds


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def train_test_split(n: int, ratio: float, seed: int) -> SplitIndices:
    """Deterministic shuffled split: Fisher-Yates over 0..n-1 driven by
    xoshiro256**, first round-half-up(ratio*n) indices become train."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    order = list(range(n))
    Xoshiro256StarStar(seed).shuffle(order)
    n_train = _round_half_up(ratio * n)
    if n_train == 0 or n_train == n:
        raise ValueError(f"degenerate split: n={n}, ratio={ratio}")
    return SplitIndices(
        train=np.array(order[:n_train]),
        test=np.array(order[n_train:]),
    )


def kfold(n: int, k: int, seed: int) -> tuple[np.ndarray, ...]:
    """Shuffled indices dealt into k contiguous blocks; sizes differ by
    at most one (first n % k folds get the extra element)."""
    if k < 2 or k > n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    order = list(range(n))
    Xoshiro256StarStar(seed).shuffle(order)
    return tuple(np.array_split(np.array(order), k))


def polynomial_feature_count(d: int, degree: int) -> int:
    return math.comb(d + degree, degree) - 1


def polynomial_features(M: np.ndarray, degree: int) -> np.ndarray:
    """All monomials of total degree 1..degree over the input columns.

    Column order: degree 1 columns in input order, then degree 2
    monomials in lexicographic index order (x1^2, x1*x2, ..., x2^2, ...),
    and so on.  No constant column; the intercept is the model's job.
    """
    M = np.asarray(M, dtype=float)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    d = M.shape[1]
    return np.column_stack([
        np.prod(M[:, combo], axis=1)
        for deg in range(1, degree + 1)
        for combo in combinations_with_replacement(range(d), deg)])
