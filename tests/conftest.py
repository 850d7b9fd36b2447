"""Shared fixtures: the reference dataset and the default protocol.

Session scope keeps the expensive artifacts (parsed data, the seed-1
protocol, the full experiment suites) computed exactly once per run.
Also the oracles that more than one test module uses, imported as
``from conftest import ...``.
"""

import numpy as np
import pytest

from mpgworkbench.experiments import (ExperimentConfig, prepare_protocol,
                                      run_classification_grid,
                                      run_regression_suite)
from mpgworkbench.ingest import load_dataset, parse_auto_mpg, reference_data_path
from mpgworkbench.linmod import _centered_moments


@pytest.fixture(scope="session")
def reference_text():
    with open(reference_data_path(), "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="session")
def raw_table(reference_text):
    return parse_auto_mpg(reference_text)


@pytest.fixture(scope="session")
def dataset():
    return load_dataset(reference_data_path())


@pytest.fixture(scope="session")
def protocol():
    return prepare_protocol(ExperimentConfig())


@pytest.fixture(scope="session")
def regression_suite(protocol):
    return run_regression_suite(ExperimentConfig(), protocol)


@pytest.fixture(scope="session")
def classification_grid(protocol):
    return run_classification_grid(ExperimentConfig(), protocol)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def lasso_alpha_max(X: np.ndarray, y: np.ndarray) -> float:
    """Smallest alpha at which every lasso coefficient is exactly zero."""
    # the cold-start sweep's first rho for every coordinate, bit for bit,
    # so soft-thresholding at this alpha zeroes every coefficient
    _, _, _, c = _centered_moments(np.asarray(X, dtype=float),
                                   np.asarray(y, dtype=float))
    return float(max(abs(v) for v in c))


def sample_indices(gen, n: int, k: int) -> list[int]:
    """k distinct indices from range(n) drawn by the scalar generator
    ``gen``, via partial Fisher-Yates: the oracle of
    ``XoshiroLanes.sample_indices``."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    pool = list(range(n))
    for i in range(k):
        j = i + gen.randbelow(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]
