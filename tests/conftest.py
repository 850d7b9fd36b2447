"""Shared fixtures: the reference dataset and the default protocol.

Session scope keeps the expensive artifacts (parsed data, the seed-1
protocol, the full experiment suites) computed exactly once per run.
Also the oracles that more than one test module uses, imported as
``from conftest import ...``.
"""

import contextlib
import importlib.util
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from mpgworkbench.experiments import (ExperimentConfig, cross_validate,
                                      prepare_protocol,
                                      run_classification_grid,
                                      run_regression_suite)
from mpgworkbench.ingest import load_dataset, parse_auto_mpg, reference_data_path
from mpgworkbench.kernelmod import _kkt_violations
from mpgworkbench.linmod import _centered_moments, fit_elastic_net, fit_lasso
from mpgworkbench.rng import splitmix64_next

# On a property test's failure hypothesis imports its patch writer, and
# through it libcst, whose use of mypy_extensions.TypedDict warns with a
# DeprecationWarning.  Under the ini's error::DeprecationWarning that
# import would abort the whole pytest run (INTERNALERROR), and no later test
# would run; imported once here, with that warning ignored, a failure
# stays one failure.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


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


def regress_2x_data_path(work_dir, capsys) -> str:
    """The benchmark's regress-2x input (each packaged row twice, jittered
    from data seed 1; 796 rows), written into work_dir by
    perfbench/worker.py's own writer; returns its path."""
    worker_py = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    spec = importlib.util.spec_from_file_location("perfbench_worker", worker_py)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    worker.prepare(1, str(work_dir))
    prepared = json.loads(capsys.readouterr().out)
    assert prepared["rows"] == 796
    return prepared["data_path"]


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def seed1_cv_folds(protocol):
    """The standardized (Xtr, ytr) of the seed-1 protocol's 10 CV folds,
    as cross_validate hands them to every path."""
    captured = []

    def capture(folds):
        captured.extend((Xs, ys) for Xs, ys, _ in folds)
        return [[] for _ in folds]

    cross_validate({"capture": capture}, protocol.Xtr_raw, protocol.ytr_raw,
                   10, protocol.kfold_seed)
    return captured


def lasso_alpha_max(X: np.ndarray, y: np.ndarray) -> float:
    """Smallest alpha at which every lasso coefficient is exactly zero."""
    # max |c_j|, bit for bit: at this alpha no coefficient's |c_j|
    # exceeds alpha, so none enters the active set
    _, _, _, c = _centered_moments(np.asarray(X, dtype=float),
                                   np.asarray(y, dtype=float))
    return float(max(abs(v) for v in c))


def lasso_fit(X, y, alpha):
    """One lasso fit: the single lane of ``fit_lasso``."""
    return fit_lasso([(X, y)], [alpha])[0][0]


def enet_fit(X, y, alpha, l1_ratio):
    """One elastic-net fit: the single lane of ``fit_elastic_net``."""
    return fit_elastic_net([(X, y)], [alpha], l1_ratio)[0][0]


def keyed_draw(key: int, n: int, k: int) -> list[int]:
    """k distinct indices from range(n) drawn by partial Fisher-Yates from
    the scalar splitmix64 stream whose state starts at ``key``, each draw
    rejected as ``Xoshiro256StarStar.randbelow`` rejects: the oracle of
    ``rng.keyed_sample``."""
    pool, state = list(range(n)), key
    for i in range(k):
        limit = (2**64 // (n - i)) * (n - i)
        state, u = splitmix64_next(state)
        while u >= limit:
            state, u = splitmix64_next(state)
        j = i + u % (n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def svc_kkt_violations(alpha, y, errors, C):
    """Per-point KKT violation magnitudes for a SVC dual iterate
    (alpha >= 0, labels y = +/-1, errors = f(x) - y): the SMO loop's
    audit in the beta = alpha * y form, on the box [0, C] for class +1
    and [-C, 0] for class -1."""
    pos = y > 0
    return _kkt_violations(alpha * y, errors, np.where(pos, 0.0, -C),
                           np.where(pos, C, 0.0), 0.0, 1e-8 * C)


def svr_kkt_violations(beta, E, C, epsilon):
    """Per-point KKT violation magnitudes for a SVR dual iterate on the
    box [-C, C] (E = f(x) - y): the SMO loop's audit."""
    return _kkt_violations(beta, E, -C, C, epsilon, 1e-8 * C)
