"""The names the benchmark's per-layer trace rebinds must exist in the
program, so a refactor cannot break the benchmark without a failing test.

``perfbench/layers.py`` is loaded as a plain module (it imports only the
standard library); nothing is installed or rebound.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = load_layers()
NAMES = ([(mod, attr) for mod, attr, _ in layers.SPANS]
         + list(layers.COUNTED) + [layers.GENERATOR])


@pytest.mark.parametrize("module, attr", NAMES)
def test_traced_name_resolves(module, attr):
    obj = getattr(importlib.import_module(f"mpgworkbench.{module}"), attr)
    assert callable(obj)


def test_traced_names_are_the_ones_the_program_calls(monkeypatch):
    """Every ``experiments`` name the trace rebinds is called through that
    name during a regression suite, a classification grid and their
    serialization: a function held elsewhere (say, in a table filled at
    import time) would escape the trace, and this test."""
    from mpgworkbench import experiments

    calls = {}

    def counted(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] = calls.get(attr, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    attrs = sorted({attr for mod, attr, _ in layers.SPANS if mod == "experiments"})
    for attr in attrs:
        monkeypatch.setattr(experiments, attr,
                            counted(attr, getattr(experiments, attr)))
    for key, value in {"forest_trees": 2, "svr_c_grid": (1.0, 10.0),
                       "alpha_grid": (0.01, 0.1), "c_grid": (1.0, 10.0)}.items():
        monkeypatch.setitem(experiments.FIXED, key, value)
    config = experiments.ExperimentConfig(cv_folds=3)
    experiments.report_to_json({
        "regression": experiments.run_regression_suite(config),
        "classification": experiments.run_classification_grid(config),
    })
    assert [attr for attr in attrs if not calls.get(attr)] == []
    # one lane descent each, its final model included: linmod.cd_fits is 2
    assert calls["fit_lasso"] == calls["fit_elastic_net"] == 1
    assert calls["solve_svr_dual"] == config.cv_folds * len(experiments.FIXED["svr_c_grid"])
