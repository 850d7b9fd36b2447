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
