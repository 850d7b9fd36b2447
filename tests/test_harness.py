"""The test harness itself: a failing property test is reported as one
failure, and the tests after it still run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TINY_SUITE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_test_is_one_failure(tmp_path):
    """A run of a failing @given test and a passing one, under this
    repository's ini (DeprecationWarning is an error) and its conftest."""
    (tmp_path / "test_tiny.py").write_text(TINY_SUITE, encoding="utf-8")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "conftest",
         "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_tiny.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
