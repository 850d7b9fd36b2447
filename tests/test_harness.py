"""The test harness itself: a failing property test is reported as one
failure, and the tests after it still run.  Also the source hygiene that
a linter would check: no unused import, no line over 97 characters."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mpgworkbench

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


MAX_LINE = 97


def _unused_imports(path: Path, exported=()) -> list:
    """'file:line name' for each name that ``path`` imports and never
    reads, except on lines marked ``# noqa: F401`` and names in
    ``exported``; ``from __future__`` imports are directives, not names."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if (name not in used and name not in exported
                    and "# noqa: F401" not in lines[alias.lineno - 1]):
                unused.append(f"{path.name}:{alias.lineno} {name}")
    return unused


def test_src_has_no_unused_imports_or_long_lines():
    problems = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        exported = mpgworkbench.__all__ if path.name == "__init__.py" else ()
        problems += _unused_imports(path, exported)
        problems += [f"{path.name}:{i} is {len(line)} characters long"
                     for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                     if len(line) > MAX_LINE]
    assert problems == []
