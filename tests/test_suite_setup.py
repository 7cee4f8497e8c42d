"""Tests of the test suite's own set-up (tests/conftest.py)."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True, max_examples=20)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


@pytest.mark.skipif(importlib.util.find_spec("libcst") is None, reason="libcst is not installed")
def test_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    """With libcst installed, hypothesis writes a patch for a failing
    example; under the suite's settings (filterwarnings = error, this
    conftest) the run reports the failure, runs the next test and exits 1,
    with no INTERNALERROR."""
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(TESTS), os.environ.get("PYTHONPATH")))))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "conftest",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT), str(probe)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out
