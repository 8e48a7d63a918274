"""The project's pytest configuration reports a failing Hypothesis test in full."""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "pyproject.toml")


def test_failing_hypothesis_test_prints_its_example(tmp_path):
    # With filterwarnings = ["error"], a DeprecationWarning raised while
    # Hypothesis builds its failure report used to abort the whole run.
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "@settings(database=None, derandomize=True)\n"
        "def test_fails(x):\n"
        "    assert x < 5\n")
    (tmp_path / "test_passes.py").write_text("def test_passes():\n    pass\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT, "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    report = run.stdout + run.stderr
    assert run.returncode == 1, report
    assert "Falsifying example" in report
    assert "INTERNALERROR" not in report
    assert "1 failed, 1 passed" in report
