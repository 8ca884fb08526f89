"""The test setup itself: a failing property test is reported, not lost."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_a_failing_property_test_reports_its_falsifying_example(tmp_path):
    # the repository's warning filter and hooks, beside a property test that fails
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path)
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
