"""The tier-1 session itself: a failing property test is reported like any other."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_failing_hypothesis_test_is_named_not_an_internal_error(tmp_path):
    # hypothesis's failure report touches a deprecated mypy_extensions name; under
    # filterwarnings = ["error"] alone that warning ended the session with exit 3
    (tmp_path / "test_property.py").write_text(FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "FAILED" in done.stdout and "test_property.py::test_fails" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
