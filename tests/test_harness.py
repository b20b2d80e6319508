"""The tier-1 session itself: a failing property test is reported like any other, and CI runs the documented commands."""

import importlib.metadata
import re
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


def test_ci_runs_the_documented_tier1_command_and_traced_run():
    # tier-1 does not run the workflow, so its steps are held to the ROADMAP's
    # tier-1 command and the traced run that checks the tracer; the steps
    # before them install the dependencies
    tier1 = re.search(r"^\*\*Tier-1 verify:\*\* `(.+)`$", (ROOT / "ROADMAP.md").read_text(), re.MULTILINE).group(1)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    runs = re.findall(r"^\s*(?:- )?run: (.+)$", workflow, re.MULTILINE)
    installs = [run for run in runs if run.startswith("python -m pip install ")]
    assert installs and runs[len(installs) :] == [tier1, "python3 perfbench/run.py --workload cli_quick --seed 1 --seconds 5 --trace 1"]


def test_ci_pins_numpy_pytest_and_hypothesis_to_the_installed_series():
    # filterwarnings = ["error"] turns a new release's deprecation into a
    # tier-1 failure, so CI installs the major.minor series of the environment
    # that runs this test
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    (install,) = [run for run in re.findall(r"^\s*(?:- )?run: (.+)$", workflow, re.MULTILINE) if run.startswith("python -m pip install ")]
    pins = dict(re.findall(r'"([a-z]+)==([0-9.]+)\.\*"', install))
    series = {name: ".".join(importlib.metadata.version(name).split(".")[:2]) for name in ("numpy", "pytest", "hypothesis")}
    assert pins == series


def test_ci_runs_the_installed_python_series():
    # the same reason as the pins above: a newer interpreter's deprecations
    # would fail tier-1 under filterwarnings = ["error"]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    (version,) = re.findall(r'^\s*python-version: "([0-9.]+)"$', workflow, re.MULTILINE)
    assert version == f"{sys.version_info.major}.{sys.version_info.minor}"
