"""Import boundary: the exact commands run without numpy or the float engine."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pelab

SRC = Path(pelab.__file__).resolve().parents[1]
FLOAT_MODULES = ("numpy", "pelab.jets", "pelab.geom")

# Runs main(argv) in a fresh interpreter, then reports the exit code and
# which float modules are loaded.
PROBE = f"""
import contextlib, io, json, sys
from pelab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, [m for m in {FLOAT_MODULES!r} if m in sys.modules]]))
"""


def _loaded_after(*argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, loaded = json.loads(done.stdout)
    assert code == 0, done.stderr
    return loaded


@pytest.mark.parametrize(
    "argv",
    [
        ("family", "--n", "1", "--k", "1", "--r1", "2"),
        ("family", "--n", "1", "--k", "1", "--r1", "1", "--format", "json"),
        ("audit",),
        ("limit", "--n", "1"),
        ("sweep", "--param", "r1", "--start", "2", "--stop", "3", "--count", "3", "--n", "1", "--k", "1"),
    ],
    ids=["family", "family-json", "audit", "limit", "sweep"],
)
def test_exact_commands_leave_the_float_engine_unloaded(argv):
    assert _loaded_after(*argv) == []


def test_verify_loads_the_float_engine():
    assert _loaded_after("verify", "--n", "1", "--k", "1", "--r1", "1", "--points", "5") == list(FLOAT_MODULES)


def test_every_exported_name_resolves():
    for name in pelab.__all__:
        assert getattr(pelab, name) is not None, name
    assert {"Jet2", "ChartMetric", "curvature_report", "sectional", "jets", "geom"} <= set(pelab.__all__)
    assert set(pelab.__all__) <= set(dir(pelab))
    assert pelab.Jet2 is pelab.jets.Jet2 and pelab.sectional is pelab.geom.sectional
    with pytest.raises(AttributeError, match="no_such_name"):
        pelab.no_such_name
