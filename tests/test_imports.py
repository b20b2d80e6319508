"""Import boundary: each command loads only the layers it uses and its own command
module, none loads dataclasses, and every public layer function is one that a command runs."""

import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pelab
from pelab.cli import main

SRC = Path(pelab.__file__).resolve().parents[1]
FLOAT_MODULES = ("numpy", "pelab.jets", "pelab.geom", "pelab.pcg64")
# Start-up cost that the exact commands do not need: dataclasses (which
# loads inspect), and the limits and audits layers.
LEAN_MODULES = ("dataclasses", "inspect", "pelab.limits", "pelab.audits")
# What importing numpy.random would load for one seeded draw: its bit
# generators, and OpenSSL's hashlib through secrets.
RANDOM_MODULES = ("numpy.random", "secrets", "hashlib")
# One module per subcommand, compiled only by the ops that run it.
COMMAND_MODULES = tuple(f"pelab.cmd_{name}" for name in ("family", "verify", "audit", "sweep", "limit"))

# Runs main(argv) in a fresh interpreter, then reports the exit code and
# which of the watched modules are loaded.
PROBE = f"""
import contextlib, io, json, sys
from pelab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, [m for m in {FLOAT_MODULES + LEAN_MODULES + RANDOM_MODULES + COMMAND_MODULES!r} if m in sys.modules]]))
"""

FAMILY = ("family", "--n", "1", "--k", "1", "--r1", "2")
FAMILY_JSON = ("family", "--n", "1", "--k", "1", "--r1", "1", "--format", "json")
SWEEP = ("sweep", "--param", "r1", "--start", "2", "--stop", "3", "--count", "3", "--n", "1", "--k", "1")
VERIFY = ("verify", "--n", "1", "--k", "1", "--r1", "1", "--points", "5")
EVERY_COMMAND = {
    "family": FAMILY,
    "family-json": FAMILY_JSON,
    "audit": ("audit",),
    "limit": ("limit", "--n", "1"),
    "sweep": SWEEP,
    "sweep-verify": SWEEP + ("--verify",),
    "verify": VERIFY,
    "verify-rescaled": ("verify", "--chart", "rescaled", "--points", "5"),
}


def _run_fresh(code, *argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)


@functools.lru_cache(maxsize=None)
def _probe(argv):
    done = _run_fresh(PROBE, *argv)
    assert done.returncode == 0, done.stderr
    code, loaded = json.loads(done.stdout)
    assert code == 0, done.stderr
    return loaded


def _loaded_after(*argv, watch=FLOAT_MODULES):
    return [m for m in _probe(argv) if m in watch]


@pytest.mark.parametrize(
    "argv",
    [
        FAMILY,
        FAMILY_JSON,
        ("audit",),
        ("limit", "--n", "1"),
        SWEEP,
    ],
    ids=["family", "family-json", "audit", "limit", "sweep"],
)
def test_exact_commands_leave_the_float_engine_unloaded(argv):
    assert _loaded_after(*argv) == []


def test_verify_loads_the_float_engine():
    assert _loaded_after(*VERIFY) == list(FLOAT_MODULES)


@pytest.mark.parametrize("argv", [FAMILY, FAMILY_JSON, SWEEP], ids=["family", "family-json", "sweep"])
def test_family_and_sweep_skip_dataclasses_limits_and_audits(argv):
    assert _loaded_after(*argv, watch=LEAN_MODULES) == []


# sweep draws its --verify points with the verify module's helpers, and
# imports that module only under --verify
OWN_MODULES = {
    "family": ["pelab.cmd_family"],
    "family-json": ["pelab.cmd_family"],
    "audit": ["pelab.cmd_audit"],
    "limit": ["pelab.cmd_limit"],
    "sweep": ["pelab.cmd_sweep"],
    "sweep-verify": ["pelab.cmd_verify", "pelab.cmd_sweep"],
    "verify": ["pelab.cmd_verify"],
    "verify-rescaled": ["pelab.cmd_verify"],
}


@pytest.mark.parametrize("name", OWN_MODULES)
def test_each_command_loads_its_own_command_module_only(name):
    assert _loaded_after(*EVERY_COMMAND[name], watch=COMMAND_MODULES) == OWN_MODULES[name]


def test_page_pope_verify_skips_dataclasses_and_limits():
    assert _loaded_after(*VERIFY, watch=("dataclasses", "pelab.limits")) == []


@pytest.mark.parametrize("name", ["verify", "verify-rescaled", "sweep-verify"])
def test_seeded_commands_leave_numpy_random_unloaded(name):
    # pelab.pcg64 draws the seeded points
    assert _loaded_after(*EVERY_COMMAND[name], watch=RANDOM_MODULES) == []


@pytest.mark.parametrize("argv", EVERY_COMMAND.values(), ids=EVERY_COMMAND.keys())
def test_no_command_loads_dataclasses(argv):
    assert _loaded_after(*argv, watch=("dataclasses",)) == []


# Runs main(argv) in a fresh interpreter behind a meta path finder that
# only records, in order, the name of every module looked up for the first time.
ORDER_PROBE = """
import contextlib, io, json, sys
found = []

class Record:
    @staticmethod
    def find_spec(name, path=None, target=None):
        found.append(name)

sys.meta_path.insert(0, Record)
from pelab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, found]))
"""


@pytest.mark.parametrize("name", ["verify", "sweep-verify"])
def test_the_engine_is_compiled_before_numpy_loads(name):
    # a module is compiled right after it is found; geom and jets compiled on
    # top of numpy's heap raise a verify's peak RSS by about 1 MB
    done = _run_fresh(ORDER_PROBE, *EVERY_COMMAND[name])
    assert done.returncode == 0, done.stderr
    code, found = json.loads(done.stdout)
    assert code == 0
    assert found.index("pelab.geom") < found.index("pelab.jets") < found.index("numpy")


def test_import_pelab_loads_no_layer():
    # Every public name is bound once, in its layer module; the package root
    # holds only the version.
    code = "import json, sys, pelab; print(json.dumps([pelab.__version__, sorted(m for m in sys.modules if m.startswith(('pelab.', 'numpy')))]))"
    done = _run_fresh(code)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["0.1.0", []]


# A sitecustomize that names the file of every module body the interpreter
# executes: an import or runpy's run of the -m module.
EXEC_HOOK = """
import sys


def _named(event, args):
    if event == "exec" and hasattr(args[0], "co_filename"):
        print("exec", args[0].co_filename, file=sys.stderr)


sys.addaudithook(_named)
"""


@pytest.mark.parametrize("module, runs", [("pelab", 1), ("pelab.cli", 2)])
def test_python_m_pelab_runs_cli_once(tmp_path, module, runs):
    # python -m pelab.cli runs cli.py as __main__, and the command module's
    # import of pelab.cli runs it again; pelab/__main__.py only imports it
    (tmp_path / "sitecustomize.py").write_text(EXEC_HOOK)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(tmp_path), str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", module, *FAMILY], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "alpha" in done.stdout
    assert done.stderr.splitlines().count(f"exec {SRC / 'pelab' / 'cli.py'}") == runs


# perfbench still traces geom.curvature_report, the single-point report
# deleted when the engine came to hold batches only; that metric reads 0
# until perfbench retires the span.
DELETED_SPANS = {"geom.curvature_report"}


def test_traced_spans_name_public_layer_functions(monkeypatch):
    # perfbench's per-layer metrics read the spans of "<layer>.<function>"; a
    # function renamed, made private or moved would read 0 without an error.
    monkeypatch.syspath_prepend(str(SRC.parent))
    run = importlib.import_module("perfbench.run")
    spans = [
        *run.PER_OP_SPAN_CALLS.values(),
        *(name for names in run.PER_OP_SPAN_MS.values() for name in names),
        *run.PER_OP_SELF_MS.values(),
        *run.PER_POINT_US.values(),
    ]
    for span in spans:
        if span == "geom.checks":  # the span of CurvatureReport.__post_init__
            continue
        layer, name = span.split(".")
        module = importlib.import_module(f"pelab.{layer}")
        if span in DELETED_SPANS:
            assert not hasattr(module, name), span
            continue
        fn = getattr(module, name, None)
        assert not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__, span
    from pelab import geom

    assert inspect.isfunction(geom.CurvatureReport.__post_init__)


def test_traced_solve_profile_counts_match_the_self_check(monkeypatch):
    # The traced benchmark refuses to report when these counts move; this
    # pins every entry in tier-1, not only in a traced benchmark run.
    monkeypatch.syspath_prepend(str(SRC.parent))
    run = importlib.import_module("perfbench.run")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    for argv, want in run.SELF_CHECK:
        done = subprocess.run(
            [sys.executable, "-m", "perfbench.tracer", "traced", "0", *argv],
            cwd=SRC.parent, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        doc = json.loads(done.stdout)
        assert doc["code"] == 0, (argv, doc["stderr"])
        assert doc["spans"]["family.solve_profile"]["calls"] == want, argv


# Every subcommand and both charts, with --tol and --rho-grid given once.
REACH = [
    FAMILY,
    FAMILY_JSON,
    ("audit",),
    ("limit", "--n", "2", "--rho-grid", "1:3:5"),
    SWEEP + ("--verify",),
    VERIFY + ("--tol", "1e-7"),
    ("verify", "--chart", "rescaled", "--points", "5", "--format", "csv"),
]


def test_every_public_layer_function_is_reached_by_a_command():
    # Code that only tests call belongs in tests/ (the float references live
    # in tests/oracles.py); methods and _private helpers are not listed here.
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(list(argv)) for argv in REACH]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(REACH)
    unreached = {
        f"{layer}.{name}"
        for layer in ("cli", *(m.removeprefix("pelab.") for m in COMMAND_MODULES), "laurent", "family", "limits", "audits", "jets", "geom", "pcg64")
        for name, fn in vars(importlib.import_module(f"pelab.{layer}")).items()
        if inspect.isfunction(fn) and fn.__module__ == f"pelab.{layer}" and not name.startswith("_") and fn.__code__ not in called
    }
    assert unreached == set()
