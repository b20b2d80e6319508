"""The mutation gate's list stays applicable, and its record covers the list."""

import contextlib
import importlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _mutants(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    return importlib.import_module("mutants").MUTANTS


def test_every_old_occurs_once(monkeypatch):
    for file, old, new, why in _mutants(monkeypatch):
        assert old != new and why, (file, old)
        assert (ROOT / file).read_text().count(old) == 1, (file, old)


def test_record_covers_every_mutant(monkeypatch):
    recorded = json.loads((ROOT / "mutants" / "MUTANTS.json").read_text())
    assert [(r["file"], r["old"], r["new"], r["why"]) for r in recorded] == _mutants(monkeypatch)
    assert all(r["result"] for r in recorded)


def test_sigterm_kills_pytest_and_removes_the_tree_copy(tmp_path):
    # tier-1 is replaced by a sleeper that records its pid in the tree copy
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from mutants import run\n"
        "run._tree = lambda: ['pyproject.toml']\n"
        "run.TIER1 = ['-c', 'import os, time; open(\"started\", \"w\").write(str(os.getpid())); time.sleep(60)']\n"
        "sys.exit(run.main())\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", script, str(ROOT)], env={**os.environ, "TMPDIR": str(tmp_path)})
    sleeper = None
    try:
        deadline = time.monotonic() + 30
        while sleeper is None and time.monotonic() < deadline:
            for marker in tmp_path.glob("pelab-mutant-*/started"):
                sleeper = int(marker.read_text() or 0) or None
            time.sleep(0.05)
        assert sleeper is not None, "the tier-1 stand-in never started"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ProcessLookupError):
            os.kill(sleeper, 0)
    finally:
        proc.kill()
        proc.wait()
        if sleeper is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(sleeper, signal.SIGKILL)
