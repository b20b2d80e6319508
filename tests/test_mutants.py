"""The mutation gate's list stays applicable, and its record covers the list."""

import importlib
import json
from pathlib import Path

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
