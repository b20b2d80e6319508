"""Run the mutation gate and record which test kills each mutant.

    python3 mutants/run.py

Run from a git checkout.  For each entry of `mutants.MUTANTS` the files
that git tracks (plus untracked files that .gitignore does not exclude)
are copied from the working tree to a temporary directory, the mutant is
applied there, and tier-1 runs with `-x`.  The first failing test kills
the mutant; a clean run means it survived.  The result goes to
`mutants/MUTANTS.json`, and the exit code is 1 if any mutant survived.

Each entry's `without_goldens` field names the first test other than
`test_exact_output_golden` (the sha256 goldens of the CLI output) that
kills the mutant, or "survived" where only a golden guards it.  Only a
mutant that a golden kills first runs tier-1 a second time, with the
goldens deselected.  For every other mutant the field equals `result`:
under `-x`, deselecting tests that passed before the first failure
cannot change which test fails first.

Tier-1 first runs once on the unmutated copy: a mutant that only meets a
suite that already fails has not been killed.  `tests/test_mutants.py`,
which reads the sources and this record on purpose, is left out of these
runs.
One pytest runs at a time.  For the 56 mutants listed on 2026-10-22, 12
of them killed first by a golden, the baseline and 68 mutant runs took
10.4 minutes on a 2-vCPU machine whose other core was partly busy.  SIGTERM ends the run as an exception
does: the running pytest is killed and the temporary tree removed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from mutants import MUTANTS  # noqa: E402

TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors", "--ignore", "tests/test_mutants.py"]
GOLDENS = "tests/test_cli.py::test_exact_output_golden"
TIMEOUT_S = 900
_FAILED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$")


def _tree() -> list[str]:
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout.decode()
    return [name for name in listed.split("\0") if name and (ROOT / name).is_file()]


def _tier1(files: list[str], mutant=None, extra=()) -> str:
    """Run tier-1 on a copy of the tree; return the first failing test, or "survived"."""
    with tempfile.TemporaryDirectory(prefix="pelab-mutant-") as tmp:
        for name in files:
            dest = Path(tmp, name)
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest)
        if mutant is not None:
            file, old, new, _ = mutant
            path = Path(tmp, file)
            text = path.read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{file}: {old!r} does not occur exactly once")
            path.write_text(text.replace(old, new))
        src = str(Path(tmp, "src"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        try:
            done = subprocess.run([sys.executable, *TIER1, *extra], cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"timeout after {TIMEOUT_S} s"
    if done.returncode == 0:
        return "survived"
    failed = [m.group(1) for m in map(_FAILED.match, done.stdout.splitlines()) if m]
    return failed[0] if failed else f"pytest exit {done.returncode}"


def _exit(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=()) -> int:
    argparse.ArgumentParser(description="Run the mutation gate and record which test kills each mutant.").parse_args(argv)
    signal.signal(signal.SIGTERM, _exit)
    files = _tree()
    baseline = _tier1(files)
    if baseline != "survived":
        print(f"tier-1 fails without a mutant ({baseline}); fix that first", file=sys.stderr)
        return 2
    results = []
    for i, mutant in enumerate(MUTANTS, 1):
        file, old, new, why = mutant
        start = time.perf_counter()
        result = _tier1(files, mutant)
        without_goldens = _tier1(files, mutant, ["--deselect", GOLDENS]) if result.startswith(GOLDENS) else result
        print(f"[{i}/{len(MUTANTS)}] {file}: {why}: {result}; without the goldens: {without_goldens} ({time.perf_counter() - start:.0f} s)", flush=True)
        results.append({"file": file, "old": old, "new": new, "why": why, "result": result, "without_goldens": without_goldens})
    (ROOT / "mutants" / "MUTANTS.json").write_text(json.dumps(results, indent=2, ensure_ascii=False) + "\n")
    survived = sum(r["result"] == "survived" for r in results)
    print(f"{len(results) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
