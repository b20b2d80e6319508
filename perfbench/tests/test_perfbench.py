"""Tests of the benchmark itself: op generation, the output checker, span arithmetic."""

import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from perfbench import checker, run, tracer, workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", sorted(workloads.CYCLES))
def test_same_seed_gives_same_ops(workload):
    first = workloads.generate(workload, 11, 4)
    assert first == workloads.generate(workload, 11, 4)
    assert first != workloads.generate(workload, 12, 4)
    cycle = len(workloads.CYCLES[workload])
    for start in range(0, len(first), cycle):
        assert Counter(op.kind for op in first[start:start + cycle]) == Counter(workloads.CYCLES[workload])


def test_radii_cover_the_documented_range():
    radii = []
    for seed in range(40):
        for op in workloads.generate("verify_bulk", seed, 4):
            if op.kind == "verify_edge":
                radii.append(float(workloads.parse_flags(op.argv)["--r1"]))
    assert min(radii) >= 1.01 and max(radii) <= 10
    assert max(radii) > 9.9  # the window past 9.9 is drawn, not trimmed


def _pelab(argv):
    from pelab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_checker_flags_altered_alpha(fmt):
    argv = ("family", "--n", "2", "--k", "3", "--r1", "37/5", "--format", fmt)
    code, out, err = _pelab(argv)
    assert checker.check(argv, code, out, err) == []
    alpha = str(checker.closed_forms(*checker.catalogue(workloads.parse_flags(argv)), checker.Fraction(37, 5))["alpha"])
    assert alpha in out
    altered = out.replace(alpha, alpha + "1", 1)
    problems = checker.check(argv, code, altered, err)
    assert problems and "alpha" in problems[0]
    assert not checker.is_exit_failure(problems)


def test_checker_flags_altered_sweep_alpha():
    argv = ("sweep", "--param", "r1", "--start", "1.01", "--stop", "3", "--count", "4", "--k", "2", "--n", "1")
    code, out, err = _pelab(argv)
    assert checker.check(argv, code, out, err) == []
    lines = out.splitlines()
    cells = lines[2].split(",")
    cells[2] = "7/2"
    altered = "\n".join([*lines[:2], ",".join(cells), *lines[3:]]) + "\n"
    assert any("sweep row 1: alpha" in p for p in checker.check(argv, code, altered, err))


def test_checker_counts_nonzero_exit():
    problems = checker.check(("verify", "--r1", "9.95"), 2, "", "error: high - low < 0\n")
    assert checker.is_exit_failure(problems)


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping), a has child c [2, 3]
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 3.0, 6.0, 0, 0],
        ["b", 7.0, 12.0, 0, 0],  # runs past its parent; only [7, 10] is covered
    ]
    assert tracer.self_times(spans) == pytest.approx([10 - 5 - 3, 2.0, 1.0, 3.0, 5.0])


def test_summary_counts_nested_recursion_once():
    spans = [["f", 0.0, 4.0, -1, 0], ["f", 1.0, 2.0, 0, 0]]
    summary = tracer.summarize(spans)["f"]
    assert summary["calls"] == 2
    assert summary["ms"] == pytest.approx(4000.0)
    assert summary["self_ms"] == pytest.approx(4000.0)


def test_tail_keeps_ten_samples_beyond():
    value, percentile = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and percentile == 90.0


def test_tracer_sees_every_binding_of_solve_profile():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.tracer", "traced", "0", "audit"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    doc = json.loads(proc.stdout)
    assert doc["code"] == 0
    assert doc["spans"]["family.solve_profile"]["calls"] == dict(run.SELF_CHECK)[("audit",)]
    assert checker.check(("audit",), doc["code"], doc["stdout"]) == []
