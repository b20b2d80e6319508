"""The pelab benchmark: a closed loop over the `pelab` CLI, one client.

    python3 perfbench/run.py --workload cli_quick --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; `src/pelab` is used as is, with
no install step.  One child process runs at a time and every op is a
fresh interpreter (`pelab.cli.main` on the generated argv, as the `pelab`
console script runs it).  The next op starts when the previous one has
ended, until `--seconds` have passed (at least `MIN_OPS` ops).  Every op's
output is checked by `perfbench.checker`; a nonzero exit or a wrong
printed value counts as a failed op.

`--trace 0` times the ops untraced and prints the end-to-end metrics.
`--trace 1` runs every op twice in a child that calls `main` in-process,
once plain and once with every layer wrapped (`perfbench.tracer`), and
prints the per-layer metrics, including the tracing overhead between the
two.  Both print a human-readable summary, then one JSON line with the
full report (provenance, every generated argv, every failure), then the
result line `{"correct", "attempted", "failed", "metrics"}` last.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checker, workloads  # noqa: E402

MIN_OPS = 11  # the tail percentile needs ten samples beyond it
CAL_LOOPS = 100_000
CAL_REF_MS = 7.0  # the calibration loop's time at the reference CPU speed
SETUP_REPEATS = 5
IMPORT_PROBES = 5
OP_TIMEOUT_S = 60.0
CYCLES = 256  # ops repeat from the start if a run gets through all of them

# A direct `pelab` invocation, as the console script entry point makes it.
PELAB = ("-c", "import sys; from pelab.cli import main; sys.exit(main())")

# Fresh interpreter: time `import pelab.cli`, run one exact-only op, then
# report whether numpy got loaded.
IMPORT_PROBE = (
    "-c",
    "import time; t = time.perf_counter(); import pelab.cli; t = time.perf_counter() - t\n"
    "import contextlib, io, sys\n"
    "with contextlib.redirect_stdout(io.StringIO()): pelab.cli.main(['family', '--n', '1', '--k', '1', '--r1', '1'])\n"
    "print(t * 1e3, int('numpy' in sys.modules))",
)

# Known `solve_profile` call counts at the seed commit.  The traced run
# asserts them before reporting, so that a binding the tracer missed fails
# the run instead of under-reporting a layer.  A change that alters these
# counts on purpose updates this table in a change of its own.
SELF_CHECK = (
    (("audit",), 22),
    (("limit", "--n", "1"), 18),
    (("sweep", "--param", "r1", "--start", "2", "--stop", "3", "--count", "5", "--k", "1", "--n", "1"), 2 * 5),
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result (missing program, failed set-up or self-check)."""


@dataclass
class Child:
    code: int
    out: str
    err: str
    wall_s: float
    maxrss_kb: int


def run_child(args, timeout: float = OP_TIMEOUT_S) -> Child:
    """Run `python ARGS` from the checkout root; wall time and peak RSS from `os.wait4`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    chunks = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in (proc.stdout, proc.stderr):
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = start + timeout - perf_counter()
            if remaining <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = b"".join(chunks[proc.stdout.fileno()]).decode(errors="replace")
    err = b"".join(chunks[proc.stderr.fileno()]).decode(errors="replace")
    proc.stdout.close()
    proc.stderr.close()
    if timed_out:
        err += f"\nkilled after {timeout} s"
    return Child(proc.returncode, out, err, wall, usage.ru_maxrss)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def check_layout():
    if not (ROOT / "src" / "pelab" / "cli.py").is_file():
        raise BenchError(f"no pelab sources under {ROOT / 'src'}; run from a source checkout")


def outputs_correct(failures) -> bool:
    """No op printed a wrong value; ops that exited nonzero count only as failed."""
    return all(checker.is_exit_failure(f["problems"]) for f in failures)


def closed_loop(ops, seconds: float, run_op, min_ops: int = 1):
    """Call run_op(index, op) back to back until `seconds` pass and `min_ops` ops are done."""
    results = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(results) < min_ops:
        i = len(results)
        results.append(run_op(i, ops[i % len(ops)]))
    return results


# -- untraced run: end-to-end metrics ---------------------------------------


def set_up(workload: str, seed: int):
    """Generate the ops and run the untimed warm-up op; returns (ops, seconds taken)."""
    start = perf_counter()
    ops = workloads.generate(workload, seed, CYCLES)
    warm = workloads.WARMUP[workload]
    child = run_child(PELAB + warm)
    problems = checker.check(warm, child.code, child.out, child.err)
    if problems:
        raise BenchError(f"warm-up op {' '.join(warm)} failed: {problems}")
    return ops, perf_counter() - start


def calibrate() -> float:
    """Wall ms of a fixed pure-Python loop that touches no pelab code.

    Run between ops, it tracks the CPU speed the ops get.  On a shared
    machine that speed drifts by tens of percent over minutes, and op
    times drift with it; rescaling each op by the loop times measured
    around it cancels most of that drift.
    """
    start = perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i % 7
    return (perf_counter() - start) * 1e3


def at_reference_speed(walls: list, cals: list) -> list:
    """Wall times rescaled to the CPU speed at which the calibration loop takes CAL_REF_MS.

    cals[i] and cals[i + 1] were measured just before and just after
    walls[i].  Each wall uses the median of the calibration times within
    two ops of it, which follows drift over seconds but not the jitter of
    a single loop.
    """
    return [w * CAL_REF_MS / statistics.median(cals[max(0, i - 2) : i + 4]) for i, w in enumerate(walls)]


def tail(sorted_values: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples beyond it."""
    n = len(sorted_values)
    return sorted_values[n - 11], 100.0 * (n - 10) / n


def latency(values: list, failed: list) -> tuple[float, float, float]:
    """(p50, tail, tail percentile); a failed op misses any latency limit, so it ranks above every success."""
    ranked = sorted(float("inf") if f else v for v, f in zip(values, failed))
    tail_value, tail_pct = tail(ranked)
    if tail_value == float("inf"):
        raise BenchError(f"{sum(failed)} of {len(values)} ops failed; the latency percentiles are undefined")
    return statistics.median(ranked), tail_value, tail_pct


def timed_run(args) -> tuple[dict, dict]:
    cals = [calibrate()]
    setups = []
    for _ in range(SETUP_REPEATS):
        ops, took = set_up(args.workload, args.seed)
        setups.append(took)
        cals.append(calibrate())
    setups_ref = at_reference_speed(setups, cals)

    def run_op(i, op):
        child = run_child(PELAB + op.argv)
        problems = checker.check(op.argv, child.code, child.out, child.err)
        return op, child, problems, calibrate()

    results = closed_loop(ops, args.seconds, run_op, min_ops=MIN_OPS)
    failures = [{"op": i, "argv": list(op.argv), "problems": p} for i, (op, _, p, _) in enumerate(results) if p]
    failed = [bool(p) for _, _, p, _ in results]
    walls = [c.wall_s * 1e3 for _, c, _, _ in results]
    op_cals = [cals[-1]] + [cal for _, _, _, cal in results]
    walls_ref = at_reference_speed(walls, op_cals)
    p50, tail_ms, tail_pct = latency(walls, failed)
    p50_ref, tail_ref, _ = latency(walls_ref, failed)

    verify_ops = [(op, c, p) for op, c, p, _ in results if op.points]
    sweep_ops = [(op, c, p) for op, c, p, _ in results if op.rows]
    metrics = {
        "setup_s": (statistics.median(setups_ref), "s"),
        "op_ref_ms.p50": (p50_ref, "ms"),
        "op_ref_ms.tail": (tail_ref, "ms"),
        "setup_wall_s": (statistics.median(setups), "s"),
        "op_wall_ms.p50": (p50, "ms"),
        "op_wall_ms.tail": (tail_ms, "ms"),
        "points_per_s": _rate(verify_ops, lambda op: op.points),
        "rows_per_s": _rate(sweep_ops, lambda op: op.rows),
        "peak_rss_mb": (max(c.maxrss_kb for _, c, _, _ in results) / 1024, "MB"),
        "fail_ratio": (len(failures) / len(results), "ratio"),
    }
    report = {
        "attempted": len(results),
        "failed": len(failures),
        "correct": outputs_correct(failures),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": 10,
        "calibration_ms_median": statistics.median(op_cals),
        "setup_wall_s_samples": setups,
        "op_wall_ms_samples": walls,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "failures": failures,
        "argv": [list(op.argv) for op, _, _, _ in results],
    }
    return report, metrics


def _rate(results, amount) -> tuple:
    """Units of work done by successful ops per second of all their wall time; None if none apply."""
    wall = sum(c.wall_s for _, c, _ in results)
    if not wall:
        return None, "n/a"
    done = sum(amount(op) for op, _, p in results if not p)
    return done / wall, "1/s"


# -- traced run: per-layer metrics ------------------------------------------


def traced_op(i: int, argv, mode: str):
    child = run_child(("-m", "perfbench.tracer", mode, str(i), *argv))
    if child.code != 0:
        raise BenchError(f"tracer child failed on {' '.join(argv)}: {child.err.strip()[-400:]}")
    doc = json.loads(child.out)
    return doc, checker.check(argv, doc["code"], doc["stdout"], doc["stderr"])


def self_check():
    for i, (argv, want) in enumerate(SELF_CHECK):
        doc, problems = traced_op(-1 - i, argv, "traced")
        got = doc["spans"].get("family.solve_profile", {}).get("calls", 0)
        if problems or got != want:
            raise BenchError(f"tracer self-check: `pelab {' '.join(argv)}` made {got} solve_profile calls (expected {want}); problems {problems}")


def import_probe() -> tuple[float, int]:
    times, loaded = [], 0
    for _ in range(IMPORT_PROBES):
        child = run_child(IMPORT_PROBE)
        if child.code != 0:
            raise BenchError(f"import probe failed: {child.err.strip()[-400:]}")
        ms, numpy_loaded = child.out.split()
        times.append(float(ms))
        loaded = max(loaded, int(numpy_loaded))
    return statistics.median(times), loaded


PER_OP_CALLS = {
    "laurent.mul.calls": "laurent.mul",
    "laurent.eval_exact.calls": "laurent.eval_exact",
}
PER_OP_SPAN_CALLS = {
    "family.solve_profile.calls": "family.solve_profile",
    "limits.rho1_limit.calls": "limits.rho1_limit",
    "geom.curvature_report.calls": "geom.curvature_report",
}
PER_OP_SPAN_MS = {
    "family.solve_profile.ms": ("family.solve_profile",),
    "limits.limit_comparison.ms": ("limits.limit_comparison",),
    "audits.run_audits.ms": ("audits.run_audits",),
    "geom.chart_build.ms": ("geom.page_pope_chart", "geom.rescaled_chart"),
}
PER_OP_SELF_MS = {f"family.{f}.self_ms": f"family.{f}" for f in ("cone_angle", "edge_model", "expand_at_edge", "conic_model", "family_report")}
PER_POINT_US = {
    "geom.metric_derivatives_jet.us_per_point": "geom.metric_derivatives_jet",
    "geom.assemble_curvature.us_per_point": "geom.assemble_curvature",
    "geom.checks.us_per_point": "geom.checks",
}


def layer_metrics(docs: list, import_ms: float, numpy_loaded: int, overhead_pct: float) -> dict:
    """Per-layer metrics from the traced ops; calls and ms are means per op."""
    n = len(docs)

    def span_total(name, key):
        return sum(d["spans"].get(name, {}).get(key, 0) for d in docs)

    def count(key):
        return sum(d["counts"].get(key, 0) for d in docs)

    m = {
        "import.pelab_cli_ms": (import_ms, "ms"),
        "import.numpy_loaded": (numpy_loaded, "count"),
        "cli.main.self_ms": (sum(s["self_ms"] for d in docs for name, s in d["spans"].items() if name.startswith("cli.")) / n, "ms"),
    }
    for code in (1, 2, 3):
        m[f"cli.exit{code}.count"] = (sum(1 for d in docs if d["code"] == code), "count")
    for metric, key in PER_OP_CALLS.items():
        m[metric] = (count(key) / n, "count")
    m["laurent.coeff_bits.max"] = (max(d["coeff_bits"] for d in docs), "bits")
    for metric, name in PER_OP_SPAN_CALLS.items():
        m[metric] = (span_total(name, "calls") / n, "count")
    for metric, names in PER_OP_SPAN_MS.items():
        m[metric] = (sum(span_total(name, "ms") for name in names) / n, "ms")
    for metric, name in PER_OP_SELF_MS.items():
        m[metric] = (span_total(name, "self_ms") / n, "ms")
    for metric, name in PER_POINT_US.items():
        calls = span_total(name, "calls")
        m[metric] = (span_total(name, "ms") * 1e3 / calls if calls else 0.0, "us")
    points = span_total("geom.metric_derivatives_jet", "calls")
    allocs = count("jets.jet2.init.in_geom.metric_derivatives_jet")
    m["jets.jet2.allocs_per_point"] = (allocs / points if points else 0.0, "count")
    m["geom.singular_metric.count"] = (sum(d["errors"].get("SingularMetric", 0) for d in docs), "count")
    m["geom.check_error.count"] = (sum(d["errors"].get("CurvatureCheckError", 0) for d in docs), "count")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m


def traced_run(args) -> tuple[dict, dict]:
    import_ms, numpy_loaded = import_probe()
    self_check()
    ops = workloads.generate(args.workload, args.seed, CYCLES)

    def run_op(i, op):
        plain, plain_problems = traced_op(i, op.argv, "plain")
        traced, problems = traced_op(i, op.argv, "traced")
        return op, plain, traced, plain_problems or problems

    results = closed_loop(ops, args.seconds, run_op)
    docs = [traced for _, _, traced, _ in results]
    plain_ms = sum(plain["main_ms"] for _, plain, _, _ in results)
    traced_ms = sum(d["main_ms"] for d in docs)
    metrics = layer_metrics(docs, import_ms, numpy_loaded, 100.0 * (traced_ms - plain_ms) / plain_ms)
    failures = [{"op": i, "argv": list(op.argv), "problems": p} for i, (op, _, _, p) in enumerate(results) if p]
    report = {
        "attempted": len(results),
        "failed": len(failures),
        "correct": outputs_correct(failures),
        "self_check": "passed",
        "plain_main_ms": plain_ms,
        "traced_main_ms": traced_ms,
        "spans_recorded": sum(d["span_count"] for d in docs),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "failures": failures,
        "argv": [list(op.argv) for op, _, _, _ in results],
    }
    return report, metrics


# -- output ----------------------------------------------------------------------


def print_summary(args, report: dict, metrics: dict):
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload} seed {args.seed} ({mode}): {report['attempted']} ops, {report['failed']} failed")
    for name, (value, unit) in metrics.items():
        shown = "n/a (no such work in this workload)" if value is None else f"{value:.6g} {unit}"
        if name.endswith(".tail"):
            shown += f"  (p{report['tail_percentile']:.1f}: 10 of {report['attempted']} ops beyond)"
        if name == "fail_ratio":
            shown += f"  ({report['failed']}/{report['attempted']})"
        print(f"  {name:<44} {shown}")
    for failure in report["failures"]:
        print(f"  FAILED op {failure['op']}: pelab {' '.join(failure['argv'])}: {failure['problems'][0]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.CYCLES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    try:
        check_layout()
        report, metrics = (traced_run if args.trace else timed_run)(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report["provenance"] = provenance(args)
    print_summary(args, report, metrics)
    print(json.dumps(report))
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {d["name"]: {"value": metrics[d["name"]][0], "unit": d["unit"]} for d in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
