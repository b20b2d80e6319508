"""Run one `pelab` op in-process, optionally with every layer wrapped from outside.

    python -m perfbench.tracer plain  OP_ID ARGV...
    python -m perfbench.tracer traced OP_ID ARGV...

Both modes import `pelab.cli`, call `main(ARGV)` with stdout and stderr
captured, and print one JSON document: the exit code, the captured
output, and `main_ms`, the in-process wall time of `main`.  `traced`
first wraps every public function of the layers `cli`, `laurent`,
`family`, `limits`, `audits`, `jets` and `geom`, rebinding the wrapper at
every name the function is bound under in any `pelab` module (so
`solve_profile` is wrapped in `family`, `geom`, `limits` and `audits`
alike), and adds a per-function summary of the recorded spans.  The
program's source is not changed.  A few hot methods get a counter instead
of a span: `LaurentPoly.__mul__`/`__rmul__` and `LaurentPoly.__call__`
(exact evaluation), and `Jet2.__init__` (jet allocations).
`CurvatureReport.__post_init__` (the symmetry and Bianchi checks) gets
a span named `geom.checks`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import traceback
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "laurent", "family", "limits", "audits", "jets", "geom")
JET_SPAN = "geom.metric_derivatives_jet"


class Tracer:
    """In-memory spans `[name, start, end, parent, op_id]` plus call counters."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open: Counter = Counter()
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.coeff_bits = 0

    def _note_error(self, exc: BaseException):
        if isinstance(exc, Exception) and not getattr(exc, "_perfbench_counted", False):
            exc._perfbench_counted = True
            self.errors[type(exc).__name__] += 1

    def span(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.op_id]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(record)
            tracer.open[name] += 1
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[2] = perf_counter()
                tracer.stack.pop()
                tracer.open[name] -= 1
                tracer._note_error(exc)
                raise
            record[2] = perf_counter()
            tracer.stack.pop()
            tracer.open[name] -= 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def counter(self, key: str, fn, within: str | None = None):
        counts, open_spans = self.counts, self.open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if within is not None and open_spans[within]:
                counts[f"{key}.in_{within}"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def note_profile(self, p):
        """Largest numerator or denominator bit length among the coefficients of P."""
        for _, c in p.items():
            self.coeff_bits = max(self.coeff_bits, c.numerator.bit_length(), c.denominator.bit_length())


def install(tracer: Tracer):
    """Wrap every layer's public functions and the counted methods, at every binding."""
    modules = {short: importlib.import_module(f"pelab.{short}") for short in LAYERS}
    replacements = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            after = tracer.note_profile if (short, attr) == ("family", "solve_profile") else None
            replacements[obj] = tracer.span(f"{short}.{attr}", obj, after=after)
    namespaces = [m for name, m in sys.modules.items() if (name == "pelab" or name.startswith("pelab.")) and m is not None]
    for namespace in namespaces:
        for attr, obj in list(vars(namespace).items()):
            if inspect.isfunction(obj) and obj in replacements:
                setattr(namespace, attr, replacements[obj])

    laurent_poly = modules["laurent"].LaurentPoly
    mul = tracer.counter("laurent.mul", laurent_poly.__mul__)
    laurent_poly.__mul__ = laurent_poly.__rmul__ = mul
    laurent_poly.__call__ = tracer.counter("laurent.eval_exact", laurent_poly.__call__)
    jet2 = modules["jets"].Jet2
    jet2.__init__ = tracer.counter("jets.jet2.init", jet2.__init__, within=JET_SPAN)
    report = modules["geom"].CurvatureReport
    report.__post_init__ = tracer.span("geom.checks", report.__post_init__)


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    return [(s[2] - s[1]) - _covered(s[1], s[2], children.get(i, ())) for i, s in enumerate(spans)]


def summarize(spans) -> dict:
    """Per span name: calls, inclusive ms of outermost instances, and self ms."""
    out: dict[str, dict] = {}
    selfs = self_times(spans)
    for i, span in enumerate(spans):
        entry = out.setdefault(span[0], {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["self_ms"] += selfs[i] * 1e3
        parent, nested = span[3], False
        while parent >= 0 and not nested:
            nested = spans[parent][0] == span[0]
            parent = spans[parent][3]
        if not nested:
            entry["ms"] += (span[2] - span[1]) * 1e3
    return out


def run(mode: str, op_id: int, argv: list[str]) -> dict:
    from pelab import cli

    tracer = None
    if mode == "traced":
        tracer = Tracer(op_id)
        install(tracer)
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    main_ms = (perf_counter() - start) * 1e3
    doc = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "main_ms": main_ms}
    if tracer is not None:
        doc.update(
            spans=summarize(tracer.spans),
            span_count=len(tracer.spans),
            counts=dict(tracer.counts),
            errors=dict(tracer.errors),
            coeff_bits=tracer.coeff_bits,
        )
    return doc


if __name__ == "__main__":
    mode, op_id, *op_argv = sys.argv[1:]
    if mode not in ("plain", "traced"):
        sys.exit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(run(mode, int(op_id), op_argv)) + "\n")
