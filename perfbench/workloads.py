"""Seeded op generation for the three benchmark workloads.

An op is the argv of one `pelab` invocation plus the kind it was drawn
as.  Each workload is a repeating cycle with a fixed multiset of kinds;
the seed shuffles the order inside every cycle and draws every parameter
(n, k, r1, sweep windows, formats, point seeds).  Fixing the multiset
keeps the mix of cheap and expensive ops the same on every seed, so the
run-to-run spread reflects the program, not the draw.

r1 and the sweep windows are drawn from the README's documented range
[1.01, 10] with no trimming: `verify` with r1 > 9.9 (and a `sweep
--verify` window reaching past 9.9) currently exits 2, and those ops
count as failures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

VERIFY_POINTS = 1000
SWEEP_VERIFY_ROWS = 40
SWEEP_ROWS_BY_N = {1: 200, 3: 160, 6: 130, 10: 100}
QUICK_SWEEP_MAX_ROWS = 20

CYCLES = {
    # exact-only README commands; numpy is imported but never used
    "cli_quick": ("family", "family", "family_json", "audit", "limit", "limit", "sweep_r1", "sweep_k"),
    # thousands of chart points per op; the float engine dominates
    "verify_bulk": ("verify_conic", "verify_edge", "verify_rescaled_derived", "verify_rescaled_paper"),
    # exact sweeps growing with n, and small verified batches per row
    "sweep_rows": ("sweep_n1", "sweep_n3", "sweep_n6", "sweep_n10", "sweep_verify"),
}

# A short op that every setup runs once, untimed, before the first timed op.
WARMUP = {
    "cli_quick": ("family", "--n", "1", "--k", "1", "--r1", "1"),
    "verify_bulk": ("verify", "--n", "1", "--k", "1", "--r1", "1", "--points", "20", "--seed", "0", "--tol", "1e-6"),
    "sweep_rows": ("sweep", "--param", "r1", "--start", "1.01", "--stop", "10", "--count", "20", "--k", "1", "--n", "1"),
}


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple

    @property
    def points(self) -> int:
        """Chart points the op verifies (0 for exact-only ops)."""
        args = parse_flags(self.argv)
        if self.argv[0] == "verify":
            return int(args["--points"])
        if self.argv[0] == "sweep" and "--verify" in args:
            return self.rows * int(args.get("--points", 5))
        return 0

    @property
    def rows(self) -> int:
        """Sweep rows the op prints (0 for other commands)."""
        return int(parse_flags(self.argv)["--count"]) if self.argv[0] == "sweep" else 0


def parse_flags(argv) -> dict:
    """`--flag value` pairs of an argv after the subcommand; bare flags map to True."""
    out, i = {}, 1
    while i < len(argv):
        flag = argv[i]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[flag] = argv[i + 1]
            i += 2
        else:
            out[flag] = True
            i += 1
    return out


def _decimal(hundredths: int) -> str:
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def _radius(rng: random.Random) -> str:
    """A two-decimal radius drawn uniformly from the README range [1.01, 10]."""
    return _decimal(rng.randint(101, 1000))


def _window(rng: random.Random) -> tuple[str, str]:
    lo, hi = sorted(rng.sample(range(101, 1001), 2))
    return _decimal(lo), _decimal(hi)


def _family_r1(rng: random.Random) -> str:
    """r1 = 1 (conic) a quarter of the time, else a rational in (1, 10]."""
    if rng.random() < 0.25:
        return "1"
    q = rng.randint(1, 12)
    return str(Fraction(rng.randint(q + 1, 10 * q), q))


def _sweep_r1(rng, n: int, count: int, verify: bool) -> tuple:
    start, stop = _window(rng)
    argv = ("sweep", "--param", "r1", "--start", start, "--stop", stop, "--count", str(count), "--k", str(rng.randint(1, 5)), "--n", str(n))
    if verify:
        argv += ("--verify", "--seed", str(rng.randrange(10**6)))
    return argv


def _verify_page_pope(rng, r1: str) -> tuple:
    return (
        "verify", "--n", "1", "--k", str(rng.randint(1, 5)), "--r1", r1,
        "--points", str(VERIFY_POINTS), "--seed", str(rng.randrange(10**6)),
        "--format", rng.choice(("text", "json")),
    )


def _verify_rescaled(rng, rho1: str) -> tuple:
    return (
        "verify", "--chart", "rescaled", "--rho1", rho1,
        "--points", str(VERIFY_POINTS), "--seed", str(rng.randrange(10**6)),
        "--format", rng.choice(("text", "json")),
    )


def _make(kind: str, rng: random.Random) -> tuple:
    if kind in ("family", "family_json"):
        argv = ("family", "--n", str(rng.randint(1, 4)), "--k", str(rng.randint(1, 5)), "--r1", _family_r1(rng))
        return argv + (("--format", "json") if kind == "family_json" else ())
    if kind == "audit":
        return ("audit", "--format", rng.choice(("text", "json")))
    if kind == "limit":
        return ("limit", "--n", str(rng.randint(1, 3)), "--format", "json")
    if kind == "sweep_r1":
        return _sweep_r1(rng, rng.randint(1, 4), rng.randint(2, QUICK_SWEEP_MAX_ROWS), verify=False)
    if kind == "sweep_k":
        top = rng.randint(2, 5)
        return ("sweep", "--param", "k", "--start", "1", "--stop", str(top), "--count", str(top), "--n", str(rng.randint(1, 4)), "--r1", _family_r1(rng))
    if kind == "verify_conic":
        return _verify_page_pope(rng, "1")
    if kind == "verify_edge":
        return _verify_page_pope(rng, _radius(rng))
    if kind == "verify_rescaled_derived":
        return _verify_rescaled(rng, "derived")
    if kind == "verify_rescaled_paper":
        return _verify_rescaled(rng, "paper")
    if kind.startswith("sweep_n"):
        n = int(kind[len("sweep_n"):])
        return _sweep_r1(rng, n, SWEEP_ROWS_BY_N[n], verify=False)
    if kind == "sweep_verify":
        return _sweep_r1(rng, 1, SWEEP_VERIFY_ROWS, verify=True)
    raise ValueError(f"unknown op kind {kind!r}")


def generate(workload: str, seed: int, cycles: int) -> list[Op]:
    """The first `cycles` cycles of a workload's op stream; same seed, same list."""
    kinds = CYCLES[workload]
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for _ in range(cycles):
        order = list(kinds)
        rng.shuffle(order)
        ops.extend(Op(kind, _make(kind, rng)) for kind in order)
    return ops
