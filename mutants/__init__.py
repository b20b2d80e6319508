"""The mutation gate: one-line mutants that tier-1 must kill.

Every mutant edits `src/pelab`, except one in the float references of
`tests/oracles.py` that the tests compare the engine against.

Each entry is (file, old, new, why).  `old` occurs exactly once in `file`
(tier-1's `tests/test_mutants.py` checks this, so the list cannot rot);
`mutants/run.py` replaces it by `new` in a copy of the tree, runs tier-1
there and records the first failing test in `mutants/MUTANTS.json`.
Each entry's `without_goldens` field names the first failing test other
than the sha256 goldens of `test_exact_output_golden`.
A change to `src/` re-runs the list; the survivor count may only fall.
"""

MUTANTS = [
    (
        "src/pelab/family.py",
        "lam_over_c * _r2m1(n)",
        "lam_over_c * (1 + Fraction(1, 10**9)) * _r2m1(n)",
        "profile ODE right-hand side: lam/c off by one part in 1e9",
    ),
    (
        "src/pelab/geom.py",
        "a_v = -(4 / lam)",
        "a_v = (4 / lam)",
        "connection form: the sign of a_v flipped",
    ),
    (
        "src/pelab/geom.py",
        "cond <= 1e12",
        "cond <= 1e16",
        "singular-metric guard loosened by four decades",
    ),
    (
        "src/pelab/jets.py",
        "-inv2 * self.hess",
        "-inv2 * (1 + 1e-9) * self.hess",
        "reciprocal jet: hessian term off by one part in 1e9",
    ),
    (
        "src/pelab/limits.py",
        "abs(x * x - ysq_m)",
        "abs(x * x + ysq_m)",
        "limit comparison: the conjugate's x^2 - y^2 m turned into x^2 + y^2 m",
    ),
    (
        "src/pelab/limits.py",
        "if (x < 0) != (y < 0):",
        "if False:",
        "limit comparison: the sign test forced to take the plain sum",
    ),
    (
        "src/pelab/family.py",
        "if solve_profile(new) != (Fraction(1) / a) * solve_profile(params):",
        "if False:",
        "scaling_action: the 1/a scaling check removed",
    ),
    (
        "src/pelab/geom.py",
        "_amax(ricci - lam * G, 2) / _amax(G, 2)",
        "0.999 * _amax(ricci - lam * G, 2) / _amax(G, 2)",
        "Einstein residual scaled by 0.999",
    ),
    (
        "src/pelab/geom.py",
        "(bianchi > 1e-8)",
        "(bianchi > 1e-2)",
        "first-Bianchi guard loosened from 1e-8 to 1e-2",
    ),
    (
        "tests/oracles.py",
        "return abs(curl + 2.0 * h.value)",
        "return 0.5 * abs(curl + 2.0 * h.value)",
        "connection curvature residual halved",
    ),
    (
        "src/pelab/laurent.py",
        "q_power *= q",
        "q_power *= 1",
        "exact evaluation: the q-power step of the Horner pass skipped",
    ),
    (
        "src/pelab/laurent.py",
        "(total, d * p**-lo)",
        "(total, d * abs(p)**-lo)",
        "exact evaluation: the sign of x dropped in the lo < 0 branch",
    ),
    (
        "src/pelab/laurent.py",
        "total += weight * c.numerator",
        "total += c.numerator",
        "Taylor pass: the binomial weight C(e, j) of each term dropped",
    ),
    (
        "src/pelab/laurent.py",
        "lo, hi = lo - j, hi - j",
        "lo, hi = lo, hi - j",
        "Taylor pass: the low exponent not shifted by j, so P^(j)(x)/j! comes out multiplied by x^j",
    ),
    (
        "src/pelab/laurent.py",
        "return self.coefficient(j)",
        "return self.coefficient(0)",
        "Taylor pass: the expansion at 0 read as the constant term instead of the r^j coefficient",
    ),
    (
        "src/pelab/laurent.py",
        "else (-1) ** j * math.comb(j - e - 1, j)",
        "else math.comb(j - e - 1, j)",
        "Taylor pass: the sign (-1)^j of a negative exponent's weight dropped",
    ),
    (
        "src/pelab/laurent.py",
        "math.comb(e, j) if e >= 0",
        "math.comb(e, max(j - 1, 0)) if e >= 0",
        "Taylor pass: the binomial's order j lowered to j - 1 for non-negative exponents (P itself, j = 0, unchanged)",
    ),
    (
        "src/pelab/laurent.py",
        "math.comb(j - e - 1, j)",
        "math.comb(j - e, j)",
        "Taylor pass: a negative exponent weighted by C(j - e, j) instead of C(j - e - 1, j)",
    ),
    (
        "src/pelab/geom.py",
        "if lam == 0.0:",
        "if False:",
        "chart builders: the guard on a lambda whose float underflows to 0.0 removed",
    ),
    (
        "src/pelab/cmd_verify.py",
        "np.argmax(columns[:, 0])",
        "np.argmax(columns[:, 1])",
        "verify: the worst point picked by scalar curvature instead of by residual",
    ),
    (
        "src/pelab/cli.py",
        '"--tol", type=_real, default=1e-6',
        '"--tol", type=_real, default=2e-6',
        "verify: the default --tol doubled",
    ),
    (
        "src/pelab/cmd_verify.py",
        "1.1 * rho1f",
        "1.1 / rho1f",
        "verify --chart rescaled: the lower end of the sampling window divided by rho1",
    ),
    (
        "src/pelab/geom.py",
        "[coeffs.get(e, 0.0) for e in exponents]",
        "[terms[0].get(e, 0.0) for e in exponents]",
        "page_pope_block: every row takes row 0's coefficients of P",
    ),
    (
        "src/pelab/geom.py",
        "np.repeat(np.array(rows), count, axis=0)",
        "np.repeat(np.array(rows[1:] + rows[:1]), count, axis=0)",
        "page_pope_block: the per-point data shifted by one row (each run of points takes the next row's data)",
    ),
    (
        "src/pelab/geom.py",
        "point_scalars(*row)",
        "None",
        "sweep --verify: a failing block not evaluated again row by row, so a later row's singular metric hides an earlier row's failed check",
    ),
    (
        "src/pelab/geom.py",
        "size = max(1, BLOCK_POINTS // count)",
        "size = max(1, BLOCK_POINTS // count) + 1",
        "sweep --verify: a group takes one row more than 64 // --points, so a group of several rows passes BLOCK_POINTS",
    ),
    (
        "src/pelab/geom.py",
        "if len(group) < 2:",
        "if not group:",
        "sweep --verify: a group of one row sent through page_pope_block, whose per-point data cannot span a row longer than a block",
    ),
    (
        "src/pelab/geom.py",
        "for row in group:",
        "for row in group[1:]:",
        "sweep --verify: a failing group re-run without its first row, so a later row's failure or error hides the first row's failure",
    ),
    (
        "src/pelab/geom.py",
        "alone = len(group) == 1",
        "alone = False",
        "sweep --verify: a failing last group of one row, which has run on its own chart, evaluated a second time",
    ),
    (
        "src/pelab/geom.py",
        "b_u * a_u",
        "b_u * a_v",
        "fibration chart: the shared product b a_u taken with a_v in the (u, u) entry",
    ),
    (
        "src/pelab/geom.py",
        "(x > inner)",
        "~(x <= inner)",
        "domain check: a NaN radial coordinate counted as inside the chart",
    ),
    (
        "src/pelab/geom.py",
        'np.errstate(over="raise", divide="raise", invalid="raise")',
        'np.errstate(all="ignore")',
        "float classification: the engine's overflow, division by zero and invalid values ignored, so a non-finite float reaches the guards",
    ),
    (
        "src/pelab/geom.py",
        "except Exception:",
        "except VerificationFailure:",
        "sweep --verify: a block's float fault and a pending group's stream error not re-run row by row, so they hide an earlier row's failure",
    ),
    (
        "src/pelab/geom.py",
        'np.einsum("jkil...->ijkl...", W)',
        'np.einsum("jkli...->ijkl...", W)',
        "lowered Riemann: W's last pair read in the other order, so R + R_ijlk is rounding, not exactly 0.0",
    ),
    (
        "src/pelab/pcg64.py",
        "rot = hi >> 58",
        "rot = hi >> 57",
        "seeded points: the XSL-RR rotation read from the top 7 bits of the state instead of 6",
    ),
    (
        "src/pelab/pcg64.py",
        "(rotated >> 11) * 2.0**-53",
        "(rotated >> 12) * 2.0**-53",
        "seeded points: the double built from the top 52 bits of the output instead of 53",
    ),
    (
        "src/pelab/pcg64.py",
        "if src != dst:",
        "if False:",
        "seeded points: SeedSequence's cross-mix of the pool words skipped",
    ),
    (
        "src/pelab/geom.py",
        "a_u = (4 / lam) * v / one_plus",
        "a_u = 1.001 * (4 / lam) * v / one_plus",
        "connection form: a_u scaled by 1.001, so dA != -2 omega and the curvature invariants vary over each level set of r",
    ),
    (
        "src/pelab/geom.py",
        "reads=(0, 2, 3)",
        "reads=(0, 2)",
        "fibration chart: the jets seeded on (x, u) only, so the metric's derivatives along v are dropped",
    ),
    (
        "src/pelab/geom.py",
        "math.log2(1e11)",
        "math.log2(1e14)",
        "conditioning guard: the cheap bound clears up to 1e14, so a metric with cond in (1e12, 6e12) skips the SVD",
    ),
    (
        "src/pelab/geom.py",
        "suspect[bad[0]]",
        "bad[0]",
        "conditioning guard: the failing point named by its place among the uncleared points, not in the batch",
    ),
    (
        "src/pelab/jets.py",
        "cross + cross.swapaxes(0, 1)",
        "cross + cross",
        "jet product: the cross term of the hessian added without its transpose over axes 0 and 1 (the points-last layout), so the hessian is not symmetric",
    ),
    (
        "src/pelab/geom.py",
        "class SingularMetric(VerificationFailure):",
        "class SingularMetric(ValueError):",
        "verification failures: a singular metric no longer a VerificationFailure, so the CLI reports it as a usage error (exit 2), not exit 1",
    ),
    (
        "src/pelab/geom.py",
        "np.array(chart.reads, dtype=np.intp)",
        "np.array(chart.reads)",
        "jet derivatives: reads built without an integer dtype, so a chart that reads no coordinate indexes dG with a float array",
    ),
    (
        "src/pelab/geom.py",
        "uval * rho_sq, rho_sq",
        "uval * rho_sq, 1.001 * rho_sq",
        "rescaled chart: the base coefficient rho^2 scaled by 1.001, so the limit is no longer Kaehler (J^2 != -1)",
    ),
    (
        "src/pelab/geom.py",
        "return _sum(products[:, :, :, l] for l in range(len(Ginv))) / 2, T",
        "return 0.5 * _sum(products[:, :, :, l] for l in range(len(Ginv))), T",
        "Christoffel symbols halved by * 0.5: the same float bits, but a Fraction times 0.5 is a float, so the exact route turns inexact",
    ),
    (
        "src/pelab/geom.py",
        "if rows[i][k] != 0), None)",
        "if True), None)",
        "exact inverse: the pivot taken from row k whatever its entry, so an exactly singular metric divides by zero instead of raising SingularMetric",
    ),
    (
        "src/pelab/geom.py",
        "[x - row[k] * y for x, y in zip(row, top)]",
        "[x + row[k] * y for x, y in zip(row, top)]",
        "exact inverse: the elimination adds the pivot row instead of subtracting it, so the exact metric inverse is wrong",
    ),
    (
        "src/pelab/cmd_family.py",
        "from . import family as fam",
        "from . import cmd_sweep, family as fam",
        "command modules: family imports the sweep module at its top, so a family op compiles another command's code",
    ),
    (
        "src/pelab/family.py",
        "1 + _coerce(t)",
        "1 + 2 * _coerce(t)",
        "smooth-cone member: r1 = 1 + 2t instead of 1 + t, so limit and audit build another member than g_t",
    ),
    (
        "src/pelab/family.py",
        "if lam <= 0:",
        "if lam < 0:",
        "base check of FamilyParams and RescaledProfile: lam = 0 accepted by both records",
    ),
    (
        "src/pelab/cli.py",
        "except OSError as exc:",
        "except (OSError if path else ()) as exc:",
        "write path: a failed stdout write left unmapped, so a closed pipe ends in a traceback and exit 1, not exit 2",
    ),
]
