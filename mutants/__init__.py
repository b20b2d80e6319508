"""The mutation gate: one-line mutants that tier-1 must kill.

Every mutant edits `src/pelab`, except one in the float references of
`tests/oracles.py` that the tests compare the engine against.

Each entry is (file, old, new, why).  `old` occurs exactly once in `file`
(tier-1's `tests/test_mutants.py` checks this, so the list cannot rot);
`mutants/run.py` replaces it by `new` in a copy of the tree, runs tier-1
there and records the first failing test in `mutants/MUTANTS.json`.
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
        "a_v = -(4.0 / lam)",
        "a_v = (4.0 / lam)",
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
        "-inv2[..., None, None] * self.hess",
        "-inv2[..., None, None] * (1 + 1e-9) * self.hess",
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
        "src/pelab/geom.py",
        "if lam == 0.0:",
        "if False:",
        "chart builders: the guard on a lambda whose float underflows to 0.0 removed",
    ),
    (
        "src/pelab/cli.py",
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
        "src/pelab/cli.py",
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
        "np.repeat(np.array(rows), counts, axis=0)",
        "np.repeat(np.array(rows[1:] + rows[:1]), counts, axis=0)",
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
        "if len(points) > BLOCK_POINTS:",
        "if False:",
        "sweep --verify: the single-row branch removed, so a row longer than a block goes through page_pope_block",
    ),
    (
        "src/pelab/geom.py",
        "+ len(points) > BLOCK_POINTS",
        "> BLOCK_POINTS",
        "sweep --verify: a block takes one row past BLOCK_POINTS",
    ),
    (
        "src/pelab/geom.py",
        "_block_maxima(pending)  # raises",
        "None  # raises",
        "sweep --verify: the pending rows not evaluated before a later row's error, so that error hides an earlier row's failure",
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
        "except (SingularMetric, CurvatureCheckError, BeyondFloatRange):",
        "except (SingularMetric, CurvatureCheckError):",
        "sweep --verify: a block's float fault not re-run row by row, so it hides an earlier row's singular metric",
    ),
]
