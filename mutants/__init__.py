"""The mutation gate: one-line mutants of `src/pelab` that tier-1 must kill.

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
        "src/pelab/geom.py",
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
]
