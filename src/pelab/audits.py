"""Formula audits: printed closed forms versus first-principles derivations.

Four constants attached to this family circulate in closed forms that do
not survive re-derivation.  For each, the battery below evaluates the
printed form and the derived form at explicit parameter tuples (chosen
away from the loci where the two coincide, such as c = 1 or alpha = 1)
and lets an exact oracle arbitrate:

  beta_sq       edge base coefficient; oracle: exact jet expansion at r1
  smooth_c      value of c giving cone angle 2 pi; oracle: alpha == 1
  conic_base    conic base coefficient; oracle: exact Taylor jet at r = 1
  rho1_sq       inner radius of the rescaled limit; oracle: the exact
                identity rho1_t^2 = c_t (t+2), t-independent for lam = 2

Audits inform, they never fail a build: every row reports both values
and the arbiter's verdict.
"""

from __future__ import annotations

from fractions import Fraction

from .family import (
    FamilyParams,
    cone_angle,
    conic_model,
    edge_model,
    expand_at_edge,
    smooth_c_printed,
    smooth_cone_member,
    solve_profile,
)
from .limits import rho1_limit
from .records import record


@record
class AuditRow:
    quantity: str
    tuple_desc: str
    printed: Fraction
    derived: Fraction
    oracle: Fraction
    oracle_desc: str

    @property
    def verdict(self) -> str:
        if self.derived != self.oracle:
            return "UNRESOLVED"
        return "both forms agree here" if self.printed == self.oracle else "derived confirmed; printed form fails"

    def as_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "tuple": self.tuple_desc,
            "printed": str(self.printed),
            "derived": str(self.derived),
            "oracle": str(self.oracle),
            "oracle_desc": self.oracle_desc,
            "verdict": self.verdict,
        }


def _beta_sq_rows() -> list[AuditRow]:
    rows = []
    tuples = [
        FamilyParams(n=1, lam=Fraction(2), c=Fraction(1, 3), Lambda=Fraction(-3), r1=Fraction(2)),
        FamilyParams(n=2, lam=Fraction(3), c=Fraction(1, 2), Lambda=Fraction(-5), r1=Fraction(3, 2)),
    ]
    for params in tuples:
        p = solve_profile(params)
        em = edge_model(params, p)
        _, _, beta_sq_jet = expand_at_edge(params, p)
        rows.append(
            AuditRow(
                quantity="beta_sq (edge base coefficient)",
                tuple_desc=f"n={params.n} lam={params.lam} c={params.c} Lambda={params.Lambda} r1={params.r1}",
                printed=em.beta_sq_paper,
                derived=em.beta_sq_derived,
                oracle=beta_sq_jet,
                oracle_desc="exact jet expansion at r = r1 + s^2",
            )
        )
    return rows


def _smooth_c_rows() -> list[AuditRow]:
    rows = []
    for n, t in [(1, Fraction(1)), (2, Fraction(1, 2))]:
        member = smooth_cone_member(n, t)
        printed = smooth_c_printed(n, 2, t)
        # the oracle value is the c that actually achieves alpha == 1;
        # report alpha at each candidate so the failure is visible
        alpha_printed = cone_angle(FamilyParams(n=n, lam=member.lam, c=printed, Lambda=member.Lambda, r1=member.r1))
        rows.append(
            AuditRow(
                quantity=f"smooth-cone c (alpha at printed candidate = {alpha_printed})",
                tuple_desc=f"n={n} lam={member.lam} t={t} Lambda={member.Lambda}",
                printed=printed,
                derived=member.c,
                oracle=member.c,
                oracle_desc="unique root of alpha(c) = 1 (exact round trip)",
            )
        )
    return rows


def _conic_base_rows() -> list[AuditRow]:
    rows = []
    tuples = [
        FamilyParams(n=1, lam=Fraction(2), c=Fraction(1, 3), Lambda=Fraction(-3), r1=Fraction(1)),
        FamilyParams(n=2, lam=Fraction(3, 2), c=Fraction(2, 5), Lambda=Fraction(-4), r1=Fraction(1)),
    ]
    for params in tuples:
        cm = conic_model(params, solve_profile(params))
        rows.append(
            AuditRow(
                quantity="conic base coefficient",
                tuple_desc=f"n={params.n} lam={params.lam} c={params.c} Lambda={params.Lambda}",
                printed=cm.base_coeff_paper,
                derived=Fraction(params.lam, 2 * params.n + 2),
                oracle=cm.base_coeff_derived,
                oracle_desc="exact Taylor jet of P at r = 1, rescaled to unit ds^2",
            )
        )
    return rows


def _rho1_rows() -> list[AuditRow]:
    rows = []
    for n in (1, 2, 3):
        lim = rho1_limit(n)
        t = Fraction(1, 100)
        exact_inner = smooth_cone_member(n, t).c * (t + 2)
        rows.append(
            AuditRow(
                quantity="rho1^2 (rescaled-limit inner radius squared)",
                tuple_desc=f"n={n}, lam=2 smooth-cone family",
                printed=lim.paper_sq,
                derived=lim.derived_sq,
                oracle=exact_inner,
                oracle_desc="exact rho1_t^2 = c_t (t+2) at t = 1/100 (t-independent)",
            )
        )
    return rows


def run_audits() -> list[AuditRow]:
    """The full battery, one list entry per (quantity, tuple) pair."""
    return _beta_sq_rows() + _smooth_c_rows() + _conic_base_rows() + _rho1_rows()


def render_table(rows: list[AuditRow]) -> str:
    lines = []
    header = f"{'quantity':<44} {'printed':>10} {'derived':>10} {'oracle':>10}  verdict"
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            f"{row.quantity[:44]:<44} {str(row.printed):>10} {str(row.derived):>10} {str(row.oracle):>10}  {row.verdict}"
        )
        lines.append(f"    at {row.tuple_desc}; oracle: {row.oracle_desc}")
    return "\n".join(lines)
