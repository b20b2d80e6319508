"""Exact construction and numerical verification of a closed-form family
of Poincare-Einstein metrics on complex line bundles, together with its
conic and Ricci-flat degeneration limits and an audit of the circulating
closed-form constants."""

__version__ = "0.1.0"


class VerificationFailure(Exception):
    """A checked point failed: a singular metric or a failed curvature check (the CLI's exit 1)."""
