"""pelab audit: the printed constants against their derivations."""

from __future__ import annotations

from . import audits
from .cli import _json_text


def cmd_audit(args):
    rows = audits.run_audits()
    if args.format == "json":
        return 0, _json_text([r.as_dict() for r in rows])
    return 0, audits.render_table(rows) + "\n"
