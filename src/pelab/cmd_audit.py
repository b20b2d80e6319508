"""pelab audit: the printed constants against their derivations."""

from __future__ import annotations

from . import audits
from .cli import _json_text, _write_output


def cmd_audit(args) -> int:
    rows = audits.run_audits()
    if args.format == "json":
        _write_output(_json_text([r.as_dict() for r in rows]), args.output)
    else:
        _write_output(audits.render_table(rows) + "\n", args.output)
    return 0
