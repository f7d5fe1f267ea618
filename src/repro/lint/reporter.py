"""Text and JSON reporters for lint results."""

from __future__ import annotations

import json
from collections import Counter
from typing import IO, List

from .rules import RULES, Violation

__all__ = ["report_text", "report_json"]


def report_text(violations: List[Violation], stream: IO[str], *,
                files_checked: int) -> None:
    """Human-readable report: one line per violation plus a summary."""
    for violation in sorted(violations,
                            key=lambda v: (v.path, v.line, v.col, v.code)):
        stream.write(violation.render() + "\n")
        if violation.source_line.strip():
            stream.write(f"    {violation.source_line.strip()}\n")
    stale = sorted(
        (v for v in violations if v.code == "RPL901"),
        key=lambda v: (v.path, v.line, v.col),
    )
    if stale:
        stream.write(
            "\nstale suppressions — delete these directives to fix:\n"
        )
        for violation in stale:
            stream.write(f"  {violation.path}:{violation.line}: "
                         f"{violation.source_line.strip()}\n")
    counts = Counter(violation.code for violation in violations)
    summary = ", ".join(f"{code}×{n}" for code, n in sorted(counts.items()))
    if violations:
        stream.write(
            f"\n{len(violations)} violation(s) in {files_checked} file(s)"
            f" [{summary}]\n"
        )
    else:
        stream.write(f"0 violations in {files_checked} file(s)\n")


def report_json(violations: List[Violation], stream: IO[str], *,
                files_checked: int) -> None:
    """Machine-readable report mirroring the text reporter's content."""

    def as_dict(violation: Violation) -> dict:
        return {
            "path": violation.path,
            "line": violation.line,
            "col": violation.col,
            "code": violation.code,
            "rule": RULES[violation.code].name if violation.code in RULES
            else violation.code,
            "message": violation.message,
            "source_line": violation.source_line,
        }

    payload = {
        "files_checked": files_checked,
        "violations": [
            as_dict(v)
            for v in sorted(violations,
                            key=lambda v: (v.path, v.line, v.col, v.code))
        ],
        "counts": dict(Counter(v.code for v in violations)),
    }
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")
