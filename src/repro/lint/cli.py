"""Command-line interface: ``python -m repro.lint [paths...]``.

Exit codes: ``0`` — no new violations; ``1`` — new violations found (or a
file failed to parse); ``2`` — usage error (bad flags, unknown rule code,
missing path, unreadable baseline).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import IO, List, Optional

from .baseline import (
    DEFAULT_BASELINE_NAME,
    load_baseline,
    partition_by_baseline,
    write_baseline,
)
from .engine import DEFAULT_EXCLUDES, lint_paths
from .reporter import report_json, report_text
from .rules import RULES, all_codes, normalize_codes

__all__ = ["build_parser", "main"]

USAGE_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based determinism and sparse-pitfall linter for this "
            "repository (rules RPL001-RPL008, RPL101-RPL105, RPL901)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*",
        default=["src", "tests", "benchmarks", "perfbench", "examples"],
        help="files or directories to lint (default: src tests benchmarks "
             "perfbench examples)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE_NAME, metavar="FILE",
        help=(
            f"baseline file of grandfathered violations "
            f"(default: {DEFAULT_BASELINE_NAME}; a missing file is an "
            f"empty baseline)"
        ),
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline file and report every violation",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="grandfather all current violations into the baseline and exit 0",
    )
    parser.add_argument(
        "--select", metavar="CODES",
        help="comma-separated rule codes to enable exclusively",
    )
    parser.add_argument(
        "--ignore", metavar="CODES",
        help="comma-separated rule codes to disable",
    )
    parser.add_argument(
        "--exclude", action="append", default=None, metavar="FRAGMENT",
        help=(
            "path fragment to skip during discovery (repeatable; defaults: "
            + ", ".join(DEFAULT_EXCLUDES) + ")"
        ),
    )
    parser.add_argument(
        "--no-default-excludes", action="store_true",
        help="do not apply the default exclusion list",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help=(
            "lint files on a pool of N worker processes; output order and "
            "bytes are identical to a serial run (default: 1)"
        ),
    )
    return parser


def _list_rules(stream: IO[str]) -> None:
    for code in all_codes():
        rule = RULES[code]
        stream.write(f"{code} [{rule.name}] — {rule.summary}\n")
        stream.write(f"    scope: {rule.scope}\n")


def main(argv: Optional[List[str]] = None,
         stdout: Optional[IO[str]] = None,
         stderr: Optional[IO[str]] = None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        options = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; preserve both.
        return int(exc.code or 0)

    if options.list_rules:
        _list_rules(out)
        return 0

    try:
        select = normalize_codes(options.select, option="--select")
        ignore = normalize_codes(options.ignore, option="--ignore")
    except ValueError as exc:
        err.write(f"error: {exc}\n")
        return USAGE_ERROR

    excludes: List[str] = [] if options.no_default_excludes \
        else list(DEFAULT_EXCLUDES)
    excludes.extend(options.exclude or [])

    if options.jobs < 1:
        err.write(f"error: --jobs must be positive, got {options.jobs}\n")
        return USAGE_ERROR

    try:
        violations, files_checked = lint_paths(
            options.paths, excludes=excludes, select=select, ignore=ignore,
            jobs=options.jobs,
        )
    except FileNotFoundError as exc:
        err.write(f"error: {exc}\n")
        return USAGE_ERROR

    baseline_path = Path(options.baseline)
    if options.write_baseline:
        count = write_baseline(baseline_path, violations)
        out.write(
            f"wrote {count} grandfathered violation(s) to {baseline_path}\n"
        )
        return 0

    if options.no_baseline:
        new, grandfathered = list(violations), []
    else:
        try:
            entries = load_baseline(baseline_path)
        except ValueError as exc:
            err.write(f"error: {exc}\n")
            return USAGE_ERROR
        new, grandfathered = partition_by_baseline(violations, entries)

    reporter = report_json if options.format == "json" else report_text
    reporter(new, grandfathered, out, files_checked=files_checked)
    return 1 if new else 0
