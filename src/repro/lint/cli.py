"""Command-line interface: ``python -m repro.lint [paths...]``.

Exit codes: ``0`` — no violations; ``1`` — violations found (or a file
failed to parse); ``2`` — usage error (bad flags, unknown rule code,
missing path).
"""

from __future__ import annotations

import argparse
import sys
from typing import IO, List, Optional

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

    try:
        violations, files_checked = lint_paths(
            options.paths, excludes=excludes, select=select, ignore=ignore,
        )
    except FileNotFoundError as exc:
        err.write(f"error: {exc}\n")
        return USAGE_ERROR

    reporter = report_json if options.format == "json" else report_text
    reporter(violations, out, files_checked=files_checked)
    return 1 if violations else 0
