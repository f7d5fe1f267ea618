"""Command-line entry point for ledger inspection.

Usage::

    python -m repro.observe summarize RUN.jsonl
    python -m repro.observe summarize shard-0.jsonl shard-1.jsonl ...

Multiple files are read as segments of one run (e.g. per-shard ledgers)
and summarized grouped per shard/pid stream.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .summarize import summarize_paths


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observe",
        description="Inspect run ledgers written with --ledger PATH.",
    )
    commands = parser.add_subparsers(dest="command")
    summarize = commands.add_parser(
        "summarize",
        help="render per-probe tables and trial-batch totals from a "
             "JSON-lines ledger",
    )
    summarize.add_argument("ledger", metavar="LEDGER", nargs="+",
                           help="JSON-lines ledger file(s); several files "
                                "are read as segments of one run")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    # read_event_segments tolerates absent segments (a shard that never
    # wrote), but every file named on the command line must exist — a
    # typo'd path silently summarizing as "0 events" helps nobody.
    for path in args.ledger:
        if not Path(path).exists():
            print(f"cannot read ledger: {path}: no such file",
                  file=sys.stderr)
            return 2
    try:
        print(summarize_paths(args.ledger))
    except OSError as exc:
        print(f"cannot read ledger: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
