"""Command-line entry point for the determinism sanitizer.

Usage::

    python -m repro.sanitize run -- E1 --scale 0.05 --seed 7
    python -m repro.sanitize run --workers 4 --shards 3 \\
        --report sanitize.json -- E1 --scale 0.02

Arguments after ``--`` are parsed with the :mod:`repro.experiments` CLI
grammar (experiment id or ``all``, ``--scale``, ``--seed``); arguments
before it configure the sanitizer's axis battery.  For every selected
experiment the battery runs a serial reference plus two candidate
configurations (``--workers N`` and a ``--shards K`` shard/merge/replay
protocol), diffing each recorded ledger's deterministic view against
the reference's and comparing result bytes —
see :mod:`repro.sanitize.runner`.  Exit status 0 means zero divergences
across all configurations; 1 means at least one, detailed on stderr and
in the ``--report`` JSON.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple


def _split_argv(argv: List[str]) -> Tuple[List[str], List[str]]:
    """Split ``argv`` at the first ``--`` separator."""
    if "--" in argv:
        at = argv.index("--")
        return argv[:at], argv[at + 1:]
    return argv, []


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitize",
        description="Runtime determinism sanitizer: re-execute an "
                    "experiment across workers/shard configurations "
                    "and diff the run ledgers' deterministic views.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser(
        "run",
        help="run the axis battery; experiment selection follows '--' "
             "using the repro.experiments CLI grammar",
    )
    run.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="worker-pool width of the parallel candidate (default 4)",
    )
    run.add_argument(
        "--shards", type=int, default=3, metavar="K",
        help="shard count of the shard/merge/replay candidate (default 3)",
    )
    run.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the structured divergence report as JSON to PATH",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    before, after = _split_argv(argv)
    options = _build_parser().parse_args(before)
    for name in ("workers", "shards"):
        if getattr(options, name) < 1:
            print(f"--{name} must be positive, got "
                  f"{getattr(options, name)}", file=sys.stderr)
            return 2
    from ..experiments.__main__ import _build_parser as _experiments_parser
    from ..experiments.registry import EXPERIMENTS, experiment_ids

    workload = _experiments_parser().parse_args(after)
    if workload.experiment is None:
        print("no experiment selected: pass e.g. `-- E1 --scale 0.05`",
              file=sys.stderr)
        return 2
    targets = (
        experiment_ids() if workload.experiment.lower() == "all"
        else [workload.experiment.upper()]
    )
    for eid in targets:
        if eid not in EXPERIMENTS:
            print(f"unknown experiment {eid!r}; known: "
                  f"{', '.join(experiment_ids())}", file=sys.stderr)
            return 2
    from .runner import sanitize_run, write_report

    report = sanitize_run(
        targets, scale=workload.scale, seed=workload.seed,
        workers=options.workers, shards=options.shards,
    )
    if options.report is not None:
        write_report(report, options.report)
    for experiment_report in report["experiments"]:
        print(f"sanitize {experiment_report['experiment']} "
              f"scale={experiment_report['scale']} "
              f"seed={experiment_report['seed']}")
        for axis in experiment_report["axes"]:
            if axis["divergences"] or not axis["result_match"]:
                status = "DIVERGENT"
            else:
                status = "clean"
            print(f"  {axis['axis']}: {status} "
                  f"({axis['stream_events']} stream events, "
                  f"{axis['cache_events']} cache events)")
            for divergence in axis["divergences"]:
                print(divergence["report"], file=sys.stderr)
            if not axis["result_match"]:
                print(f"  {axis['axis']}: result bytes differ from the "
                      f"reference run", file=sys.stderr)
    if report["status"] == "ok":
        print("no divergences: deterministic views and result bytes agree "
              "across all configurations")
        return 0
    print("determinism divergence detected — see report above",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
