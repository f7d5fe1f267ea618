"""Command-line entry point for the experiment suite.

Usage::

    python -m repro.experiments            # list experiments
    python -m repro.experiments E8         # run one at full scale
    python -m repro.experiments all --scale 0.25 --seed 7
    python -m repro.experiments E1 --scale 0.05 --workers 2 \\
        --ledger run.jsonl --progress
    python -m repro.experiments all --cache-dir .probe-cache --resume

``--cache-dir`` enables the content-addressed probe cache and per-
experiment checkpoints (see :mod:`repro.cache` and docs/caching.md);
``--resume`` additionally skips experiments with a checkpoint for the
requested seed and scale under the current trial engine, reusing the
checkpointed JSON byte-for-byte.
Results are bit-identical with the cache on, off, cold, or warm.

``--shards N`` splits every Monte-Carlo trial budget across N shards and
reproduces the serial bytes exactly (see :mod:`repro.shard` and
docs/caching.md "Sharded runs & merge").  Alone it runs the whole
shard/merge/replay protocol in-process; with ``--shard-index K`` it runs
only shard K's pass — exit code 3 means probe slices were stored and a
``python -m repro.cache merge`` plus another pass are still needed::

    python -m repro.experiments E1 --scale 0.05 --cache-dir DIR --shards 3
    python -m repro.experiments E1 --scale 0.05 --cache-dir DIR \\
        --shards 3 --shard-index 1
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import Optional

from ..core.tester import ENGINE_VERSION
from ..observe.counters import add_count
from ..observe.ledger import RunLedger, emit_event
from ..utils.appendfile import replace_file
from .registry import EXPERIMENTS, experiment_ids, run_experiment


def _positive_scale(text: str) -> float:
    """Argparse type for ``--scale``: a positive finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"scale must be a number, got {text!r}")
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            f"scale must be a positive finite number, got {text}"
        )
    return value


def _worker_count(text: str) -> int:
    """Argparse type for ``--workers``: a nonnegative int (0 = all CPUs)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be an integer, got {text!r}"
        )
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"workers must be nonnegative (0 = all CPUs), got {value}"
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper-reproduction experiments (E1-E14).",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment id (e.g. E8), 'all', or omit to list",
    )
    parser.add_argument(
        "--scale", type=_positive_scale, default=1.0,
        help="workload scale; 1.0 = EXPERIMENTS.md fidelity (default)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="random seed (default 0)"
    )
    parser.add_argument(
        "--workers", type=_worker_count, default=1, metavar="N",
        help="worker processes for Monte-Carlo trial loops; 0 = all CPUs "
             "(results are identical to --workers 1 at the same seed)",
    )
    parser.add_argument(
        "--json-dir", default=None, metavar="DIR",
        help="also write each result as DIR/<id>.json",
    )
    parser.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="append structured JSON-lines run events to PATH "
             "(inspect with: python -m repro.observe summarize PATH)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print live probe/experiment progress to stderr",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache Monte-Carlo probes in DIR/probes.jsonl and checkpoint "
             "completed experiments under DIR/checkpoints/ "
             "(results are identical with or without the cache)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip experiments already checkpointed in --cache-dir for "
             "this seed and scale, reusing their JSON byte-for-byte",
    )
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="split the trial budget across N shards (requires "
             "--cache-dir; results are byte-identical to a serial run at "
             "the same seed).  Without --shard-index the full "
             "shard/merge/replay protocol runs in this process",
    )
    parser.add_argument(
        "--shard-index", type=int, default=None, metavar="K",
        help="run only shard K of --shards N (one pass; partial probe "
             "slices land in DIR/shard-0K).  Exits 3 while probes await "
             "'python -m repro.cache merge DIR/merged DIR/shard-*'",
    )
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.resume and args.cache_dir is None:
        parser.error("--resume requires --cache-dir")
    if args.shard_index is not None and args.shards is None:
        parser.error("--shard-index requires --shards")
    if args.shards is not None:
        if args.shards < 1:
            parser.error(f"--shards must be positive, got {args.shards}")
        if args.cache_dir is None:
            parser.error("--shards requires --cache-dir (shard partials "
                         "are exchanged through the probe cache)")
        if args.shard_index is not None \
                and not 0 <= args.shard_index < args.shards:
            parser.error(
                f"--shard-index must lie in [0, {args.shards}), "
                f"got {args.shard_index}"
            )
    if args.experiment is None:
        for eid in experiment_ids():
            cls = EXPERIMENTS[eid]
            print(f"{eid:>4}  {cls.title}")
            print(f"      claim: {cls.paper_claim}")
        return 0
    targets = (
        experiment_ids() if args.experiment.lower() == "all"
        else [args.experiment.upper()]
    )
    for eid in targets:
        if eid not in EXPERIMENTS:
            print(f"unknown experiment {eid!r}; known: "
                  f"{', '.join(experiment_ids())}", file=sys.stderr)
            return 2
    cache = None
    checkpoints = None
    cache_dir = None
    # A checkpoint replays only under the configuration that wrote it.
    checkpoint_config = dict(seed=args.seed, scale=args.scale,
                             engine=ENGINE_VERSION)
    if args.cache_dir is not None:
        from ..cache import ExperimentCheckpoint, ProbeCache

        cache_dir = Path(args.cache_dir)
        if args.shards is None:
            cache = ProbeCache(cache_dir)
        checkpoints = ExperimentCheckpoint(cache_dir / "checkpoints")
    ledger: Optional[RunLedger] = None
    if args.ledger is not None or args.progress:
        # Per-shard invocations stamp their shard label on every event so
        # segments appended to one file (or read together) regroup
        # cleanly in `python -m repro.observe summarize`.
        shard_label = (
            f"{args.shard_index}/{args.shards}"
            if args.shard_index is not None else None
        )
        ledger = RunLedger(args.ledger, progress=args.progress,
                           shard=shard_label)
    with ExitStack() as stack:
        if ledger is not None:
            stack.enter_context(ledger)
            emit_event(
                "cli_start", experiments=targets, scale=args.scale,
                seed=args.seed, workers=args.workers,
                cache_dir=args.cache_dir, resume=args.resume,
            )
        pending_total = 0
        for eid in targets:
            resumed = False
            if args.resume and checkpoints is not None:
                result = checkpoints.load(eid, **checkpoint_config)
                resumed = result is not None
            if not resumed:
                if args.shards is not None:
                    from ..shard import shard_pass, sharded_call

                    def sharded(shard_cache, shard, eid=eid):
                        return run_experiment(
                            eid, scale=args.scale, rng=args.seed,
                            workers=args.workers, cache=shard_cache,
                            shard=shard,
                        )

                    if args.shard_index is not None:
                        result, pending = shard_pass(
                            sharded, (args.shard_index, args.shards),
                            cache_dir,
                        )
                        if pending:
                            # This shard's probe slices are stored; the
                            # result exists only after a merge resolves
                            # them.  Leave the checkpoint unwritten.
                            pending_total += pending
                            print(
                                f"[shard {args.shard_index}/{args.shards}] "
                                f"{eid}: {pending} probe slice(s) stored, "
                                f"awaiting cache merge",
                                file=sys.stderr,
                            )
                            continue
                    else:
                        result = sharded_call(sharded, args.shards,
                                              cache_dir)
                else:
                    result = run_experiment(
                        eid, scale=args.scale, rng=args.seed,
                        workers=args.workers, cache=cache,
                    )
                if checkpoints is not None:
                    checkpoints.save(result, **checkpoint_config)
            else:
                add_count("checkpoint_hit")
                emit_event(
                    "experiment_resumed", experiment=eid,
                    seed=args.seed, scale=args.scale,
                )
            print(result.render())
            print()
            if args.json_dir is not None:
                directory = Path(args.json_dir)
                directory.mkdir(parents=True, exist_ok=True)
                if resumed and checkpoints is not None:
                    # Copy the checkpoint's exact bytes so resumed runs
                    # produce artifacts bit-identical to uninterrupted
                    # ones, replacing the target whole as save_json does.
                    replace_file(
                        directory / f"{eid}.json",
                        checkpoints.raw_bytes(eid, **checkpoint_config),
                    )
                else:
                    result.save_json(directory / f"{eid}.json")
        if cache is not None:
            cache.close()
    # 3 = "shard pass left probes pending a merge": distinct from error
    # codes so shard launchers can loop run→merge→rerun until 0.
    return 3 if pending_total else 0


if __name__ == "__main__":
    raise SystemExit(main())
