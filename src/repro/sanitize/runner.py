"""Config-axis sanitizer battery: serial vs workers vs shards.

Drives one experiment through every execution strategy that promises
determinism and diffs the recorded ledgers' deterministic views against
the serial reference run's:

* ``workers=N`` — the process-pool trial engine, which also chunks the
  trials differently from the serial run, must derive exactly the serial
  run's child streams and reproduce its result bit for bit.
* ``shards=K`` — the full shard/merge/replay protocol of
  :func:`repro.shard.sharded_call`.  Every per-shard pass records into
  a ledger of its own (rounds re-run the schedule from scratch, so
  cross-round stream reuse is legitimate — but *within* one pass
  double-consumption is a hard error), and the final serial replay's
  view must equal the serial reference's: a pure cache-hit replay
  consumes exactly the streams a cold run would and logs the same
  probes, searches and counters.

Each leg, axis and shard pass records into an in-memory
:class:`~repro.observe.ledger.RunLedger`; the report counts its
``spawn``/``fallback_draw`` events (the stream events) and its
``cache_hit``/``cache_miss`` events.

The battery is what ``python -m repro.sanitize run`` executes and what
the CI sanitizer smoke gate runs at a fixed seed.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..experiments.registry import run_experiment
from ..observe.ledger import RunLedger
from ..shard import sharded_call
from ..utils.parallel import resolve_workers
from ..utils.serialization import json_default, to_builtin
from .diff import Divergence, cache_events, check_trace, diff_traces, \
    format_divergence, stream_events

__all__ = ["sanitize_experiment", "sanitize_run", "write_report"]


def _result_payload(result: Any) -> str:
    """Canonical JSON bytes of an experiment result, for bit comparison."""
    return json.dumps(to_builtin(result.to_dict()), sort_keys=True,
                      allow_nan=False, default=json_default)


def _axis_entry(axis: str, trace: List[Dict[str, Any]],
                divergences: List[Divergence],
                result_match: bool) -> Dict[str, Any]:
    return {
        "axis": axis,
        "stream_events": len(stream_events(trace)),
        "cache_events": len(cache_events(trace)),
        "result_match": bool(result_match),
        "divergences": [
            {**d.to_dict(), "report": format_divergence(d)}
            for d in divergences
        ],
    }


def sanitize_experiment(experiment_id: str, *, scale: float = 0.05,
                        seed: Optional[int] = 0, workers: int = 4,
                        shards: int = 3,
                        shard_dir: Optional[Union[str, Path]] = None
                        ) -> Dict[str, Any]:
    """Run the full axis battery for one experiment; returns the report.

    The report's ``status`` is ``"ok"`` only when every axis recorded
    zero divergences and reproduced the expected result bytes.
    ``shard_dir`` overrides the temporary directory the shard axis uses
    for its probe stores (useful when inspecting a failure).

    ``workers`` sizes the parallel candidate's pool; ``0``/``None`` means
    all *available* CPUs, and explicit values are clamped to the process's
    scheduler affinity (:func:`repro.utils.parallel.available_cpus`) — a
    cpuset-limited container never fans out past its actual CPU slice.
    The clamp cannot change any compared value: results are bit-identical
    across ``workers`` settings by the trial-engine contract.
    """
    workers = min(resolve_workers(workers), resolve_workers(0))
    axes: List[Dict[str, Any]] = []

    def run_traced(pool: int) -> Tuple[Any, List[Dict[str, Any]]]:
        with RunLedger() as ledger:
            result = run_experiment(experiment_id, scale=scale, rng=seed,
                                    workers=pool)
        return result, ledger.events

    reference, reference_trace = run_traced(1)
    reference_payload = _result_payload(reference)
    axes.append(_axis_entry(
        "serial(reference)", reference_trace,
        check_trace(reference_trace, axis="serial"), result_match=True,
    ))

    candidate, trace = run_traced(workers)
    divergences = check_trace(trace, axis=f"workers={workers}")
    drift = diff_traces(reference_trace, trace,
                        axis=f"workers={workers} vs serial")
    if drift is not None:
        divergences.append(drift)
    axes.append(_axis_entry(
        f"workers={workers}", trace, divergences,
        result_match=_result_payload(candidate) == reference_payload,
    ))

    passes: List[Tuple[str, List[Dict[str, Any]]]] = []

    def sharded(shard_cache: Any, shard: Any) -> Any:
        tag = "replay" if shard is None else f"pass{shard.index}"
        ledger = RunLedger()
        try:
            with ledger:
                return run_experiment(
                    experiment_id, scale=scale, rng=seed, workers=1,
                    cache=shard_cache, shard=shard,
                )
        finally:
            passes.append((tag, ledger.events))

    if shard_dir is not None:
        sharded_result = sharded_call(sharded, shards, shard_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-sanitize-") as tmp:
            sharded_result = sharded_call(sharded, shards, tmp)
    divergences = []
    for tag, pass_trace in passes:
        divergences += check_trace(pass_trace,
                                   axis=f"shards={shards}:{tag}")
    replay_tag, replay_trace = passes[-1]
    drift = diff_traces(reference_trace, replay_trace,
                        axis=f"shards={shards} {replay_tag} vs serial")
    if drift is not None:
        divergences.append(drift)
    axes.append(_axis_entry(
        f"shards={shards}", replay_trace, divergences,
        result_match=_result_payload(sharded_result) == reference_payload,
    ))

    clean = all(
        entry["result_match"] and not entry["divergences"]
        for entry in axes
    )
    return {
        "experiment": experiment_id,
        "scale": scale,
        "seed": seed,
        "axes": axes,
        "status": "ok" if clean else "divergent",
    }


def sanitize_run(experiment_ids: List[str], *, scale: float = 0.05,
                 seed: Optional[int] = 0, workers: int = 4,
                 shards: int = 3) -> Dict[str, Any]:
    """Axis battery over several experiments; aggregates their reports."""
    reports = [
        sanitize_experiment(eid, scale=scale, seed=seed, workers=workers,
                            shards=shards)
        for eid in experiment_ids
    ]
    clean = all(report["status"] == "ok" for report in reports)
    return {
        "experiments": reports,
        "status": "ok" if clean else "divergent",
    }


def write_report(report: Dict[str, Any],
                 path: Union[str, Path]) -> Path:
    """Write a divergence report as JSON; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(report, indent=2, sort_keys=True, allow_nan=False,
                   default=json_default)
    )
    return path
