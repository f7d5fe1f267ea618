"""Distributed trial fan-out with deterministic shard merge.

Splits a Monte-Carlo workload across ``N`` shards so that each shard can
run in its own process (or machine), and the merged outcome is **byte
identical** to a serial run at the same seed.  The pieces:

* :func:`repro.utils.parallel.shard_spans` assigns shard ``k`` a
  contiguous slice of the trial budget.  Trial ``t``'s streams are
  counter-based lanes of the probe key and ``t``
  (:func:`repro.utils.rng.trial_keys`), so a shard running its slice of
  indices consumes the very streams the serial loop would, and shard
  boundaries never change which stream a trial consumes.
* ``failure_estimate`` / ``distortion_samples`` / ``minimal_m`` accept
  ``shard=`` (see :mod:`repro.core.tester`): resolved probes replay from
  the merged cache; the first unresolved probe computes only this shard's
  slice, stores it as a shard-partial :class:`~repro.cache.ProbeCache`
  record, and signals :class:`~repro.core.tester.ShardPending`.
* ``python -m repro.cache merge`` (:func:`repro.cache.merge_stores`)
  folds the shard stores: partial groups whose spans tile the trial range
  become the full records a serial run looks up.

:func:`sharded_call` drives the whole protocol in-process — rounds of
per-shard passes and merges until nothing is pending, then one serial
replay against the merged store whose returned values, RNG consumption,
and counter deltas are bit-identical to a never-sharded run.  Adaptive
searches (``minimal_m``) need one round per probe depth: the probe
schedule is a deterministic function of full probe outcomes, so each
round every shard replays the already-merged prefix and contributes its
slice of the next probe.

Crash recovery falls out of content addressing: a killed shard leaves at
worst a torn trailing JSONL line (tolerated on load); re-running just
that shard against the same directory skips every slice already on disk
and computes only what is missing.

Layout under ``directory``::

    shard-00/probes.jsonl   per-shard write stores (partial records)
    shard-01/probes.jsonl
    ...
    merged/probes.jsonl     folded store; the final replay reads this

Each shard pass reads through one :class:`~repro.cache.ProbeCache` that
indexes its own store and, read-only, the merged store, so re-runs and
later rounds never recompute a stored slice, and every lookup is a
``ProbeCache.get`` or ``peek``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Optional, Tuple, Union

from .cache import ProbeCache, merge_stores
from .core.tester import ShardPending
from .observe.counters import counters
from .observe.ledger import emit_event
from .utils.parallel import ShardSpec, normalize_shard
from .utils.validation import check_positive_int

__all__ = [
    "MERGED_DIRNAME",
    "merged_dir",
    "open_shard_cache",
    "shard_pass",
    "shard_store_dir",
    "sharded_call",
]

#: Subdirectory of a shard run's working directory holding the folded store.
MERGED_DIRNAME = "merged"

#: A sharded workload: receives a probe cache and this worker's
#: :class:`ShardSpec` (``None`` for the final serial replay) and returns
#: the run's result.  May raise :class:`ShardPending` when a probe is not
#: yet resolvable (``minimal_m`` absorbs it internally instead).
ShardedFn = Callable[[Any, Optional[ShardSpec]], Any]


def merged_dir(directory: Union[str, Path]) -> Path:
    """The folded-store directory of a shard run."""
    return Path(directory) / MERGED_DIRNAME


def shard_store_dir(directory: Union[str, Path], index: int) -> Path:
    """Shard ``index``'s private cache directory."""
    if index < 0:
        raise ValueError(f"shard index must be nonnegative, got {index}")
    return Path(directory) / f"shard-{index:02d}"


def open_shard_cache(directory: Union[str, Path], index: int) -> ProbeCache:
    """The cache one shard pass works through.

    Writes land in the shard's own store; lookups also see the merged
    store, so probes folded by earlier rounds resolve without recomputing.
    """
    return ProbeCache(shard_store_dir(directory, index),
                      read_only=[merged_dir(directory)])


def shard_pass(fn: ShardedFn, shard: Any,
               directory: Union[str, Path]) -> Tuple[Any, int]:
    """Run one shard's pass of ``fn``; returns ``(result, pending)``.

    ``pending`` counts the probes this pass could not resolve (each has
    its slice stored for the next merge); ``result`` is ``None`` whenever
    ``pending > 0`` — a pending pass either raised
    :class:`ShardPending` outright or returned an incomplete result
    (``minimal_m`` with ``pending=True``), neither of which is usable.
    This is the unit a distributed launcher runs per worker; merging is a
    separate step (``python -m repro.cache merge``).
    """
    spec = normalize_shard(shard)
    index = 0 if spec is None else spec.index
    count = 1 if spec is None else spec.count
    cache = open_shard_cache(directory, index)
    before = counters().get("shard_pending")
    try:
        result = fn(cache, ShardSpec(index, count))
    except ShardPending:
        result = None
    finally:
        cache.close()
    pending = counters().get("shard_pending") - before
    if pending:
        result = None
    return result, pending


def sharded_call(fn: ShardedFn, shards: int, directory: Union[str, Path],
                 max_rounds: int = 256) -> Any:
    """Run ``fn`` as ``shards`` merge-coordinated passes, then replay.

    Each round runs every shard's pass (sequentially, in this process —
    a distributed launcher would run :func:`shard_pass` per worker
    instead) and folds the shard stores into the merged store.  Rounds
    repeat while any probe is pending; adaptive searches advance at least
    one probe per shard per round, so the round count is bounded by the
    deepest probe schedule.  The final call ``fn(merged_cache, None)``
    replays the whole workload serially against the fully folded store —
    every probe is a cache hit, and the returned result is byte-identical
    to a serial run at the same seed.
    """
    shards = check_positive_int(shards, "shards")
    check_positive_int(max_rounds, "max_rounds")
    directory = Path(directory)
    stores = [shard_store_dir(directory, k) for k in range(shards)]
    for round_number in range(1, max_rounds + 1):
        pending_total = 0
        for index in range(shards):
            _, pending = shard_pass(fn, ShardSpec(index, shards), directory)
            pending_total += pending
        report = merge_stores(stores, merged_dir(directory))
        emit_event(
            "shard_round", round=round_number, shards=shards,
            pending=pending_total, folded=report.folded_groups,
            unmerged=report.pending_groups,
        )
        if pending_total == 0:
            break
    else:
        raise RuntimeError(
            f"sharded workload did not settle within {max_rounds} merge "
            f"rounds — a probe schedule deeper than max_rounds, or a "
            f"shard that never contributes its slice"
        )
    cache = ProbeCache(merged_dir(directory))
    try:
        return fn(cache, None)
    finally:
        cache.close()
