"""Deterministic parallel Monte-Carlo trial engine.

Every trial loop in this library (failure-rate estimation, distortion
sampling) has the same shape: run ``trials`` independent experiments,
each consuming its own random stream, and combine the per-trial results.
:class:`TrialExecutor` factors that shape out and makes it parallel-safe:

* trial ``t``'s randomness is a pure function of ``t`` and the caller's
  RNG — a counter-based stream of one probe key (see
  :func:`repro.utils.rng.trial_keys`) — so trial ``t`` sees the same
  stream no matter which worker runs it, in what order, or in which
  chunk;
* results are reassembled in trial order, so serial (``workers=1``) and
  parallel (``workers>1``) runs of the same seed are **bit-identical**;
* the process-pool backend ships chunks of trial indices (a ``range``)
  — cheap and picklable — rather than generators, keeping dispatch
  overhead small.

:meth:`TrialExecutor.run_seeded` maps a per-trial function over given
seed sequences through the same dispatch.  No library code calls it; it
stays because the benchmark's tracer (``perfbench/tracing.py``) times it
as a seam.

The trial function must be picklable for ``workers > 1`` — a module-level
function, or a :func:`functools.partial` of one over picklable arguments.
Closures and lambdas only work in serial mode.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..observe.counters import counters
from ..observe.ledger import emit_event, use_ledger
from .validation import check_positive_int

__all__ = [
    "ShardSpec",
    "TrialExecutor",
    "available_cpus",
    "normalize_shard",
    "resolve_workers",
    "shard_spans",
]

#: A per-trial computation: receives the trial's own seed sequence and
#: returns any picklable result.
TrialFn = Callable[[np.random.SeedSequence], Any]

#: A chunk-level computation: receives a whole chunk of work units at
#: once — trial indices (a ``range``) for the probe engine, seed
#: sequences for :meth:`TrialExecutor.run_seeded` — and returns one
#: result per unit, in order.  The probe engine derives a chunk's streams
#: and draws in one vectorized call instead of a per-trial loop.
ChunkFn = Callable[[Sequence[Any]], list]


def available_cpus() -> int:
    """CPUs this process may actually run on, not just what the host has.

    ``os.cpu_count()`` reports the machine's processors even when the
    process is pinned to a cpuset slice (containers, ``taskset``, k8s CPU
    limits) — sizing a process pool from it over-subscribes the slice and
    thrashes.  The scheduler affinity mask is authoritative where exposed
    (Linux); platforms without ``sched_getaffinity`` fall back to
    ``os.cpu_count()``.  Always at least 1.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:
            pass
    return os.cpu_count() or 1


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers`` knob: ``None``/``0`` means all available CPUs.

    "Available" is affinity-aware (:func:`available_cpus`), so a cpuset-
    limited container sizes its pools from its actual CPU slice.
    """
    if workers is None or workers == 0:
        return available_cpus()
    if workers < 0:
        raise ValueError(f"workers must be nonnegative or None, got {workers}")
    return workers


@dataclass(frozen=True)
class ShardSpec:
    """One worker's identity in an N-way sharded trial fan-out.

    ``index`` is this shard's position in ``[0, count)``; ``count`` is the
    total number of shards the trial budget is split across.  A spec with
    ``count == 1`` describes an unsharded run (see :func:`normalize_shard`).
    """

    index: int
    count: int

    def __post_init__(self):
        check_positive_int(self.count, "shard count")
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index must lie in [0, {self.count}), got {self.index}"
            )

    @property
    def label(self) -> str:
        """Human-readable ``index/count`` tag for ledgers and reports."""
        return f"{self.index}/{self.count}"


def normalize_shard(shard: Any) -> Optional[ShardSpec]:
    """Normalize a ``shard`` knob: ``None`` or ``count == 1`` mean serial.

    Accepts ``None``, a :class:`ShardSpec`, or an ``(index, count)`` pair.
    Returns ``None`` whenever the described fan-out is degenerate (a
    single shard owns the whole budget), so callers can branch on
    ``shard is None`` for the serial fast path.
    """
    if shard is None:
        return None
    if not isinstance(shard, ShardSpec):
        try:
            index, count = shard
        except (TypeError, ValueError):
            raise ValueError(
                f"shard must be None, a ShardSpec, or an (index, count) "
                f"pair, got {shard!r}"
            ) from None
        shard = ShardSpec(int(index), int(count))
    return None if shard.count == 1 else shard


def shard_spans(total: int, count: int) -> List[Tuple[int, int]]:
    """Contiguous trial spans assigning ``total`` trials to ``count`` shards.

    The spans tile ``[0, total)`` exactly — disjoint, ordered, complete —
    so shard ``k`` owns trials ``spans[k][0] .. spans[k][1] - 1`` and the
    union over shards is precisely the serial trial range; the first
    ``total % count`` spans hold one trial more.  A trial's value depends
    only on its index, so any boundary gives the serial values.  Shards
    beyond the available trials receive empty spans rather than raising
    — a shard with nothing to do is valid.
    """
    if total < 0:
        raise ValueError(f"total must be nonnegative, got {total}")
    count = check_positive_int(count, "count")
    base, extra = divmod(total, count)
    spans: List[Tuple[int, int]] = []
    lo = 0
    for index in range(count):
        hi = lo + base + (1 if index < extra else 0)
        spans.append((lo, hi))
        lo = hi
    return spans


def _map_trials(fn: TrialFn, seeds: Sequence[np.random.SeedSequence]) -> list:
    """A per-trial ``fn`` as a chunk function: mapped over the chunk, in order."""
    return [fn(seed) for seed in seeds]


class _ChunkOutcome(NamedTuple):
    """What one executed chunk ships back: results plus observability."""

    pid: int
    elapsed: float
    counter_delta: Dict[str, int]
    results: list


def _run_chunk_observed(fn: ChunkFn, units: Sequence[Any]) -> _ChunkOutcome:
    """Run one chunk through a chunk-level ``fn``, with observability.

    ``fn`` sees the whole chunk in one call and must return one result
    per unit, in order.  Runs in the worker process for parallel dispatch;
    the counter delta (including the ``trials`` count) is snapshotted
    there and merged back into the parent so counter totals are identical
    for serial and parallel runs of the same workload.

    ``fn`` runs with no ledger installed, so an in-process chunk logs what
    a pool worker's chunk logs: nothing.  A sketch that spawns inside a
    trial (a two-stage or stacked family) would otherwise put ``spawn``
    events in the ledger only when its trials ran in this process, never
    on a pool, a cache hit or a merged shard replay.
    """
    before = counters().snapshot()
    started = time.perf_counter()
    with use_ledger(None):
        results = list(fn(units))
    if len(results) != len(units):
        raise ValueError(
            f"chunk function returned {len(results)} results for "
            f"{len(units)} units"
        )
    counters().increment("trials", len(results))
    elapsed = time.perf_counter() - started
    return _ChunkOutcome(
        os.getpid(), elapsed, counters().diff(before), results
    )


@dataclass(frozen=True)
class TrialExecutor:
    """Runs independent Monte-Carlo trials serially or on a process pool.

    Parameters
    ----------
    workers:
        Number of worker processes; ``1`` (default) runs in-process with
        zero overhead, ``None`` or ``0`` uses all CPUs.
    chunk_size:
        Trials per dispatched batch.  Defaults to one batch when serial,
        and to about four batches per worker when parallel, which
        balances scheduling granularity against inter-process overhead.

    Determinism
    -----------
    :meth:`run_seeded` returns the same list — element for element, bit
    for bit — for every ``workers`` and ``chunk_size`` setting, because
    trial ``t`` consumes seed ``t`` and nothing else.  The probe engine's
    chunk function (:meth:`run_chunked` over trial indices) gives the
    same guarantee, because trial ``t``'s streams are a pure function of
    ``t``.

    There is one dispatch path: :meth:`run_chunked` hands each chunk to a
    chunk-level function, and :meth:`run_seeded` is the same dispatch with
    the per-trial function mapped over each chunk.
    """

    workers: Optional[int] = 1
    chunk_size: Optional[int] = None

    def __post_init__(self):
        if self.workers is not None and self.workers < 0:
            raise ValueError(
                f"workers must be nonnegative or None, got {self.workers}"
            )
        if self.chunk_size is not None:
            check_positive_int(self.chunk_size, "chunk_size")

    def run_seeded(self, fn: TrialFn,
                   seeds: Sequence[np.random.SeedSequence]) -> list:
        """Run ``fn`` once per seed, returning results in seed order."""
        return self._dispatch(partial(_map_trials, fn), list(seeds))

    def run_chunked(self, fn: ChunkFn, units: Sequence[Any]) -> list:
        """Run a chunk-level ``fn`` over ``units``, in unit order.

        ``units`` is any sliceable sequence — the probe engine passes the
        trial indices ``range(start, stop)``, so a chunk ships to a worker
        as a ``range`` whatever its size.  Splits the units into the same
        chunks :meth:`run_seeded` would dispatch, but hands each chunk to
        ``fn`` *whole* — the probe engine derives and reduces it in
        vectorized calls.  The chunking depends on ``chunk_size`` and,
        when that is ``None``, on the worker count; the results are the
        same for every chunking as long as ``fn``'s value for a unit does
        not depend on the other units of its chunk, which the probe
        engine's chunk function guarantees.
        """
        return self._dispatch(fn, units)

    def _dispatch(self, fn: ChunkFn, units: Sequence[Any]) -> list:
        """Split ``units`` into chunks, run ``fn`` on each, and gather.

        Chunks run in-process when one worker or one chunk would do the
        work, else on a process pool; results come back in unit order
        either way.
        """
        workers = resolve_workers(self.workers)
        chunks = self._chunked(units, workers)
        parallel = workers > 1 and len(chunks) > 1
        emit_event("batch_dispatch", batches=len(chunks),
                   trials=len(units), parallel=parallel)
        if not parallel:
            return self._gather(
                map(partial(_run_chunk_observed, fn), chunks), chunks
            )
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(chunks))
        ) as pool:
            return self._gather(
                pool.map(_run_chunk_observed, [fn] * len(chunks), chunks),
                chunks,
            )

    @staticmethod
    def _gather(outcomes: Iterable[_ChunkOutcome],
                chunks: List[Sequence[Any]]) -> list:
        """Absorb each chunk's observability and concatenate its results.

        Counter deltas are merged only when the chunk ran in another
        process — in-process chunks already incremented this process's
        aggregate directly.  Each chunk gets one ``batch_done`` event.
        """
        results: list = []
        for index, (chunk, outcome) in enumerate(zip(chunks, outcomes)):
            if outcome.pid != os.getpid():
                counters().merge(outcome.counter_delta)
            start = len(results)
            emit_event("batch_done", batch=index,
                       span=[start, start + len(chunk)],
                       trials=len(chunk), worker=outcome.pid,
                       elapsed=outcome.elapsed)
            results.extend(outcome.results)
        return results

    def _chunked(self, units: Sequence[Any],
                 workers: int) -> List[Sequence[Any]]:
        size = self.chunk_size
        if size is None:
            # One chunk in-process; about four per worker on a pool.
            per = 1 if workers <= 1 else 4 * workers
            size = max(1, -(-len(units) // per))
        return [units[i:i + size] for i in range(0, len(units), size)]

