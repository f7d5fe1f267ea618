"""Structured run ledger: JSON-lines events for long experiment runs.

A :class:`RunLedger` collects structured events — experiment start/end,
``minimal_m`` probes, RNG spawns, trial-batch dispatch/completion, counter
aggregates — and appends them as JSON lines to a file, so a multi-hour
(or crashed) run leaves a durable, machine-readable record.
``python -m repro.observe summarize LEDGER`` renders it back into tables.

Design constraints, in order:

* **off the hot path** — with no ledger installed, every instrumentation
  site is a single ``ContextVar.get`` returning ``None``; with one
  installed, lines are buffered and flushed in batches;
* **never perturbs determinism** — emission consumes no randomness, and
  the *deterministic view* of a ledger (execution-scope events dropped,
  timing fields stripped; see :func:`deterministic_view`) is identical for
  serial, parallel, cold, warm and merged-shard runs of the same seed;
* **fork-safe** — a ledger only accepts events from the process that
  created it, so pool workers inheriting the context variable can never
  write duplicate or torn lines;
* **shareable** — each flush is one whole-lines write through
  :class:`~repro.utils.appendfile.AppendOnlyFile`, the probe store's
  append discipline: concurrent processes on one ledger never interleave
  lines, and a writer restarted after a crash trims the dead writer's
  torn final line instead of gluing its first event onto it.

Usage::

    with RunLedger("run.jsonl", progress=True):
        run_experiment("E1", scale=0.05, rng=0, workers=2)

Entering the ledger installs it as the current sink; instrumented library
code emits through :func:`emit_event` without threading a handle around.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from ..utils.appendfile import AppendOnlyFile, parse_complete_lines
from ..utils.serialization import json_default

__all__ = [
    "EXECUTION_KINDS",
    "TIMING_FIELDS",
    "RunLedger",
    "current_ledger",
    "deterministic_view",
    "emit_event",
    "read_event_segments",
    "read_events",
    "use_ledger",
]

#: Event kinds that describe *how* work was executed (worker ids, chunk
#: spans, probe-cache reuse) rather than *what* was computed; excluded
#: from the deterministic view because chunking legitimately differs
#: across ``workers`` settings and cache hits/misses across cache states.
EXECUTION_KINDS = frozenset({
    "batch_dispatch", "batch_done",
    "cache_hit", "cache_miss", "checkpoint_save", "experiment_resumed",
    "shard_partial", "shard_pending", "shard_round",
})

#: Per-event fields that carry wall-clock or process identity and are
#: stripped from the deterministic view.  ``shard`` is identity, not
#: payload: an N-shard run merged back together must produce the same
#: view as a serial run (see :mod:`repro.shard`).  ``mono`` is the
#: monotonic companion of ``t`` (see :meth:`RunLedger.emit`).  ``site``
#: is the call site of a ``spawn`` (:func:`repro.utils.rng.spawn_seeds`):
#: a cache-hit replay reaches the same spawn from other code than a cold
#: run.
TIMING_FIELDS = frozenset({"t", "mono", "elapsed", "worker", "workers",
                           "pid", "shard", "site"})


class RunLedger:
    """Buffered JSON-lines event sink with optional live progress echo.

    Parameters
    ----------
    path:
        Destination file; events are *appended*, so successive runs can
        share one ledger.
    progress:
        Echo one human-readable line per semantic event to stderr.
    buffer_lines:
        Serialized lines held before a write+flush; keeps emission off the
        hot path without risking more than a tail of events on a crash.
    shard:
        Optional shard label (e.g. ``"1/3"``) stamped on every event, so
        segments from concurrent shard passes can share a ledger file (or
        be read together with :func:`read_event_segments`) and still be
        regrouped per shard by ``summarize``.

    A ledger with neither ``path`` nor ``progress`` is an in-memory
    recorder: it keeps its events on :attr:`events`.  Any other ledger
    keeps none.

    Every event additionally carries the emitting process id as ``pid``;
    both stamps are identity fields (:data:`TIMING_FIELDS`) and never
    reach the deterministic view.
    """

    def __init__(self, path: Union[str, Path, None] = None, *,
                 progress: bool = False, buffer_lines: int = 256,
                 shard: Optional[str] = None) -> None:
        if buffer_lines < 1:
            raise ValueError(
                f"buffer_lines must be positive, got {buffer_lines}"
            )
        self._path = Path(path) if path is not None else None
        self._progress = progress
        self._buffer: List[str] = []
        self._buffer_lines = buffer_lines
        self._keep = path is None and not progress
        self._events: List[Dict[str, Any]] = []
        self._shard = shard
        self._pid = os.getpid()
        self._file = AppendOnlyFile(self._path) if path is not None else None
        self._closed = False
        self._token: Optional[contextvars.Token] = None
        # Reentrant because ``emit`` flushes inline once the buffer fills.
        # The estimation server emits from several compute threads into
        # one shared request-log ledger; without the lock, two threads
        # could interleave buffer appends and flushes into torn lines.
        self._lock = threading.RLock()

    @property
    def path(self) -> Optional[Path]:
        return self._path

    @property
    def events(self) -> List[Dict[str, Any]]:
        """Events kept in memory (an in-memory recorder's only)."""
        return list(self._events)

    def emit(self, kind: str, **fields: Any) -> None:
        """Record one event; a no-op after close and in forked children.

        Events carry two clocks: ``t`` (``time.time``) for display, and
        ``mono`` (``time.perf_counter``) for durations.  Wall clock can
        step backwards (NTP corrections), which used to make ``summarize``
        compute negative spans from ``t`` differences; ``mono`` is
        monotonic within a process, so intra-process intervals derived
        from it are always nonnegative.  ``mono`` has no meaningful epoch
        and is only comparable between events with the same ``pid``.
        """
        if self._closed or os.getpid() != self._pid:
            return
        event: Dict[str, Any] = {"t": time.time(),
                                 "mono": time.perf_counter(),
                                 "kind": kind, "pid": self._pid}
        if self._shard is not None:
            event.setdefault("shard", self._shard)
        event.update(fields)
        with self._lock:
            if self._closed:
                return
            if self._keep:
                self._events.append(event)
            if self._path is not None:
                # allow_nan=False: a non-finite field would otherwise
                # write a nonstandard NaN/Infinity token that only
                # Python's lenient parser reads back — fail at the emit
                # site instead.
                self._buffer.append(json.dumps(event, allow_nan=False,
                                               default=json_default))
                if len(self._buffer) >= self._buffer_lines:
                    self.flush()
        if self._progress:
            line = _progress_line(event)
            if line is not None:
                print(line, file=sys.stderr)

    def flush(self) -> None:
        """Write buffered lines through to disk, as one append."""
        with self._lock:
            if not self._buffer or self._file is None:
                return
            self._file.append(
                ("\n".join(self._buffer) + "\n").encode("utf-8")
            )
            self._buffer.clear()

    def close(self) -> None:
        """Flush and stop accepting events (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self.flush()
            if self._file is not None:
                self._file.close()
            self._closed = True

    def __enter__(self) -> "RunLedger":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        self.close()

    def __repr__(self) -> str:
        target = str(self._path) if self._path is not None else "<memory>"
        state = "closed" if self._closed else "open"
        return f"RunLedger({target}, {state}, {len(self._events)} kept)"


_CURRENT: "contextvars.ContextVar[Optional[RunLedger]]" = \
    contextvars.ContextVar("repro_run_ledger", default=None)


def current_ledger() -> Optional[RunLedger]:
    """The installed ledger, or ``None`` (the default no-op sink)."""
    return _CURRENT.get()


def emit_event(kind: str, **fields: Any) -> None:
    """Emit to the current ledger; a cheap no-op when none is installed."""
    ledger = _CURRENT.get()
    if ledger is not None:
        ledger.emit(kind, **fields)


@contextlib.contextmanager
def use_ledger(ledger: Optional[RunLedger]) -> Iterator[Optional[RunLedger]]:
    """Install ``ledger`` as the current sink without taking ownership.

    Unlike entering the ledger itself, leaving this context does *not*
    close it — useful for scoping one ledger over several runs.
    """
    token = _CURRENT.set(ledger)
    try:
        yield ledger
    finally:
        _CURRENT.reset(token)


def deterministic_view(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The payload subsequence guaranteed identical across ``workers``.

    Drops execution-scope events (:data:`EXECUTION_KINDS`) and strips
    timing/identity fields (:data:`TIMING_FIELDS`) from the rest.  For a
    fixed seed, serial, parallel, cold-cache, warm-cache and merged-shard
    runs of the same workload produce equal deterministic views — the
    observability analogue of the trial engine's bit-identical-results
    contract.  Trial chunks run with no ledger installed
    (:mod:`repro.utils.parallel`), so a view holds nothing that only a
    chunk running in this process could log.  The determinism sanitizer
    (:func:`repro.sanitize.diff_traces`) diffs these views.
    """
    view = []
    for event in events:
        if event.get("kind") in EXECUTION_KINDS:
            continue
        view.append({
            key: value for key, value in event.items()
            if key not in TIMING_FIELDS
        })
    return view


def read_events(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a JSON-lines ledger file back into event dictionaries.

    Only ``\\n``-terminated lines are read, the probe store's rule
    (:func:`repro.utils.appendfile.parse_complete_lines`): a torn final
    line (crash mid-write) is skipped, and an unparseable complete line
    raises, since that indicates corruption rather than an interrupted
    run.
    """
    return parse_complete_lines(Path(path).read_bytes(), str(path))[0]


def read_event_segments(
    paths: List[Union[str, Path]],
) -> List[Dict[str, Any]]:
    """Parse several ledger segments into one event list, in order.

    A sharded run typically leaves one ledger file per shard pass (or per
    worker process).  Each segment gets the same torn-trailing-line
    tolerance as :func:`read_events` — a shard killed mid-write loses at
    most its final line, never the other shards' segments — while a
    corrupt line in the *middle* of any segment still raises.  A segment
    that does not exist (a shard killed before its first write) reads as
    empty.
    """
    events: List[Dict[str, Any]] = []
    for path in paths:
        if not Path(path).exists():
            continue
        events.extend(read_events(path))
    return events


def _progress_line(event: Dict[str, Any]) -> Optional[str]:
    """One-line stderr rendering of a semantic event (None = silent)."""
    kind = event.get("kind")
    if kind == "cli_start":
        ids = ", ".join(event.get("experiments", []))
        return (f"[observe] run start: {ids} "
                f"(scale={event.get('scale')}, seed={event.get('seed')}, "
                f"workers={event.get('workers')})")
    if kind == "experiment_start":
        return (f"[observe] {event.get('experiment')} start "
                f"(scale={event.get('scale')})")
    if kind == "minimal_m_start":
        return (f"[observe]   minimal_m: m in "
                f"[{event.get('m_min')}, {event.get('m_max')}] "
                f"decision={event.get('decision')} "
                f"trials/probe={event.get('trials')}")
    if kind == "probe":
        verdict = "pass" if event.get("passed") else "fail"
        return (f"[observe]     probe m={event.get('m')}: "
                f"{event.get('successes')}/{event.get('trials')} failures "
                f"({verdict}, {event.get('phase')}) "
                f"[{event.get('elapsed', 0.0):.2f}s]")
    if kind == "minimal_m_end":
        if event.get("found"):
            outcome = f"m* = {event.get('m_star')}"
        else:
            outcome = "not found (m_max failed)"
        return (f"[observe]   minimal_m done: {outcome} after "
                f"{event.get('probes')} probes "
                f"[{event.get('elapsed', 0.0):.2f}s]")
    if kind == "experiment_end":
        return (f"[observe] {event.get('experiment')} done "
                f"[{event.get('elapsed', 0.0):.1f}s]")
    if kind == "experiment_resumed":
        return (f"[observe] {event.get('experiment')} resumed from "
                f"checkpoint (seed={event.get('seed')}, "
                f"scale={event.get('scale')})")
    return None
