"""Process-global operation counters for the trial engine.

A :class:`Counters` object is a plain name → integer aggregate.  The
library keeps one per process (:func:`counters`) and the instrumented hot
paths bump it through :func:`add_count` — a dictionary increment, cheap
enough to stay on unconditionally.

Worker processes count into their *own* global; the trial engine
(:mod:`repro.utils.parallel`) snapshots the per-chunk delta inside each
worker and merges it back into the parent, so totals are identical for
serial and parallel runs of the same workload.  :meth:`Experiment.run
<repro.experiments.harness.Experiment.run>` exposes the per-run delta as
``count_*`` entries on ``ExperimentResult.metrics``.

Concurrent *threads* in one process (the estimation server runs each
request in a thread) would cross-pollute a single global: request A's
snapshot/diff would absorb request B's increments, poisoning both the
``count_*`` metrics and the counter deltas the probe cache stores for
warm replay.  :func:`use_counters` scopes a request-local aggregate via a
``ContextVar`` — ``asyncio.to_thread`` copies the calling context, so
everything a request computes counts into its own aggregate, exactly as
a dedicated process would.

This module deliberately imports nothing from the rest of the library so
the hot-path modules (``sketch/``, ``utils/parallel.py``) can depend on it
without import cycles.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Dict, Iterator, Mapping, Optional

__all__ = [
    "NON_RESULT_COUNTER_PREFIXES",
    "Counters",
    "counters",
    "add_count",
    "use_counters",
]

#: Counter-name prefixes describing caching/checkpoint bookkeeping rather
#: than the computation itself.  Excluded from ``count_*`` result metrics
#: and never stored in cached probe records: a warm-cache run hits where a
#: cold run misses, and metrics must stay bit-identical across cold, warm,
#: and cache-off runs (and across sharded-and-merged vs serial runs —
#: ``shard_`` counters exist only in shard passes).
NON_RESULT_COUNTER_PREFIXES = ("cache_", "checkpoint_", "shard_")


class Counters:
    """A named-integer aggregate with snapshot/delta/merge arithmetic."""

    __slots__ = ("_counts",)

    def __init__(self, counts: Optional[Mapping[str, int]] = None) -> None:
        self._counts: Dict[str, int] = dict(counts or {})

    def increment(self, name: str, by: int = 1) -> None:
        """Add ``by`` to counter ``name`` (creating it at zero)."""
        self._counts[name] = self._counts.get(name, 0) + by

    def get(self, name: str) -> int:
        """Current value of ``name`` (zero when never incremented)."""
        return self._counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        """A frozen copy of the current counts, for later :meth:`diff`."""
        return dict(self._counts)

    def diff(self, baseline: Mapping[str, int]) -> Dict[str, int]:
        """Counts accrued since ``baseline`` (only nonzero deltas)."""
        return {
            name: value - baseline.get(name, 0)
            for name, value in self._counts.items()
            if value != baseline.get(name, 0)
        }

    def merge(self, delta: Mapping[str, int]) -> None:
        """Fold another aggregate's counts (e.g. a worker delta) in."""
        for name, value in delta.items():
            self.increment(name, value)

    def clear(self) -> None:
        """Reset every counter to zero."""
        self._counts.clear()

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={value}" for name, value in sorted(self._counts.items())
        )
        return f"Counters({inner})"


#: The per-process aggregate; see the module docstring for the
#: serial/parallel merge discipline.
_GLOBAL = Counters()

#: Scoped override installed by :func:`use_counters`; ``None`` means the
#: process-global aggregate is in effect.
_SCOPED: "contextvars.ContextVar[Optional[Counters]]" = \
    contextvars.ContextVar("repro_counters", default=None)


def counters() -> Counters:
    """The current :class:`Counters` aggregate.

    The process-global one unless a :func:`use_counters` scope is active
    in the calling context.
    """
    scoped = _SCOPED.get()
    return scoped if scoped is not None else _GLOBAL


def add_count(name: str, by: int = 1) -> None:
    """Bump the current counter ``name`` — the hot-path entry point."""
    counters().increment(name, by)


@contextlib.contextmanager
def use_counters(aggregate: Counters) -> Iterator[Counters]:
    """Route :func:`add_count`/:func:`counters` to ``aggregate``.

    The override is context-local: other threads and asyncio tasks keep
    their own view, and ``asyncio.to_thread`` work started inside the
    scope inherits it (the context is copied into the worker thread).
    The caller owns the aggregate — fold it into the global with
    :meth:`Counters.merge` afterwards if process totals should include
    the scoped work.
    """
    token = _SCOPED.set(aggregate)
    try:
        yield aggregate
    finally:
        _SCOPED.reset(token)
