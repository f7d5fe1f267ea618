"""Stream-trace recorder: captures RNG fan-out and cache-key events.

A :class:`StreamTraceRecorder` is the observer installed via
:func:`repro.utils.rng.use_stream_observer`: it receives every
``spawn``/fallback draw with its spawn-tree position and
draw counter, and every probe cache lookup and write with its
content-addressed key (:func:`repro.utils.rng.record_cache_event`).
:meth:`StreamTraceRecorder.activate` installs it for a ``with`` block;
outside such a block recording is off and the instrumented call sites
pay a single ``ContextVar.get`` each — observation never consumes
randomness or changes any computed value.

Each event is stamped with stack provenance (the first few non-plumbing
frames of the call site) so a divergence report can say *where* the
offending fan-out happened.  Provenance is excluded from trace
comparison — see :func:`repro.sanitize.diff.canonical_event`.
"""

from __future__ import annotations

import contextlib
import sys
from typing import Any, Dict, Iterator, List

from ..utils.rng import use_stream_observer

__all__ = ["StreamTraceRecorder"]

#: Maximum provenance frames stamped on one event.
_STACK_LIMIT = 6

#: Call-site filename fragments excluded from provenance: observer
#: plumbing and the instrumented primitives themselves carry no signal.
_SKIP_FRAGMENTS = (
    "/sanitize/",
    "/utils/rng.py",
    "/contextlib.py",
)


def _provenance(limit: int = _STACK_LIMIT) -> List[str]:
    """The nearest ``limit`` interesting frames of the current stack."""
    frames: List[str] = []
    frame = sys._getframe(1)
    while frame is not None and len(frames) < limit:
        code = frame.f_code
        filename = code.co_filename.replace("\\", "/")
        if not any(fragment in filename for fragment in _SKIP_FRAGMENTS):
            frames.append(f"{filename}:{frame.f_lineno}:{code.co_name}")
        frame = frame.f_back
    return frames


class StreamTraceRecorder:
    """Accumulates the canonical event trace of one execution.

    Parameters
    ----------
    label:
        Free-form tag identifying the recorded execution (shown in
        divergence reports).
    provenance:
        Stamp each event with call-site stack frames (default).  Disable
        for micro-benchmarks; traces compare identically either way.
    """

    def __init__(self, label: str = "trace",
                 provenance: bool = True) -> None:
        self.label = label
        self._provenance = provenance
        self._events: List[Dict[str, Any]] = []

    def record_stream_event(self, kind: str, **fields: Any) -> None:
        """Stream-observer hook (see :func:`repro.utils.rng.use_stream_observer`)."""
        self._record("stream", kind, fields)

    def record_cache_event(self, kind: str, **fields: Any) -> None:
        """Cache-event hook (see :func:`repro.utils.rng.record_cache_event`)."""
        self._record("cache", kind, fields)

    def _record(self, channel: str, kind: str,
                fields: Dict[str, Any]) -> None:
        event: Dict[str, Any] = {"channel": channel, "kind": kind, **fields}
        if self._provenance:
            event["stack"] = _provenance()
        self._events.append(event)

    @contextlib.contextmanager
    def activate(self) -> Iterator["StreamTraceRecorder"]:
        """Install this recorder as the stream and cache-event observer."""
        with use_stream_observer(self):
            yield self

    def trace(self) -> List[Dict[str, Any]]:
        """A snapshot copy of the recorded events, in order."""
        return list(self._events)

    def clear(self) -> None:
        """Drop all recorded events (reuse between runs is discouraged —
        one recorder per execution keeps double-consumption checks
        meaningful across cache-coordinated re-runs like shard rounds)."""
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        return (f"StreamTraceRecorder({self.label!r}, "
                f"{len(self._events)} events)")
