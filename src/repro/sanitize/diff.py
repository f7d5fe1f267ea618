"""Deterministic-view diffing and intra-trace checks.

The comparison layer of :mod:`repro.sanitize`.  A *trace* is the plain
list of event dicts a :class:`~repro.observe.ledger.RunLedger` kept
for one execution: ``spawn``/``fallback_draw`` events from the RNG
fan-out primitive (:func:`repro.utils.rng.spawn_seeds`) and
``cache_hit``/``cache_miss`` events from the probe cache, beside the
ledger's other events.  Two executions of the same workload at the same
seed must produce **equal deterministic views**
(:func:`~repro.observe.ledger.deterministic_view`) — same events, same
order, same payloads, the spawn-tree positions included — regardless of
``workers``, caching, or sharding; any difference is a determinism bug,
even when the final result bytes happen to agree.

Four failure classes are distinguished:

* ``stream-divergence`` — the runs derived different child streams (a
  different parent, a different fan-out width, a different primitive).
* ``draw-count-drift`` — same primitive on the same parent sequence, but
  at a different spawn counter: something consumed extra children (or
  skipped some) before this point.
* ``event-divergence`` — the first mismatch is not between two RNG
  fan-out events: a probe's verdict, a search bracket, a counter or any
  other payload differs.
* ``double-consumption`` — *within one trace*, the same parent handed
  out overlapping child-index ranges.  A live ``SeedSequence`` cannot do
  this (spawning advances its counter), so an overlap proves two
  distinct sequence objects shared one spawn-tree position — the classic
  rebuilt-parent race that silently correlates "independent" trials.

The view leaves out the execution-scope events
(:data:`~repro.observe.ledger.EXECUTION_KINDS`: trial batches, cache
lookups, shard rounds) and the timing and identity fields, the call
``site`` included (:data:`~repro.observe.ledger.TIMING_FIELDS`): a
cache-hit replay legitimately reaches a spawn from other code than a
cold run while consuming exactly the same streams.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..observe.ledger import EXECUTION_KINDS, deterministic_view

__all__ = [
    "DeterminismError",
    "Divergence",
    "cache_events",
    "check_trace",
    "diff_traces",
    "format_divergence",
    "stream_events",
]

#: Ledger event kinds of the RNG fan-out, and of probe-cache lookups.
_STREAM_KINDS = frozenset({"spawn", "fallback_draw"})
_CACHE_KINDS = frozenset({"cache_hit", "cache_miss"})


class DeterminismError(Exception):
    """A determinism contract was violated.

    Raised by the sanitized re-execution wrapper
    (:func:`repro.sanitize.runtime.sanitized`) and carried in the
    sanitizer CLI's report.  ``divergence`` holds the structured
    :class:`Divergence` when one is available.
    """

    def __init__(self, message: str,
                 divergence: Optional["Divergence"] = None) -> None:
        super().__init__(message)
        self.divergence = divergence


class Divergence(NamedTuple):
    """One detected determinism fault, anchored to a trace position.

    ``index`` is the position in the deterministic view for a diff, and
    in the trace's stream events for an intra-trace fault.
    ``reference``/``candidate`` are the full recorded events (``site``
    and timing included) on each side; for intra-trace faults
    (``double-consumption``) they are the two conflicting events of the
    *same* trace.
    """

    index: int
    axis: str
    kind: str
    reference: Optional[Dict[str, Any]]
    candidate: Optional[Dict[str, Any]]
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form for divergence reports."""
        return {
            "index": self.index,
            "axis": self.axis,
            "kind": self.kind,
            "reference": self.reference,
            "candidate": self.candidate,
            "detail": self.detail,
        }


def stream_events(trace: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The RNG fan-out events of ``trace``, in recording order."""
    return [e for e in trace if e.get("kind") in _STREAM_KINDS]


def cache_events(trace: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The probe-cache lookups of ``trace``, in recording order."""
    return [e for e in trace if e.get("kind") in _CACHE_KINDS]


def _parent_id(event: Dict[str, Any]) -> Tuple[str, Tuple[int, ...]]:
    """Spawn-tree identity of the parent sequence behind ``event``."""
    return (
        json.dumps(event.get("entropy")),
        tuple(int(k) for k in event.get("spawn_key", ())),
    )


def _parent_label(event: Dict[str, Any]) -> str:
    entropy = event.get("entropy")
    text = str(entropy)
    if len(text) > 24:
        text = text[:21] + "..."
    return f"entropy={text} spawn_key={list(event.get('spawn_key', []))}"


def _handed_range(event: Dict[str, Any]) -> Optional[Tuple[int, int]]:
    """Child-index range ``event`` handed to its caller, or ``None``.

    ``spawn`` hands out every derived child.  Trial chunks run with no
    ledger installed (:mod:`repro.utils.parallel`), so only probe-level
    spawns appear here.
    """
    if event.get("kind") != "spawn":
        return None
    base = int(event.get("base", 0))
    return (base, base + int(event.get("count", 0)))


def check_trace(trace: List[Dict[str, Any]], *,
                axis: str = "trace") -> List[Divergence]:
    """Intra-trace faults of one recording: double-consumed child streams.

    Returns one ``double-consumption`` :class:`Divergence` per
    overlapping pair.  These are hard errors even when final bytes agree:
    two call sites drawing from the same child stream correlate trials
    that every estimator in :mod:`repro.core.tester` assumes independent.
    """
    faults: List[Divergence] = []
    handed: Dict[Tuple[str, Tuple[int, ...]],
                 List[Tuple[int, Dict[str, Any], Tuple[int, int]]]] = {}
    for index, event in enumerate(stream_events(trace)):
        span = _handed_range(event)
        if span is None or span[0] >= span[1]:
            continue
        parent = _parent_id(event)
        for prev_index, prev_event, prev_span in handed.get(parent, []):
            lo = max(span[0], prev_span[0])
            hi = min(span[1], prev_span[1])
            if lo < hi:
                faults.append(Divergence(
                    index=index,
                    axis=axis,
                    kind="double-consumption",
                    reference=prev_event,
                    candidate=event,
                    detail=(
                        f"children [{lo}, {hi}) of parent "
                        f"{_parent_label(event)} were handed out twice "
                        f"(stream events #{prev_index} and #{index}): two "
                        f"seed sequences share one spawn-tree position, "
                        f"so 'independent' trials draw correlated streams"
                    ),
                ))
        handed.setdefault(parent, []).append((index, event, span))
    return faults


def _classify(index: int, r: Dict[str, Any],
              c: Dict[str, Any]) -> Tuple[str, str]:
    """Failure class and detail of a first mismatch between two view
    events."""
    if r.get("kind") not in _STREAM_KINDS \
            or c.get("kind") not in _STREAM_KINDS:
        fields = sorted(key for key in r.keys() | c.keys()
                        if r.get(key) != c.get(key))
        return "event-divergence", (
            f"view event #{index} differs: reference {r.get('kind')}, "
            f"candidate {c.get('kind')} (fields {', '.join(fields)})"
        )
    if (r.get("kind") == c.get("kind")
            and _parent_id(r) == _parent_id(c)
            and r.get("base") != c.get("base")):
        return "draw-count-drift", (
            f"same fan-out on parent {_parent_label(r)} but at spawn "
            f"counter {c.get('base')} instead of {r.get('base')}:"
            f" something consumed a different number of child streams "
            f"before this point"
        )
    return "stream-divergence", (
        f"view event #{index} differs: reference derived "
        f"{r.get('kind')} on {_parent_label(r)}, candidate "
        f"{c.get('kind')} on {_parent_label(c)}"
    )


def diff_traces(reference: List[Dict[str, Any]],
                candidate: List[Dict[str, Any]], *,
                axis: str = "") -> Optional[Divergence]:
    """First difference between two recordings' deterministic views, or
    ``None``.

    Comparison is positional over the views
    (:func:`~repro.observe.ledger.deterministic_view`) — determinism
    means the *sequence* of events matches, not merely the set.  A first
    mismatch between two RNG fan-out events is a ``draw-count-drift``
    when kind and parent agree but the spawn counter (``base``) differs,
    and a ``stream-divergence`` otherwise; any other first mismatch is an
    ``event-divergence``, and a length mismatch is
    ``missing-events``/``extra-events``.
    """
    ref = [e for e in reference if e.get("kind") not in EXECUTION_KINDS]
    cand = [e for e in candidate if e.get("kind") not in EXECUTION_KINDS]
    ref_view, cand_view = deterministic_view(ref), deterministic_view(cand)
    for index, (r, c) in enumerate(zip(ref_view, cand_view)):
        if r != c:
            kind, detail = _classify(index, r, c)
            return Divergence(index=index, axis=axis, kind=kind,
                              reference=ref[index], candidate=cand[index],
                              detail=detail)
    if len(ref) != len(cand):
        index = min(len(ref), len(cand))
        return Divergence(
            index=index,
            axis=axis,
            kind="missing-events" if len(cand) < len(ref)
            else "extra-events",
            reference=ref[index] if index < len(ref) else None,
            candidate=cand[index] if index < len(cand) else None,
            detail=(
                f"reference recorded {len(ref)} view events, candidate "
                f"{len(cand)}; views agree up to event #{index}"
            ),
        )
    return None


def _describe_event(event: Optional[Dict[str, Any]]) -> List[str]:
    if event is None:
        return ["    (no event — trace ended)"]
    [identity] = deterministic_view([event])
    parts = [f"{key}={identity[key]!r}" for key in sorted(identity)]
    lines = ["    " + " ".join(parts)]
    if "site" in event:
        lines.append(f"      at {event['site']}")
    return lines


def format_divergence(divergence: Divergence) -> str:
    """Multi-line human-readable report of one divergence."""
    lines = [
        f"first divergence at event #{divergence.index}"
        f" [{divergence.axis}]: {divergence.kind}",
        f"  {divergence.detail}",
        "  reference event:",
        *_describe_event(divergence.reference),
        "  candidate event:",
        *_describe_event(divergence.candidate),
    ]
    return "\n".join(lines)
