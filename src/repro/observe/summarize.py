"""Post-hoc rendering of a run ledger into plain-text tables.

``python -m repro.observe summarize LEDGER`` (and :func:`summarize` on an
event list) reconstructs, from the JSON-lines events alone:

* a run overview — one row per experiment with status, probe/trial
  totals, and wall-clock time;
* one table per ``minimal_m`` search listing every probe
  ``(m, failures, trials, rate, phase, verdict, seconds)``;
* the trial batches of each experiment — how many, how many trials, and
  the time spent in them — totalled from ``batch_done`` events, which
  every computed probe logs, shard slices included;
* counter aggregates per experiment;
* probe-cache hit rates (from ``cache_hit``/``cache_miss`` events) and
  resumed-from-checkpoint experiments, when a run used ``--cache-dir``.

The renderer never requires end events: a crashed ``all --scale 1.0`` run
summarizes up to its last flushed line, with incomplete experiments and
searches marked as such.  Events of kinds it does not render (such as the
``trace`` spans older ledgers hold) are ignored.

A ledger holding events from several processes — shard passes appending
to one file, or multiple segments read together — is **regrouped per
shard/pid stream** before rendering: the accumulators above assume each
``*_start`` pairs with the next ``*_end`` of the same process, which
interleaved streams would scramble (probes of shard 1 landing inside
shard 0's search tables).  Each stream renders as its own section.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..utils.tables import TextTable
from .ledger import read_event_segments, read_events

__all__ = ["summarize", "summarize_path", "summarize_paths"]

#: Event fields that identify/timestamp rather than count; skipped when
#: folding ``counters`` events into per-experiment aggregates.
_NON_COUNTER_FIELDS = ("t", "mono", "kind", "experiment", "pid", "shard")


class _Search:
    """Accumulator for one ``minimal_m_start`` … ``minimal_m_end`` span."""

    def __init__(self, experiment: str, start: Dict[str, Any]) -> None:
        self.experiment = experiment
        self.start = start
        self.probes: List[Dict[str, Any]] = []
        self.end: Optional[Dict[str, Any]] = None


class _Batches:
    """Totals of ``batch_done`` events: trials run and the time in them.

    On a worker pool the chunks run concurrently, so ``seconds`` adds up
    worker time rather than wall-clock time.
    """

    def __init__(self) -> None:
        self.count = 0
        self.trials = 0
        self.seconds = 0.0

    def add(self, event: Dict[str, Any]) -> None:
        self.count += 1
        self.trials += int(event.get("trials", 0) or 0)
        self.seconds += float(event.get("elapsed", 0.0) or 0.0)


class _Experiment:
    """Accumulator for one ``experiment_start`` … ``experiment_end`` span."""

    def __init__(self, name: str,
                 start: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.start: Dict[str, Any] = start or {}
        self.end: Optional[Dict[str, Any]] = None
        self.probes = 0
        self.batches = _Batches()
        self.searches = 0
        self.counters: Dict[str, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0


def _fmt_seconds(value: Any) -> str:
    return f"{float(value):.2f}" if value is not None else "?"


def _clamp_negative_intervals(
    events: List[Dict[str, Any]],
) -> Tuple[List[Dict[str, Any]], int]:
    """Copy events, clamping negative ``elapsed`` fields to ``0.0``.

    Legacy ledgers timed spans by differencing ``time.time()``; a
    wall-clock step (NTP correction) mid-span could record a negative
    interval.  Current emitters stamp ``mono`` and derive durations from
    it, but ``summarize`` must render old ledgers too — so negative
    intervals are clamped rather than propagated into totals, and the
    renderer reports how many were clamped so a repaired summary is never
    mistaken for a clean one.
    """
    cleaned: List[Dict[str, Any]] = []
    clamped = 0
    for event in events:
        value = event.get("elapsed")
        if isinstance(value, (int, float)) and value < 0:
            event = {**event, "elapsed": 0.0}
            clamped += 1
        cleaned.append(event)
    return cleaned, clamped


def _mono_span(start: Dict[str, Any], end: Dict[str, Any]) -> Optional[float]:
    """Duration between two events via their monotonic stamps, if valid.

    ``mono`` has no shared epoch across processes, so the stamps are only
    comparable when both events carry the same ``pid``.
    """
    if start.get("pid") != end.get("pid"):
        return None
    try:
        span = float(end["mono"]) - float(start["mono"])
    except (KeyError, TypeError, ValueError):
        return None
    return span if span >= 0 else None


def _stream_key(event: Dict[str, Any]) -> Optional[Tuple[Any, ...]]:
    """Which shard/pid stream an event belongs to (None = unattributed).

    Shard label takes precedence over pid: one shard re-run in a fresh
    process (crash recovery) still folds into the same stream.
    """
    shard = event.get("shard")
    if isinstance(shard, str):
        return ("shard", shard)
    pid = event.get("pid")
    if pid is not None:
        return ("pid", int(pid))
    return None


def _stream_order(key: Optional[Tuple[Any, ...]]) -> Tuple[Any, ...]:
    """Sort key: shards by index, then pids, then unattributed."""
    if key is None:
        return (2, 0, "")
    scope, value = key
    if scope == "shard":
        head = str(value).split("/", 1)[0]
        index = int(head) if head.isdigit() else 0
        return (0, index, str(value))
    return (1, value, "")


def _stream_title(key: Optional[Tuple[Any, ...]]) -> str:
    if key is None:
        return "unattributed events"
    scope, value = key
    return f"shard {value}" if scope == "shard" else f"pid {value}"


def summarize(events: List[Dict[str, Any]]) -> str:
    """Render an event list (see :func:`repro.observe.read_events`).

    Events from multiple shard/pid streams are grouped per stream and
    rendered as separate sections (see the module docstring); a
    single-stream ledger renders without section headers.
    """
    streams: Dict[Optional[Tuple[Any, ...]], List[Dict[str, Any]]] = {}
    for event in events:
        streams.setdefault(_stream_key(event), []).append(event)
    if len(streams) <= 1:
        return _render_stream(events)
    parts: List[str] = []
    for key in sorted(streams, key=_stream_order):
        parts.append(f"=== {_stream_title(key)} "
                     f"({len(streams[key])} events) ===")
        parts.append(_render_stream(streams[key]))
    parts.append(
        f"({len(events)} events across {len(streams)} shard/pid streams)"
    )
    return "\n\n".join(parts)


def _render_stream(events: List[Dict[str, Any]]) -> str:
    """Render one process's event stream (the pre-shard ``summarize``)."""
    events, clamped = _clamp_negative_intervals(events)
    experiments: List[_Experiment] = []
    searches: List[_Search] = []
    loose_batches = _Batches()
    cache_hits = 0
    cache_misses = 0
    resumed: List[str] = []
    current_exp: Optional[_Experiment] = None
    current_search: Optional[_Search] = None
    header: Optional[Dict[str, Any]] = None

    for event in events:
        kind = event.get("kind")
        if kind == "cli_start":
            header = event
        elif kind == "experiment_start":
            current_exp = _Experiment(str(event.get("experiment")), event)
            experiments.append(current_exp)
        elif kind == "experiment_end":
            if current_exp is not None:
                current_exp.end = event
            current_exp = None
        elif kind == "minimal_m_start":
            name = current_exp.name if current_exp is not None else "?"
            current_search = _Search(name, event)
            searches.append(current_search)
            if current_exp is not None:
                current_exp.searches += 1
        elif kind == "probe":
            if current_search is None:
                name = current_exp.name if current_exp is not None else "?"
                current_search = _Search(name, {})
                searches.append(current_search)
            current_search.probes.append(event)
            if current_exp is not None:
                current_exp.probes += 1
        elif kind == "minimal_m_end":
            if current_search is not None:
                current_search.end = event
            current_search = None
        elif kind == "counters":
            if current_exp is not None:
                for key, value in event.items():
                    if key in _NON_COUNTER_FIELDS:
                        continue
                    current_exp.counters[key] = \
                        current_exp.counters.get(key, 0) + int(value)
        elif kind == "batch_done":
            (current_exp.batches if current_exp is not None
             else loose_batches).add(event)
        elif kind == "cache_hit":
            cache_hits += 1
            if current_exp is not None:
                current_exp.cache_hits += 1
        elif kind == "cache_miss":
            cache_misses += 1
            if current_exp is not None:
                current_exp.cache_misses += 1
        elif kind == "experiment_resumed":
            resumed.append(str(event.get("experiment")))

    parts: List[str] = []
    if header is not None:
        ids = ", ".join(str(x) for x in header.get("experiments", []))
        parts.append(
            f"run: {ids} (scale={header.get('scale')}, "
            f"seed={header.get('seed')}, workers={header.get('workers')})"
        )

    overview = TextTable(
        title="Run overview",
        columns=["experiment", "status", "searches", "probes", "trials",
                 "seconds"],
    )
    for exp in experiments:
        status = "done" if exp.end is not None else "INCOMPLETE"
        elapsed = exp.end.get("elapsed") if exp.end is not None else None
        if elapsed is None and exp.end is not None:
            elapsed = _mono_span(exp.start, exp.end)
        overview.add_row([
            exp.name, status, exp.searches, exp.probes, exp.batches.trials,
            _fmt_seconds(elapsed) if elapsed is not None else "?",
        ])
    for name in resumed:
        overview.add_row([name, "resumed", 0, 0, 0, "-"])
    if experiments or resumed:
        parts.append(overview.render())

    if cache_hits or cache_misses:
        lookups = cache_hits + cache_misses
        rate = 100.0 * cache_hits / lookups
        cache_table = TextTable(
            title=(f"Probe cache: {cache_hits}/{lookups} hits "
                   f"({rate:.1f}%)"),
            columns=["experiment", "hits", "misses", "hit rate"],
        )
        for exp in experiments:
            exp_lookups = exp.cache_hits + exp.cache_misses
            if not exp_lookups:
                continue
            cache_table.add_row([
                exp.name, exp.cache_hits, exp.cache_misses,
                f"{100.0 * exp.cache_hits / exp_lookups:.1f}%",
            ])
        parts.append(cache_table.render())

    for index, search in enumerate(searches, start=1):
        start = search.start
        bits = []
        if "m_min" in start:
            bits.append(f"m in [{start.get('m_min')}, {start.get('m_max')}]")
        if "decision" in start:
            bits.append(f"decision={start.get('decision')}")
        if "delta" in start:
            bits.append(f"delta={start.get('delta')}")
        if search.end is None:
            bits.append("INCOMPLETE")
        elif search.end.get("found"):
            bits.append(f"m*={search.end.get('m_star')}")
        else:
            bits.append("not found")
        table = TextTable(
            title=(f"minimal_m #{index} ({search.experiment})"
                   + (": " + ", ".join(bits) if bits else "")),
            columns=["m", "failures", "trials", "rate", "phase", "verdict",
                     "seconds"],
        )
        for probe in search.probes:
            trials = int(probe.get("trials", 0) or 0)
            failures = int(probe.get("successes", 0) or 0)
            rate = failures / trials if trials else float("nan")
            table.add_row([
                probe.get("m"), failures, trials, f"{rate:.3f}",
                probe.get("phase", "?"),
                "pass" if probe.get("passed") else "fail",
                _fmt_seconds(probe.get("elapsed", 0.0)),
            ])
        parts.append(table.render())

    batch_rows = [(exp.name, exp.batches) for exp in experiments]
    batch_rows.append(("(no experiment)", loose_batches))
    batch_rows = [(name, totals) for name, totals in batch_rows
                  if totals.count]
    if batch_rows:
        breakdown = TextTable(
            title="Trial batches (time in trials)",
            columns=["experiment", "batches", "trials", "total s",
                     "mean s"],
        )
        for name, totals in batch_rows:
            breakdown.add_row([
                name, totals.count, totals.trials,
                f"{totals.seconds:.2f}",
                f"{totals.seconds / totals.count:.4f}",
            ])
        parts.append(breakdown.render())

    for exp in experiments:
        if not exp.counters:
            continue
        table = TextTable(
            title=f"Counters ({exp.name})", columns=["counter", "count"]
        )
        for name in sorted(exp.counters):
            table.add_row([name, exp.counters[name]])
        parts.append(table.render())

    batches = sum(totals.count for _, totals in batch_rows)
    footer = (
        f"({len(events)} events, {len(experiments)} experiments, "
        f"{len(searches)} searches, {batches} trial batches)"
    )
    if clamped:
        footer += (
            f"\nWARNING: {clamped} negative interval(s) clamped to 0.00 "
            f"(wall-clock step in a legacy ledger)"
        )
    parts.append(footer)
    return "\n\n".join(parts)


def summarize_path(path: Union[str, Path]) -> str:
    """Read a JSON-lines ledger file and render its summary."""
    return summarize(read_events(path))


def summarize_paths(paths: List[Union[str, Path]]) -> str:
    """Read several ledger segments and render one grouped summary.

    Segments are concatenated in argument order (torn trailing lines
    tolerated per segment — see :func:`read_event_segments`) and then
    regrouped per shard/pid stream by :func:`summarize`.
    """
    return summarize(read_event_segments(paths))
