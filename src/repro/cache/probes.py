"""Disk-backed, content-addressed cache of Monte-Carlo probe results.

A :class:`ProbeCache` maps the canonical hash of a probe specification —
sketch-family spec, hard-instance spec, probe parameters, and the seed
fingerprint of the caller's RNG (:func:`repro.utils.rng.seed_fingerprint`)
— to the probe's result plus the operation-counter delta it accrued.

The cache is **invisible to results** by construction.  Because the seed
fingerprint pins the exact child-stream layout, a cached value is the
bit-identical outcome the computation would produce; the caller
(:mod:`repro.core.tester`) additionally replays the computation's
spawn-counter consumption and merges the stored counter delta, so a
cache-hit run leaves the RNG *and* the ``count_*`` metrics in exactly the
state a cache-miss (or cache-off) run would.  Only wall-clock and the
ledger's ``cache_hit``/``cache_miss`` events betray the difference.

Every lookup is reported through :mod:`repro.observe`: a ``cache_hit`` or
``cache_miss`` ledger event plus ``cache_hit``/``cache_miss`` counters
(excluded from result metrics — see
:data:`repro.observe.counters.NON_RESULT_COUNTER_PREFIXES`), which is
how ``python -m repro.observe summarize`` computes hit rates and how the
tests certify that a warm re-run executed zero new trials.

A shard pass (:mod:`repro.shard`) opens one :class:`ProbeCache` over its
own store with the merged store as a ``read_only`` store: one index
answers from both, and only the shard's own store is appended to.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, NamedTuple, Optional, Sequence, Tuple, Union

from ..observe.counters import NON_RESULT_COUNTER_PREFIXES, add_count
from ..observe.ledger import emit_event
from .keys import canonical_json, canonical_key
from .store import JsonlStore

__all__ = [
    "CachedProbe",
    "ProbeCache",
    "ScopedProbeCache",
]


class CachedProbe(NamedTuple):
    """One cached probe result: the value plus its counter delta."""

    value: Dict[str, Any]
    counters: Dict[str, int]


#: One indexed record: its spec (the parsed JSON as read, replaced by its
#: canonical JSON string on first lookup; ``None`` when the record holds
#: none), its value and its counter delta.
_Entry = Tuple[Any, Dict[str, Any], Dict[str, int]]


class ProbeCache:
    """Content-addressed probe store over append-only JSONL files.

    Parameters
    ----------
    directory:
        Cache directory; the record file is ``<directory>/probes.jsonl``.
        Created on first use.
    read_only:
        Further cache directories whose records are looked up but never
        written, such as a shard run's merged store.

    The in-memory index is loaded at construction, from ``directory``'s
    store and then each ``read_only`` store; records appended by *this*
    process are indexed as they are written, and only into
    ``directory``'s store.  It keeps only each record's spec, value and
    counters, and a spec only as its canonical JSON string once a lookup
    has compared it (records written here are indexed that way from the
    start).  Records that other processes append later — a CLI sweep or
    shard pass writing into a running server's directory, or a merge
    rewriting a read-only store — are picked up on the next lookup miss:
    the index follows each ``probes.jsonl`` from the byte offset it last
    read (:meth:`JsonlStore.read_new`), indexing only complete
    (``\\n``-terminated) lines, so a miss costs one ``fstat`` per store
    when nothing is new and a half-written record is indexed only once
    its newline lands.
    """

    FILENAME = "probes.jsonl"

    def __init__(self, directory: Union[str, Path],
                 read_only: Sequence[Union[str, Path]] = ()) -> None:
        self._directory = Path(directory)
        self._store = JsonlStore(self._directory / self.FILENAME)
        self._stores = [self._store] + [
            JsonlStore(Path(other) / self.FILENAME) for other in read_only
        ]
        self._index: Dict[str, _Entry] = {}
        self._follow()

    def _follow(self) -> None:
        """Index the complete records appended since the last read.

        A key already indexed keeps its entry: a content address names
        one record, whichever store holds it, and this process's own
        appends come back here on the next miss, where re-indexing them
        would replace each slim entry with the parsed record.
        """
        for store in self._stores:
            for record in store.read_new():
                key = record.get("key")
                if isinstance(key, str) and key not in self._index:
                    self._index[key] = (
                        record.get("spec"), record.get("value", {}),
                        {str(name): int(count) for name, count
                         in record.get("counters", {}).items()},
                    )

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def path(self) -> Path:
        """The JSONL record file this cache appends to."""
        return self._store.path

    def _lookup(self, kind: str,
                canonical: str) -> Tuple[str, Optional[CachedProbe]]:
        """The key of the canonical spec ``canonical`` and its record.

        Raises when the record's stored spec disagrees with the request:
        a key can only hold its own spec unless the store was corrupted.
        """
        key = canonical_key(kind, canonical)
        entry = self._index.get(key)
        if entry is None:
            self._follow()
            entry = self._index.get(key)
        if entry is None:
            return key, None
        stored, value, counters = entry
        if stored is not None and not isinstance(stored, str):
            stored = canonical_json(stored)
            self._index[key] = (stored, value, counters)
        if stored is not None and stored != canonical:
            raise ValueError(
                f"probe cache corruption: key {key[:16]} holds a record "
                f"whose stored spec disagrees with the request"
            )
        return key, CachedProbe(value=dict(value), counters=dict(counters))

    def peek(self, kind: str, spec: Dict[str, Any]) -> Optional[CachedProbe]:
        """Silent lookup: no ``cache_hit``/``cache_miss`` observability.

        For checks that are not a probe's own lookup, such as whether a
        shard's slice is already on disk; direct callers almost always
        want :meth:`get`.
        """
        return self._lookup(kind, canonical_json(spec))[1]

    def get(self, kind: str, spec: Dict[str, Any]) -> Optional[CachedProbe]:
        """Look up a probe; emits ``cache_hit``/``cache_miss`` either way."""
        key, hit = self._lookup(kind, canonical_json(spec))
        name = "cache_hit" if hit is not None else "cache_miss"
        add_count(name)
        emit_event(name, cache_kind=kind, key=key[:16],
                   m=spec.get("m"), trials=spec.get("trials"))
        return hit

    def put(self, kind: str, spec: Dict[str, Any], value: Dict[str, Any],
            counters: Optional[Dict[str, int]] = None) -> None:
        """Record a computed probe (bookkeeping counters are stripped).

        The record is indexed only once the store accepted it, so a
        record the store rejects (a non-finite value) is not answered
        from memory either: this process and a fresh one both miss it.
        """
        canonical = canonical_json(spec)
        key = canonical_key(kind, canonical)
        stored_counters = {
            name: int(count) for name, count in (counters or {}).items()
            if not name.startswith(NON_RESULT_COUNTER_PREFIXES)
        }
        self._store.append({
            "key": key,
            "kind": kind,
            "spec": spec,
            "value": value,
            "counters": stored_counters,
        })
        self._index[key] = (canonical, value, stored_counters)

    def scoped(self, **extra: Any) -> "ScopedProbeCache":
        """A view that folds ``extra`` into every spec it touches.

        Used by :func:`repro.core.tester.minimal_m` to include its
        ``decision`` rule in probe keys without widening the
        ``failure_estimate`` signature.
        """
        return ScopedProbeCache(self, extra)

    def close(self) -> None:
        self._store.close()

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return f"ProbeCache({self._directory}, {len(self._index)} records)"


class ScopedProbeCache:
    """A view of a :class:`ProbeCache` whose specs carry extra scope
    fields."""

    def __init__(self, base: ProbeCache, extra: Dict[str, Any]) -> None:
        self._base = base
        self._extra = dict(extra)

    def _scoped_spec(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        merged = dict(spec)
        scope = dict(merged.get("scope", {}))
        scope.update(self._extra)
        merged["scope"] = scope
        return merged

    def peek(self, kind: str, spec: Dict[str, Any]) -> Optional[CachedProbe]:
        """Silent scoped lookup (see :meth:`ProbeCache.peek`)."""
        return self._base.peek(kind, self._scoped_spec(spec))

    def get(self, kind: str, spec: Dict[str, Any]) -> Optional[CachedProbe]:
        return self._base.get(kind, self._scoped_spec(spec))

    def put(self, kind: str, spec: Dict[str, Any], value: Dict[str, Any],
            counters: Optional[Dict[str, int]] = None) -> None:
        self._base.put(kind, self._scoped_spec(spec), value, counters)

    def scoped(self, **extra: Any) -> "ScopedProbeCache":
        merged = dict(self._extra)
        merged.update(extra)
        return ScopedProbeCache(self._base, merged)

    def __repr__(self) -> str:
        return f"ScopedProbeCache({self._base!r}, extra={self._extra})"
