"""Deterministic folding of sharded probe stores into one cache.

A sharded run (:mod:`repro.shard`) leaves one probe store per shard, each
holding *shard-partial* records — the outcome of a contiguous trial slice
of some probe, tagged with a ``"shard": {count, index, span}`` field in
its spec.  :func:`merge_stores` folds those stores into a single cache
whose records a serial run can replay:

* partial groups whose spans tile the full trial range ``[0, trials)``
  are folded into the **full** record the serial run would have written —
  ``failure_estimate`` successes are summed, ``distortion_samples``
  values concatenated in span order, counter deltas summed — keyed by the
  parent spec (the shard field removed), i.e. byte-for-byte the key the
  serial computation uses;
* incomplete groups (a shard still missing) are carried through verbatim
  so a later merge round can finish them;
* every record is re-verified on the way in — its stored key must be the
  content address of its stored spec — and **conflicts** (two records
  with one key but different payloads, overlapping spans, shards
  disagreeing on the shard count) raise :class:`MergeConflict` instead of
  silently folding wrong numbers.

The output is written in one write to a temporary file of the merge's
own, in the store's own line encoding with records sorted by key, and
moved into place with ``os.replace``
(:func:`repro.utils.appendfile.replace_file`), so merging the same
inputs in any order produces identical bytes, the output may safely be
one of the inputs (in-place re-merge), and two merges into one output
never collide (the last replace wins; its inputs stay, so a later merge
over all of them folds everything).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..utils.appendfile import replace_file
from .keys import cache_key, canonical_json
from .probes import ProbeCache
from .store import JsonlStore, encode_record

__all__ = ["MergeConflict", "MergeReport", "merge_stores"]


class MergeConflict(ValueError):
    """Two shard stores disagree about the same probe."""


@dataclass
class MergeReport:
    """What one merge pass did, for CLI reporting and tests."""

    records_in: int = 0
    full_records: int = 0
    partial_records: int = 0
    folded_groups: int = 0
    pending_groups: int = 0
    #: Parent keys (16-hex prefixes) of groups still missing spans.
    pending_keys: List[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"merged {self.records_in} records: {self.full_records} full, "
            f"{self.partial_records} shard partials",
            f"folded {self.folded_groups} probe groups; "
            f"{self.pending_groups} still pending",
        ]
        for key in self.pending_keys:
            lines.append(f"  pending: {key}")
        return "\n".join(lines)


def _store_path(target: Union[str, Path]) -> Path:
    """Resolve a cache directory or a direct JSONL path to the file."""
    target = Path(target)
    if target.suffix == ".jsonl":
        return target
    return target / ProbeCache.FILENAME


def _verified_records(path: Path) -> List[Dict[str, Any]]:
    """Load one store, re-verifying every record's content address."""
    records = []
    for record in JsonlStore(path).load():
        kind, spec, key = record.get("kind"), record.get("spec"), record.get("key")
        if not isinstance(kind, str) or not isinstance(spec, dict) \
                or not isinstance(key, str):
            raise MergeConflict(
                f"{path}: malformed cache record (missing kind/spec/key)"
            )
        if cache_key(kind, spec) != key:
            raise MergeConflict(
                f"{path}: record key {key[:16]} is not the content "
                f"address of its stored spec"
            )
        records.append(record)
    return records


def _payload(record: Dict[str, Any]) -> str:
    """Canonical form of what a record asserts (value + counters)."""
    return canonical_json({
        "value": record.get("value", {}),
        "counters": record.get("counters", {}),
    })


def _parent_of(record: Dict[str, Any]) -> Tuple[str, Dict[str, Any], str]:
    """(kind, parent spec, parent key) of a shard-partial record."""
    spec = {k: v for k, v in record["spec"].items() if k != "shard"}
    kind = record["kind"]
    return kind, spec, cache_key(kind, spec)


def _fold_group(kind: str, parent_spec: Dict[str, Any], parent_key: str,
                partials: List[Dict[str, Any]]
                ) -> Optional[Dict[str, Any]]:
    """Fold one probe's shard partials, or ``None`` while spans are missing.

    ``parent_key`` is the content address of ``parent_spec``, the key
    the folded record is stored under.  Raises :class:`MergeConflict` on
    overlapping spans or disagreeing shard counts — those are protocol
    violations, not pending work.
    """
    counts = {int(p["spec"]["shard"]["count"]) for p in partials}
    if len(counts) != 1:
        raise MergeConflict(
            f"probe {parent_key[:16]}: shards disagree on the shard "
            f"count ({sorted(counts)})"
        )
    trials = int(parent_spec["trials"])
    # Sort key includes the shard index so ties (two shards with empty
    # spans — more shards than work units) never fall through to
    # comparing the record dicts themselves.
    spans = sorted(
        ((tuple(int(x) for x in p["spec"]["shard"]["span"]),
          int(p["spec"]["shard"]["index"])), p)
        for p in partials
    )
    cursor = 0
    for ((lo, hi), _index), _ in spans:
        if lo == hi:
            continue  # empty slice: tiles nothing
        if lo < cursor:
            raise MergeConflict(
                f"probe {parent_key[:16]}: overlapping shard spans at "
                f"trial {lo}"
            )
        if lo > cursor:
            return None  # gap: a shard's partial has not arrived yet
        cursor = hi
    if cursor != trials:
        return None  # tail missing
    ordered = [p for _, p in spans]
    counters: Dict[str, int] = {}
    for partial in ordered:
        for name, count in partial.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + int(count)
    if kind == "failure_estimate":
        confidences = {
            float(p["value"]["confidence"]) for p in ordered
        }
        if len(confidences) != 1:
            raise MergeConflict(
                f"probe {parent_key[:16]}: shards disagree on the "
                f"confidence level ({sorted(confidences)})"
            )
        value: Dict[str, Any] = {
            "successes": sum(int(p["value"]["successes"]) for p in ordered),
            "trials": trials,
            "confidence": confidences.pop(),
        }
    elif kind == "distortion_samples":
        values: List[float] = []
        for partial in ordered:
            values.extend(float(v) for v in partial["value"]["values"])
        value = {"values": values}
    else:
        raise MergeConflict(
            f"cannot fold shard partials of unknown probe kind {kind!r}"
        )
    return {
        "key": parent_key,
        "kind": kind,
        "spec": parent_spec,
        "value": value,
        "counters": counters,
    }


def merge_stores(inputs: Sequence[Union[str, Path]],
                 output: Union[str, Path]) -> MergeReport:
    """Fold shard probe stores into ``output`` (a cache directory).

    ``inputs`` are shard cache directories (or direct ``probes.jsonl``
    paths); the existing contents of ``output``, if any, participate in
    the merge as well, so repeated rounds accumulate monotonically.
    Returns a :class:`MergeReport`; raises :class:`MergeConflict` when
    stores disagree.
    """
    out_path = _store_path(output)
    sources = [out_path] + [_store_path(item) for item in inputs]
    report = MergeReport()
    by_key: Dict[str, Dict[str, Any]] = {}
    for source in sources:
        if not source.exists():
            continue
        for record in _verified_records(source):
            report.records_in += 1
            known = by_key.get(record["key"])
            if known is None:
                by_key[record["key"]] = record
            elif _payload(known) != _payload(record):
                raise MergeConflict(
                    f"key {record['key'][:16]} holds two different "
                    f"payloads across the merged stores"
                )
    #: parent key -> (kind, parent spec, the group's partial records)
    partial_groups: Dict[str, Tuple[str, Dict[str, Any],
                                    List[Dict[str, Any]]]] = {}
    merged: Dict[str, Dict[str, Any]] = {}
    for key, record in by_key.items():
        if "shard" in record["spec"]:
            report.partial_records += 1
            kind, parent_spec, parent_key = _parent_of(record)
            partial_groups.setdefault(
                parent_key, (kind, parent_spec, []))[2].append(record)
        else:
            report.full_records += 1
        merged[key] = record
    for parent_key, (kind, parent_spec, partials) in partial_groups.items():
        folded = _fold_group(kind, parent_spec, parent_key, partials)
        if folded is None:
            report.pending_groups += 1
            report.pending_keys.append(parent_key[:16])
            continue
        known = merged.get(parent_key)
        if known is not None and _payload(known) != _payload(folded):
            raise MergeConflict(
                f"folded probe {parent_key[:16]} disagrees with the full "
                f"record already present in the merged store"
            )
        if known is None:
            merged[parent_key] = folded
            report.folded_groups += 1
    report.pending_keys.sort()
    out_path.parent.mkdir(parents=True, exist_ok=True)
    replace_file(out_path, b"".join(encode_record(merged[key])
                                    for key in sorted(merged)))
    return report
