"""Append-only JSON-lines record store backing the probe cache.

The store holds one JSON object per line and only ever *appends*: records
are immutable facts ("probe X evaluated to Y"), so there is nothing to
update in place and a crash can at worst leave one torn trailing line,
which :meth:`JsonlStore.read_new` never reads: it and the run ledger's
:func:`repro.observe.ledger.read_events` share one complete-lines rule
(:func:`repro.utils.appendfile.parse_complete_lines`).

Safety under the :class:`~repro.utils.parallel.TrialExecutor` process
pool comes from two properties:

* cache lookups and stores happen in the *parent* process (the trial
  functions shipped to workers never see the cache), and the store
  refuses appends from any process other than the one that opened it —
  a forked worker inheriting the handle cannot write duplicate or torn
  lines;
* each record is written as one whole line by
  :class:`~repro.utils.appendfile.AppendOnlyFile` — a single ``os.write``
  to an ``O_APPEND`` descriptor under a shared ``flock``, with the first
  append trimming a dead writer's torn tail under the exclusive lock — so
  concurrent *separate* processes sharing one cache directory (a server
  worker and a CLI run, or N shard passes) append atomically and can
  never tear or glue each other's lines.  The run ledger appends through
  the same helper.  Duplicate keys are harmless — both lines hold the
  same value by construction and the probe index keeps the first.

Within one process, the helper serializes the descriptor's lifecycle for
the server's ``asyncio.to_thread`` workers appending through one store,
and a lock here serializes :meth:`JsonlStore.read_new`'s follow offset.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..utils.appendfile import AppendOnlyFile, parse_complete_lines
from ..utils.serialization import json_default

__all__ = ["JsonlStore", "encode_record"]


def encode_record(record: Dict[str, Any]) -> bytes:
    """One record's line: sorted-key JSON and its newline.

    Serialized strictly: numpy scalars/arrays are converted via
    :func:`repro.utils.serialization.json_default`, and non-finite floats
    raise ``ValueError`` instead of writing ``NaN``/``Infinity`` tokens —
    those are not JSON, and only Python's lenient parser would ever read
    the line back (``canonical_json`` already rejects them on the key
    side).
    """
    line = json.dumps(record, sort_keys=True, allow_nan=False,
                      default=json_default)
    return (line + "\n").encode("utf-8")


class JsonlStore:
    """Append-only JSONL file, loaded by complete lines."""

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        self._pid = os.getpid()
        self._file = AppendOnlyFile(self._path)
        self._lock = threading.Lock()
        #: (inode, byte offset) where :meth:`read_new` stopped.
        self._follow_at: Tuple[Optional[int], int] = (None, 0)

    @property
    def path(self) -> Path:
        return self._path

    def load(self) -> List[Dict[str, Any]]:
        """All records currently on disk, oldest first.

        A torn trailing line (crash or concurrent writer mid-append, so no
        newline yet) is skipped; an unparseable *complete* line raises,
        since that means corruption rather than an interrupted write.
        This is a fresh follower's first :meth:`read_new`.
        """
        return JsonlStore(self._path).read_new()

    def read_new(self) -> List[Dict[str, Any]]:
        """Records completed since the previous call (all, on the first).

        Follows the file from the byte offset the previous call stopped
        at and reads only ``\\n``-terminated lines: a final line still
        missing its newline (a writer mid-append) is left for a later
        call, so every record is returned exactly once, whole.  A file
        replaced underneath (a merge rewrites its output store) or
        truncated is read again from the start.
        """
        with self._lock:
            try:
                handle = open(self._path, "rb")
            except FileNotFoundError:
                self._follow_at = (None, 0)
                return []
            with handle:
                stat = os.fstat(handle.fileno())
                inode, offset = self._follow_at
                if inode != stat.st_ino or stat.st_size < offset:
                    offset = 0
                handle.seek(offset)
                data = handle.read(stat.st_size - offset)
            records, end = parse_complete_lines(
                data, f"{self._path} (from byte {offset})")
            self._follow_at = (stat.st_ino, offset + end)
        return records

    def append(self, record: Dict[str, Any]) -> None:
        """Append one record; a no-op in forked child processes.

        The line (:func:`encode_record`) is serialized *before* touching
        the file, so a rejected record leaves the store unchanged.

        The line is appended whole by
        :class:`~repro.utils.appendfile.AppendOnlyFile` (one ``os.write``
        on an ``O_APPEND`` descriptor under a shared ``flock``), so
        records appended concurrently from several processes land as
        whole lines in some order, never interleaved mid-line or glued
        onto a dead writer's torn tail.
        """
        if os.getpid() != self._pid:
            return
        data = encode_record(record)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._file.append(data)

    def close(self) -> None:
        """Release the append descriptor (idempotent; reopened on demand)."""
        self._file.close()

    def __repr__(self) -> str:
        return f"JsonlStore({self._path})"
