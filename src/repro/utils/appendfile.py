"""Whole-line appends to, and complete-line reads of, shared JSON-lines
files, and whole-file replaces of shared files.

The probe store (:class:`repro.cache.store.JsonlStore`) and the run ledger
(:class:`repro.observe.ledger.RunLedger`) are JSON-lines files that
several writers may extend at once — a server's compute threads, a CLI
run or N shard passes on the same directory.  :class:`AppendOnlyFile` is
the append discipline both follow:

* each append is **one ``os.write`` of whole ``\\n``-terminated lines to
  an ``O_APPEND`` descriptor**, so concurrent appenders land as whole
  lines in some order, never interleaved mid-line (POSIX serializes the
  implicit seek+write of ``O_APPEND`` writes; buffered handles, by
  contrast, may flush a line in several syscalls);
* every append holds a shared ``fcntl.flock`` across its write, and the
  first append of a handle trims a torn tail under the exclusive lock
  after re-reading it.  A writer killed mid-append releases its lock as
  it dies, so the trim waits out live writers and only ever truncates a
  dead one's fragment — the next line is never glued onto it;
* within one process, a lock serializes the descriptor's lifecycle, so
  two first appends cannot both open a descriptor (leaking one) and a
  ``close`` cannot pull it from under a write.

:func:`parse_complete_lines` is the matching read rule: a line counts
once its newline lands, so a final line without one (a writer
mid-append, or a dead writer's fragment the next append trims) is never
read, and a complete line that does not parse is corruption and raises.

:func:`replace_file` is the rule for files rewritten whole — a merged
probe store, a checkpoint, a result JSON: each write goes
to a temporary of its own and is moved into place with one
``os.replace``, so concurrent writers of one target never share a
temporary and the target always holds one complete write.
"""

from __future__ import annotations

import fcntl
import json
import os
import threading
from pathlib import Path
from typing import Any, List, Optional, Tuple, Union

__all__ = ["AppendOnlyFile", "parse_complete_lines", "replace_file"]


class AppendOnlyFile:
    """Append-only writer of whole lines; the descriptor opens on demand."""

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        self._fd: Optional[int] = None
        self._lock = threading.Lock()

    def append(self, data: bytes) -> None:
        """Append ``data`` — whole ``\\n``-terminated lines — in one write."""
        with self._lock:
            if self._fd is None:
                self._trim_torn_tail()
                self._fd = os.open(
                    str(self._path),
                    os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                    0o666,
                )
            fcntl.flock(self._fd, fcntl.LOCK_SH)
            try:
                written = os.write(self._fd, data)
                while written < len(data):  # pragma: no cover - short
                    # writes to regular files essentially never happen;
                    # loop for POSIX correctness.
                    written += os.write(self._fd, data[written:])
            finally:
                fcntl.flock(self._fd, fcntl.LOCK_UN)

    def _trim_torn_tail(self) -> None:
        """Drop a torn final line before the first append of this handle.

        A writer killed mid-append can leave a final line without its
        newline.  Readers skip that fragment, but appending *after* it
        would glue the next line onto the garbage and corrupt a line in
        the middle of the file — so the fragment is truncated away first.
        A missing newline can also be a live writer's line that a reader
        sees half-written, so the tail is judged under the exclusive
        ``flock``: it waits out every append in flight (each holds the
        shared lock across its write), and a fragment still there is a
        dead writer's.
        """
        try:
            handle = open(self._path, "r+b")
        except FileNotFoundError:
            return
        with handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            size = handle.seek(0, os.SEEK_END)
            if size == 0:
                return
            handle.seek(size - 1)
            if handle.read(1) == b"\n":
                return
            handle.seek(0)
            handle.truncate(handle.read().rfind(b"\n") + 1)

    def close(self) -> None:
        """Release the descriptor (idempotent; reopened on demand)."""
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None


def parse_complete_lines(data: bytes, source: str) -> Tuple[List[Any], int]:
    """The JSON values of ``data``'s ``\\n``-terminated lines, and their
    byte length.

    Bytes after the last newline are left unread; blank lines are
    skipped.  A complete line that does not parse raises ``ValueError``
    naming ``source`` and the line's number within ``data``.
    """
    end = data.rfind(b"\n") + 1
    values: List[Any] = []
    for number, line in enumerate(data[:end].splitlines(), start=1):
        if not line.strip():
            continue
        try:
            values.append(json.loads(line))
        except json.JSONDecodeError:
            raise ValueError(
                f"{source}: unparseable line {number}: {line[:80]!r}"
            ) from None
    return values, end


def replace_file(path: Union[str, Path], data: bytes) -> Path:
    """Replace ``path`` with a file holding ``data``; returns ``path``.

    ``data`` is written to a temporary of this call's own, a random name
    in ``path``'s directory created with ``O_EXCL`` (so it is never an
    existing file) and the mode a plain ``open`` gives (0o666 under the
    umask), which one ``os.replace`` then moves onto ``path``.  Readers
    see the old file or the new one, never a part of either, and writers
    of one target never write, move or remove each other's temporary:
    the last replace wins whole.  A write that fails removes its
    temporary.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(str(tmp), os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
