"""Canonical hashing of probe specifications.

A cache key must be a pure function of *what* is being computed — the
sketch-family spec, the hard-instance spec, the probe parameters, and the
seed fingerprint — and of nothing else (not dictionary insertion order,
not numpy scalar types, not the ``workers`` setting).  This module turns a
spec dictionary into a canonical JSON string and content-addresses it with
SHA-256.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

from ..utils.serialization import to_builtin

__all__ = ["canonical_json", "cache_key", "canonical_key"]


def canonical_json(spec: Dict[str, Any]) -> str:
    """Serialize ``spec`` into a canonical JSON string.

    Numpy scalars/arrays are coerced to builtins first, keys are sorted,
    and separators are fixed, so logically equal specs produce identical
    strings regardless of construction order or numeric wrapper types.
    Non-finite floats are rejected: a spec containing NaN cannot compare
    equal to itself and would poison the key space.
    """
    return json.dumps(
        to_builtin(spec), sort_keys=True, separators=(",", ":"),
        allow_nan=False,
    )


def cache_key(kind: str, spec: Dict[str, Any]) -> str:
    """Content address of a probe: SHA-256 over kind + canonical spec."""
    return canonical_key(kind, canonical_json(spec))


def canonical_key(kind: str, canonical: str) -> str:
    """:func:`cache_key` of a spec already in :func:`canonical_json` form."""
    digest = hashlib.sha256()
    digest.update(kind.encode("utf-8"))
    digest.update(b"\n")
    digest.update(canonical.encode("utf-8"))
    return digest.hexdigest()
