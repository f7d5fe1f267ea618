"""Keyed column hash defining CountSketch and OSNAP.

A column-sparse sketch ``Π`` with exactly ``s`` nonzeros per column is the
classical hash-function object of Nelson–Nguyễn (arXiv:1308.3280): column
``j``'s rows and signs are functions of ``j`` under a randomly keyed hash.
Here the key is one uint64 drawn from the sketch's RNG stream, and every
hash word is a splitmix64 finalizer over ``(key, j, lane)``::

    h_j       = mix(key + (j + 1)·φ)          (one word per column)
    H(j, t)   = mix(h_j + (t + 1)·φ)          (lane t of column j)

with ``φ = 0x9E3779B97F4A7C15``.  Even lanes ``2t`` give rows, odd lanes
``2i + 1`` the sign of entry ``i``:

* ``s = 1`` (CountSketch): the row is lane 0, the sign lane 1;
* ``"uniform"``: the rows are the first ``s`` distinct values of lanes
  0, 2, 4, …  reduced to ``[0, m)``.  In the dense regime ``2s > m`` that
  sequence would need a coupon-collector's number of lanes, so instead the
  column keeps the ``s`` rows whose lane words ``H(j, 2r)``, ``r < m``, are
  smallest — a uniform ``s``-subset, evaluated the same per-column way;
* ``"block"``: block ``b`` of ``m/s`` rows holds one entry at lane ``2b``.

A word reduces to ``[0, m)`` by ``⌊word·m / 2⁶⁴⌋`` (exact 64×32-bit
multiply-shift), so every row's probability is within ``m/2⁶⁴`` of
``1/m``.  Because ``Π`` is a pure function of ``(key, s, m, n)``, any set
of columns can be evaluated on its own: a Monte-Carlo trial hashes only
the ``reps·d`` columns of its hard-instance support, never all ``n``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..utils.rng import RngLike, as_generator

__all__ = [
    "STREAM_VERSION",
    "VARIANTS",
    "check_column_hash",
    "column_hash",
    "draw_key",
]

#: Version of the hash that defines CountSketch/OSNAP; part of their
#: ``spec()``, so probes cached under another definition of ``Π`` miss.
STREAM_VERSION = 2

#: Row-layout variants of the column hash.
VARIANTS = ("uniform", "block")

_PHI = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_LOW32 = np.uint64(0xFFFFFFFF)
_M_LIMIT = 1 << 32


def check_column_hash(s: int, m: int, variant: str) -> None:
    """Reject ``(s, m, variant)`` combinations the hash cannot realize."""
    if s > m:
        raise ValueError(f"column sparsity s ({s}) cannot exceed m ({m})")
    if m >= _M_LIMIT:
        raise ValueError(f"m must be below 2**32, got {m}")
    if variant not in VARIANTS:
        raise ValueError(
            f"variant must be one of {VARIANTS}, got {variant!r}"
        )
    if variant == "block" and m % s != 0:
        raise ValueError(
            f"block variant requires s | m, got m={m}, s={s}"
        )


def draw_key(rng: RngLike = None) -> np.uint64:
    """One uniform uint64 hash key: the next 64-bit output of ``rng``'s
    bit generator (the value ``integers(2**64, dtype=np.uint64)`` would
    draw, without its bounds handling)."""
    return np.uint64(as_generator(rng).bit_generator.random_raw())


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's output finalizer, elementwise on a uint64 array."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _lanes(base: np.ndarray, lanes: np.ndarray) -> np.ndarray:
    """Lane words ``(K, L)`` for per-column words ``base`` ``(K,)``."""
    offsets = (lanes.astype(np.uint64) + np.uint64(1)) * _PHI
    return _mix(base[:, None] + offsets[None, :])


def _reduce(words: np.ndarray, m: int) -> np.ndarray:
    """``⌊words·m / 2⁶⁴⌋`` exactly, for ``m < 2³²``."""
    m64 = np.uint64(m)
    high = (words >> np.uint64(32)) * m64
    low = ((words & _LOW32) * m64) >> np.uint64(32)
    return ((high + low) >> np.uint64(32)).astype(np.int64)


def _first_occurrences(values: np.ndarray, m: int) -> np.ndarray:
    """Mask of the entries of ``values`` ``(K, T)`` (each in ``[0, m)``)
    that do not repeat an earlier entry of their row."""
    tagged = (values + m * np.arange(values.shape[0])[:, None]).ravel()
    order = np.argsort(tagged, kind="stable")
    ordered = tagged[order]
    fresh = np.ones(tagged.size, dtype=bool)
    fresh[1:] = ordered[1:] != ordered[:-1]
    first = np.empty(tagged.size, dtype=bool)
    first[order] = fresh
    return first.reshape(values.shape)


def _distinct_rows(base: np.ndarray, s: int, m: int) -> np.ndarray:
    """The first ``s`` distinct reduced even-lane words of every column.

    Lanes ``0, 2, …, 2s-2`` settle every column whose first ``s`` rows are
    already distinct; the rest are re-evaluated with twice the lanes until
    they show ``s`` distinct rows.  A lane's value never depends on how
    many lanes are evaluated, so the result is the sequence definition
    exactly.
    """
    rows = _reduce(_lanes(base, 2 * np.arange(s)), m)
    todo = np.flatnonzero(~_first_occurrences(rows, m).all(axis=1))
    lanes = s
    while todo.size:
        lanes *= 2
        values = _reduce(_lanes(base[todo], 2 * np.arange(lanes)), m)
        first = _first_occurrences(values, m)
        rank = np.cumsum(first, axis=1)
        done = rank[:, -1] >= s
        keep = first[done] & (rank[done] <= s)
        rows[todo[done]] = values[done][keep].reshape(-1, s)
        todo = todo[~done]
    return rows


def column_hash(keys: np.ndarray, cols: np.ndarray, s: int, m: int,
                variant: str = "uniform") -> Tuple[np.ndarray, np.ndarray]:
    """Rows and signs of hashed columns, one column per ``(key, col)`` pair.

    ``keys`` (uint64) and ``cols`` broadcast against each other to a
    common shape ``S``; the result is ``rows`` (int64) and ``signs``
    (float64 ±1), each of shape ``S + (s,)``, entries in hash order (rows
    distinct within a column, not sorted).
    """
    keys, cols = np.broadcast_arrays(np.asarray(keys, dtype=np.uint64),
                                     np.asarray(cols, dtype=np.int64))
    shape = keys.shape
    key_flat = keys.ravel()
    col_flat = cols.ravel().astype(np.uint64)
    base = _mix(key_flat + (col_flat + np.uint64(1)) * _PHI)
    if s == 1:
        # One mix over both lanes of every column, H(j, t) for t = 0 (the
        # row, in either variant: the one block is all m rows) and t = 1
        # (the sign), lane-major so that each lane is a contiguous array.
        row_words, sign_words = _mix(
            base + np.array([[1], [2]], dtype=np.uint64) * _PHI
        )
        rows = _reduce(row_words, m)
    else:
        # Row and sign lanes are mixed in separate calls here: for the
        # batched engine's thousands of columns one (K, 2s) block is no
        # faster, and its doubled temporaries raised peak memory.
        even = 2 * np.arange(s)
        if variant == "block":
            block = m // s
            rows = even // 2 * block + _reduce(_lanes(base, even), block)
        elif 2 * s > m:
            words = _lanes(base, 2 * np.arange(m))
            rows = np.argsort(words, axis=1, kind="stable")[:, :s]
        else:
            rows = _distinct_rows(base, s, m)
        sign_words = _lanes(base, even + 1)
    signs = 1.0 - 2.0 * (sign_words >> np.uint64(63))
    return rows.reshape(shape + (s,)), signs.reshape(shape + (s,))
