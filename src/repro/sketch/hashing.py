"""Keyed column hash defining CountSketch and OSNAP.

A column-sparse sketch ``Π`` with exactly ``s`` nonzeros per column is the
classical hash-function object of Nelson–Nguyễn (arXiv:1308.3280): column
``j``'s rows and signs are functions of ``j`` under a randomly keyed hash.
Here the key is one uint64 drawn from the sketch's RNG stream
(:func:`repro.utils.rng.draw_key`), and every hash word is a splitmix64
finalizer over ``(key, j, lane)``::

    h_j       = mix(key + (j + 1)·φ)          (one word per column)
    H(j, t)   = mix(h_j + (t + 1)·φ)          (lane t of column j)

with ``φ = 0x9E3779B97F4A7C15``.  Even lanes ``2t`` give rows, odd lanes
``2i + 1`` the sign of entry ``i``:

* ``s = 1`` (CountSketch): the row is lane 0, the sign lane 1;
* ``"uniform"``: the rows are the first ``s`` distinct values of lanes
  0, 2, 4, …  reduced to ``[0, m)``.  In the dense regime ``2s > m`` that
  sequence would need a coupon-collector's number of lanes, so instead the
  column keeps the ``s`` rows whose lane words ``H(j, 2r)``, ``r < m``, are
  smallest — a uniform ``s``-subset, evaluated the same per-column way.
  This is :func:`repro.utils.rng.keyed_sample`, the construction that
  also draws the ``D_β`` supports;
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

from ..utils.rng import keyed_sample, keyed_words, lane_words, reduce_words

__all__ = [
    "STREAM_VERSION",
    "VARIANTS",
    "check_column_hash",
    "column_hash",
]

#: Version of the hash that defines CountSketch/OSNAP; part of their
#: ``spec()``, so probes cached under another definition of ``Π`` miss.
STREAM_VERSION = 2

#: Row-layout variants of the column hash.
VARIANTS = ("uniform", "block")

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
    base = keyed_words(key_flat, col_flat + np.uint64(1))
    if s == 1:
        # One mix over both lanes of every column, H(j, t) for t = 0 (the
        # row, in either variant: the one block is all m rows) and t = 1
        # (the sign), lane-major so that each lane is a contiguous array.
        row_words, sign_words = keyed_words(base, [[1], [2]])
        rows = reduce_words(row_words, m)
        signs = 1.0 - 2.0 * (sign_words >> np.uint64(63))
    elif variant == "block":
        even = 2 * np.arange(s)
        block = m // s
        rows = even // 2 * block + reduce_words(lane_words(base, even),
                                                block)
        signs = 1.0 - 2.0 * (lane_words(base, even + 1) >> np.uint64(63))
    else:
        # Row and sign lanes are mixed in separate calls: for the batched
        # engine's thousands of columns one (K, 2s) block is no faster,
        # and its doubled temporaries raised peak memory.
        rows, signs = keyed_sample(base, s, m)
    return rows.reshape(shape + (s,)), signs.reshape(shape + (s,))
