"""Batched trial kernels: ``B`` sketch draws applied in one vectorized call.

The Monte-Carlo loop in :mod:`repro.core.tester` would pay per-trial
Python overhead for every draw: one sampler call, one scatter, one
``(m, d)`` SVD.  For the column-scatter families (CountSketch, OSNAP) it
runs ``B`` trials at once instead.  A :class:`BatchedColumnScatter` holds
the ``B`` hash keys of independently sampled sketches, hashes the support
columns of all ``B`` structured hard-instance draws in one call, sorts
each trial's entries by row, and hands the chunk to
:func:`repro.linalg.distortion.distortions_of_products` as its hashed
entries (:class:`~repro.linalg.distortion.SparseProducts`).  The reducer
picks each trial's route from the rows it touches: a near-square trial
(the CountSketch shape) takes isolated columns by their norms and
coupled columns by a gufunc-batched SVD of the chunk's blocks of its
exact shape, a tall one (the OSNAP shape) the symmetric eigenvalues of
its ``d × d`` Gram matrix, built in sub-blocks of trials.

Row compaction
--------------
``ΠU`` for a structured ``D_β`` draw has at most ``s·reps·d`` potentially
nonzero rows — typically far fewer than ``m`` — and removing zero rows
changes no singular value.  No chunk ever forms its dense products: a
trial's entries name only the rows it touches.  At the reference grid
(d=64, m=1024) a CountSketch trial on ``D_1`` has 64 entries, and an
OSNAP trial (s=4 on ``D_{1/2}``) has 512 in ``≈417`` rows, so its
``417 × 64`` product would be 1.9% nonzero; both routes need only the
column norms and the entries that share a row.  The true row count
still decides the ``m < d`` annihilation rule; see
:func:`repro.linalg.distortion.distortions_of_products`, the reducer the
dense families share (it reduces each row-compacted product,
:func:`~repro.linalg.distortion.compact_rows`, as a dense stack of one).

Determinism contract
--------------------
A trial's value depends only on its own sketch key and draw, never on
the trials it shares a chunk with: its entries are hashed, sorted and
summed per trial, its route is chosen from its own entries, its coupled
block is reduced at its own exact shape, and its Gram matrix sums its
own entries in their own order.  So any chunking — the ``batch`` chunk
size, worker count or shard split — gives the same bits, and ``batch``
is an execution knob only.  The per-trial accumulation order coincides
with the dense kernels' scatter (entries are inserted
selected-column-major with the ``s`` axis inner, the stable row sort
keeps that order within a row, and distinct within-column rows mean no
position ever receives two entries from the same column), so every
trial's entries are bit-identical to the kernel's product on the rows it
touches — ``tests/test_batched_trials.py`` pins this.  Only the
reduction differs from the dense per-trial SVD, at the ULP level.

Samplers
--------
CountSketch and OSNAP override
:meth:`repro.sketch.base.SketchFamily.sample_trial_batch` to build these
kernels with *stream-faithful* sampling: it receives one stream per trial
and consumes each exactly as the per-trial sampler would, so
``trial_kernel(i)`` reconstructs the very kernel
``sample(streams[i])`` would have produced.  In the trial
engine a trial's stream is a :class:`~repro.utils.rng.KeyedStream`
holding its sketch key (lane 0 of the trial's counter-based word, see
:func:`repro.utils.rng.trial_keys`), so the keys are taken as they are —
no generator is built — and the columns a trial reads are hashed only
when :meth:`BatchedColumnScatter.sketched_bases` needs them.  A probe's
fixed sketch is a batch of one key, :meth:`~BatchedColumnScatter.\
repeated` for every trial.  Every other family keeps the default
``None`` and reduces each trial's dense product on its own.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..linalg.distortion import (
    SparseProducts,
    distortion_of_product,
    distortions_of_products,
)
from ..observe.counters import add_count
from .hashing import check_column_hash, column_hash
from .kernels import ColumnScatterKernel, ShapeLike

__all__ = ["BatchedColumnScatter"]


def _uniform_group(draws: Sequence[Any]) -> Tuple[int, int, np.ndarray,
                                                  np.ndarray]:
    """Validate a uniform ``(reps, d)`` group and stack its support arrays."""
    reps = int(draws[0].reps)
    d = int(draws[0].d)
    for draw in draws[1:]:
        if int(draw.reps) != reps or int(draw.d) != d:
            raise ValueError(
                "sketched_bases needs draws with uniform (reps, d); "
                "group mixed draws via BatchedColumnScatter.distortions"
            )
    drows = np.stack([np.asarray(draw.rows, dtype=np.int64)
                      for draw in draws])
    dsigns = np.stack([np.asarray(draw.signs, dtype=np.float64)
                       for draw in draws])
    return reps, d, drows, dsigns


class BatchedColumnScatter:
    """``B`` stacked column-scatter sketches (CountSketch, OSNAP).

    Each sketch is the keyed column hash of :class:`ColumnScatterKernel`,
    so the batch stores only ``B`` keys; :meth:`sketched_bases` hashes the
    ``(B, q)`` support columns of all trials in one vectorized call.

    Parameters
    ----------
    keys:
        ``B`` uint64 hash keys, one per sketch.
    s:
        Exact column sparsity; entries are ``±1/√s``.
    shape:
        The per-sketch dimensions ``(m, n)``.
    variant:
        ``"uniform"`` or ``"block"`` row layout.
    """

    def __init__(self, keys: Sequence[Any], s: int, shape: ShapeLike,
                 variant: str = "uniform") -> None:
        flat = np.asarray(keys, dtype=np.uint64)
        if flat.ndim != 1:
            raise ValueError(f"keys must be 1-D, got shape {flat.shape}")
        m, n = shape
        if flat.size == 0:
            raise ValueError("batch must be positive, got 0")
        if m <= 0 or n <= 0:
            raise ValueError(f"kernel shape must be positive, got {shape}")
        self._shape: Tuple[int, int] = (int(m), int(n))
        check_column_hash(s, self.m, variant)
        self._keys = flat
        self._s = int(s)
        self._variant = variant

    @property
    def batch(self) -> int:
        """Number of stacked sketch draws ``B``."""
        return self._keys.size

    @property
    def shape(self) -> Tuple[int, int]:
        """Common ``(m, n)`` shape of every stacked sketch."""
        return self._shape

    @property
    def m(self) -> int:
        """Target (row) dimension."""
        return self._shape[0]

    @property
    def n(self) -> int:
        """Ambient (column) dimension."""
        return self._shape[1]

    @property
    def s(self) -> int:
        """Exact column sparsity."""
        return self._s

    def repeated(self, count: int) -> "BatchedColumnScatter":
        """``count`` slots holding this batch's one sketch: a fixed sketch
        applied to every trial of a block."""
        if self.batch != 1:
            raise ValueError(
                f"only a batch of one sketch repeats, got {self.batch}"
            )
        return BatchedColumnScatter(np.repeat(self._keys, count), self._s,
                                    self.shape, self._variant)

    def trial_kernel(self, index: int) -> ColumnScatterKernel:
        """The per-trial kernel for batch slot ``index``, identical to what
        the family's serial ``sample`` would have drawn at the same
        sub-stream."""
        return ColumnScatterKernel(self._keys[index], self._s, self.shape,
                                   self._variant)

    def distortions(self, draws: Sequence[Any]) -> np.ndarray:
        """Per-trial distortions for one draw per batch slot.

        Groups the draws by ``(reps, d)`` (mixture components differ),
        runs one vectorized ``sketched_bases`` + batched reduction per
        group in deterministic (sorted-key) order, and scatters the
        results back into trial order.  Unstructured draws fall back to
        the trial's own kernel apply and dense reduction.
        """
        if len(draws) != self.batch:
            raise ValueError(
                f"expected {self.batch} draws, got {len(draws)}"
            )
        out = np.empty(len(draws))
        groups: Dict[Tuple[int, int], List[int]] = {}
        for index, draw in enumerate(draws):
            if draw.structured:
                key = (int(draw.reps), int(draw.d))
                groups.setdefault(key, []).append(index)
            else:
                product = self.trial_kernel(index).apply(
                    np.asarray(draw.u, dtype=np.float64)
                )
                out[index] = distortion_of_product(product)
        for key in sorted(groups):
            idx = groups[key]
            products = self.sketched_bases([draws[i] for i in idx],
                                           indices=idx)
            out[idx] = distortions_of_products(products, rows=self.m)
        add_count("batched_kernel_applies", len(draws))
        return out

    def _resolve_indices(self, draws: Sequence[Any],
                         indices: Optional[Sequence[int]]) -> np.ndarray:
        if indices is None:
            if len(draws) != self.batch:
                raise ValueError(
                    f"expected {self.batch} draws (or explicit indices), "
                    f"got {len(draws)}"
                )
            return np.arange(self.batch)
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size != len(draws):
            raise ValueError("indices must be 1-D with one entry per draw")
        if idx.size and (idx.min() < 0 or idx.max() >= self.batch):
            raise ValueError("batch index out of range")
        return idx

    def sketched_bases(self, draws: Sequence[Any],
                       indices: Optional[Sequence[int]] = None
                       ) -> SparseProducts:
        """The products ``Π_i U_i`` of a uniform-``(reps, d)`` group of
        structured draws, as their hashed entries.

        ``indices[i]`` names the batch slot whose sketch applies to
        ``draws[i]`` (all slots in order when omitted).  Mixed-``reps``
        draws — e.g. from a :class:`~repro.hardinstances.mixtures.\
MixtureInstance` — must go through :meth:`distortions`, which groups them.

        The result is a :class:`~repro.linalg.distortion.SparseProducts`
        of shape ``(len(draws), m, d)``.  Each trial's entries are sorted
        by row and then column; the support columns of one output column
        that hash to one row are summed into one entry in insertion
        order, as the serial scatter sums them (an exact cancellation
        stores a 0).  :func:`~repro.linalg.distortion.\
distortions_of_products` picks the route from the rows they touch.
        """
        idx = self._resolve_indices(draws, indices)
        reps, d, drows, dsigns = _uniform_group(draws)
        group = idx.size
        s, m = self._s, self.m
        width = reps * d * s
        weights = dsigns * (1.0 / np.sqrt(reps))            # (B, q)
        # Hash only the s nonzeros of each trial's q = reps·d support
        # columns, all trials at once: (B, q, s), entries inner.
        sel_rows, sel_vals = column_hash(self._keys[idx][:, None], drows, s,
                                         m, self._variant)
        sel_vals *= 1.0 / np.sqrt(s)
        sel_vals *= weights[:, :, None]
        # Each trial's entries by row.  The sort is stable, so the entries
        # of one row keep their insertion order: support-column-major,
        # hence by output column too.  Row ids below 2¹⁶ sort as uint16,
        # which numpy radix-sorts.
        keys = sel_rows.reshape(group, width).astype(np.min_scalar_type(m - 1))
        del sel_rows  # the chunk's largest arrays die as soon as they can
        order = np.argsort(keys, axis=1, kind="stable")
        order += np.arange(group)[:, None] * width
        order = order.ravel()
        rows = keys.ravel()[order]
        del keys
        values = sel_vals.ravel()[order]
        del sel_vals
        order %= width
        order //= s * reps                                  # output columns
        # A trial's first entry and each entry on a new position start a
        # run of entries that sums into one stored entry.
        fresh = np.ones(rows.size, dtype=bool)
        fresh[1:] = (rows[1:] != rows[:-1]) | (order[1:] != order[:-1])
        fresh[::width] = True
        keep = np.flatnonzero(fresh)
        starts = np.searchsorted(keep, np.arange(group + 1) * width)
        return SparseProducts((group, m, d), starts, rows[keep], order[keep],
                              np.add.reduceat(values, keep))

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(batch={self.batch}, "
                f"shape={self._shape})")
