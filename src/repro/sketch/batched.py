"""Batched trial kernels: ``B`` sketch draws applied in one vectorized call.

The Monte-Carlo loop in :mod:`repro.core.tester` pays per-trial Python
overhead for every draw: one sampler call, one scatter, one ``(m, d)`` SVD.
This module fuses ``B`` trials of the column-scatter families (CountSketch,
OSNAP).  A :class:`BatchedColumnScatter` holds the ``B`` hash keys of
independently sampled sketches, hashes the support columns of all ``B``
structured hard-instance draws in one call, sorts each trial's entries
by row, and hands the chunk to
:func:`repro.linalg.distortion.distortions_of_products` in the form its
route takes: near-square chunks (the CountSketch shape) as a dense stack
from one batch-axis ``np.bincount`` scatter, whose isolated columns are
taken by their norms and coupled columns by one gufunc-batched SVD; tall
chunks (the OSNAP shape) as their hashed entries
(:class:`~repro.linalg.distortion.SparseProducts`), from which the
reducer builds the ``d × d`` Gram matrices in sub-blocks of trials and
takes their symmetric eigenvalues.

Row compaction
--------------
``ΠU`` for a structured ``D_β`` draw has at most ``s·reps·d`` potentially
nonzero rows — typically far fewer than ``m`` — and removing zero rows
changes no singular value.  A near-square chunk is therefore scattered
into a *row-compacted* stack ``(B, k_pad, d)`` with ``k_pad ≤ m``, which
is what makes the batched reduction cheaper than ``B`` full-height SVDs.
A tall chunk never forms its products: at the reference grid (d=64,
m=1024, OSNAP s=4 on ``D_{1/2}``) a trial's ``≈417 × 64`` product is 1.9%
nonzero, and its Gram matrix needs only the ``reps·d·s = 512`` entries
and the pairs of them that share a row.  The true row count still
decides the ``m < d`` annihilation rule; see
:func:`repro.linalg.distortion.distortions_of_products`, the reducer the
per-trial engine shares (it compacts each product with
:func:`~repro.linalg.distortion.compact_rows`).

Determinism contract
--------------------
The batch path owns its accumulation order (it may differ from the serial
kernels at the ULP level, e.g. for ``reps > SCATTER_MAX_REPS`` where the
serial path switches to the gather arithmetic), but it is *canonical*:
a fixed seed gives bit-identical results across serial/parallel execution
and cold/warm cache, because chunk decomposition is pinned to the batch
size and every data-dependent choice (``k_pad`` and with it the route,
group order, and the reducer's coupled-block width — the stack's largest
count of columns that share a row with another column) is a pure
function of the chunk's draws.  The per-trial accumulation order
actually coincides with the serial scatter (entries are inserted
selected-column-major with the ``s`` axis inner, the stable row sort
keeps that order within a row, and distinct within-column rows mean no
bin ever receives two entries from the same column), so dense products
and tall chunks' entries are bit-identical to the serial kernels' on the
surviving rows — ``tests/test_batched_trials.py`` pins this.  Within a
tall chunk a trial's value does not depend on its chunk-mates: its Gram
matrix sums its own entries in their own order.

Samplers
--------
CountSketch and OSNAP override
:meth:`repro.sketch.base.SketchFamily.sample_trial_batch` to build these
kernels with *stream-faithful* sampling: it receives one stream per trial
and consumes each exactly as the serial sampler would, so
``trial_kernel(i)`` reconstructs the very kernel
``sample(streams[i], lazy=True)`` would have produced.  In the trial
engine a trial's stream is a :class:`~repro.utils.rng.KeyedStream`
holding its sketch key (lane 0 of the trial's counter-based word, see
:func:`repro.utils.rng.trial_keys`), so the keys are taken as they are —
no generator is built — and the columns a trial reads are hashed only
when :meth:`BatchedColumnScatter.sketched_bases` needs them.  Every other
family keeps the default ``None`` and runs the per-trial path on the same
streams, bit-identical to ``batch=None``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

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

    def trial_kernel(self, index: int) -> ColumnScatterKernel:
        """The per-trial kernel for batch slot ``index``, identical to what
        the family's serial ``sample(..., lazy=True)`` would have attached
        at the same sub-stream."""
        return ColumnScatterKernel(self._keys[index], self._s, self.shape,
                                   self._variant)

    def distortions(self, draws: Sequence[Any]) -> np.ndarray:
        """Per-trial distortions for one draw per batch slot.

        Groups the draws by ``(reps, d)`` (mixture components differ),
        runs one vectorized ``sketched_bases`` + batched reduction per
        group in deterministic (sorted-key) order, and scatters the
        results back into trial order.  Unstructured draws fall back to
        the per-trial kernel apply, bit-identical to the serial path.
        """
        if len(draws) != self.batch:
            raise ValueError(
                f"expected {self.batch} draws, got {len(draws)}"
            )
        out = np.empty(len(draws))
        groups: Dict[Tuple[int, int], List[int]] = {}
        for index, draw in enumerate(draws):
            if getattr(draw, "structured", False):
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
                       ) -> Union[np.ndarray, SparseProducts]:
        """The products ``Π_i U_i`` of a uniform-``(reps, d)`` group of
        structured draws, in the form their reduction takes.

        ``indices[i]`` names the batch slot whose sketch applies to
        ``draws[i]`` (all slots in order when omitted).  Mixed-``reps``
        draws — e.g. from a :class:`~repro.hardinstances.mixtures.\
MixtureInstance` — must go through :meth:`distortions`, which groups them.

        A group of several trials whose products touch more than ``2d``
        rows (``k_pad``, the most rows one trial touches) is *tall* and
        comes back as its hashed entries, a :class:`~repro.linalg.\
distortion.SparseProducts` for the Gram route.  Any other group is
        scattered into a dense row-compacted stack ``(len(draws), k_pad,
        d)``.
        """
        idx = self._resolve_indices(draws, indices)
        reps, d, drows, dsigns = _uniform_group(draws)
        group = idx.size
        q = reps * d
        s, m = self._s, self.m
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
        # which numpy radix-sorts.  k_pad, the route and every row id are
        # pure functions of the chunk's draws, so chunked execution is
        # deterministic.
        width = q * s
        keys = sel_rows.reshape(group, width).astype(np.min_scalar_type(m - 1))
        del sel_rows  # the chunk's largest arrays die as soon as they can
        order = np.argsort(keys, axis=1, kind="stable")
        order += np.arange(group)[:, None] * width
        order = order.ravel()
        rows = keys.ravel()[order]
        del keys
        first = np.empty(rows.size, dtype=bool)
        np.not_equal(rows[1:], rows[:-1], out=first[1:])
        first[::width] = True
        counts = np.count_nonzero(first.reshape(group, width), axis=1)
        k_pad = int(max(d, counts.max()))
        if group > 1 and k_pad > 2 * d:
            values = sel_vals.ravel()[order]
            del sel_vals
            order %= width
            order //= s * reps                              # output columns
            return self._entries((group, m, d), rows, order, values, first)
        # Compact row ids: per trial, the touched rows in ascending order.
        rowc = np.empty_like(order)
        rowc[order] = np.cumsum(first.reshape(group, width), axis=1).ravel()
        rowc -= 1
        rowc = rowc.reshape(group, q, s)
        out_cols = np.repeat(np.arange(d), reps)            # (q,)
        # The scatter block has room for the most rows a trial of this
        # shape can touch, and the products are its first k_pad rows, so
        # every chunk of one shape asks the allocator for the same block.
        # glibc mmaps a request larger than any block freed so far while
        # the heap keeps the last one resident: a block that grew with
        # k_pad raised peak memory by one product in some runs only.
        k_cap = max(d, min(m, q * s))
        bix = np.arange(group)[:, None, None]
        lin = (bix * k_cap + rowc) * d + out_cols[None, :, None]
        # Flattened selected-column-major with the s axis inner: within
        # each trial this is exactly the serial scatter's insertion order,
        # and distinct within-column rows mean every output bin accumulates
        # its entries in the same sequence — the products are bit-identical
        # to the serial kernel scatter on the surviving rows.
        flat = np.bincount(lin.ravel(), weights=sel_vals.ravel(),
                           minlength=group * k_cap * d)
        return flat.reshape(group, k_cap, d)[:, :k_pad]

    @staticmethod
    def _entries(shape: Tuple[int, int, int], rows: np.ndarray,
                 cols: np.ndarray, values: np.ndarray,
                 first: np.ndarray) -> SparseProducts:
        """The hashed entries, each trial's sorted by row, as a sparse
        stack; ``first`` flags each trial's first entry in every row.

        Support columns of one output column that hash to one row land on
        one position; their entries are summed in insertion order, as the
        dense scatter sums them (an exact cancellation stores a 0).
        """
        repeat = ~first
        repeat[1:] &= cols[1:] == cols[:-1]
        keep = np.flatnonzero(~repeat)
        kept = np.count_nonzero(~repeat.reshape(shape[0], -1), axis=1)
        return SparseProducts(shape, np.concatenate(([0], np.cumsum(kept))),
                              rows[keep], cols[keep],
                              np.add.reduceat(values, keep))

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(batch={self.batch}, "
                f"shape={self._shape})")
