"""Batched trial kernels: ``B`` sketch draws applied in one vectorized call.

The Monte-Carlo loop in :mod:`repro.core.tester` pays per-trial Python
overhead for every draw: one sampler call, one scatter, one ``(m, d)`` SVD.
This module fuses ``B`` trials of the column-scatter families (CountSketch,
OSNAP).  A :class:`BatchedColumnScatter` holds the ``B`` hash keys of
independently sampled sketches, applies all of them to structured
hard-instance draws with a single batch-axis ``np.bincount`` scatter, and
reduces the stacked products with
:func:`repro.linalg.distortion.distortions_of_products`: near-square
stacks (the CountSketch shape) take each isolated column by its norm and
one gufunc-batched SVD of the coupled columns only, tall stacks (the
OSNAP shape) the symmetric eigenvalues of their ``d × d`` Gram matrices.

Row compaction
--------------
``ΠU`` for a structured ``D_β`` draw has at most ``s·reps·d`` potentially
nonzero rows — typically far fewer than ``m`` — and removing zero rows
changes no singular value.  ``sketched_bases`` therefore returns
*row-compacted* stacks ``(B, k_pad, d)`` with ``k_pad ≤ m``, which is what
makes the batched reduction cheaper than ``B`` full-height SVDs.  The true
row count still decides the ``m < d`` annihilation rule; see
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
size and every data-dependent choice (``k_pad``, group order, and the
reducer's coupled-block width — the stack's largest count of columns
that share a row with another column) is a pure function of the chunk's
draws.  The per-trial accumulation order actually coincides with the
serial scatter (entries are inserted selected-column-major with the ``s``
axis inner, and distinct within-column rows mean no bin ever receives two
entries from the same column), so the products are bit-identical to the
serial kernels' on the surviving rows — ``tests/test_batched_trials.py``
pins this.

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

import abc
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..linalg.distortion import (
    distortion_of_product,
    distortions_of_products,
)
from ..observe.counters import add_count
from .hashing import check_column_hash, column_hash
from .kernels import (
    ApplyKernel,
    ColumnScatterKernel,
    ShapeLike,
)

__all__ = [
    "BatchedTrialKernel",
    "BatchedColumnScatter",
]


def _uniform_group(draws: Sequence[Any]) -> Tuple[int, int, np.ndarray,
                                                  np.ndarray]:
    """Validate a uniform ``(reps, d)`` group and stack its support arrays."""
    reps = int(draws[0].reps)
    d = int(draws[0].d)
    for draw in draws[1:]:
        if int(draw.reps) != reps or int(draw.d) != d:
            raise ValueError(
                "sketched_bases needs draws with uniform (reps, d); "
                "group mixed draws via BatchedTrialKernel.distortions"
            )
    drows = np.stack([np.asarray(draw.rows, dtype=np.int64)
                      for draw in draws])
    dsigns = np.stack([np.asarray(draw.signs, dtype=np.float64)
                       for draw in draws])
    return reps, d, drows, dsigns


class BatchedTrialKernel(abc.ABC):
    """Stacked matrix-free representation of ``B`` sampled sketches."""

    def __init__(self, batch: int, shape: ShapeLike) -> None:
        m, n = shape
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        if m <= 0 or n <= 0:
            raise ValueError(f"kernel shape must be positive, got {shape}")
        self._batch = int(batch)
        self._shape: Tuple[int, int] = (int(m), int(n))

    @property
    def batch(self) -> int:
        """Number of stacked sketch draws ``B``."""
        return self._batch

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

    @abc.abstractmethod
    def sketched_bases(self, draws: Sequence[Any],
                       indices: Optional[Sequence[int]] = None) -> np.ndarray:
        """Row-compacted products ``Π_i U_i`` for a uniform-``(reps, d)``
        group of structured draws, stacked as ``(len(draws), k_pad, d)``.

        ``indices[i]`` names the batch slot whose sketch applies to
        ``draws[i]`` (all slots in order when omitted).  Mixed-``reps``
        draws — e.g. from a :class:`~repro.hardinstances.mixtures.\
MixtureInstance` — must go through :meth:`distortions`, which groups them.
        """

    @abc.abstractmethod
    def trial_kernel(self, index: int) -> ApplyKernel:
        """The per-trial :class:`ApplyKernel` for batch slot ``index``,
        identical to what the family's serial ``sample(..., lazy=True)``
        would have attached at the same sub-stream."""

    def distortions(self, draws: Sequence[Any]) -> np.ndarray:
        """Per-trial distortions for one draw per batch slot.

        Groups the draws by ``(reps, d)`` (mixture components differ),
        runs one vectorized ``sketched_bases`` + batched reduction per
        group in deterministic (sorted-key) order, and scatters the
        results back into trial order.  Unstructured draws fall back to
        the per-trial kernel apply, bit-identical to the serial path.
        """
        if len(draws) != self._batch:
            raise ValueError(
                f"expected {self._batch} draws, got {len(draws)}"
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
            if len(draws) != self._batch:
                raise ValueError(
                    f"expected {self._batch} draws (or explicit indices), "
                    f"got {len(draws)}"
                )
            return np.arange(self._batch)
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size != len(draws):
            raise ValueError("indices must be 1-D with one entry per draw")
        if idx.size and (idx.min() < 0 or idx.max() >= self._batch):
            raise ValueError("batch index out of range")
        return idx

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(batch={self._batch}, "
                f"shape={self._shape})")


class BatchedColumnScatter(BatchedTrialKernel):
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
        super().__init__(flat.size, shape)
        check_column_hash(s, self.m, variant)
        self._keys = flat
        self._s = int(s)
        self._variant = variant

    @property
    def s(self) -> int:
        """Exact column sparsity."""
        return self._s

    def trial_kernel(self, index: int) -> ColumnScatterKernel:
        return ColumnScatterKernel(self._keys[index], self._s, self.shape,
                                   self._variant)

    def sketched_bases(self, draws: Sequence[Any],
                       indices: Optional[Sequence[int]] = None) -> np.ndarray:
        idx = self._resolve_indices(draws, indices)
        reps, d, drows, dsigns = _uniform_group(draws)
        group = idx.size
        q = reps * d
        weights = dsigns * (1.0 / np.sqrt(reps))            # (B, q)
        bix = np.arange(group)[:, None, None]
        # Hash only the s nonzeros of each trial's q = reps·d support
        # columns, all trials at once: (B, q, s), entries inner.
        sel_rows, signs = column_hash(self._keys[idx][:, None], drows,
                                      self._s, self.m, self._variant)
        sel_vals = signs * (1.0 / np.sqrt(self._s))
        sel_vals = sel_vals * weights[:, :, None]
        # Compact row ids: per trial, the unique touched rows in ascending
        # order.  k_pad is a pure function of the chunk's draws, so chunked
        # execution is deterministic.
        m = self.m
        tagged = bix * m + sel_rows                         # (B, q, s)
        uniq, inv = np.unique(tagged.ravel(), return_inverse=True)
        starts = np.searchsorted(uniq // m, np.arange(group + 1))
        counts = np.diff(starts)
        k_pad = int(max(d, counts.max()))
        rowc = (np.arange(uniq.size) - starts[uniq // m])[inv]
        rowc = rowc.reshape(group, q, self._s)
        out_cols = np.repeat(np.arange(d), reps)            # (q,)
        # The scatter block has room for the most rows a trial of this
        # shape can touch, and the products are its first k_pad rows, so
        # every chunk of one shape asks the allocator for the same block.
        # glibc mmaps a request larger than any block freed so far while
        # the heap keeps the last one resident: a block that grew with
        # k_pad raised peak memory by one product in some runs only.
        k_cap = max(d, min(m, q * self._s))
        lin = (bix * k_cap + rowc) * d + out_cols[None, :, None]
        # Flattened selected-column-major with the s axis inner: within
        # each trial this is exactly the serial scatter's insertion order,
        # and distinct within-column rows mean every output bin accumulates
        # its entries in the same sequence — the products are bit-identical
        # to the serial kernel scatter on the surviving rows.
        flat = np.bincount(lin.ravel(), weights=sel_vals.ravel(),
                           minlength=group * k_cap * d)
        return flat.reshape(group, k_cap, d)[:, :k_pad]
