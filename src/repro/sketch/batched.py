"""Batched trial kernels: ``B`` sketch draws applied in one vectorized call.

The Monte-Carlo loop in :mod:`repro.core.tester` pays per-trial Python
overhead for every draw: one sampler call, one scatter, one ``(m, d)`` SVD.
This module fuses ``B`` trials.  A :class:`BatchedTrialKernel` holds the
stacked representations of ``B`` independently sampled sketches (``B``
hash keys for the column-scatter families, ``(B, m)`` gather indices for
the row-sampling ones), applies all of them to structured hard-instance
draws with a single batch-axis ``np.bincount`` scatter (or mask gather),
and reduces the stacked products with
:func:`repro.linalg.distortion.distortions_of_products`: near-square
stacks (the CountSketch shape) take each isolated column by its norm and
one gufunc-batched SVD of the coupled columns only, tall stacks (the
OSNAP shape) the symmetric eigenvalues of their ``d × d`` Gram matrices.

Row compaction
--------------
``ΠU`` for a structured ``D_β`` draw has at most ``s·reps·d`` potentially
nonzero rows — typically far fewer than ``m`` — and removing zero rows
changes no singular value.  Every ``sketched_bases`` implementation
therefore returns *row-compacted* stacks ``(B, k_pad, d)`` with
``k_pad ≤ m``, which is what makes the batched reduction cheaper than
``B`` full-height SVDs.  The true row count still decides the ``m < d``
annihilation rule; see
:func:`repro.linalg.distortion.distortions_of_products`, the reducer the
per-trial engine shares (it compacts each product with the same
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
draws.  For the column-scatter families the
per-trial accumulation order actually coincides with the serial scatter
(entries are inserted selected-column-major with the ``s`` axis inner, and
distinct within-column rows mean no bin ever receives two entries from
the same column), so those products are bit-identical to the serial
kernels' on the surviving rows — ``tests/test_batched_trials.py`` pins
this.

Samplers
--------
Families override :meth:`repro.sketch.base.SketchFamily.sample_trial_batch`
to build these kernels with *stream-faithful* sampling: it receives one
stream per trial and consumes each exactly as the serial sampler would, so
``trial_kernel(i)`` reconstructs the very kernel
``sample(streams[i], lazy=True)`` would have produced.  In the trial
engine a trial's stream is a :class:`~repro.utils.rng.KeyedStream`
holding its sketch key (lane 0 of the trial's counter-based word, see
:func:`repro.utils.rng.trial_keys`), so CountSketch/OSNAP take the keys
as they are — no generator is built — and hash the columns a trial reads
only when :meth:`BatchedColumnScatter.sketched_bases` needs them.  Row
and leverage sampling build a generator per trial from its key.
Families whose draws are kernel-less (dense Gaussian, SRHT, dense-regime
sparse-JL) fall back to :class:`StackedKernelBatch` or to the serial path
entirely.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..linalg.distortion import (
    compact_rows,
    distortion_of_product,
    distortions_of_products,
)
from ..observe.counters import add_count
from .hashing import check_column_hash, column_hash
from .kernels import (
    ApplyKernel,
    ColumnScatterKernel,
    RowGatherKernel,
    ShapeLike,
)

__all__ = [
    "BatchedTrialKernel",
    "BatchedColumnScatter",
    "BatchedRowGather",
    "StackedKernelBatch",
    "stacked_from_family",
]

#: Soft cap on the boolean gather mask (batch × m × reps·d elements) built
#: by :class:`BatchedRowGather`; larger groups are processed in batch-axis
#: slices.  Purely a memory knob — the slice boundaries are a function of
#: the group shape alone, so results are unaffected.
_GATHER_MASK_MAX_ELEMS = 1 << 27


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


class BatchedRowGather(BatchedTrialKernel):
    """``B`` stacked row-gather sketches (row sampling, leverage sampling).

    Parameters
    ----------
    cols:
        ``(B, m)`` integer array: the selected input row per output row of
        each sketch (repeats allowed — leverage sampling draws with
        replacement).
    values:
        ``(B, m)`` float array of rescaling coefficients.
    shape:
        The per-sketch dimensions ``(m, n)``.
    """

    def __init__(self, cols: np.ndarray, values: np.ndarray,
                 shape: ShapeLike) -> None:
        cols = np.asarray(cols)
        values = np.asarray(values, dtype=np.float64)
        if cols.ndim != 2 or cols.shape != values.shape:
            raise ValueError(
                f"cols and values must share a (B, m) shape, got "
                f"{cols.shape} and {values.shape}"
            )
        super().__init__(cols.shape[0], shape)
        if cols.shape[1] != self.m:
            raise ValueError(
                f"expected {self.m} rows per sketch, got {cols.shape[1]}"
            )
        if cols.size and (cols.min() < 0 or cols.max() >= self.n):
            raise ValueError("column index out of range")
        self._cols = cols.astype(np.int64, copy=False)
        self._values = values

    def representation(self) -> Dict[str, np.ndarray]:
        """The stacked arrays (see :meth:`ApplyKernel.representation`)."""
        return {"cols": self._cols, "values": self._values}

    def trial_kernel(self, index: int) -> RowGatherKernel:
        return RowGatherKernel(self._cols[index], self._values[index],
                               self.shape)

    def sketched_bases(self, draws: Sequence[Any],
                       indices: Optional[Sequence[int]] = None) -> np.ndarray:
        idx = self._resolve_indices(draws, indices)
        reps, d, drows, dsigns = _uniform_group(draws)
        weights = dsigns * (1.0 / np.sqrt(reps))
        cols = self._cols[idx]
        values = self._values[idx]
        # The (step, m, q) boolean mask dominates memory; slice the batch
        # axis to bound it.  Slice boundaries depend only on the group
        # shape, and each trial's product is independent, so slicing does
        # not change any value.
        q = reps * d
        step = max(1, _GATHER_MASK_MAX_ELEMS // max(1, self.m * q))
        pieces = [
            self._gather_group(cols[lo:lo + step], values[lo:lo + step],
                               drows[lo:lo + step], weights[lo:lo + step],
                               reps, d)
            for lo in range(0, idx.size, step)
        ]
        if len(pieces) == 1:
            return pieces[0]
        k_pad = max(piece.shape[1] for piece in pieces)
        out = np.zeros((idx.size, k_pad, d))
        at = 0
        for piece in pieces:
            out[at:at + piece.shape[0], :piece.shape[1]] = piece
            at += piece.shape[0]
        return out

    def _gather_group(self, cols: np.ndarray, values: np.ndarray,
                      drows: np.ndarray, weights: np.ndarray,
                      reps: int, d: int) -> np.ndarray:
        group, q = drows.shape
        mask = cols[:, :, None] == drows[:, None, :]        # (B, m, q)
        hit = mask.any(axis=2)
        counts = hit.sum(axis=1)
        k_pad = int(min(self.m, max(d, counts.max() if group else 0)))
        if k_pad < self.m:
            order = np.argsort(~hit, axis=1, kind="stable")[:, :k_pad]
            mask = np.take_along_axis(mask, order[:, :, None], axis=1)
            kept = np.take_along_axis(values, order, axis=1)
        else:
            kept = values
        gathered = np.where(mask, weights[:, None, :], 0.0)
        summed = gathered.reshape(group, k_pad, d, reps).sum(axis=3)
        return summed * kept[:, :, None]


class StackedKernelBatch(BatchedTrialKernel):
    """Generic batch over per-trial :class:`ApplyKernel` objects.

    The fallback batched engine for families without a specialized
    vectorized sampler (sparse-JL's Bernoulli pattern has a variable nnz
    per draw): each product is computed by the trial's own kernel — the
    exact serial arithmetic — and only the row compaction and the
    reduction are batched.
    """

    def __init__(self, kernels: Sequence[ApplyKernel],
                 shape: ShapeLike) -> None:
        super().__init__(len(kernels), shape)
        for kernel in kernels:
            if tuple(kernel.shape) != self.shape:
                raise ValueError(
                    f"all kernels must share shape {self.shape}, got "
                    f"{kernel.shape}"
                )
        self._kernels = list(kernels)

    def trial_kernel(self, index: int) -> ApplyKernel:
        return self._kernels[index]

    def sketched_bases(self, draws: Sequence[Any],
                       indices: Optional[Sequence[int]] = None) -> np.ndarray:
        idx = self._resolve_indices(draws, indices)
        products = np.stack([
            self._kernels[int(slot)].sketched_basis(draw)
            for slot, draw in zip(idx, draws)
        ])
        return compact_rows(products)


def stacked_from_family(family: Any, streams: Sequence[Any]
                        ) -> Optional[StackedKernelBatch]:
    """Build the generic kernel batch by sampling ``family`` per trial.

    Returns ``None`` when the family yields any kernel-less sketch (dense
    Gaussian, SRHT, dense-regime sparse-JL) — the caller then falls back
    to the serial per-trial path.  Sampling consumes each stream
    identically to the serial path, and streams are re-usable (a
    :class:`~repro.utils.rng.KeyedStream` or ``SeedSequence`` builds a
    fresh generator per draw), so the fallback replays the same streams.
    """
    from .base import sample_sketch

    if not streams:
        return None
    kernels = []
    for stream in streams:
        kernel = sample_sketch(family, stream, lazy=True).kernel
        if kernel is None:
            return None
        kernels.append(kernel)
    return StackedKernelBatch(kernels, (family.m, family.n))
