"""Matrix-free application kernels for structured sparse sketches.

Every structured sparse family (CountSketch, OSNAP, sparse-JL, row
sampling, leverage sampling) is fully described by a small index/value
representation — e.g. CountSketch by one (hash row, sign) pair per column.
Applying ``Π`` to a dense matrix is then a pure index scatter or gather:
the ``O(nnz(A)·s)`` application the paper's introduction quotes as the
whole point of sparse OSEs.  The kernels here perform that application
directly from the representation, so the Monte-Carlo trial loop never has
to build (and sort) a scipy matrix per trial.

Bit-identity contract
---------------------
Every kernel's :meth:`~ApplyKernel.apply` produces output **bit-identical**
(``np.array_equal``, not ``allclose``) to ``self.materialize() @ a``, and
:meth:`~ApplyKernel.materialize` produces the same canonical CSC matrix
scipy assembles (COO → CSC) from :meth:`~ApplyKernel.representation`;
:attr:`repro.sketch.base.Sketch.matrix` is that matrix.  This is what lets
:func:`repro.core.tester.failure_estimate` switch to the kernel path
without perturbing any recorded experiment number: the accumulation order
of each scatter mirrors scipy's CSC matvec loop (columns in ascending
order, entries within a column in ascending row order), which is why the
triplet arrays below are required to be stored in canonical CSC order.

``tests/test_apply_kernels.py`` pins the contract across shapes, dtypes,
memory layouts and hard-instance draws.
"""

from __future__ import annotations

import abc
import math
from typing import Any, Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..observe.counters import add_count
from .hashing import check_column_hash, column_hash

#: A ``(m, n)`` sketch dimension pair (anything int-pair-shaped accepted).
ShapeLike = Tuple[int, int]

__all__ = [
    "ApplyKernel",
    "ColumnScatterKernel",
    "RowGatherKernel",
    "CooScatterKernel",
    "SCATTER_MAX_COLUMNS",
    "SCATTER_MAX_REPS",
]

#: Widest right-hand side the bincount scatter handles itself.  Beyond
#: this, a compiled sparse matmul on the (cheaply, canonically) assembled
#: CSC matrix wins, so :meth:`ApplyKernel.apply` switches over — the
#: assembly is O(nnz) index bookkeeping with none of the COO sort that
#: makes per-trial materialization expensive.
SCATTER_MAX_COLUMNS = 4

#: Largest ``reps = 1/β`` for which the direct hard-instance scatter is
#: used.  NumPy reduces axes of ≤ 8 elements with a simple sequential
#: loop, so the scatter (which is sequential by construction) matches the
#: materialized path bit-for-bit; above that, pairwise summation could
#: reorder the additions, so we fall back to the gather path that repeats
#: the materialized arithmetic exactly.
SCATTER_MAX_REPS = 8


def _as_float64(a: Any) -> np.ndarray:
    """``a`` as float64, matching the upcast scipy applies before matvecs."""
    return np.asarray(a, dtype=np.float64)


class ApplyKernel(abc.ABC):
    """Matrix-free representation of a sampled sparse sketch ``Π``."""

    def __init__(self, shape: ShapeLike) -> None:
        m, n = shape
        if m <= 0 or n <= 0:
            raise ValueError(f"kernel shape must be positive, got {shape}")
        self._shape: Tuple[int, int] = (int(m), int(n))
        self._csc: Optional[sp.csc_matrix] = None

    @property
    def shape(self) -> Tuple[int, int]:
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
    def apply(self, a: np.ndarray) -> np.ndarray:
        """``Πa`` for a dense 1-D or 2-D ``a``, bit-identical to CSC matmul."""

    @abc.abstractmethod
    def _materialize(self) -> sp.csc_matrix:
        """Assemble the canonical CSC matrix (sorted indices, no duplicates)."""

    @abc.abstractmethod
    def per_column_nnz(self) -> np.ndarray:
        """Stored entries per column — the cost model's per-column ``s``."""

    @abc.abstractmethod
    def column_gather(self, idx: Any) -> np.ndarray:
        """Dense ``Π[:, idx]``, exactly as ``csc[:, idx].toarray()``."""

    @abc.abstractmethod
    def representation(self) -> Dict[str, np.ndarray]:
        """The index/value arrays defining ``Π``, keyed by role.

        The public accessor for the sampled representation — what tests
        and benchmarks introspect (e.g. to check that a batched trial
        kernel is the serial draw), without reaching into private
        attributes; the trial engines themselves never read it.  Keys by
        kernel type: ``{"rows", "values"}`` for column scatters,
        ``{"cols", "values"}`` for row gathers, and
        ``{"rows", "cols", "values"}`` for triplet kernels.  The arrays
        are the kernel's own (not copies); treat them as read-only.
        """

    def materialize(self) -> sp.csc_matrix:
        """The explicit matrix (cached after the first call)."""
        if self._csc is None:
            add_count("kernel_materializations")
            self._csc = self._materialize()
        return self._csc

    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.per_column_nnz().sum())

    def max_column_nnz(self) -> int:
        """Maximum entries in any column — the paper's ``s``."""
        per_column = self.per_column_nnz()
        return int(per_column.max()) if per_column.size else 0

    def sketched_basis(self, draw: Any) -> np.ndarray:
        """``ΠU`` for a structured hard-instance draw.

        Default: gather the ``reps·d`` selected columns of ``Π`` and
        combine them with the draw's own (materialized-path) arithmetic,
        which keeps the result bit-identical while skipping the per-trial
        matrix build.  Subclasses override with direct scatters when they
        can preserve the accumulation order.
        """
        return draw.combine_sketched_columns(self.column_gather(draw.rows))


class ColumnScatterKernel(ApplyKernel):
    """Exactly ``s`` nonzeros per column (CountSketch ``s = 1``, OSNAP).

    ``Π`` is defined by the keyed column hash of :mod:`repro.sketch.hashing`:
    the kernel stores only ``(key, s, m, n, variant)``.  Support-only
    operations (:meth:`column_gather`, :meth:`sketched_basis`) hash just
    the requested columns; whole-matrix operations (:meth:`apply`,
    :meth:`materialize`, :meth:`representation`) evaluate all ``n``
    columns once and cache them.  Either way the entries come from the one
    hash, so every path agrees on ``Π``.

    Parameters
    ----------
    key:
        The uint64 hash key (see :func:`~repro.sketch.hashing.draw_key`).
    s:
        Exact column sparsity; entries are ``±1/√s``.
    shape:
        The sketch dimensions ``(m, n)``.
    variant:
        ``"uniform"`` or ``"block"`` row layout (identical at ``s = 1``).
    """

    def __init__(self, key: Any, s: int, shape: ShapeLike,
                 variant: str = "uniform") -> None:
        super().__init__(shape)
        check_column_hash(s, self.m, variant)
        self._key = np.uint64(key)
        self._s = int(s)
        self._variant = variant
        self._scale = 1.0 / math.sqrt(self._s)
        self._full: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def s(self) -> int:
        """Exact column sparsity."""
        return self._s

    @property
    def key(self) -> np.uint64:
        """The hash key that, with ``(s, m, n, variant)``, defines ``Π``."""
        return self._key

    def entries(self, cols: Any) -> Tuple[np.ndarray, np.ndarray]:
        """Rows and values ``(s, q)`` of columns ``cols``, in hash order."""
        rows, signs = column_hash(self._key, cols, self._s, self.m,
                                  self._variant)
        return rows.T, signs.T * self._scale

    def _all_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """All ``n`` columns, rows ascending within each (canonical CSC)."""
        if self._full is None:
            rows, values = self.entries(np.arange(self.n))
            if self._s > 1:
                order = np.argsort(rows, axis=0)
                rows = np.take_along_axis(rows, order, axis=0)
                values = np.take_along_axis(values, order, axis=0)
            self._full = (rows, values)
        return self._full

    def representation(self) -> Dict[str, np.ndarray]:
        rows, values = self._all_columns()
        return {"rows": rows, "values": values}

    def apply(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a)
        rows, values = self._all_columns()
        if a.ndim == 1:
            # Flat order (column-major over j, row order within a column)
            # replays the CSC matvec accumulation sequence exactly.
            weights = values * _as_float64(a)
            return np.bincount(
                rows.T.ravel(), weights=weights.T.ravel(), minlength=self.m,
            )
        if a.shape[1] <= SCATTER_MAX_COLUMNS:
            # One 1-D scatter per output column: scipy's csc @ dense also
            # processes right-hand-side columns independently, so this is
            # the bit-identical narrow path.
            af = _as_float64(a)
            width = af.shape[1]
            flat_rows = rows.T.ravel()
            out = np.empty((self.m, width))
            for j in range(width):
                weights = values * af[:, j]
                out[:, j] = np.bincount(
                    flat_rows, weights=weights.T.ravel(), minlength=self.m
                )
            return out
        return self.materialize() @ a

    def _materialize(self) -> sp.csc_matrix:
        rows, values = self._all_columns()
        indptr = np.arange(0, self._s * self.n + 1, self._s)
        return sp.csc_matrix(
            (values.T.ravel(), rows.T.ravel(), indptr), shape=self.shape,
        )

    def per_column_nnz(self) -> np.ndarray:
        return np.full(self.n, self._s, dtype=np.int64)

    def column_gather(self, idx: Any) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        rows, values = self.entries(idx)
        # Fortran order matches ``csc[:, idx].toarray()`` — downstream
        # reductions are layout-sensitive at the ULP level, so bit-identity
        # requires matching the memory order, not just the values.
        sub = np.zeros((self.m, idx.size), order="F")
        # Rows are distinct within a column, so plain assignment suffices.
        sub[rows, np.arange(idx.size)] = values
        return sub

    def sketched_basis(self, draw: Any) -> np.ndarray:
        if draw.reps > SCATTER_MAX_REPS:
            return super().sketched_basis(draw)
        # Direct scatter into the (m, d) output: entry t of selected
        # column j lands in output column j // reps.  Flattening j-major
        # (entries within a column inner) replays the materialized path's
        # accumulation order — sequential over the reps axis — so the
        # result is bit-identical for reps ≤ SCATTER_MAX_REPS.  Rows are
        # distinct within a column, so no bin sees two entries of one
        # column and the within-column (hash) order is immaterial.
        weights = draw.signs * (1.0 / np.sqrt(draw.reps))
        sel_rows, sel_vals = self.entries(draw.rows)
        sel_vals = sel_vals * weights
        out_cols = np.repeat(np.arange(draw.d), draw.reps)
        out = np.zeros((self.m, draw.d))
        np.add.at(
            out,
            (sel_rows.T.ravel(), np.repeat(out_cols, self._s)),
            sel_vals.T.ravel(),
        )
        return out


class RowGatherKernel(ApplyKernel):
    """Exactly one nonzero per *row* (row sampling, leverage sampling).

    Output row ``i`` is ``values[i] · a[cols[i]]`` — a pure gather with no
    accumulation at all, so bit-identity with the materialized product is
    structural.

    Parameters
    ----------
    cols:
        ``(m,)`` integer array: the selected input row per output row
        (repeats allowed — leverage sampling draws with replacement).
    values:
        ``(m,)`` float array of rescaling coefficients.
    shape:
        The sketch dimensions ``(m, n)``.
    """

    def __init__(self, cols: np.ndarray, values: np.ndarray,
                 shape: ShapeLike) -> None:
        super().__init__(shape)
        cols = np.asarray(cols)
        values = np.asarray(values, dtype=np.float64)
        if cols.shape != (self.m,) or values.shape != (self.m,):
            raise ValueError(
                f"cols and values must have shape ({self.m},), got "
                f"{cols.shape} and {values.shape}"
            )
        if cols.size and (cols.min() < 0 or cols.max() >= self.n):
            raise ValueError("column index out of range")
        self._cols = cols
        self._values = values

    def representation(self) -> Dict[str, np.ndarray]:
        return {"cols": self._cols, "values": self._values}

    def apply(self, a: np.ndarray) -> np.ndarray:
        af = _as_float64(a)
        if af.ndim == 1:
            return self._values * af[self._cols]
        return self._values[:, None] * af[self._cols]

    def _materialize(self) -> sp.csc_matrix:
        # Stable sort by column keeps row indices ascending within each
        # column: directly the canonical CSC layout.
        order = np.argsort(self._cols, kind="stable")
        counts = np.bincount(self._cols, minlength=self.n)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return sp.csc_matrix(
            (self._values[order], order, indptr), shape=self.shape
        )

    def per_column_nnz(self) -> np.ndarray:
        return np.bincount(self._cols, minlength=self.n)

    def column_gather(self, idx: Any) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        # F-order to match ``csc[:, idx].toarray()`` (see ColumnScatterKernel).
        return np.asfortranarray(np.where(
            self._cols[:, None] == idx[None, :], self._values[:, None], 0.0
        ))


class CooScatterKernel(ApplyKernel):
    """General triplet kernel (sparse-JL's Bernoulli entry pattern).

    Triplets must be in canonical CSC order — ascending ``(col, row)``
    with no duplicate coordinates; :meth:`from_triplets` sorts arbitrary
    (duplicate-free) input once at construction time.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray,
                 values: np.ndarray, shape: ShapeLike) -> None:
        super().__init__(shape)
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        values = np.asarray(values, dtype=np.float64)
        if not (rows.ndim == 1 and rows.shape == cols.shape == values.shape):
            raise ValueError("rows, cols and values must be equal-length 1-D")
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.m:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.n:
                raise ValueError("column index out of range")
            keys = cols.astype(np.int64) * self.m + rows
            if np.any(np.diff(keys) <= 0):
                raise ValueError(
                    "triplets must be in canonical CSC order without "
                    "duplicates (see CooScatterKernel.from_triplets)"
                )
        self._rows = rows
        self._cols = cols
        self._values = values

    @classmethod
    def from_triplets(cls, rows: Any, cols: Any, values: Any,
                      shape: ShapeLike) -> "CooScatterKernel":
        """Canonicalize duplicate-free triplets and build the kernel."""
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        values = np.asarray(values, dtype=np.float64)
        order = np.argsort(cols.astype(np.int64) * shape[0] + rows)
        return cls(rows[order], cols[order], values[order], shape)

    def representation(self) -> Dict[str, np.ndarray]:
        return {"rows": self._rows, "cols": self._cols,
                "values": self._values}

    def apply(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a)
        if a.ndim == 1:
            af = _as_float64(a)
            return np.bincount(
                self._rows,
                weights=self._values * af[self._cols],
                minlength=self.m,
            )
        if a.shape[1] <= SCATTER_MAX_COLUMNS:
            # One 1-D scatter per output column (see ColumnScatterKernel).
            af = _as_float64(a)
            width = af.shape[1]
            gathered = af[self._cols]
            out = np.empty((self.m, width))
            for j in range(width):
                out[:, j] = np.bincount(
                    self._rows, weights=self._values * gathered[:, j],
                    minlength=self.m,
                )
            return out
        return self.materialize() @ a

    def _materialize(self) -> sp.csc_matrix:
        counts = np.bincount(self._cols, minlength=self.n)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return sp.csc_matrix(
            (self._values, self._rows, indptr), shape=self.shape
        )

    def per_column_nnz(self) -> np.ndarray:
        return np.bincount(self._cols, minlength=self.n)

    def column_gather(self, idx: Any) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        # F-order to match ``csc[:, idx].toarray()`` (see ColumnScatterKernel).
        sub = np.zeros((self.m, idx.size), order="F")
        starts = np.searchsorted(self._cols, idx, side="left")
        ends = np.searchsorted(self._cols, idx, side="right")
        for j, (lo, hi) in enumerate(zip(starts, ends)):
            sub[self._rows[lo:hi], j] = self._values[lo:hi]
        return sub
