"""Exact subspace-embedding distortion.

For an isometry ``U ∈ R^{n×d}`` and a sketch ``Π ∈ R^{m×n}``, the embedding
condition of Definition 1,

    ∀ x ∈ range(U):  (1-ε)‖x‖₂ ≤ ‖Πx‖₂ ≤ (1+ε)‖x‖₂,

holds exactly when every singular value of ``ΠU`` lies in ``[1-ε, 1+ε]``.
This module computes those singular values and derives the distortion, the
pass/fail predicate, and the worst-case witness directions used by the
lower-bound certification code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from ..utils.validation import check_epsilon

__all__ = [
    "DistortionReport",
    "sketched_basis",
    "singular_interval",
    "singular_interval_of_product",
    "distortion",
    "compact_rows",
    "SparseProducts",
    "distortion_of_product",
    "distortions_of_products",
    "distortion_report",
    "is_subspace_embedding_for",
    "worst_vector",
    "vector_distortion",
]

MatrixLike = Union[np.ndarray, sp.spmatrix]


def sketched_basis(pi: MatrixLike, u: np.ndarray) -> np.ndarray:
    """Compute ``ΠU`` as a dense ``m × d`` array.

    ``Π`` may be dense or scipy-sparse; ``U`` is densified (it is ``n × d``
    with small ``d``, so the product is small even when ``n`` is large).
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        raise ValueError(f"u must be 2-dimensional, got ndim={u.ndim}")
    if pi.shape[1] != u.shape[0]:
        raise ValueError(
            f"incompatible shapes: pi is {pi.shape}, u is {u.shape}"
        )
    if sp.issparse(pi):
        return np.asarray(pi @ u)
    return np.asarray(pi, dtype=float) @ u


def singular_interval(pi: MatrixLike, u: np.ndarray) -> Tuple[float, float]:
    """Smallest and largest singular values of ``ΠU``."""
    return singular_interval_of_product(sketched_basis(pi, u))


def singular_interval_of_product(product: np.ndarray) -> Tuple[float, float]:
    """Extreme singular values of an already-computed ``ΠU``."""
    product = np.asarray(product, dtype=float)
    sigma = np.linalg.svd(product, compute_uv=False)
    if sigma.size == 0:
        raise ValueError("empty product matrix")
    # ΠU may have fewer rows than columns, in which case the smallest
    # singular value of the embedding map is 0 (a whole direction is
    # annihilated), not the smallest of the m computed values.
    smallest = float(sigma.min()) if product.shape[0] >= product.shape[1] else 0.0
    return smallest, float(sigma.max())


def distortion(pi: MatrixLike, u: np.ndarray) -> float:
    """Worst multiplicative distortion of ``Π`` on ``range(U)``.

    Returns ``max(1 - σ_min, σ_max - 1)``, i.e. the smallest ``ε`` such that
    ``Π`` is an ε-embedding for the subspace.  ``U`` must be an isometry for
    the value to carry that meaning; this is not re-checked here for speed.
    """
    lo, hi = singular_interval(pi, u)
    return max(1.0 - lo, hi - 1.0)


def compact_rows(products: np.ndarray) -> np.ndarray:
    """Drop all-zero rows from a ``(B, m, d)`` stack, padding to a common
    height ``k_pad = min(m, max(d, max nonzero rows per trial))``.

    A zero row of ``ΠU`` changes no singular value, so the compacted
    stack has the spectra of the original.  Surviving rows keep their
    relative order (stable partition), so each compacted product equals
    its original with the zero rows deleted, zero-padded to ``k_pad``.
    """
    batch, m, d = products.shape
    if m <= d:
        return products
    hit = (products != 0).any(axis=2)
    counts = hit.sum(axis=1)
    k_pad = int(min(m, max(d, counts.max() if batch else 0)))
    if k_pad >= m:
        return products
    order = np.argsort(~hit, axis=1, kind="stable")[:, :k_pad]
    return products[np.arange(batch)[:, None], order]


def distortion_of_product(product: np.ndarray) -> float:
    """Worst distortion from an already-computed ``ΠU``.

    The per-trial reduction: ``product``'s all-zero rows are dropped
    (:func:`compact_rows`) and the rest is reduced by
    :func:`distortions_of_products` as a stack of one, with the true row
    count ``m`` deciding the annihilation rule.  A column-sparse ``Π``
    touches at most ``s·reps·d`` rows of a ``D_β`` draw's ``ΠU`` (``d``
    for CountSketch on ``D_1``), so the SVD runs on those rows instead of
    all ``m``.
    """
    product = np.asarray(product, dtype=float)
    if product.ndim != 2:
        raise ValueError(
            f"product must be 2-dimensional, got ndim={product.ndim}"
        )
    stack = compact_rows(product[None])
    return float(distortions_of_products(stack, rows=product.shape[0])[0])


#: A trial's Gram spectrum is trusted only while ``σ²_min/σ²_max`` stays
#: above this; below it the squared form has lost too many digits (error
#: in ``σ_min`` approaches ``√ε_mach · σ_max ≈ 1e-8``) and the trial is
#: recomputed from the rectangular product directly.
_GRAM_RATIO_FLOOR = 1e-12

#: Bytes of Gram matrices one sub-block of a tall :class:`SparseProducts`
#: stack assembles and solves at once (8 trials at ``d = 64``), which
#: keeps a reference chunk's peak near 1 MiB.  glibc's trim threshold is
#: twice the largest block the process has freed so far: a chunk whose
#: heap peak stays under it reuses the pages the previous chunk freed,
#: and a larger one has them trimmed after it and faulted in again by
#: the next (``docs/perf.md``).
_GRAM_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class SparseProducts:
    """A stack of ``B`` products ``ΠU`` held as their stored entries.

    Entry ``e`` is ``product[trial, rows[e], cols[e]] = values[e]``;
    trial ``i``'s entries are ``starts[i]:starts[i + 1]``, sorted by row
    and then column, each position stored at most once.  Every other
    entry is zero, and a stored one may be zero too (contributions that
    cancelled).  ``shape`` is the stack's uncompacted ``(B, m, d)``.

    This is the form the trial engine hands every chunk of a
    column-sparse sketch (CountSketch, OSNAP) to
    :func:`distortions_of_products`: applied to a ``D_β`` draw, such a
    sketch touches at most ``s·reps·d`` of ``m`` rows, and both reducer
    routes need only the column norms and the entries that share a row.
    """

    shape: Tuple[int, int, int]
    starts: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


def distortions_of_products(products: Union[np.ndarray, SparseProducts],
                            rows: Optional[int] = None) -> np.ndarray:
    """Per-draw distortions for a stack of products ``(B, k, d)``.

    The reduction step of the trial engine: a chunk of a column-sparse
    sketch (:mod:`repro.sketch.batched`) arrives as its hashed entries,
    any other family's trial as a dense stack of one (see
    :func:`distortion_of_product`).
    A dense ``products`` may hold *row-compacted* sketched bases
    (:func:`compact_rows`): zero rows of ``ΠU`` change no singular value.
    ``rows`` is the true row count ``m`` of the uncompacted products; it
    decides the annihilation rule — when ``m < d`` (or the compacted
    ``k < d``), a whole direction is lost and ``σ_min`` is exactly 0,
    mirroring :func:`singular_interval_of_product`.

    Each trial's extreme singular values come from one of three routes:

    * a dense stack: the rectangular SVD of each product, so the
      per-trial reduction stays the full-precision reference the two
      entry routes are tested against;
    * a :class:`SparseProducts` trial that touches at most ``2d`` rows
      (near-square, the CountSketch shape): *isolated* columns by their
      norms, and a rectangular SVD of the *coupled* columns only
      (:func:`_coupled_extremes`);
    * a :class:`SparseProducts` trial that touches more than ``2d`` rows
      (tall, the OSNAP shape): the symmetric eigenvalues of its ``d × d``
      Gram matrix ``(ΠU)ᵀ(ΠU)`` (:func:`_gram_extremes`).  The Gram
      eigenvalues are exactly the squared singular values of ``ΠU``, but
      squaring halves the working precision near rank deficiency, so any
      trial whose squared spectrum spans more than
      :data:`_GRAM_RATIO_FLOOR` (a rounded ``λ_min ≤ 0`` included) is
      recomputed from its rectangular product; in Monte-Carlo runs those
      are the rare annihilation events, so the fallback stays off the hot
      path.

    A :class:`SparseProducts` trial's value depends only on its own
    entries: neither its route nor any shape it is reduced at depends on
    the other trials of the stack, so any chunking of a probe's trials
    gives the same bits.
    """
    if not isinstance(products, SparseProducts):
        products = np.asarray(products, dtype=float)
        if products.ndim != 3:
            raise ValueError(
                "products must be a (B, k, d) stack, "
                f"got ndim={products.ndim}"
            )
    batch, k, d = products.shape
    if k == 0 or d == 0:
        raise ValueError("empty product matrices")
    true_rows = k if rows is None else int(rows)
    if isinstance(products, SparseProducts):
        lo, hi = _entry_extremes(products)
    else:
        lo, hi = _rectangular_extremes(products)
    # Fewer than d rows, true or compacted, annihilate a direction.
    if true_rows < d or k < d:
        lo = np.zeros(batch)
    return np.maximum(1.0 - lo, hi - 1.0)


def _rectangular_extremes(products: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """``(σ_min, σ_max)`` per product from its rectangular SVD."""
    sigma = np.linalg.svd(products, compute_uv=False)
    return sigma.min(axis=1), sigma.max(axis=1)


def _entry_extremes(products: SparseProducts
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """``(σ_min, σ_max)`` per trial of a sparse stack, each by its route.

    Two things are read from the entries once for the whole stack: each
    ``(trial, column)``'s squared norm, summed in entry order, which is
    the Gram diagonal; and the entries whose row the entry before them in
    the same trial shares, which carry the Gram's off-diagonal support.
    A trial touches as many rows as it has entries that share no row with
    their predecessor, and the rows it touches pick its route: more than
    ``2d`` is tall.  A stack that mixes the routes is split into its
    near-square and its tall trials, so a trial's value never depends on
    the trials around it.
    """
    batch, _, d = products.shape
    sizes = np.diff(products.starts)
    rows = products.rows
    bins = np.repeat(np.arange(batch), sizes)               # trials, first
    shared = rows[1:] == rows[:-1]
    shared &= bins[1:] == bins[:-1]
    later = np.flatnonzero(shared) + 1
    touched = sizes - np.diff(np.searchsorted(later, products.starts))
    tall = touched > 2 * d
    if tall.any() and not tall.all():
        lo, hi = np.empty(batch), np.empty(batch)
        for part in (np.flatnonzero(~tall), np.flatnonzero(tall)):
            lo[part], hi[part] = _entry_extremes(_trials(products, part))
        return lo, hi
    bins *= d
    bins += products.cols                   # each entry's (trial, column)
    squares = np.bincount(bins, weights=np.square(products.values),
                          minlength=batch * d).reshape(batch, d)
    if tall.any():
        return _gram_extremes(products, bins, squares, later)
    return _coupled_extremes(products, bins, squares, later)


def _trials(products: SparseProducts, index: np.ndarray) -> SparseProducts:
    """The sub-stack of trials ``index`` (ascending), entries in order."""
    sizes = np.diff(products.starts)[index]
    starts = np.concatenate(([0], np.cumsum(sizes)))
    take = np.arange(starts[-1]) \
        + np.repeat(products.starts[index] - starts[:-1], sizes)
    return SparseProducts((index.size, *products.shape[1:]), starts,
                          products.rows[take], products.cols[take],
                          products.values[take])


def _coupled_extremes(products: SparseProducts, bins: np.ndarray,
                      squares: np.ndarray, later: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """``(σ_min, σ_max)`` per trial of a near-square sparse stack.

    A column none of whose entries shares a row is *isolated*: it is
    orthogonal to every other column, so ``(ΠU)ᵀ(ΠU)`` is block diagonal
    and the column's norm is a singular value of ``ΠU`` (an all-zero
    column, with no entries, is isolated with singular value 0).  For
    CountSketch on ``D_1`` that is Theorem 8's collision-free column.  An
    entry that shares a row couples its column, a stored exact zero
    included.  A trial's *coupled* columns, in order, on its touched
    rows, in order, form its coupled block, zero-padded to square when it
    has fewer rows than columns.  Blocks of one exact ``(height, width)``
    are reduced by one rectangular SVD, so no block is padded to the
    shape of another trial's.
    """
    batch, d = squares.shape
    coupled = np.zeros(batch * d, dtype=bool)
    coupled[bins[later - 1]] = True
    coupled[bins[later]] = True
    coupled = coupled.reshape(batch, d)
    norms = np.sqrt(squares)
    lo = np.where(coupled, np.inf, norms).min(axis=1)
    hi = np.where(coupled, 0.0, norms).max(axis=1)
    widths = np.count_nonzero(coupled, axis=1)
    if not widths.any():
        return lo, hi
    keep = coupled.ravel()[bins]
    owner, rows = bins[keep] // d, products.rows[keep]
    cols = (np.cumsum(coupled, axis=1) - 1).ravel()[bins[keep]]
    values = products.values[keep]
    # Each trial's touched rows, ranked in order from 0.
    fresh = np.ones(owner.size, dtype=bool)
    fresh[1:] = (rows[1:] != rows[:-1]) | (owner[1:] != owner[:-1])
    heights = np.bincount(owner[fresh], minlength=batch)
    ranks = np.cumsum(fresh) - 1
    ranks -= (np.cumsum(heights) - heights)[owner]
    shapes = np.maximum(heights, widths) * (d + 1) + widths
    # The coupled trials and their entries, grouped by shape; a trial's
    # slot is its place in its group's stack.
    trials = np.flatnonzero(widths)
    trials = trials[np.argsort(shapes[trials], kind="stable")]
    kinds, firsts, sizes = np.unique(shapes[trials], return_index=True,
                                     return_counts=True)
    slots = np.empty(batch, dtype=np.int64)
    slots[trials] = np.arange(trials.size) - np.repeat(firsts, sizes)
    order = np.argsort(shapes[owner], kind="stable")    # entries by group
    stops = np.searchsorted(shapes[owner][order], kinds, side="right")
    slots, ranks = slots[owner][order], ranks[order]
    cols, values = cols[order], values[order]
    small, large = np.full(batch, np.inf), np.zeros(batch)
    start = 0
    for kind, first, size, stop in zip(kinds, firsts, sizes, stops):
        block = np.zeros((size, *divmod(int(kind), d + 1)))
        block[slots[start:stop], ranks[start:stop], cols[start:stop]] = \
            values[start:stop]
        sigma = np.linalg.svd(block, compute_uv=False)
        group = trials[first:first + size]
        small[group], large[group] = sigma[:, -1], sigma[:, 0]
        start = stop
    return np.minimum(lo, small), np.maximum(hi, large)


def _gram_extremes(products: SparseProducts, bins: np.ndarray,
                   squares: np.ndarray, later: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """``(σ_min, σ_max)`` per trial of a tall sparse stack from its Gram
    eigenvalues, and from the rectangular SVD for trials below
    :data:`_GRAM_RATIO_FLOOR`.

    ``Gram[a, b] = Σ_r P[r, a]·P[r, b]`` has one term per pair of entries
    that share a row, and ``eigvalsh`` reads only its lower triangle: the
    diagonal holds the squared norms, and each entry's product with each
    earlier entry of its row, whose column is smaller, goes below it.
    Those pairs are listed once for the whole stack, in entry order; each
    sub-block of trials then sums its pair terms into ``(b, d, d)`` Grams
    with one ``bincount``, sets their diagonals and solves them.  A bin
    receives its terms in its own trial's entry order, so a trial's Gram,
    and its eigenvalues, do not depend on the trials around it.
    """
    batch, d = squares.shape
    starts, cols, values = products.starts, products.cols, products.values
    block = max(1, _GRAM_BLOCK_BYTES // (8 * d * d))
    # Entry later[i] pairs with the fan[i] entries just before it.
    fresh = np.ones(later.size, dtype=bool)
    fresh[1:] = later[1:] != later[:-1] + 1
    rank = np.arange(later.size)
    fan = rank - np.maximum.accumulate(np.where(fresh, rank, 0)) + 1
    left = np.repeat(later, fan)
    right = left - 1 - (np.arange(left.size)
                        - np.repeat(np.cumsum(fan) - fan, fan))
    # A pair's bin in its sub-block's Grams: row cols[left], column
    # cols[right].
    pair_bins = bins[left] % (block * d) * d + cols[right]
    pair_terms = values[left] * values[right]
    pair_starts = np.searchsorted(left, starts)
    lo_sq, hi_sq = np.empty(batch), np.empty(batch)
    for start in range(0, batch, block):
        stop = min(batch, start + block)
        pairs = slice(pair_starts[start], pair_starts[stop])
        gram = np.bincount(pair_bins[pairs], weights=pair_terms[pairs],
                           minlength=(stop - start) * d * d)
        gram = gram.astype(float, copy=False)  # integer zeros if no pair
        gram.reshape(stop - start, d * d)[:, ::d + 1] = squares[start:stop]
        eig = np.linalg.eigvalsh(gram.reshape(stop - start, d, d))
        lo_sq[start:stop], hi_sq[start:stop] = eig[:, 0], eig[:, -1]
    # Rounding can leave a PSD eigenvalue below 0; such a trial is
    # suspect, and the clip only keeps sqrt from returning NaN first.
    lo = np.sqrt(np.maximum(lo_sq, 0.0))
    hi = np.sqrt(np.maximum(hi_sq, 0.0))
    for i in np.flatnonzero(lo_sq <= _GRAM_RATIO_FLOOR * hi_sq):
        lo[i:i + 1], hi[i:i + 1] = _rectangular_extremes(
            _dense_product(products, i)[None]
        )
    return lo, hi


def _dense_product(products: SparseProducts, index: int) -> np.ndarray:
    """Trial ``index`` of a sparse stack as a dense product: its stored
    rows in order, zero-padded to at least ``d`` rows."""
    d = products.shape[2]
    span = slice(products.starts[index], products.starts[index + 1])
    touched, rank = np.unique(products.rows[span], return_inverse=True)
    product = np.zeros((max(d, touched.size), d))
    product[rank, products.cols[span]] = products.values[span]
    return product


@dataclass(frozen=True)
class DistortionReport:
    """Full diagnostic of a sketch applied to one subspace.

    Attributes
    ----------
    sigma_min, sigma_max:
        Extreme singular values of ``ΠU``.
    distortion:
        ``max(1 - σ_min, σ_max - 1)``.
    epsilon:
        The tolerance the report was evaluated against.
    """

    sigma_min: float
    sigma_max: float
    distortion: float
    epsilon: float

    @property
    def ok(self) -> bool:
        """True when the embedding satisfies the ε-condition."""
        return self.distortion <= self.epsilon

    @property
    def squared_interval(self) -> Tuple[float, float]:
        """Range of ``‖Πx‖²`` over unit ``x`` in the subspace."""
        return self.sigma_min**2, self.sigma_max**2

    def __str__(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"{status}: sigma in [{self.sigma_min:.4f}, {self.sigma_max:.4f}]"
            f", distortion {self.distortion:.4f} vs eps {self.epsilon:.4f}"
        )


def distortion_report(pi: MatrixLike, u: np.ndarray,
                      epsilon: float) -> DistortionReport:
    """Evaluate ``Π`` on ``range(U)`` against tolerance ``epsilon``."""
    epsilon = check_epsilon(epsilon)
    lo, hi = singular_interval(pi, u)
    return DistortionReport(
        sigma_min=lo,
        sigma_max=hi,
        distortion=max(1.0 - lo, hi - 1.0),
        epsilon=epsilon,
    )


def is_subspace_embedding_for(pi: MatrixLike, u: np.ndarray,
                              epsilon: float) -> bool:
    """True when ``Π`` ε-embeds ``range(U)`` (Definition 1, single draw)."""
    return distortion_report(pi, u, epsilon).ok


def worst_vector(pi: MatrixLike, u: np.ndarray) -> np.ndarray:
    """Unit coefficient vector ``x`` attaining the worst distortion.

    Returns ``x ∈ R^d`` with ``‖x‖₂ = 1`` maximizing ``|‖ΠUx‖₂ - 1|``; this
    is the right-singular vector of ``ΠU`` for the extreme singular value.
    """
    product = sketched_basis(pi, u)
    _, sigma, vt = np.linalg.svd(product, full_matrices=True)
    d = product.shape[1]
    if product.shape[0] < d:
        # Some direction is annihilated entirely: any vector in the null
        # space of ΠU achieves distortion 1.
        return vt[-1]
    hi_dev = sigma[0] - 1.0
    lo_dev = 1.0 - sigma[d - 1]
    return vt[0] if hi_dev >= lo_dev else vt[d - 1]


def vector_distortion(pi: MatrixLike, u: np.ndarray,
                      x: np.ndarray) -> float:
    """Distortion ``|‖ΠUx‖₂ / ‖x‖₂ - 1|`` of one coefficient vector."""
    x = np.asarray(x, dtype=float)
    norm = np.linalg.norm(x)
    if norm == 0:
        raise ValueError("x must be nonzero")
    image = sketched_basis(pi, u) @ x
    return float(abs(np.linalg.norm(image) / norm - 1.0))
