"""Subspaces of R^n represented by orthonormal bases.

A ``d``-dimensional subspace ``T ⊆ R^n`` is represented by an isometry
``U ∈ R^{n×d}`` (orthonormal columns), so that ``T = range(U)`` and for any
coefficient vector ``x ∈ R^d`` the point ``Ux ∈ T`` has ``‖Ux‖₂ = ‖x‖₂``.
This is exactly the normalization used throughout the paper: proving the
subspace-embedding property for an isometry ``U`` is proving it for the
subspace ``range(U)``.
"""

from __future__ import annotations

import numpy as np

from ..utils.rng import RngLike, as_generator
from ..utils.validation import check_matrix, check_positive_int

__all__ = [
    "orthonormal_basis",
    "is_isometry",
    "random_subspace",
    "coherent_subspace",
    "spanning_isometry",
    "subspace_angle",
    "exact_leverage_scores",
]

#: Default tolerance for isometry checks; scaled by matrix size internally.
DEFAULT_TOL = 1e-10


def orthonormal_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space of ``a`` via thin QR.

    Columns of ``a`` must be linearly independent; otherwise the result
    would silently represent a smaller subspace, so we raise instead.
    """
    a = check_matrix(a, "a")
    n, d = a.shape
    if d > n:
        raise ValueError(
            f"cannot have {d} independent columns in R^{n}"
        )
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diag(r))
    scale = max(np.max(diag), 1.0)
    if np.any(diag < 1e-12 * scale):
        raise ValueError("columns of a are (numerically) linearly dependent")
    return q


def is_isometry(u: np.ndarray, tol: float = 1e-8) -> bool:
    """True when ``u`` has orthonormal columns up to tolerance ``tol``."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] < u.shape[1]:
        return False
    gram = u.T @ u
    return bool(np.allclose(gram, np.eye(u.shape[1]), atol=tol))


def random_subspace(n: int, d: int, rng: RngLike = None) -> np.ndarray:
    """Haar-random ``d``-dimensional subspace of R^n, as an isometry.

    Sampled by orthonormalizing a Gaussian matrix; this is the "easy"
    instance against which the paper's hard instances are contrasted
    (experiment E1's control column).
    """
    n = check_positive_int(n, "n")
    d = check_positive_int(d, "d")
    if d > n:
        raise ValueError(f"d ({d}) must not exceed n ({n})")
    g = as_generator(rng).standard_normal((n, d))
    return orthonormal_basis(g)


def coherent_subspace(n: int, d: int, rng: RngLike = None) -> np.ndarray:
    """A maximally coherent subspace: ``d`` distinct canonical basis vectors.

    This is the NN13b-style instance (a row-permuted ``(I_d 0)^T``), the
    ``β = 1`` extreme of the paper's ``D_β`` family without the Rademacher
    signs.  Useful as a deterministic worst case for row-sampling sketches.
    """
    n = check_positive_int(n, "n")
    d = check_positive_int(d, "d")
    if d > n:
        raise ValueError(f"d ({d}) must not exceed n ({n})")
    rows = as_generator(rng).choice(n, size=d, replace=False)
    u = np.zeros((n, d))
    u[rows, np.arange(d)] = 1.0
    return u


def spanning_isometry(rows: np.ndarray, signs: np.ndarray, n: int,
                      scale: float) -> np.ndarray:
    """Build an isometry whose column ``i`` is supported on ``rows[:, i]``.

    Each column ``i`` has entries ``signs[j, i] * scale`` at positions
    ``rows[j, i]``.  Rows per column must be distinct within the column and
    ``scale² · rows.shape[0] == 1`` for exact unit columns; column
    orthogonality additionally requires disjoint supports across columns.
    The caller is responsible for those structural guarantees — this is the
    shared kernel behind the ``D_β`` construction and test fixtures.
    """
    rows = np.asarray(rows, dtype=int)
    signs = np.asarray(signs, dtype=float)
    if rows.shape != signs.shape or rows.ndim != 2:
        raise ValueError("rows and signs must be 2-d arrays of equal shape")
    reps, d = rows.shape
    u = np.zeros((n, d))
    for i in range(d):
        u[rows[:, i], i] = signs[:, i] * scale
    return u


def subspace_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Largest principal angle (radians) between ``range(u)``, ``range(v)``.

    Both inputs must be isometries of the same ambient dimension.  Returns a
    value in ``[0, π/2]``; 0 means identical subspaces.
    """
    u = check_matrix(u, "u")
    v = check_matrix(v, "v")
    if u.shape[0] != v.shape[0]:
        raise ValueError("u and v must share the ambient dimension")
    if not is_isometry(u) or not is_isometry(v):
        raise ValueError("u and v must both be isometries")
    sigma = np.linalg.svd(u.T @ v, compute_uv=False)
    smallest = float(np.clip(sigma.min() if sigma.size else 0.0, -1.0, 1.0))
    return float(np.arccos(smallest))


def exact_leverage_scores(a: np.ndarray) -> np.ndarray:
    """Exact leverage scores of the rows of ``a`` (sums to rank(a))."""
    a = check_matrix(a, "a")
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > s[0] * 1e-12)) if s.size else 0
    return np.sum(u[:, :rank] ** 2, axis=1)
