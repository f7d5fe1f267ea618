"""Approximate leverage scores via sketching.

The leverage score of row ``i`` of ``A`` is ``‖e_iᵀ U‖²`` for any
orthonormal basis ``U`` of ``range(A)``.  Exact computation needs a full
QR/SVD of ``A``; the sketched estimator (Drineas et al.) computes
``R`` from a QR of ``ΠA`` and uses ``‖e_iᵀ A R⁻¹‖²`` — accurate to
``(1 ± O(ε))`` per score when ``Π`` ε-embeds ``range(A)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linalg.subspace import exact_leverage_scores
from ..sketch.base import SketchFamily
from ..utils.rng import RngLike, as_generator
from ..utils.validation import check_matrix

__all__ = [
    "exact_leverage_scores",
    "LeverageResult",
    "sketched_leverage_scores",
]


@dataclass(frozen=True)
class LeverageResult:
    """Sketched leverage scores with error diagnostics.

    Attributes
    ----------
    scores:
        The approximated scores.
    exact:
        The exact scores (for diagnostics).
    max_relative_error:
        ``max_i |scores_i - exact_i| / max(exact_i, floor)`` where the
        floor avoids division by (near-)zero scores.
    """

    scores: np.ndarray
    exact: np.ndarray
    max_relative_error: float


def sketched_leverage_scores(a: np.ndarray, family: SketchFamily,
                             rng: RngLike = None,
                             floor: float = 1e-9) -> LeverageResult:
    """Approximate the row leverage scores of ``a`` via ``family``.

    ``family.n`` must equal ``a.shape[0]``.
    """
    a = check_matrix(a, "a")
    if family.n != a.shape[0]:
        raise ValueError(
            f"family ambient dimension ({family.n}) must equal the row "
            f"count of a ({a.shape[0]})"
        )
    sketch = family.sample(as_generator(rng))
    compressed = sketch.apply(a)
    _, r = np.linalg.qr(compressed)
    # Guard against rank deficiency of the sketched matrix.
    diag = np.abs(np.diag(r))
    if diag.size == 0 or np.any(diag < 1e-12 * max(diag.max(), 1.0)):
        raise ValueError(
            "sketched matrix is rank deficient; increase m or check A"
        )
    whitened = np.linalg.solve(r.T, a.T).T  # rows of A R^{-1}
    scores = np.sum(whitened**2, axis=1)
    exact = exact_leverage_scores(a)
    denom = np.maximum(exact, floor)
    max_rel = float(np.max(np.abs(scores - exact) / denom))
    return LeverageResult(
        scores=scores, exact=exact, max_relative_error=max_rel
    )
