"""Leverage-score row sampling — the principled *non-oblivious* method.

Uniform row sampling fails on coherent inputs (E11); sampling rows with
probability proportional to their leverage scores (with the usual
``1/√(m p_i)`` rescaling) fixes that — but it must *see the matrix first*,
which is exactly what obliviousness forbids.  Including it completes the
comparison: the paper's lower bounds constrain only the oblivious column.

Unlike the oblivious families, this one is constructed *for* a specific
matrix ``A`` (or a subspace basis): :meth:`for_matrix` computes the exact
scores, or accepts externally approximated ones (see
:mod:`repro.apps.leverage`).
"""

from __future__ import annotations

import numpy as np

from ..linalg.subspace import exact_leverage_scores
from ..utils.rng import RngLike, as_generator
from ..utils.validation import check_matrix, check_positive_int
from .base import Sketch, SketchFamily
from .kernels import RowGatherKernel

__all__ = ["LeverageSampling"]


class LeverageSampling(SketchFamily):
    """Row sampling from a fixed probability vector with rescaling.

    Row ``i`` of ``A`` is selected in each of the ``m`` draws with
    probability ``p_i`` (with replacement) and rescaled by
    ``1/√(m p_i)``, so ``E[ΠᵀΠ] = I``.

    Parameters
    ----------
    m, n:
        Sketch dimensions.
    probabilities:
        Length-``n`` sampling distribution (nonnegative, sums to 1).
        Zero-probability rows are never sampled — callers should mix in a
        uniform floor if the scores can vanish.
    """

    def __init__(self, m: int, n: int, probabilities):
        super().__init__(m, n)
        p = np.asarray(probabilities, dtype=float)
        if p.shape != (self.n,):
            raise ValueError(
                f"probabilities must have shape ({self.n},), got {p.shape}"
            )
        if np.any(p < 0) or not np.isclose(p.sum(), 1.0, rtol=1e-8):
            raise ValueError("probabilities must be nonnegative and sum to 1")
        self._p = p

    @property
    def probabilities(self) -> np.ndarray:
        return self._p.copy()

    @property
    def name(self) -> str:
        return "LeverageSampling"

    def _resize_params(self) -> dict:
        return {"m": self.m, "n": self.n, "probabilities": self._p}

    def with_m(self, m: int) -> "LeverageSampling":
        return LeverageSampling(m=m, n=self.n, probabilities=self._p)

    @classmethod
    def for_matrix(cls, a, m: int, uniform_mix: float = 0.1,
                   scores=None) -> "LeverageSampling":
        """Build the sampler from (exact or supplied) leverage scores of
        ``a``.

        ``uniform_mix`` blends in a uniform floor — standard practice so
        that approximation error in the scores cannot zero out a needed
        row.
        """
        a = check_matrix(a, "a")
        check_positive_int(m, "m")
        if not (0.0 <= uniform_mix <= 1.0):
            raise ValueError(
                f"uniform_mix must lie in [0, 1], got {uniform_mix}"
            )
        if scores is None:
            scores = exact_leverage_scores(a)
        scores = np.asarray(scores, dtype=float)
        if scores.shape != (a.shape[0],) or np.any(scores < 0):
            raise ValueError("scores must be nonnegative, one per row")
        total = scores.sum()
        if total == 0:
            raise ValueError("all leverage scores are zero")
        p = (1 - uniform_mix) * scores / total + uniform_mix / a.shape[0]
        return cls(m=m, n=a.shape[0], probabilities=p)

    def sample(self, rng: RngLike = None) -> Sketch:
        """Sample ``Π``; application is a pure row gather (kernel-backed)."""
        gen = as_generator(rng)
        rows = gen.choice(self.n, size=self.m, p=self._p)
        values = 1.0 / np.sqrt(self.m * self._p[rows])
        kernel = RowGatherKernel(rows, values, (self.m, self.n))
        return Sketch(family=self, kernel=kernel)
