"""Simpler hard instances predating the paper, kept as baselines.

* :class:`PermutedIdentity` — the NN13b instance: ``U = S·V`` where ``V``
  is a row-permuted ``(I_d 0)ᵀ`` and ``S`` a Rademacher diagonal.  This is
  ``D_1`` in the paper's notation; it forces ``m = Ω(d²)`` for ``s = 1``
  via the birthday paradox but does not see the ``1/(ε²δ)`` factor.
* :class:`SpikedSubspace` — a planted instance interpolating between a
  coherent (canonical-coordinates) and an incoherent (random rotation)
  subspace; used to show that row sampling fails on coherent inputs while
  oblivious sketches do not care.
"""

from __future__ import annotations

import numpy as np

from ..linalg.subspace import orthonormal_basis
from ..utils.rng import RngLike, as_generator
from ..utils.validation import check_in_range
from .dbeta import DBeta, HardDraw, HardInstance

__all__ = ["PermutedIdentity", "SpikedSubspace"]


class PermutedIdentity(DBeta):
    """NN13b's hard instance — exactly ``D_1`` (one identity copy)."""

    def __init__(self, n: int, d: int):
        super().__init__(n=n, d=d, reps=1, distinct_rows=True)

    @property
    def name(self) -> str:
        return "PermutedIdentity"


class SpikedSubspace(HardInstance):
    """Interpolation between coherent and incoherent subspaces.

    With coherence weight ``alpha``, each basis column is
    ``√α · e_{r_i} + √(1-α) · g_i/‖g_i‖`` re-orthonormalized, where
    ``r_i`` are distinct random coordinates and ``g_i`` Gaussian.  ``α = 1``
    is the coherent extreme (a permuted identity), ``α = 0`` a random
    subspace.
    """

    def __init__(self, n: int, d: int, alpha: float = 0.5):
        super().__init__(n, d)
        if d > n:
            raise ValueError(f"d ({d}) must not exceed n ({n})")
        self._alpha = check_in_range(alpha, "alpha", 0.0, 1.0)

    @property
    def alpha(self) -> float:
        """Coherence weight in [0, 1]."""
        return self._alpha

    @property
    def name(self) -> str:
        return f"SpikedSubspace[alpha={self._alpha:g}]"

    def spec(self) -> dict:
        base = super().spec()
        base["alpha"] = self._alpha
        return base

    def sample_draw(self, rng: RngLike = None) -> HardDraw:
        gen = as_generator(rng)
        rows = gen.choice(self.n, size=self.d, replace=False)
        signs = gen.choice((-1.0, 1.0), size=self.d)
        if self._alpha >= 1.0:
            # The coherent extreme is the spike itself: D_1's structure.
            return HardDraw(self.n, self.d, rows, signs, 1,
                            component=self.name)
        spike = np.zeros((self.n, self.d))
        spike[rows, np.arange(self.d)] = signs
        g = gen.standard_normal((self.n, self.d))
        g /= np.linalg.norm(g, axis=0, keepdims=True)
        mixed = np.sqrt(self._alpha) * spike + np.sqrt(1 - self._alpha) * g
        return HardDraw(self.n, self.d, rows, signs, 1, component=self.name,
                        u=orthonormal_basis(mixed))
