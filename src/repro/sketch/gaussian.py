"""Dense Gaussian sketch — the classical OSE with optimal target dimension.

``Π`` has i.i.d. ``N(0, 1/m)`` entries and is an ``(ε, δ)``-OSE already at
``m = Θ((d + log(1/δ))/ε²)``, which is optimal without any sparsity
constraint (Nelson–Nguyễn 2014).  It is the quality baseline every sparse
construction is compared against: minimal ``m``, but dense, so applying it
costs ``O(m · nnz(A))``.
"""

from __future__ import annotations

import math

from ..utils.rng import RngLike, as_generator
from ..utils.validation import check_epsilon, check_positive_int, check_probability
from .base import Sketch, SketchFamily

__all__ = ["GaussianSketch"]


class GaussianSketch(SketchFamily):
    """Family of dense ``m × n`` matrices with i.i.d. ``N(0, 1/m)`` entries."""

    def sample(self, rng: RngLike = None) -> Sketch:
        gen = as_generator(rng)
        matrix = gen.standard_normal((self.m, self.n)) / math.sqrt(self.m)
        return Sketch(matrix, family=self)

    @staticmethod
    def recommended_m(d: int, epsilon: float, delta: float,
                      constant: float = 8.0) -> int:
        """Optimal target dimension ``m = Θ((d + log(1/δ))/ε²)``."""
        d = check_positive_int(d, "d")
        epsilon = check_epsilon(epsilon)
        delta = check_probability(delta, "delta")
        return max(1, math.ceil(
            constant * (d + math.log(1.0 / delta)) / epsilon**2
        ))
