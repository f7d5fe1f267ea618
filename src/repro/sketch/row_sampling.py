"""Uniform row sampling — a *non*-oblivious baseline.

``Π`` selects ``m`` rows uniformly (with rescaling ``√(n/m)``).  It is a
subspace embedding only for incoherent subspaces; on the paper's hard
instances (whose mass sits on few coordinates) it fails catastrophically no
matter how large ``m`` is, illustrating why obliviousness plus sparsity is
the interesting regime.  Used as a control in experiments E1 and E11.
"""

from __future__ import annotations

import math

import numpy as np

from ..utils.rng import RngLike, as_generator
from .base import Sketch, SketchFamily
from .kernels import RowGatherKernel

__all__ = ["RowSampling"]


class RowSampling(SketchFamily):
    """Uniform row-sampling family with ``√(n/m)`` rescaling."""

    def __init__(self, m: int, n: int):
        super().__init__(m, n)
        if m > n:
            raise ValueError(f"cannot sample m={m} rows from n={n}")

    def sample(self, rng: RngLike = None) -> Sketch:
        """Sample ``Π``; application is a pure row gather (kernel-backed)."""
        gen = as_generator(rng)
        rows = gen.choice(self.n, size=self.m, replace=False)
        scale = math.sqrt(self.n / self.m)
        values = np.full(self.m, scale)
        kernel = RowGatherKernel(rows, values, (self.m, self.n))
        return Sketch(family=self, kernel=kernel)

    def with_m(self, m: int) -> "RowSampling":
        return RowSampling(m=min(m, self.n), n=self.n)
