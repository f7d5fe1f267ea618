"""Sparse Johnson–Lindenstrauss (Achlioptas-style) sign sketches.

``Π`` has i.i.d. entries that are 0 with probability ``1 - q`` and
``±1/√(qm)`` with probability ``q/2`` each, so each entry has variance
``1/m``.  Unlike CountSketch/OSNAP the column sparsity is only *expected*
(``qm`` per column), which makes this family a useful contrast in the
sparsity-vs-dimension experiments: the paper's lower bounds are phrased in
terms of exact per-column sparsity, and this family sits just outside that
model.
"""

from __future__ import annotations

import math

import numpy as np

from ..utils.rng import RngLike, as_generator
from ..utils.validation import check_probability
from .base import Sketch, SketchFamily
from .kernels import CooScatterKernel

__all__ = ["SparseJL"]


class SparseJL(SketchFamily):
    """Entry-wise sparse sign sketch with density ``q``.

    Parameters
    ----------
    m, n:
        Sketch dimensions.
    q:
        Probability that an entry is nonzero; ``q = 1`` recovers the dense
        Rademacher sketch (Achlioptas), ``q = 1/3`` his classical sparse
        variant.
    """

    def __init__(self, m: int, n: int, q: float = 1.0 / 3.0):
        super().__init__(m, n)
        self._q = check_probability(q, "q", allow_one=True)

    @property
    def q(self) -> float:
        """Entry density."""
        return self._q

    @property
    def expected_column_sparsity(self) -> float:
        """Expected nonzeros per column, ``q · m``."""
        return self._q * self.m

    @property
    def name(self) -> str:
        return f"SparseJL[q={self._q:g}]"

    def _resize_params(self) -> dict:
        return {"m": self.m, "n": self.n, "q": self._q}

    def sample(self, rng: RngLike = None) -> Sketch:
        """Sample ``Π``; the sparse path holds a matrix-free kernel.

        The dense regime (``q ≥ 0.5``) has no useful sparse structure, so
        it samples the dense matrix itself.
        """
        gen = as_generator(rng)
        scale = 1.0 / math.sqrt(self._q * self.m)
        if self._q >= 0.5:
            # Dense-ish: simpler and faster to materialize directly.
            mask = gen.random((self.m, self.n)) < self._q
            signs = gen.choice((-1.0, 1.0), size=(self.m, self.n))
            return Sketch(np.where(mask, signs * scale, 0.0), family=self)
        # Sparse path: sample the number of nonzeros, then positions.
        total = self.m * self.n
        count = gen.binomial(total, self._q)
        flat = gen.choice(total, size=count, replace=False)
        rows, cols = np.divmod(flat, self.n)
        values = gen.choice((-1.0, 1.0), size=count) * scale
        kernel = CooScatterKernel.from_triplets(
            rows, cols, values, (self.m, self.n)
        )
        return Sketch(family=self, kernel=kernel)
