"""Sketch composition and stacking.

Two standard constructions over existing families:

* :class:`TwoStageSketch` — ``Π = Π₂ Π₁``: an inner sketch with cheap
  application (CountSketch at its quadratic-but-unavoidable ``m₁``)
  followed by an outer sketch with optimal dimension (Gaussian/SRHT at
  ``m₂ = O(d/ε²)``).  This is the practical response to the paper's lower
  bounds: the total cost stays ``O(nnz(A)) + poly(d/ε)`` while the final
  dimension escapes the ``d²`` barrier — without contradicting the
  theorems, since the composed matrix is dense.  Experiment E14 measures
  this escape.
* :class:`StackedSketch` — vertical concatenation ``[Π₁; Π₂; …]/√k`` of
  independent sketches: averages the quadratic forms, trading target
  dimension for variance reduction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ..utils.rng import RngLike, as_generator, spawn
from .base import Sketch, SketchFamily, sample_sketch

__all__ = ["TwoStageSketch", "StackedSketch"]


def _to_dense(matrix) -> np.ndarray:
    if sp.issparse(matrix):
        return np.asarray(matrix.toarray(), dtype=float)
    return np.asarray(matrix, dtype=float)


class TwoStageSketch(SketchFamily):
    """Composition ``Π = Π_outer · Π_inner`` of two sketch families.

    The inner family's ambient dimension is the overall ``n``; the outer
    family's ambient dimension must equal the inner target dimension.
    """

    def __init__(self, inner: SketchFamily, outer: SketchFamily):
        if outer.n != inner.m:
            raise ValueError(
                f"outer ambient dimension ({outer.n}) must equal inner "
                f"target dimension ({inner.m})"
            )
        super().__init__(outer.m, inner.n)
        self._inner = inner
        self._outer = outer

    @property
    def inner(self) -> SketchFamily:
        return self._inner

    @property
    def outer(self) -> SketchFamily:
        return self._outer

    @property
    def name(self) -> str:
        return f"TwoStage({self._inner.name} -> {self._outer.name})"

    def with_m(self, m: int) -> "TwoStageSketch":
        """Resize the *outer* stage (the final dimension)."""
        return TwoStageSketch(self._inner, self._outer.with_m(m))

    def spec(self) -> dict:
        """Canonical description embedding both stage specs."""
        return {
            "type": type(self).__qualname__,
            "inner": self._inner.spec(),
            "outer": self._outer.spec(),
        }

    def sample(self, rng: RngLike = None) -> Sketch:
        gen = as_generator(rng)
        inner = sample_sketch(self._inner, spawn(gen))
        outer = sample_sketch(self._outer, spawn(gen))
        return _ComposedSketch(inner, outer, self)


class _ComposedSketch(Sketch):
    """Sampled two-stage sketch applying the stages in sequence; the
    explicit composed matrix is built on first use."""

    def __init__(self, inner: Sketch, outer: Sketch,
                 family: TwoStageSketch):
        self._inner = inner
        self._outer = outer
        self._materialized = None
        self._family = family
        self._kernel = None

    def _build_matrix(self) -> np.ndarray:
        return self._outer.apply(_to_dense(self._inner.matrix))

    @property
    def shape(self) -> tuple:
        return (self._outer.m, self._inner.n)

    def apply(self, a):
        """Apply the stages in sequence (never materializes ``Π``)."""
        return self._outer.apply(self._inner.apply(a))

    def basis_image(self, draw):
        """``ΠU`` by chaining stages — no composed-matrix materialization."""
        return self._outer.apply(self._inner.basis_image(draw))

    def apply_cost(self, a) -> int:
        """Sum of the per-stage costs (the intermediate image is dense)."""
        columns = 1 if a.ndim == 1 else a.shape[1]
        inner_image_cost = self._outer.apply_cost(
            np.ones((self._inner.m, columns))
        )
        return self._inner.apply_cost(a) + inner_image_cost


class StackedSketch(SketchFamily):
    """Vertical concatenation of independent sketches, scaled ``1/√k``.

    ``‖Πx‖² = (1/k) Σ_i ‖Π_i x‖²`` — the average of ``k`` independent
    quadratic forms, so the variance of the squared norm shrinks by
    ``1/k`` at the price of ``k×`` the rows.
    """

    def __init__(self, families: Sequence[SketchFamily]):
        if not families:
            raise ValueError("need at least one family to stack")
        n = families[0].n
        for family in families:
            if family.n != n:
                raise ValueError(
                    "all stacked families must share the ambient dimension"
                )
        super().__init__(sum(f.m for f in families), n)
        self._families = list(families)

    @property
    def families(self) -> list:
        return list(self._families)

    @property
    def name(self) -> str:
        inner = ", ".join(f.name for f in self._families)
        return f"Stacked[{inner}]"

    def spec(self) -> dict:
        """Canonical description embedding every block's spec."""
        return {
            "type": type(self).__qualname__,
            "families": [family.spec() for family in self._families],
        }

    def sample(self, rng: RngLike = None) -> Sketch:
        # Stacking needs every block's explicit matrix.
        gen = as_generator(rng)
        scale = 1.0 / np.sqrt(len(self._families))
        blocks = []
        for family in self._families:
            piece = sample_sketch(family, spawn(gen)).matrix
            blocks.append(
                piece.multiply(scale) if sp.issparse(piece)
                else piece * scale
            )
        if all(sp.issparse(b) for b in blocks):
            matrix = sp.vstack(blocks, format="csc")
        else:
            matrix = np.vstack([_to_dense(b) for b in blocks])
        return Sketch(matrix, family=self)
