"""Subsampled Randomized Hadamard Transform (SRHT).

``Π = √(n/m) · P H D`` where ``D`` is a random ±1 diagonal, ``H`` the
(normalized) Walsh–Hadamard transform and ``P`` samples ``m`` rows
uniformly.  Applying it costs ``O(n log n)`` per vector via the fast
transform — the middle ground between dense Gaussian and CountSketch in the
application comparison (experiment E11).

The ambient dimension ``n`` must be a power of two; callers with other
``n`` should zero-pad (``apps``-level helpers do this automatically).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from ..linalg.hadamard import fwht
from ..utils.rng import RngLike, as_generator
from ..utils.validation import (
    check_epsilon,
    check_positive_int,
    check_power_of_two,
    check_probability,
)
from .base import Sketch, SketchFamily

__all__ = ["SRHT", "SRHTOperator"]


class SRHTOperator:
    """A sampled SRHT as an implicit operator with a fast ``apply``.

    Also builds the explicit matrix for code paths (distortion checks)
    that want it; a sampled :class:`SRHTSketch` builds it once.
    """

    def __init__(self, signs: np.ndarray, rows: np.ndarray, n: int, m: int):
        self._signs = signs
        self._rows = rows
        self._n = n
        self._m = m
        self._scale = 1.0 / math.sqrt(m)  # combined with unnormalized FWHT

    def apply(self, a: np.ndarray) -> np.ndarray:
        """Compute ``ΠA`` in ``O(n log n)`` per column via the FWHT."""
        a = np.asarray(a, dtype=float)
        if a.shape[0] != self._n:
            raise ValueError(
                f"operator expects leading dimension {self._n}, "
                f"got {a.shape[0]}"
            )
        mixed = fwht(self._signs.reshape((-1,) + (1,) * (a.ndim - 1)) * a)
        # Π = √(n/m)·P·(H/√n)·D, so with the unnormalized FWHT the overall
        # coefficient collapses to 1/√m per selected row.
        return self._scale * mixed[self._rows]

    def dense_matrix(self) -> np.ndarray:
        """Materialize the explicit ``m × n`` matrix."""
        return self.apply(np.eye(self._n))


class SRHTSketch(Sketch):
    """A sampled SRHT: fast implicit ``apply``; the explicit matrix is
    built from the operator on first use."""

    def __init__(self, operator: SRHTOperator, family: "SRHT"):
        self._operator = operator
        self._materialized = None
        self._family = family
        self._kernel = None

    @property
    def operator(self) -> SRHTOperator:
        return self._operator

    def _build_matrix(self) -> np.ndarray:
        return self._operator.dense_matrix()

    @property
    def shape(self) -> tuple:
        return (self._operator._m, self._operator._n)

    def apply(self, a) -> np.ndarray:
        """``ΠA`` in ``O(n log n)`` per column via the FWHT."""
        a = np.asarray(a, dtype=float) if not sp.issparse(a) \
            else np.asarray(a.toarray(), dtype=float)
        return self._operator.apply(a)

    def apply_cost(self, a) -> int:
        """FWHT cost: ``n log₂ n`` multiplications per column of ``a``."""
        n = self.n
        columns = 1 if a.ndim == 1 else a.shape[1]
        return int(n * math.log2(n)) * columns


class SRHT(SketchFamily):
    """SRHT family; ``n`` must be a power of two."""

    def __init__(self, m: int, n: int):
        check_power_of_two(n, "n")
        super().__init__(m, n)
        if m > n:
            raise ValueError(f"SRHT requires m ≤ n, got m={m}, n={n}")

    def sample(self, rng: RngLike = None) -> Sketch:
        gen = as_generator(rng)
        signs = gen.choice((-1.0, 1.0), size=self.n)
        rows = gen.choice(self.n, size=self.m, replace=False)
        op = SRHTOperator(signs, rows, self.n, self.m)
        return SRHTSketch(op, family=self)

    @staticmethod
    def recommended_m(d: int, epsilon: float, delta: float,
                      constant: float = 4.0) -> int:
        """Standard guarantee ``m = Θ((d + log(n/δ)) log(d/δ) / ε²)``.

        We use the simplified ``(d log d)/ε²``-type expression adequate for
        the experiments here.
        """
        d = check_positive_int(d, "d")
        epsilon = check_epsilon(epsilon)
        delta = check_probability(delta, "delta")
        return max(1, math.ceil(
            constant * d * math.log(max(d / delta, 2.0)) / epsilon**2
        ))
