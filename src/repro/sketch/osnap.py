"""OSNAP sketches (Nelson–Nguyễn): ``s`` nonzeros per column.

Two classical variants are provided, matching the two samplings discussed
in the literature (and in the paper's introduction):

* ``"uniform"`` — each column gets ``s`` nonzero rows chosen uniformly
  *without replacement*, each value ``±1/√s``.
* ``"block"`` — the rows are partitioned into ``s`` contiguous blocks of
  size ``m/s``; each column gets exactly one ``±1/√s`` entry per block.

Both have exact column sparsity ``s``; CountSketch is the special case
``s = 1`` of either.  The known upper bounds are
``m = Θ(d log(d/δ)/ε²)`` with ``s = Θ(log(d/δ)/ε)``, or
``m = Θ(d^{1+γ} log(d/δ)/ε²)`` with ``s = Θ(1/(γε))`` for constant γ.
The paper's Theorems 18/20 lower-bound ``m`` for every ``s ≤ 1/(9ε)``;
experiment E9 sweeps ``s`` and measures the trade-off.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Sequence

from ..observe.counters import add_count
from ..utils.rng import RngLike, draw_key
from ..utils.validation import (
    check_epsilon,
    check_positive_int,
    check_probability,
)
from .base import Sketch, SketchFamily
from .batched import BatchedColumnScatter
from .hashing import STREAM_VERSION, check_column_hash
from .kernels import ColumnScatterKernel

__all__ = ["OSNAP"]


class OSNAP(SketchFamily):
    """OSNAP family with exact column sparsity ``s``.

    Parameters
    ----------
    m:
        Target dimension.  For the ``"block"`` variant it must be divisible
        by ``s``.
    n:
        Ambient dimension.
    s:
        Number of nonzeros per column; values are ``±1/√s``.
    variant:
        ``"uniform"`` (positions without replacement per column) or
        ``"block"`` (one position per row block).
    """

    def __init__(self, m: int, n: int, s: int, variant: str = "uniform"):
        super().__init__(m, n)
        self._s = check_positive_int(s, "s")
        check_column_hash(self._s, self.m, variant)
        self._variant = variant

    @property
    def s(self) -> int:
        """Column sparsity."""
        return self._s

    @property
    def variant(self) -> str:
        return self._variant

    @property
    def name(self) -> str:
        return f"OSNAP[s={self._s},{self._variant}]"

    def _resize_params(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "s": self._s,
            "variant": self._variant,
        }

    def spec(self) -> Dict[str, Any]:
        return {**super().spec(), "stream": STREAM_VERSION}

    def with_m(self, m: int) -> "OSNAP":
        """Copy with a new target dimension, at least ``s`` (and rounded
        up to a multiple of ``s`` for the block variant)."""
        m = max(m, self._s)
        if self._variant == "block":
            m += -m % self._s
        return OSNAP(**dict(self._resize_params(), m=m))

    def sample(self, rng: RngLike = None) -> Sketch:
        """Sample an OSNAP matrix with exactly ``s`` nonzeros per column.

        Draws one hash key from ``rng``; the keyed column hash
        (:mod:`.hashing`) then fixes every column's rows and signs.  The
        sketch holds the matrix-free :class:`ColumnScatterKernel`.
        """
        kernel = ColumnScatterKernel(draw_key(rng), self._s,
                                     (self.m, self.n), self._variant)
        return Sketch(family=self, kernel=kernel)

    def sample_trial_batch(
        self, streams: Sequence[RngLike],
    ) -> Optional[BatchedColumnScatter]:
        """One hash key per trial, each drawn from its stream exactly like
        :meth:`sample` — so slot ``i`` is the sketch
        ``sample(streams[i])``; a trial's
        :class:`~repro.utils.rng.KeyedStream` hands its key over as is."""
        if not streams:
            return None
        add_count("sketch_samples", len(streams))
        keys = [draw_key(stream) for stream in streams]
        return BatchedColumnScatter(keys, self._s, (self.m, self.n),
                                    self._variant)

    @staticmethod
    def recommended_m(d: int, epsilon: float, delta: float,
                      constant: float = 2.0) -> int:
        """Upper bound ``m = Θ(d log(d/δ)/ε²)`` for ``s = Θ(log(d/δ)/ε)``."""
        d = check_positive_int(d, "d")
        epsilon = check_epsilon(epsilon)
        delta = check_probability(delta, "delta")
        return max(1, math.ceil(
            constant * d * math.log(max(d / delta, 2.0)) / epsilon**2
        ))

    @staticmethod
    def recommended_s(d: int, epsilon: float, delta: float,
                      constant: float = 1.0) -> int:
        """Matching sparsity ``s = Θ(log(d/δ)/ε)`` for :meth:`recommended_m`."""
        d = check_positive_int(d, "d")
        epsilon = check_epsilon(epsilon)
        delta = check_probability(delta, "delta")
        return max(1, math.ceil(
            constant * math.log(max(d / delta, 2.0)) / epsilon
        ))

    @staticmethod
    def recommended_m_gamma(d: int, epsilon: float, delta: float,
                            gamma: float, constant: float = 2.0) -> int:
        """Alternative upper bound ``m = Θ(d^{1+γ} log(d/δ)/ε²)``.

        The matching sparsity is ``s = Θ(1/(γ ε))`` — this is the regime
        the paper's ``s ≤ 1/(9ε)`` constraint addresses.
        """
        d = check_positive_int(d, "d")
        epsilon = check_epsilon(epsilon)
        delta = check_probability(delta, "delta")
        if gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        return max(1, math.ceil(
            constant * d ** (1.0 + gamma)
            * math.log(max(d / delta, 2.0)) / epsilon**2
        ))
