"""CountSketch: the extreme sparse OSE with one nonzero per column.

Each column of ``Π`` carries a single ±1 entry in a uniformly random row.
Applying it to ``A`` costs ``O(nnz(A))`` — the fastest possible — at the
price of a target dimension ``m = Θ(d²/(δε²))`` (Clarkson–Woodruff).  The
paper's Theorem 8 shows this quadratic ``m`` is optimal: our experiments E1
and E2 measure the empirical threshold and its scaling exponents.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Sequence

from ..observe.counters import add_count
from ..utils.rng import RngLike, draw_key
from ..utils.validation import check_epsilon, check_probability
from .base import Sketch, SketchFamily
from .batched import BatchedColumnScatter
from .hashing import STREAM_VERSION
from .kernels import ColumnScatterKernel

__all__ = ["CountSketch"]


class CountSketch(SketchFamily):
    """The Clarkson–Woodruff CountSketch family (column sparsity ``s = 1``).

    Parameters
    ----------
    m:
        Target dimension (number of rows, i.e. hash buckets).
    n:
        Ambient dimension.
    """

    #: Column sparsity of every sampled sketch.
    column_sparsity = 1

    def spec(self) -> Dict[str, Any]:
        return {**super().spec(), "stream": STREAM_VERSION}

    def sample(self, rng: RngLike = None) -> Sketch:
        """Sample ``Π``: per column one ±1 entry in a uniform row.

        Draws one hash key from ``rng``; column ``j``'s row and sign are
        lanes 0 and 1 of the keyed column hash (:mod:`.hashing`).  The
        sketch holds the matrix-free :class:`ColumnScatterKernel`.
        """
        kernel = ColumnScatterKernel(draw_key(rng), 1, (self.m, self.n))
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
        return BatchedColumnScatter(keys, 1, (self.m, self.n))

    @staticmethod
    def recommended_m(d: int, epsilon: float, delta: float,
                      constant: float = 2.0) -> int:
        """Upper-bound target dimension ``m = Θ(d²/(δε²))``.

        ``constant`` is the leading constant; the classical analysis gives
        ``m ≥ c · d²/(δ ε²)`` for a modest ``c`` (2 suffices for the
        second-moment argument).
        """
        epsilon = check_epsilon(epsilon)
        delta = check_probability(delta, "delta")
        return max(1, math.ceil(constant * d * d / (delta * epsilon**2)))

    @staticmethod
    def lower_bound_m(d: int, epsilon: float, delta: float,
                      constant: float = 1.0) -> float:
        """The paper's Theorem 8 lower bound ``m = Ω(d²/(ε²δ))``."""
        epsilon = check_epsilon(epsilon)
        delta = check_probability(delta, "delta")
        return constant * d * d / (epsilon**2 * delta)
