"""The Remark 10 block-Hadamard construction.

The paper's Remark 10 exhibits a matrix certifying that the ``d²`` lower
bound of Theorem 9 is tight: let ``H`` be a Hadamard matrix of order
``1/(8ε)`` and let ``Π`` be the horizontal concatenation of copies of an
``m × m`` block-diagonal matrix whose diagonal blocks are ``√(8ε) H``, with
``m = O(d²)``.  Every column then has exactly ``1/(8ε)`` entries of
absolute value ``√(8ε)`` (unit column norm), and ``Π`` is a
``(0, δ)``-subspace-embedding for ``U ~ D_1`` for constant ``δ``.

The construction is deterministic; we expose it as a (degenerate)
:class:`SketchFamily` whose :meth:`sample` optionally randomizes the column
order, so it plugs into the same testing harness as the random families.
Experiment E8 runs it above and below ``m ≍ d²`` to exhibit the tightness
crossover.
"""

from __future__ import annotations

import math
from typing import Optional

import scipy.sparse as sp

from ..linalg.hadamard import hadamard_matrix
from ..utils.rng import RngLike, as_generator
from ..utils.validation import check_positive_int, check_power_of_two
from .base import Sketch, SketchFamily

__all__ = ["HadamardBlockSketch", "block_hadamard_matrix"]


def block_hadamard_matrix(m: int, n: int, block_order: int) -> sp.csc_matrix:
    """The deterministic Remark 10 matrix.

    ``m`` must be a multiple of ``block_order`` (a power of two).  The
    ``m × m`` block-diagonal matrix with diagonal blocks
    ``H / √block_order`` (unit-norm columns; the paper's ``√(8ε) H`` with
    ``block_order = 1/(8ε)``) is horizontally tiled to ``n`` columns; a
    final partial copy is truncated column-wise if ``n`` is not a multiple
    of ``m``.
    """
    block_order = check_power_of_two(block_order, "block_order")
    m = check_positive_int(m, "m")
    n = check_positive_int(n, "n")
    if m % block_order != 0:
        raise ValueError(
            f"m ({m}) must be a multiple of block_order ({block_order})"
        )
    h = hadamard_matrix(block_order) / math.sqrt(block_order)
    blocks_per_copy = m // block_order
    one_copy = sp.block_diag([sp.csc_matrix(h)] * blocks_per_copy,
                             format="csc")
    copies = []
    remaining = n
    while remaining > 0:
        take = min(remaining, m)
        copies.append(one_copy[:, :take])
        remaining -= take
    return sp.hstack(copies, format="csc")


class HadamardBlockSketch(SketchFamily):
    """Remark 10 family: deterministic block-Hadamard columns.

    Parameters
    ----------
    m, n:
        Sketch dimensions; ``m`` must be a multiple of ``block_order``.
    block_order:
        Hadamard block size (power of two); the column sparsity.  For the
        paper's setting, ``block_order = 1/(8ε)``.
    permute:
        When True (default), :meth:`sample` applies a random column
        permutation and random column signs; the embedding guarantee is
        invariant under both, and the randomization avoids accidental
        alignment with structured test subspaces.
    """

    def __init__(self, m: int, n: int, block_order: int,
                 permute: bool = True):
        block_order = check_power_of_two(block_order, "block_order")
        if m % block_order != 0:
            raise ValueError(
                f"m ({m}) must be a multiple of block_order ({block_order})"
            )
        super().__init__(m, n)
        self._block_order = block_order
        self._permute = bool(permute)
        self._base: Optional[sp.csc_matrix] = None

    @property
    def block_order(self) -> int:
        """Hadamard block size (= column sparsity)."""
        return self._block_order

    @property
    def name(self) -> str:
        return f"HadamardBlock[b={self._block_order}]"

    def _resize_params(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "block_order": self._block_order,
            "permute": self._permute,
        }

    def with_m(self, m: int) -> "HadamardBlockSketch":
        """Copy with ``m`` rounded up to a multiple of the block order."""
        b = self._block_order
        m = max(m, b)
        if m % b != 0:
            m += b - m % b
        params = self._resize_params()
        params["m"] = m
        return HadamardBlockSketch(**params)

    def _base_matrix(self) -> sp.csc_matrix:
        if self._base is None:
            self._base = block_hadamard_matrix(
                self.m, self.n, self._block_order
            )
        return self._base

    def sample(self, rng: RngLike = None) -> Sketch:
        # The deterministic base matrix is cached on the family.
        matrix = self._base_matrix()
        if self._permute:
            gen = as_generator(rng)
            perm = gen.permutation(self.n)
            signs = gen.choice((-1.0, 1.0), size=self.n)
            matrix = (matrix[:, perm] @ sp.diags(signs)).tocsc()
        return Sketch(matrix, family=self)

    @staticmethod
    def for_epsilon(d: int, epsilon: float, n: int,
                    m_factor: float = 1.0) -> "HadamardBlockSketch":
        """Family with the paper's parameters: block order ≈ ``1/(8ε)``.

        ``m_factor`` scales the target dimension relative to ``d²`` (the
        Remark 10 guarantee holds at ``m = O(d²)``; E8 sweeps the factor to
        find the crossover).  The block order is rounded up to a power of
        two.
        """
        check_positive_int(d, "d")
        if not (0 < epsilon < 1):
            raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
        order = 1
        while order < 1.0 / (8.0 * epsilon):
            order *= 2
        m = max(order, int(math.ceil(m_factor * d * d)))
        if m % order != 0:
            m += order - m % order
        return HadamardBlockSketch(m=m, n=n, block_order=order)
