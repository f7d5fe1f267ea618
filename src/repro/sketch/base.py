"""Base classes for sketching-matrix families.

A *family* (e.g. "CountSketch with m rows and n columns") is a distribution
over matrices; calling :meth:`SketchFamily.sample` draws one concrete
:class:`Sketch`.  This separation mirrors Definition 1: the oblivious
subspace embedding is the distribution, and the embedding property is a
statement about the probability that a sampled matrix works for a fixed
subspace.

Structured sparse families sample an
:class:`~repro.sketch.kernels.ApplyKernel` instead of a matrix: a
matrix-free (hash-row, sign)-style representation whose application is
bit-identical to the materialized matmul but skips the per-trial matrix
build.  The explicit matrix is a view derived from the kernel, assembled
once, on first use, when something (composition, a sparse right-hand side,
a structural experiment) asks for :attr:`Sketch.matrix`.
"""

from __future__ import annotations

import abc
from typing import (TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple,
                    Union)

import numpy as np
import scipy.sparse as sp

from ..linalg.gram import max_column_sparsity
from ..linalg.sparse_ops import densify, nnz
from ..observe.counters import add_count
from ..utils.rng import RngLike
from ..utils.serialization import to_builtin
from ..utils.validation import check_positive_int
from .kernels import ApplyKernel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .batched import BatchedColumnScatter

__all__ = ["Sketch", "SketchFamily", "sample_sketch"]

MatrixLike = Union[np.ndarray, sp.spmatrix]


class Sketch:
    """A concrete sampled sketching matrix ``Π ∈ R^{m×n}``.

    Wraps the matrix together with the family that produced it, and provides
    the application operator and basic structural statistics.  A sketch
    sampled as a matrix-free ``kernel`` holds no matrix: :attr:`matrix` is
    built from the kernel on first use, and the application and statistics
    helpers answer from the kernel directly.  Sketches of implicit
    operators (SRHT, compositions) hold neither a matrix nor a kernel and
    override :meth:`_build_matrix`.
    """

    def __init__(self, matrix: Optional[MatrixLike] = None,
                 family: Optional["SketchFamily"] = None,
                 kernel: Optional[ApplyKernel] = None) -> None:
        if matrix is None and kernel is None:
            raise ValueError(
                "a sketch needs an explicit matrix or an apply kernel"
            )
        if matrix is not None and matrix.ndim != 2:
            raise ValueError("a sketch must be a matrix")
        self._materialized = matrix
        self._family = family
        self._kernel = kernel

    @property
    def matrix(self) -> MatrixLike:
        """The explicit matrix, built on first use."""
        if self._materialized is None:
            self._materialized = self._build_matrix()
        return self._materialized

    def _build_matrix(self) -> MatrixLike:
        """Assemble the explicit matrix of a sketch that holds none."""
        kernel = self._kernel
        assert kernel is not None  # __init__ requires matrix or kernel
        return kernel.materialize()

    @property
    def kernel(self) -> Optional[ApplyKernel]:
        """The matrix-free application kernel, when the family has one."""
        return self._kernel

    @property
    def is_materialized(self) -> bool:
        """Whether the explicit matrix has been assembled."""
        return self._materialized is not None

    @property
    def family(self) -> Optional["SketchFamily"]:
        """The family this sketch was sampled from, when known."""
        return self._family

    @property
    def shape(self) -> Tuple[int, ...]:
        if self._kernel is not None:
            return self._kernel.shape
        return self.matrix.shape

    @property
    def m(self) -> int:
        """Target (row) dimension."""
        return self.shape[0]

    @property
    def n(self) -> int:
        """Ambient (column) dimension."""
        return self.shape[1]

    @property
    def nnz(self) -> int:
        """Number of nonzero entries."""
        if self._kernel is not None:
            return self._kernel.nnz()
        return nnz(self.matrix)

    @property
    def column_sparsity(self) -> int:
        """Maximum number of nonzeros in a column — the paper's ``s``."""
        if self._kernel is not None:
            return self._kernel.max_column_nnz()
        return max_column_sparsity(self.matrix)

    def apply(self, a: MatrixLike) -> np.ndarray:
        """Compute ``ΠA`` (or ``Πx`` for a vector), densified.

        Dense inputs dispatch to the matrix-free kernel when one is
        attached (bit-identical to the materialized product); sparse
        inputs and kernel-less sketches multiply by the explicit matrix.
        """
        if sp.issparse(a):
            a_arr = a
        else:
            a_arr = np.asarray(a, dtype=float)
            if a_arr.ndim not in (1, 2):
                raise ValueError(
                    f"can only apply a sketch to a 1-D vector or 2-D "
                    f"matrix, got a {a_arr.ndim}-D input"
                )
        if a_arr.shape[0] != self.n:
            kind = "vector" if a_arr.ndim == 1 else "matrix"
            raise ValueError(
                f"cannot apply {self.shape} sketch to a {kind} with "
                f"leading dimension {a_arr.shape[0]} (expected {self.n})"
            )
        kernel = self._kernel
        if kernel is not None and not sp.issparse(a_arr):
            add_count("kernel_applies")
            return np.asarray(kernel.apply(a_arr), dtype=float)
        add_count("matrix_applies")
        result = self.matrix @ a_arr
        if sp.issparse(result):
            result = result.toarray()
        return np.asarray(result, dtype=float)

    def basis_image(self, draw: Any) -> np.ndarray:
        """Compute ``ΠU`` for a hard-instance draw.

        Kernel-backed sketches answer matrix-free: structured draws via the
        kernel's column scatter/gather (no matrix, no per-trial build),
        unstructured draws via the kernel's dense apply.  Both are
        bit-identical to the materialized path, which remains the fallback.
        """
        kernel = self._kernel
        if kernel is not None:
            add_count("kernel_applies")
            if getattr(draw, "structured", False):
                return kernel.sketched_basis(draw)
            return np.asarray(kernel.apply(draw.u), dtype=float)
        add_count("matrix_applies")
        return draw.sketched_basis(self.matrix)

    def apply_cost(self, a: MatrixLike) -> int:
        """Multiplication count of :meth:`apply` on ``a``.

        Defaults to the exact sparse count (computed from the kernel's
        per-column sparsity when the sketch has a kernel);
        implicit-operator sketches (SRHT) override with their
        fast-transform cost.
        """
        from ..linalg.sparse_ops import sketch_apply_cost

        pi = self._kernel if self._kernel is not None else self.matrix
        return sketch_apply_cost(pi, a)

    def dense(self) -> np.ndarray:
        """The sketch as a dense ndarray."""
        return densify(self.matrix)

    def __repr__(self) -> str:
        origin = f" from {self._family!r}" if self._family is not None else ""
        if self.is_materialized:
            state = f", nnz={self.nnz}"
        elif self._kernel is not None:
            state = f", nnz={self.nnz}, lazy"
        else:
            # An implicit operator's nnz would build its matrix.
            state = ", lazy"
        return f"Sketch(shape={self.shape}{state}{origin})"


class SketchFamily(abc.ABC):
    """A distribution over ``m × n`` sketching matrices.

    Subclasses implement :meth:`sample`.  The constructor validates and
    stores the common dimensions so subclasses only validate their own
    extra parameters.
    """

    def __init__(self, m: int, n: int) -> None:
        self._m = check_positive_int(m, "m")
        self._n = check_positive_int(n, "n")

    @property
    def m(self) -> int:
        """Target (row) dimension of sampled sketches."""
        return self._m

    @property
    def n(self) -> int:
        """Ambient (column) dimension of sampled sketches."""
        return self._n

    @property
    def name(self) -> str:
        """Human-readable family name (class name by default)."""
        return type(self).__name__

    @abc.abstractmethod
    def sample(self, rng: RngLike = None) -> Sketch:
        """Draw one sketching matrix from the family.

        Families with a matrix-free kernel return a sketch that holds only
        the kernel; its explicit matrix is built on first use of
        :attr:`Sketch.matrix`.
        """

    def sample_trial_batch(
        self, streams: Sequence[RngLike],
    ) -> Optional["BatchedColumnScatter"]:
        """Sample ``len(streams)`` sketches as one batched trial kernel.

        ``streams[i]`` is trial ``i``'s sketch stream — in the trial
        engine a :class:`~repro.utils.rng.KeyedStream` holding the trial's
        sketch key; the batch consumes each stream exactly as
        ``sample(streams[i])`` would, so ``trial_kernel(i)`` is the
        serial draw's kernel.  Only families with a vectorized sampler
        override this (CountSketch and OSNAP).  The default returns
        ``None``: the trial engine then reduces each trial's dense
        product on its own, on the same streams.
        """
        return None

    def spec(self) -> Dict[str, Any]:
        """Canonical JSON-able description of this family.

        Used as the sketch-family component of content-addressed cache
        keys (:mod:`repro.cache`): two families with equal specs must be
        the same distribution.  The default covers any subclass whose
        :meth:`_resize_params` returns its full constructor signature;
        families composed of other families override to embed the inner
        specs.
        """
        return {
            "type": type(self).__qualname__,
            "params": to_builtin(self._resize_params()),
        }

    def with_m(self, m: int) -> "SketchFamily":
        """A copy of this family with a different target dimension.

        Subclasses with extra parameters must override when those parameters
        depend on ``m``.  Used by the minimal-``m`` search in
        :mod:`repro.core.tester`.
        """
        params = dict(self._resize_params())
        params["m"] = m
        return type(self)(**params)

    def _resize_params(self) -> Dict[str, Any]:
        """Constructor kwargs for :meth:`with_m`; subclasses extend."""
        return {"m": self._m, "n": self._n}

    def __repr__(self) -> str:
        return f"{self.name}(m={self._m}, n={self._n})"


def sample_sketch(family: SketchFamily, rng: RngLike = None) -> Sketch:
    """Sample from ``family``, counted as one ``sketch_samples``."""
    add_count("sketch_samples")
    return family.sample(rng)
