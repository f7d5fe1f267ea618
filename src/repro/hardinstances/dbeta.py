"""The paper's hard-instance distribution ``D_β`` (Definition 2).

``U = V W`` with ``V ∈ R^{n × d/β}`` having i.i.d. columns uniform over the
``n`` canonical basis vectors, and ``W ∈ R^{d/β × d}`` placing ``1/β``
Rademacher entries ``σ_j √β`` in column ``i`` at rows
``(i-1)/β + 1, …, i/β``.  Concretely: column ``i`` of ``U`` is a sum of
``1/β`` random signed canonical basis vectors scaled by ``√β`` — the
"replicated identity" instance described in Section 1.1.

We parameterize by the integer ``reps = 1/β`` (copies of the identity), so
``β = 1/reps`` is exact.  Conditioned on the ``V``-columns being distinct
(the paper's event ``B̄``), ``U`` is an isometry.  The sampler can enforce
distinctness directly (default, matching the conditioning) or sample
i.i.d. columns like the raw definition.

A draw is a keyed hash, like the sketches it is tested against: one
uint64 key (:func:`repro.utils.rng.draw_key`) fixes the support through
:func:`repro.utils.rng.keyed_sample` — rows from the key's even lanes
reduced to ``[0, n)`` (the first ``reps·d`` distinct ones under
``distinct_rows``), signs from its odd lanes.  :meth:`DBeta.sample_supports`
derives the supports of many keys in one vectorized call, which is how
the trial engine draws a whole chunk of trials at once.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

import numpy as np

from ..utils.rng import KeyedStream, RngLike, draw_key, keyed_sample
from ..utils.validation import check_positive_int

__all__ = ["HardInstance", "HardDraw", "SupportDraw", "DBeta",
           "assemble_basis"]


def assemble_basis(n: int, d: int, rows: np.ndarray,
                   signs: np.ndarray, reps: int) -> np.ndarray:
    """Build ``U = VW`` directly from the support and signs.

    Equivalent to ``V @ W`` but linear-time: column ``i`` receives
    ``signs[j]/√reps`` at row ``rows[j]`` for each ``j`` in block ``i``.
    Coinciding rows within a block accumulate, matching ``U = VW``.
    Shared by the eager draw path and :class:`SupportDraw`'s lazy
    assembly so both produce bit-identical matrices.
    """
    u = np.zeros((n, d))
    scale = 1.0 / np.sqrt(reps)
    cols = np.repeat(np.arange(d), reps)
    np.add.at(u, (rows, cols), signs * scale)
    return u


@dataclass(frozen=True)
class HardDraw:
    """A sampled hard-instance matrix with its generating randomness.

    Attributes
    ----------
    u:
        The ``n × d`` matrix ``U = VW``.
    rows:
        Array of shape ``(reps * d,)``: ``rows[j]`` is the (single) nonzero
        row of column ``j`` of ``V`` — the indices the paper calls
        ``C_1, …, C_{d/β}``.
    signs:
        Array of shape ``(reps * d,)``: the Rademacher variables ``σ_j``.
    reps:
        Copies of the identity, ``1/β``.
    component:
        Label of the mixture component this draw came from (or ``None``).
    """

    u: np.ndarray
    rows: np.ndarray
    signs: np.ndarray
    reps: int
    component: Optional[str] = None
    #: True when ``u`` is fully determined by ``rows``/``signs``/``reps``
    #: (the ``D_β`` structure), enabling the fast sketched-basis path.
    structured: bool = True

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def d(self) -> int:
        return self.u.shape[1]

    @property
    def beta(self) -> float:
        """The distribution parameter ``β = 1/reps``."""
        return 1.0 / self.reps

    def v_matrix(self) -> np.ndarray:
        """Materialize ``V ∈ R^{n × reps·d}`` (one 1 per column)."""
        v = np.zeros((self.n, self.rows.size))
        v[self.rows, np.arange(self.rows.size)] = 1.0
        return v

    def w_matrix(self) -> np.ndarray:
        """Materialize ``W ∈ R^{reps·d × d}``."""
        reps, d = self.reps, self.d
        w = np.zeros((reps * d, d))
        scale = 1.0 / np.sqrt(reps)
        for i in range(d):
            block = slice(i * reps, (i + 1) * reps)
            w[block, i] = self.signs[block] * scale
        return w

    def sketched_basis(self, pi) -> np.ndarray:
        """Compute ``ΠU`` without materializing ``U``.

        For structured draws, ``ΠU = (ΠV)W`` needs only the ``reps·d``
        columns of ``Π`` that ``V`` selects — a huge saving when the
        ambient dimension is large.  Falls back to the dense product for
        unstructured draws.
        """
        import scipy.sparse as sp  # local import to keep module light

        if not self.structured:
            product = pi @ self.u
            if sp.issparse(product):
                product = product.toarray()
            return np.asarray(product, dtype=float)
        if sp.issparse(pi):
            sub = np.asarray(pi.tocsc()[:, self.rows].toarray(), dtype=float)
        else:
            sub = np.asarray(pi, dtype=float)[:, self.rows]
        return self.combine_sketched_columns(sub)

    def combine_sketched_columns(self, sub: np.ndarray) -> np.ndarray:
        """Finish ``ΠU = (ΠV)W`` given the gathered columns ``ΠV``.

        ``sub`` must be the dense ``m × reps·d`` gather ``Π[:, rows]``.
        Kept as a separate step so matrix-free kernels can produce ``sub``
        their own way and still share this exact arithmetic (bit-for-bit).
        """
        scale = 1.0 / np.sqrt(self.reps)
        scaled = sub * (self.signs * scale)
        m = scaled.shape[0]
        return scaled.reshape(m, self.d, self.reps).sum(axis=2)


class SupportDraw:
    """A structured ``D_β`` draw that materializes ``u`` only on demand.

    Duck-type compatible with :class:`HardDraw` (``rows``/``signs``/
    ``reps``/``structured`` plus the sketched-basis arithmetic), but the
    ``n × d`` matrix — the one allocation a structured trial never needs —
    is assembled lazily on first access to :attr:`u`.  The batched trial
    engine samples these so a chunk of ``B`` draws costs ``B`` small index
    arrays instead of ``B`` dense matrices.

    Assembling on access uses :func:`assemble_basis`, so a ``SupportDraw``
    and a :class:`HardDraw` from the same stream hold bit-identical
    matrices.
    """

    #: Same flag :class:`HardDraw` carries: ``u`` is fully determined by
    #: ``rows``/``signs``/``reps``, enabling the fast sketched-basis path.
    structured = True

    def __init__(self, n: int, d: int, rows: np.ndarray, signs: np.ndarray,
                 reps: int, component: Optional[str] = None) -> None:
        self._n = int(n)
        self._d = int(d)
        self.rows = rows
        self.signs = signs
        self.reps = int(reps)
        self.component = component
        self._u: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self._n

    @property
    def d(self) -> int:
        return self._d

    @property
    def beta(self) -> float:
        """The distribution parameter ``β = 1/reps``."""
        return 1.0 / self.reps

    @property
    def u(self) -> np.ndarray:
        """The ``n × d`` matrix ``U = VW``, assembled on first access."""
        if self._u is None:
            self._u = assemble_basis(
                self._n, self._d, self.rows, self.signs, self.reps
            )
        return self._u

    # The pinned sketched-basis arithmetic is shared with HardDraw by
    # reusing its (plain-function) methods: they only touch the duck
    # interface above, and sharing rules out bit-level divergence.
    v_matrix = HardDraw.v_matrix
    w_matrix = HardDraw.w_matrix
    sketched_basis = HardDraw.sketched_basis
    combine_sketched_columns = HardDraw.combine_sketched_columns


class HardInstance(abc.ABC):
    """A distribution over ``n × d`` test matrices (hard instances)."""

    def __init__(self, n: int, d: int):
        self._n = check_positive_int(n, "n")
        self._d = check_positive_int(d, "d")

    @property
    def n(self) -> int:
        return self._n

    @property
    def d(self) -> int:
        return self._d

    @property
    def name(self) -> str:
        return type(self).__name__

    def spec(self) -> dict:
        """Canonical JSON-able description of this distribution.

        The hard-instance component of content-addressed cache keys
        (:mod:`repro.cache`): two instances with equal specs must be the
        same distribution, so subclasses with extra parameters extend the
        returned dictionary.
        """
        return {"type": type(self).__qualname__, "n": self._n, "d": self._d}

    @abc.abstractmethod
    def sample_draw(self, rng: RngLike = None) -> HardDraw:
        """Draw a matrix together with its generating randomness."""

    def sample_support(self, rng: RngLike = None):
        """Draw only the generating randomness, deferring ``u`` if possible.

        Consumes **exactly** the same random variates as
        :meth:`sample_draw` at the same stream (matrix assembly never
        draws randomness), so the two are interchangeable seed-for-seed.
        Structured instances override to return a :class:`SupportDraw`
        that skips the dense ``n × d`` allocation; this default simply
        falls back to the full draw.
        """
        return self.sample_draw(rng)

    def sample_supports(self, keys: Sequence[Any]) -> List[Any]:
        """One :meth:`sample_support` draw per uint64 key, in key order.

        Draw ``i`` is ``sample_support(KeyedStream(keys[i]))``.  The trial
        engine hands each chunk's instance keys (see
        :func:`repro.utils.rng.trial_keys`) here in one call; keyed
        instances override with one vectorized derivation, and this
        default loops.
        """
        return [self.sample_support(KeyedStream(key)) for key in keys]

    def sample(self, rng: RngLike = None) -> np.ndarray:
        """Draw just the ``n × d`` matrix ``U``."""
        return self.sample_draw(rng).u

    def __repr__(self) -> str:
        return f"{self.name}(n={self._n}, d={self._d})"


class DBeta(HardInstance):
    """Definition 2's ``D_β`` with ``β = 1/reps``.

    Parameters
    ----------
    n, d:
        Ambient dimension and subspace dimension.
    reps:
        Number of identity copies, ``1/β``; ``reps = 1`` is ``D_1`` (the
        signed-permuted identity) and larger ``reps`` spreads each
        dimension's mass over ``reps`` coordinates of magnitude ``√β``.
    distinct_rows:
        When True (default), the ``reps·d`` rows are sampled without
        replacement, i.e. the draw is conditioned on the paper's event
        ``B̄`` and ``U`` is exactly an isometry.  When False, rows are
        i.i.d. uniform as in the raw Definition 2.
    """

    def __init__(self, n: int, d: int, reps: int = 1,
                 distinct_rows: bool = True):
        super().__init__(n, d)
        self._reps = check_positive_int(reps, "reps")
        if self._reps * self._d > self._n:
            raise ValueError(
                f"need n ≥ reps·d for an isometry, got n={n}, "
                f"reps·d={self._reps * self._d}"
            )
        self._distinct_rows = bool(distinct_rows)

    @property
    def reps(self) -> int:
        """Identity copies ``1/β``."""
        return self._reps

    @property
    def beta(self) -> float:
        """The distribution parameter ``β``."""
        return 1.0 / self._reps

    @property
    def distinct_rows(self) -> bool:
        return self._distinct_rows

    @property
    def name(self) -> str:
        return f"DBeta[reps={self._reps}]"

    def spec(self) -> dict:
        base = super().spec()
        base.update(reps=self._reps, distinct_rows=self._distinct_rows)
        return base

    @classmethod
    def from_beta(cls, n: int, d: int, beta: float,
                  distinct_rows: bool = True) -> "DBeta":
        """Construct from ``β``, rounding ``1/β`` to the nearest integer ≥ 1."""
        if not (0 < beta <= 1):
            raise ValueError(f"beta must lie in (0, 1], got {beta}")
        reps = max(1, int(round(1.0 / beta)))
        return cls(n=n, d=d, reps=reps, distinct_rows=distinct_rows)

    def sample_draw(self, rng: RngLike = None) -> HardDraw:
        support = self.sample_support(rng)
        return HardDraw(u=support.u, rows=support.rows, signs=support.signs,
                        reps=self._reps, component=self.name)

    def sample_support(self, rng: RngLike = None) -> SupportDraw:
        """Structured draw without the dense ``U`` (see :class:`SupportDraw`).

        Draws one key from ``rng`` and derives the support from it exactly
        as :meth:`sample_supports` does; :meth:`sample_draw` is this draw
        plus the eager matrix assembly (which consumes no randomness).
        """
        return self.sample_supports([draw_key(rng)])[0]

    def sample_supports(self, keys: Sequence[Any]) -> List[SupportDraw]:
        """The supports of all ``keys`` in one vectorized derivation.

        Key ``k`` gives the ``reps·d`` rows and signs of
        :func:`repro.utils.rng.keyed_sample` with ``m = n``: uniform
        without replacement under ``distinct_rows`` (from ``n`` lane words
        when ``2·reps·d > n``, as in OSNAP's dense regime), i.i.d. uniform
        otherwise.
        """
        rows, signs = keyed_sample(np.asarray(keys, dtype=np.uint64),
                                   self._reps * self._d, self._n,
                                   self._distinct_rows)
        return [SupportDraw(n=self._n, d=self._d, rows=row, signs=sign,
                            reps=self._reps, component=self.name)
                for row, sign in zip(rows, signs)]
