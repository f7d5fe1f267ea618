"""Mixture hard instances used in Sections 3 and 5.

* :class:`MixtureInstance` — a general finite mixture of hard instances.
* :func:`section3_mixture` — the ``s = 1`` hard distribution ``D``:
  ``D_1`` with probability 1/2 and ``D_{8ε}`` with probability 1/2.
* :func:`section5_mixture` — the distribution ``D̃`` used to remove the
  abundance assumption: ``D_1`` with probability 1/2, else ``D_{2^{-ℓ}}``
  for ``ℓ`` uniform in ``{1, …, L}``, ``L = log₂(1/ε) − 3``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..utils.rng import RngLike, as_generator
from ..utils.validation import check_epsilon
from .dbeta import DBeta, HardDraw, HardInstance

__all__ = [
    "MixtureInstance",
    "section3_mixture",
    "section5_mixture",
    "section5_level_count",
]


class MixtureInstance(HardInstance):
    """A finite mixture of hard instances over the same ``(n, d)``.

    Parameters
    ----------
    components:
        The component distributions; all must share ``n`` and ``d``.
    weights:
        Mixing probabilities; uniform when omitted.
    """

    def __init__(self, components: Sequence[HardInstance],
                 weights: Optional[Sequence[float]] = None,
                 label: Optional[str] = None):
        if not components:
            raise ValueError("mixture needs at least one component")
        n, d = components[0].n, components[0].d
        for comp in components:
            if (comp.n, comp.d) != (n, d):
                raise ValueError(
                    "all mixture components must share (n, d); got "
                    f"({comp.n}, {comp.d}) vs ({n}, {d})"
                )
        super().__init__(n, d)
        self._components = list(components)
        if weights is None:
            weights = [1.0 / len(components)] * len(components)
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(components),):
            raise ValueError("one weight per component required")
        if np.any(weights < 0) or not math.isclose(weights.sum(), 1.0,
                                                   rel_tol=1e-9):
            raise ValueError("weights must be nonnegative and sum to 1")
        self._weights = weights
        self._label = label

    @property
    def components(self) -> list:
        return list(self._components)

    @property
    def weights(self) -> np.ndarray:
        return self._weights.copy()

    @property
    def name(self) -> str:
        if self._label:
            return self._label
        inner = ", ".join(c.name for c in self._components)
        return f"Mixture({inner})"

    def spec(self) -> dict:
        base = super().spec()
        base.update(
            components=[comp.spec() for comp in self._components],
            weights=[float(w) for w in self._weights],
        )
        return base

    def sample_draw(self, rng: RngLike = None) -> HardDraw:
        gen = as_generator(rng)
        index = int(gen.choice(len(self._components), p=self._weights))
        return self._components[index].sample_draw(gen)


def section3_mixture(n: int, d: int, epsilon: float) -> MixtureInstance:
    """Section 3's hard distribution for ``s = 1``.

    ``D_1`` w.p. 1/2 and ``D_{8ε}`` w.p. 1/2; the latter's ``1/(8ε)``
    identity copies are rounded to the nearest integer.  Theorem 8 requires
    ``n ≥ K d²/(ε² δ)``; the caller chooses ``n`` (see
    :func:`repro.core.bounds.theorem8_n`).
    """
    epsilon = check_epsilon(epsilon, upper=1.0 / 8.0)
    reps = max(1, int(round(1.0 / (8.0 * epsilon))))
    d1 = DBeta(n=n, d=d, reps=1)
    d8eps = DBeta(n=n, d=d, reps=reps)
    return MixtureInstance([d1, d8eps], label=f"D_section3[eps={epsilon:g}]")


def section5_level_count(epsilon: float) -> int:
    """``L = log₂(1/ε) − 3`` (at least 1), the number of dyadic levels."""
    epsilon = check_epsilon(epsilon)
    return max(1, int(math.floor(math.log2(1.0 / epsilon))) - 3)


def section5_mixture(n: int, d: int, epsilon: float) -> MixtureInstance:
    """Section 5's hard distribution ``D̃`` for ``s ≤ 1/(9ε)``.

    With probability 1/2 draw from ``D_1``; with probability 1/2 draw from
    ``D_{2^{-ℓ}}`` for ``ℓ`` uniform over ``{1, …, L}``.
    """
    epsilon = check_epsilon(epsilon)
    levels = section5_level_count(epsilon)
    components = [DBeta(n=n, d=d, reps=1)]
    weights = [0.5]
    for level in range(1, levels + 1):
        components.append(DBeta(n=n, d=d, reps=2**level))
        weights.append(0.5 / levels)
    return MixtureInstance(components, weights,
                           label=f"D_tilde[eps={epsilon:g}, L={levels}]")
