"""Executable proof replays.

The lower-bound proofs are chains of measurable claims about any matrix
``Π`` that wants to be an ``(ε, δ)``-subspace-embedding.  This module
replays those chains on a *concrete* ``Π``, recording for every step the
quantity the proof constrains, the constraint, and whether ``Π`` honors
it — ending with the proof's dichotomy: either some step already refutes
``Π``, or ``Π`` must pay the theorem's row bound.

* :func:`replay_theorem8` — the Section 3 chain:
  Lemma 6 (entry values ``1 ± ε``) → Lemma 7 (no bucket holds two chosen
  dimensions) → birthday count (isolation needs
  ``m = Ω(d²/(ε²δ))`` buckets).
* :func:`replay_theorem9` — the Section 4 chain: abundance → good-column
  fraction ≥ 1/3 → Algorithm 1 finds a large-inner-product pair w.p.
  ``Ω(min{d²/m, 1})`` → Lemma 4 escape ≥ 1/4 → ``m > d²``.

Each trace is also a diagnostic tool: for a ``Π`` that *is* a valid
embedding, the trace shows which structural resource (row count) it paid
to satisfy every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np
import scipy.sparse as sp

from ..hardinstances.dbeta import DBeta
from ..linalg.gram import max_column_sparsity
from ..utils.rng import RngLike, as_generator, spawn
from ..utils.stats import BernoulliEstimate
from ..utils.validation import check_epsilon, check_positive_int, check_probability
from .certify import witness_from_algorithm1
from .collisions import birthday_lower_bound_m, has_bucket_collision
from .heavy import average_heavy_count, good_columns
from .tester import failure_estimate

__all__ = ["ProofStep", "ProofTrace", "replay_theorem8", "replay_theorem9"]

MatrixLike = Union[np.ndarray, sp.spmatrix]


@dataclass(frozen=True)
class ProofStep:
    """One measurable claim in a proof chain.

    Attributes
    ----------
    name:
        Short identifier (e.g. ``"lemma6"``).
    claim:
        The constraint the proof imposes, in words.
    measured:
        The measured quantity.
    requirement:
        The numerical constraint the measured value is compared against.
    satisfied:
        Whether ``Π`` honors the constraint (i.e. is *consistent* with
        being an embedding at this step).
    detail:
        Free-form context.
    """

    name: str
    claim: str
    measured: float
    requirement: float
    satisfied: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "ok" if self.satisfied else "VIOLATED"
        return (
            f"[{mark:>8}] {self.name}: {self.claim} "
            f"(measured {self.measured:.4g}, requirement "
            f"{self.requirement:.4g}) {self.detail}"
        )


@dataclass
class ProofTrace:
    """The full replay of one theorem's chain on a concrete ``Π``.

    ``refuted`` is True when some step (or the final row-count
    comparison) shows ``Π`` cannot be an ``(ε, δ)``-embedding for the
    hard instance.
    """

    theorem: str
    m: int
    steps: List[ProofStep] = field(default_factory=list)
    required_m: float = 0.0
    refuted: bool = False
    empirical_failure: Optional[BernoulliEstimate] = None

    def add(self, step: ProofStep) -> None:
        """Append a step to the chain."""
        self.steps.append(step)

    @property
    def first_violation(self) -> Optional[ProofStep]:
        for step in self.steps:
            if not step.satisfied:
                return step
        return None

    def render(self) -> str:
        """Render the trace as a plain-text report."""
        lines = [f"== proof replay: {self.theorem} (Pi has m={self.m} rows) =="]
        lines.extend(str(step) for step in self.steps)
        lines.append(
            f"row requirement from the surviving chain: "
            f"m >= {self.required_m:.4g}"
        )
        if self.empirical_failure is not None:
            lines.append(
                f"empirical failure probability: {self.empirical_failure}"
            )
        verdict = (
            "REFUTED: Pi is not an (eps, delta)-embedding for the hard "
            "instance" if self.refuted else
            "consistent: Pi pays the theorem's row bound"
        )
        lines.append(verdict)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _entry_fraction_outside(pi: MatrixLike, epsilon: float) -> float:
    """Fraction of nonzero entries with absolute value outside
    ``[1-ε, 1+ε]`` — the quantity Lemma 6 bounds by ``2δ/d``."""
    if sp.issparse(pi):
        data = np.abs(pi.tocsc().data)
        data = data[data != 0]
    else:
        dense = np.asarray(pi, dtype=float)
        data = np.abs(dense[dense != 0])
    if data.size == 0:
        return 1.0
    outside = np.sum((data < 1.0 - epsilon) | (data > 1.0 + epsilon))
    return float(outside) / data.size


def replay_theorem8(pi: MatrixLike, d: int, epsilon: float, delta: float,
                    trials: int = 60, rng: RngLike = None) -> ProofTrace:
    """Replay the Theorem 8 chain on a concrete ``s = 1`` matrix ``Π``.

    The instance dimensions follow the proof: ``D_1`` drives Lemma 6,
    ``D_{8ε}`` drives Lemma 7 and the birthday count.
    """
    d = check_positive_int(d, "d")
    epsilon = check_epsilon(epsilon, upper=1.0 / 8.0)
    delta = check_probability(delta, "delta")
    if delta >= 1.0 / 8.0:
        raise ValueError(
            f"Theorem 8 requires delta < 1/8, got {delta} (the Lemma 7 "
            f"budget 2*delta/(1-4*delta) degenerates above it)"
        )
    trials = check_positive_int(trials, "trials")
    gen = as_generator(rng)
    n = pi.shape[1]
    m = pi.shape[0]
    trace = ProofTrace(theorem="Theorem 8 (s = 1)", m=m)

    sparsity = max_column_sparsity(pi)
    trace.add(ProofStep(
        name="model",
        claim="column sparsity s = 1",
        measured=float(sparsity),
        requirement=1.0,
        satisfied=sparsity <= 1,
    ))

    # Step 1 — Lemma 6: nonzero entries have absolute value 1 ± eps.
    sigma = _entry_fraction_outside(pi, epsilon)
    lemma6_budget = 2.0 * delta / d
    trace.add(ProofStep(
        name="lemma6",
        claim="fraction of nonzero entries outside [1-eps, 1+eps] is at "
              "most 2*delta/d",
        measured=sigma,
        requirement=lemma6_budget,
        satisfied=sigma <= lemma6_budget,
    ))

    # Step 2 — Lemma 7: on D_{8eps}, no bucket holds two chosen columns.
    reps = max(1, round(1.0 / (8.0 * epsilon)))
    q = reps * d
    instance = DBeta(n=n, d=d, reps=reps)
    collisions = 0
    for _ in range(trials):
        draw = instance.sample_draw(spawn(gen))
        if has_bucket_collision(pi, draw.rows, 1.0 - epsilon,
                                1.0 + epsilon):
            collisions += 1
    collision_rate = collisions / trials
    lemma7_budget = 2.0 * delta / max(1e-9, 1.0 - 4.0 * delta)
    trace.add(ProofStep(
        name="lemma7",
        claim="probability that two chosen dimensions share a bucket is "
              "at most 2*delta/(1-4*delta)",
        measured=collision_rate,
        requirement=lemma7_budget,
        satisfied=collision_rate <= lemma7_budget,
        detail=f"(q = {q} chosen columns, {trials} draws)",
    ))

    # Step 3 — birthday: isolating q throws needs the quadratic m.
    required = birthday_lower_bound_m(q, min(0.9, lemma7_budget))
    trace.required_m = required
    trace.add(ProofStep(
        name="birthday",
        claim="isolating q = d/(8 eps) throws at the Lemma 7 rate "
              "requires m >= q(q-1)/(2 ln(1/(1-p)))",
        measured=float(m),
        requirement=required,
        satisfied=m >= required,
    ))

    # Ground truth for the verdict.
    failure = failure_estimate(
        _FixedFamily(pi), DBeta(n=n, d=d, reps=reps), epsilon,
        trials=trials, rng=spawn(gen), fresh_sketch=False,
    )
    trace.empirical_failure = failure
    # The verdict is the measured failure; the steps explain it.
    trace.refuted = failure.point > delta
    return trace


def replay_theorem9(pi: MatrixLike, d: int, epsilon: float, delta: float,
                    trials: int = 40, rng: RngLike = None) -> ProofTrace:
    """Replay the Theorem 9 chain (abundance assumption included)."""
    d = check_positive_int(d, "d")
    epsilon = check_epsilon(epsilon, upper=1.0 / 9.0)
    delta = check_probability(delta, "delta")
    trials = check_positive_int(trials, "trials")
    gen = as_generator(rng)
    n = pi.shape[1]
    m = pi.shape[0]
    trace = ProofTrace(theorem="Theorem 9 (s <= 1/(9 eps))", m=m)

    # Step 0 — model: column sparsity within the constraint.
    sparsity = max_column_sparsity(pi)
    s_max = 1.0 / (9.0 * epsilon)
    trace.add(ProofStep(
        name="model",
        claim="column sparsity at most 1/(9 eps)",
        measured=float(sparsity),
        requirement=s_max,
        satisfied=sparsity <= s_max,
    ))

    # Step 1 — abundance: average sqrt(8 eps)-heavy entries >= 1/(12 eps).
    theta = math.sqrt(8.0 * epsilon)
    abundance = average_heavy_count(pi, theta)
    abundance_floor = 1.0 / (12.0 * epsilon)
    trace.add(ProofStep(
        name="abundance",
        claim="average number of sqrt(8 eps)-heavy entries per column is "
              "at least 1/(12 eps)",
        measured=abundance,
        requirement=abundance_floor,
        satisfied=abundance >= abundance_floor,
        detail="(Theorem 9's assumption (ii); Theorem 18 removes it)",
    ))

    # Step 2 — good columns: at least a 1/3 fraction.
    min_heavy = max(1, int(1.0 / (16.0 * epsilon)))
    good = good_columns(pi, epsilon, theta, min_heavy)
    good_fraction = good.size / n
    trace.add(ProofStep(
        name="good_columns",
        claim="at least 1/3 of the columns are good (heavy-rich, norm "
              "1 ± eps)",
        measured=good_fraction,
        requirement=1.0 / 3.0,
        satisfied=good_fraction >= 1.0 / 3.0,
    ))

    # Step 3 — Algorithm 1 + Lemma 4: witness found at rate ~ d^2/m.
    instance = DBeta(n=n, d=d, reps=1)
    witnesses = 0
    escape_ok = 0
    for _ in range(trials):
        draw = instance.sample_draw(spawn(gen))
        report = witness_from_algorithm1(
            pi, draw, epsilon, trials=128, rng=spawn(gen)
        )
        if report is not None:
            witnesses += 1
            if report.escape.point >= 0.25:
                escape_ok += 1
    witness_rate = witnesses / trials
    # The proof needs the witness rate to stay below ~delta for Pi to
    # survive; a constant rate refutes Pi outright (Corollary 17).
    trace.add(ProofStep(
        name="algorithm1",
        claim="rate of draws where Algorithm 1 finds a large-inner-"
              "product pair must be at most ~delta for an embedding",
        measured=witness_rate,
        requirement=delta,
        satisfied=witness_rate <= delta,
        detail=f"({escape_ok}/{witnesses} witnesses meet the Lemma 4 "
               f"escape bound)",
    ))

    trace.required_m = float(d * d)
    trace.add(ProofStep(
        name="row_bound",
        claim="an abundant embedding must have more than d^2 rows",
        measured=float(m),
        requirement=float(d * d),
        satisfied=m > d * d,
    ))

    failure = failure_estimate(
        _FixedFamily(pi), instance, epsilon, trials=trials,
        rng=spawn(gen), fresh_sketch=False,
    )
    trace.empirical_failure = failure
    trace.refuted = failure.point > delta
    return trace


class _FixedFamily:
    """Adapter presenting one fixed matrix as a (degenerate) family."""

    def __init__(self, pi: MatrixLike):
        self._pi = pi
        self.m, self.n = pi.shape

    def sample(self, rng=None):
        from ..sketch.base import Sketch

        return Sketch(self._pi)

    def sample_trial_batch(self, streams):
        # Not a hashed family: the trial engine reduces each trial's
        # dense product on the one matrix.
        return None
