"""E14 (extension) — escaping the quadratic bound by composition.

The practical consequence of the paper's lower bounds: a *single* sparse
sketch cannot have both ``O(nnz)`` application cost and ``o(d²)`` rows —
but a composition can.  ``Π = Π_G · Π_CS`` applies CountSketch (cheap, at
a comfortable ``m₁ ≫ d²``) and then compresses the small intermediate
with a Gaussian sketch.  The composed map embeds with near-optimal final
dimension at ``O(nnz(A)) + poly(d/ε)`` total cost — without contradicting
the theorems, because the composed matrix is dense (its column sparsity
is ``m₂``, far above ``1/(9ε)``).

Measured: the minimal *final* dimension of the single CountSketch vs the
two-stage construction on ``D₁``, at a ``d`` large enough that the
quadratic term dominates the dense ``d/ε²`` term.  Expected shape:
``m*(CountSketch) ≈ 1.7 d²`` (birthday) while ``m*(two-stage)`` tracks
the Gaussian level ``≈ c·d/ε²``, well below it.
"""

from __future__ import annotations

import numpy as np

from ..core.collisions import birthday_lower_bound_m
from ..core.tester import minimal_m
from ..hardinstances.dbeta import DBeta
from ..sketch.compose import TwoStageSketch
from ..sketch.countsketch import CountSketch
from ..sketch.gaussian import GaussianSketch
from ..utils.rng import spawn
from ..utils.tables import TextTable
from .harness import Experiment, ExperimentResult, scaled_int

__all__ = ["TwoStageExperiment"]


class TwoStageExperiment(Experiment):
    """CountSketch -> Gaussian composition vs a single CountSketch."""

    experiment_id = "E14"
    title = "Two-stage sketching escapes the d^2 barrier (extension)"
    paper_claim = (
        "no single s<=1/(9eps) sketch has o(d^2) rows; dense "
        "compositions are exempt"
    )

    def _run(self, scale: float, rng) -> ExperimentResult:
        result = self._result()
        epsilon = 0.3
        delta = 0.25
        d = 32 if scale >= 0.5 else 24
        n = 8 * d * d
        trials = scaled_int(50, scale, minimum=15)
        instance = DBeta(n=n, d=d, reps=1)

        # Single CountSketch: the quadratic birthday threshold.
        single = CountSketch(m=d, n=n)
        single_search = minimal_m(
            single, instance, epsilon, delta, trials=trials, m_min=d,
            rng=spawn(rng), workers=self.workers, cache=self.cache,
            shard=self.shard,
        )

        # Two-stage: inner CountSketch at a comfortable m1 >> d^2, outer
        # Gaussian swept over the final dimension.
        m1 = 8 * d * d
        composed = TwoStageSketch(
            CountSketch(m=m1, n=n), GaussianSketch(m=d, n=m1)
        )
        composed_search = minimal_m(
            composed, instance, epsilon, delta, trials=trials, m_min=d,
            rng=spawn(rng), workers=self.workers, cache=self.cache,
            shard=self.shard,
        )

        table = TextTable(
            title=(
                f"E14: minimal final dimension on D_1 "
                f"(d={d}, eps={epsilon:g}, delta={delta:g}, "
                f"trials={trials})"
            ),
            columns=["construction", "m*", "m*/d^2",
                     "apply cost / column"],
        )
        probe = np.ones((n, 1))
        m_single = single_search.m_star
        m_two = composed_search.m_star
        cost_single = (
            single.with_m(m_single).sample(spawn(rng))
            .apply_cost(probe)
            if m_single else float("nan")
        )
        cost_two = (
            composed.with_m(m_two).sample(spawn(rng))
            .apply_cost(probe)
            if m_two else float("nan")
        )
        table.add_row([
            "CountSketch (single)", m_single,
            m_single / (d * d) if m_single else float("nan"), cost_single,
        ])
        table.add_row([
            "CountSketch->Gaussian", m_two,
            m_two / (d * d) if m_two else float("nan"), cost_two,
        ])
        result.tables.append(table)

        if m_single and m_two:
            result.metrics["single_m_star"] = m_single
            result.metrics["two_stage_m_star"] = m_two
            result.metrics["escape_factor"] = m_single / m_two
        result.metrics["birthday_prediction"] = birthday_lower_bound_m(
            d, delta
        )
        result.notes.append(
            "the composition's final dimension sits well below the "
            "single sparse sketch's quadratic threshold — consistent "
            "with the lower bounds, which only constrain sparse maps"
        )
        return result
