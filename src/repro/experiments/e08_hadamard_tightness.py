"""E8 — Remark 10: the ``d²`` bound of Theorem 9 is tight.

The block-Hadamard construction with block order ``1/(8ε)`` is run on
``D_1`` over a sweep of ``m`` around ``d²``.  Expected shape: failure
probability ≈ the birthday rate ``≈ d²/(2m)`` (two chosen columns landing
on identical block-Hadamard copies), so the construction succeeds at
``m = O(d²/δ)`` and fails below — exactly the tightness statement of
Remark 10 combined with Theorem 9's ``m > d²`` necessity.

The ablation of DESIGN.md §5(4) is included: the sound-but-incomplete
Lemma 4 witness detector is compared against exact SVD failure detection
on the same draws.
"""

from __future__ import annotations

from ..core.collisions import birthday_collision_probability
from ..core.witness import lemma4_witness
from ..hardinstances.dbeta import DBeta
from ..linalg.distortion import distortion_of_product
from ..sketch.hadamard_block import HadamardBlockSketch
from ..utils.rng import spawn
from ..utils.tables import TextTable
from .harness import Experiment, ExperimentResult, scaled_int

__all__ = ["HadamardTightnessExperiment"]


class HadamardTightnessExperiment(Experiment):
    """Failure crossover of the Remark 10 construction around m = d²."""

    experiment_id = "E8"
    title = "Block-Hadamard tightness around m = d^2 (Theorem 9/Remark 10)"
    paper_claim = "an s = 1/(8eps) OSE exists at m = O(d^2), none below"

    def _run(self, scale: float, rng) -> ExperimentResult:
        result = self._result()
        epsilon = 1.0 / 16.0
        d = 12
        block = 2  # = 1/(8 eps)
        n = 4096
        trials = scaled_int(100, scale, minimum=30)
        instance = DBeta(n=n, d=d, reps=1)
        factors = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        if scale < 0.5:
            factors = [0.25, 1.0, 8.0]
        table = TextTable(
            title=(
                f"E8: block-Hadamard failure on D_1 "
                f"(d={d}, eps={epsilon:g}, trials={trials})"
            ),
            columns=[
                "m", "m/d^2", "failure(svd)", "birthday pred",
                "witness detects",
            ],
        )
        failures = []
        for factor in factors:
            m = int(factor * d * d)
            if m % block:
                m += block - m % block
            family = HadamardBlockSketch(
                m=m, n=n, block_order=block, permute=True
            )
            svd_failures = 0
            witness_hits = 0
            for _ in range(trials):
                # Eager on purpose: the witness search below reads the
                # explicit matrix.
                sketch = family.sample(spawn(rng))
                draw = instance.sample_draw(spawn(rng))
                failed = distortion_of_product(
                    draw.sketched_basis(sketch.matrix)
                ) > epsilon
                if failed:
                    svd_failures += 1
                    report = lemma4_witness(
                        sketch.matrix, draw, epsilon, trials=64,
                        rng=spawn(rng),
                    )
                    if report is not None and report.escape.point >= 0.25:
                        witness_hits += 1
            failure_rate = svd_failures / trials
            detect_rate = (
                witness_hits / svd_failures if svd_failures else 1.0
            )
            predicted = birthday_collision_probability(d, m)
            failures.append((m, failure_rate))
            table.add_row([
                m, m / (d * d), failure_rate, predicted, detect_rate,
            ])
        result.tables.append(table)
        result.metrics["failure_at_smallest_m"] = failures[0][1]
        result.metrics["failure_at_largest_m"] = failures[-1][1]
        # Crossover: largest probed m whose failure rate is still > 0.25.
        above = [m for m, f in failures if f > 0.25]
        result.metrics["crossover_m_over_d2"] = (
            max(above) / (d * d) if above else 0.0
        )
        result.notes.append(
            "failure follows the birthday rate d^2/(2m): certain failure "
            "well below d^2, vanishing failure at m >> d^2 — Remark 10's "
            "construction is tight"
        )
        return result
