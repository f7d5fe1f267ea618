"""E4 — Lemma 7 + birthday paradox: bucket collisions kill ``s = 1``.

On ``D_{8ε}`` draws, the ``q = d/(8ε)`` chosen columns of a CountSketch
matrix hash into ``m`` buckets; Lemma 7 forbids any bucket holding two of
them.  We measure the empirical collision probability over ``m`` and
compare it with the exact birthday formula ``1 - ∏(1 - i/m)``, and verify
that collisions do coincide with embedding failures.
"""

from __future__ import annotations

from ..core.collisions import (
    birthday_collision_probability,
    has_bucket_collision,
)
from ..core.rank_certificate import rank_certificate
from ..hardinstances.dbeta import DBeta
from ..sketch.countsketch import CountSketch
from ..utils.rng import spawn
from ..utils.tables import TextTable
from .harness import Experiment, ExperimentResult, scaled_int

__all__ = ["BirthdayCollisionExperiment"]


class BirthdayCollisionExperiment(Experiment):
    """Empirical vs predicted collision rate, and collision→failure."""

    experiment_id = "E4"
    title = "Bucket collisions follow the birthday paradox (Lemma 7)"
    paper_claim = "no bucket may hold two chosen dimensions; P follows q,m"

    def _run(self, scale: float, rng) -> ExperimentResult:
        result = self._result()
        epsilon = 1.0 / 16.0
        d = 8
        reps = round(1.0 / (8.0 * epsilon))
        q = reps * d
        n = 4096
        trials = scaled_int(120, scale, minimum=30)
        instance = DBeta(n=n, d=d, reps=reps)
        ms = [64, 128, 256, 512, 1024, 2048]
        if scale < 0.5:
            ms = [64, 256, 1024]
        table = TextTable(
            title=(
                f"E4: collision probability of q={q} columns in m buckets "
                f"(trials={trials})"
            ),
            columns=[
                "m", "empirical", "predicted", "fail_given_collision",
                "fail_given_no_collision", "rank_deficient_of_failures",
            ],
        )
        max_gap = 0.0
        total_failures = 0
        total_rank_drops = 0
        for m in ms:
            family = CountSketch(m=m, n=n)
            collisions = 0
            fail_and_coll = 0
            fail_and_free = 0
            free = 0
            rank_drops = 0
            failures = 0
            for _ in range(trials):
                # Eager on purpose: collision/rank checks read the
                # explicit matrix immediately below.
                sketch = family.sample(spawn(rng))
                draw = instance.sample_draw(spawn(rng))
                collided = has_bucket_collision(
                    sketch.matrix, draw.rows, 1.0 - epsilon, 1.0 + epsilon
                )
                cert = rank_certificate(sketch.matrix, draw, epsilon)
                failed = cert.interval_failure
                if failed:
                    failures += 1
                    rank_drops += int(cert.rank_deficient)
                if collided:
                    collisions += 1
                    fail_and_coll += int(failed)
                else:
                    free += 1
                    fail_and_free += int(failed)
            empirical = collisions / trials
            predicted = birthday_collision_probability(q, m)
            max_gap = max(max_gap, abs(empirical - predicted))
            fail_coll = fail_and_coll / collisions if collisions else 0.0
            fail_free = fail_and_free / free if free else 0.0
            rank_fraction = rank_drops / failures if failures else 0.0
            total_failures += failures
            total_rank_drops += rank_drops
            table.add_row([
                m, empirical, predicted, fail_coll, fail_free,
                rank_fraction,
            ])
        result.tables.append(table)
        result.metrics["max_empirical_vs_predicted_gap"] = max_gap
        if total_failures:
            # The NN13b footnote-1 ablation: with reps > 1 most failures
            # perturb norms without annihilating a direction, so the rank
            # test (unlike the interval test) misses them.
            result.metrics["rank_deficient_failure_fraction"] = (
                total_rank_drops / total_failures
            )
        result.notes.append(
            "collisions track the exact birthday formula; a collision "
            "almost always implies embedding failure (Lemma 7), and "
            "failures without collisions are rare; NN13b's rank test "
            "misses most failures at reps > 1 (footnote 1)"
        )
        return result
