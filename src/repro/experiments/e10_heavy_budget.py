"""E10 — Lemma 19's heavy-entry mass accounting.

Section 5 removes the abundance assumption by bookkeeping: the average
squared column norm of ``Π`` is at most
``Σ_ℓ (heavy-count marginal at level ℓ) · 2^{-ℓ+1} + s·8ε``, and a valid
embedding needs that quantity ≥ ``(1-ε)²`` (Lemma 6).  We compute the
per-level heavy profile and the implied mass bound for each sketch family
and verify:

1. the mass bound is *sound* — it upper-bounds the true average squared
   column norm on every family;
2. families whose true column norms fall below ``1 - ε`` (deliberately
   deflated sketches) do fail on ``D_1``, closing the accounting loop.
"""

from __future__ import annotations

import numpy as np

from ..core.heavy import heavy_budget_profile
from ..core.tester import failure_estimate
from ..hardinstances.dbeta import DBeta
from ..linalg.gram import column_norms
from ..sketch.countsketch import CountSketch
from ..sketch.hadamard_block import HadamardBlockSketch
from ..sketch.osnap import OSNAP
from ..utils.rng import spawn
from ..utils.tables import TextTable
from .e03_column_norms import ScaledCountSketch
from .harness import Experiment, ExperimentResult, scaled_int

__all__ = ["HeavyBudgetExperiment"]


class HeavyBudgetExperiment(Experiment):
    """Mass accounting across dyadic heavy levels (Lemma 19 machinery)."""

    experiment_id = "E10"
    title = "Heavy-entry budgets and the column-mass argument (Lemma 19)"
    paper_claim = "mass bound < (1-eps)^2 refutes the embedding"

    def _run(self, scale: float, rng) -> ExperimentResult:
        result = self._result()
        epsilon = 1.0 / 32.0
        d, n = 8, 2048
        trials = scaled_int(40, scale, minimum=15)
        instance = DBeta(n=n, d=d, reps=1)
        families = [
            ("CountSketch", CountSketch(m=4096, n=n)),
            ("OSNAP[s=4]", OSNAP(m=4096, n=n, s=4)),
            ("HadamardBlock", HadamardBlockSketch(m=256, n=n, block_order=4)),
            ("Deflated[c=0.9]", ScaledCountSketch(m=4096, n=n, c=0.9)),
            ("Deflated[c=0.5]", ScaledCountSketch(m=4096, n=n, c=0.5)),
        ]
        table = TextTable(
            title=(
                f"E10: per-family heavy profile and mass bound "
                f"(eps={epsilon:g}, trials={trials})"
            ),
            columns=[
                "family", "avg_norm^2", "mass_bound", "sound",
                "norm_below_1-eps", "failure_on_D1",
            ],
        )
        sound_everywhere = True
        deflated_fail = 1.0
        for name, family in families:
            # Eager on purpose: the heavy-entry profile scans the
            # explicit matrix.
            sketch = family.sample(spawn(rng))
            norms2 = column_norms(sketch.matrix) ** 2
            avg_norm2 = float(np.mean(norms2))
            profile = heavy_budget_profile(sketch.matrix, epsilon)
            mass_bound = profile.mass_upper_bound()
            # The profile only accounts for entries >= the lightest
            # threshold; add the sub-threshold allowance s * 8eps as in
            # Section 5 (here s = actual column sparsity).
            mass_bound_total = mass_bound + sketch.column_sparsity * 8 * epsilon
            sound = mass_bound_total >= avg_norm2 - 1e-9
            sound_everywhere = sound_everywhere and sound
            below = float(np.mean(np.sqrt(norms2) < 1.0 - epsilon))
            est = failure_estimate(
                family, instance, epsilon, trials=trials,
                rng=spawn(rng), workers=self.workers, cache=self.cache,
                shard=self.shard,
            )
            if name.startswith("Deflated"):
                deflated_fail = min(deflated_fail, est.point)
            table.add_row([
                name, avg_norm2, mass_bound_total, sound, below, est.point,
            ])
        result.tables.append(table)
        result.metrics["mass_bound_sound_everywhere"] = float(
            sound_everywhere
        )
        result.metrics["min_failure_of_deflated"] = deflated_fail
        result.notes.append(
            "the per-level accounting upper-bounds true column mass on "
            "every family; deflated sketches (mass below (1-eps)^2) fail "
            "with certainty, as the Section 5 argument requires"
        )
        return result
