"""E1 — Theorem 8: CountSketch's minimal dimension scales as d².

For fixed ``ε = 1/16`` and ``δ = 0.2`` we measure, over a grid of ``d``,
the minimal target dimension ``m*`` at which CountSketch achieves failure
rate ≤ δ on the Section 3 hard mixture, and fit the scaling exponent of
``m*`` against ``d`` (Theorem 8 predicts exponent 2).  A control column
repeats the measurement on a Haar-random subspace, where the threshold is
dramatically smaller and scales linearly — demonstrating that the hard
instance, not CountSketch, forces the quadratic regime.

Substitution note: the paper requires ``n ≥ K d²/(ε²δ)`` so that the
*adversarial* argument goes through for any Π.  For measuring the concrete
CountSketch family the threshold is ``n``-independent once ``n`` exceeds
the instance support ``d/(8ε)``; we use ``n = max(4096, 4·(d/(8ε))²)`` and
record the birthday-paradox prediction alongside Theorem 8's formula.
"""

from __future__ import annotations

from ..core.bounds import theorem8_lower_bound
from ..core.collisions import birthday_lower_bound_m
from ..core.tester import minimal_m
from ..hardinstances.identity import SpikedSubspace
from ..hardinstances.mixtures import section3_mixture
from ..sketch.countsketch import CountSketch
from ..utils.rng import spawn
from ..utils.stats import fit_power_law
from ..utils.tables import TextTable
from .harness import Experiment, ExperimentResult, scaled_int

__all__ = ["CountSketchThresholdExperiment"]

EPSILON = 1.0 / 16.0
DELTA = 0.2


class CountSketchThresholdExperiment(Experiment):
    """Minimal CountSketch dimension vs ``d`` on the hard mixture."""

    experiment_id = "E1"
    title = "CountSketch threshold vs d (Theorem 8)"
    paper_claim = "s=1 OSEs need m = Omega(d^2/(eps^2 delta))"

    def _run(self, scale: float, rng) -> ExperimentResult:
        result = self._result()
        ds = [4, 6, 8, 12, 16]
        if scale < 0.5:
            # Four points: three cannot pin the slope over seeds at 30
            # trials.
            ds = [4, 6, 8, 12]
        # The minimal-m search takes the first passing probe, so estimator
        # noise biases m* low; ample trials keep the bias below the
        # transition width.
        trials = scaled_int(120, scale, minimum=20)
        reps = max(1, int(round(1.0 / (8.0 * EPSILON))))

        table = TextTable(
            title=(
                f"E1: CountSketch minimal m on hard mixture "
                f"(eps={EPSILON:g}, delta={DELTA:g}, trials={trials})"
            ),
            columns=[
                "d", "q=d/(8eps)", "n", "m*(hard)", "birthday pred",
                "m*(random)",
            ],
        )

        hard_points = []
        control_points = []
        for d in ds:
            q = reps * d
            n = max(4096, 4 * q * q)
            hard = section3_mixture(n=n, d=d, epsilon=EPSILON)
            family = CountSketch(m=max(4, q), n=n)
            search = minimal_m(
                family, hard, EPSILON, DELTA, trials=trials,
                m_min=max(4, q), rng=spawn(rng), workers=self.workers,
                cache=self.cache, shard=self.shard,
            )
            m_hard = search.m_star if search.found else float("nan")

            control_inst = SpikedSubspace(n=4096, d=d, alpha=0.0)
            control_family = CountSketch(m=4, n=4096)
            control = minimal_m(
                control_family, control_inst, EPSILON, DELTA,
                trials=max(10, trials // 2), m_min=4, rng=spawn(rng),
                workers=self.workers, cache=self.cache, shard=self.shard,
            )
            m_control = control.m_star if control.found else float("nan")

            # The mixture fails iff the D_{8eps} half fails, so the
            # per-component budget is 2*delta.
            prediction = birthday_lower_bound_m(q, min(0.9, 2 * DELTA))
            table.add_row([d, q, n, m_hard, prediction, m_control])
            if search.found:
                hard_points.append((d, m_hard))
            if control.found:
                control_points.append((d, m_control))

        result.tables.append(table)
        if len(hard_points) >= 2:
            slope, _ = fit_power_law(
                [p[0] for p in hard_points], [p[1] for p in hard_points]
            )
            result.metrics["hard_slope_vs_d"] = slope
        if len(control_points) >= 2:
            slope, _ = fit_power_law(
                [p[0] for p in control_points],
                [p[1] for p in control_points],
            )
            result.metrics["control_slope_vs_d"] = slope
        result.metrics["theorem8_at_max_d"] = theorem8_lower_bound(
            ds[-1], EPSILON, DELTA
        )
        result.notes.append(
            "paper predicts slope 2 for the hard instance vs slope ~1 for "
            "the random-subspace control; with these constants the hard "
            "instance's absolute threshold overtakes the control's dense "
            "d/eps^2 cost at d ~ 60 (both bounds coexist, the larger wins)"
        )
        return result
