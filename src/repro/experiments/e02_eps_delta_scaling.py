"""E2 — Theorem 8: the ε and δ dependence of the CountSketch threshold.

Two sweeps at fixed ``d``:

* ``ε`` sweep at fixed ``δ``: Theorem 8 predicts ``m* ∝ 1/ε²`` (through
  the hard instance's ``q = d/(8ε)`` support).
* ``δ`` sweep at fixed ``ε``: Theorem 8 predicts ``m* ∝ 1/δ``.

Both exponents are extracted with a log-log fit.
"""

from __future__ import annotations

import math

from ..core.tester import minimal_m
from ..hardinstances.mixtures import section3_mixture
from ..sketch.countsketch import CountSketch
from ..utils.rng import spawn
from ..utils.stats import fit_power_law
from ..utils.tables import TextTable
from .harness import Experiment, ExperimentResult, scaled_int

__all__ = ["EpsDeltaScalingExperiment"]

D = 8


class EpsDeltaScalingExperiment(Experiment):
    """CountSketch threshold scaling in ``1/ε`` and ``1/δ``."""

    experiment_id = "E2"
    title = "CountSketch threshold vs eps and delta (Theorem 8)"
    paper_claim = "m* scales as 1/eps^2 and 1/delta"

    def _run(self, scale: float, rng) -> ExperimentResult:
        result = self._result()

        # --- epsilon sweep -------------------------------------------
        inv_eps_values = [16, 24, 32, 48]
        if scale < 0.5:
            inv_eps_values = [16, 32]
        delta = 0.2
        trials = scaled_int(120, scale, minimum=20)
        eps_table = TextTable(
            title=f"E2a: m* vs eps (d={D}, delta={delta:g}, trials={trials})",
            columns=["1/eps", "reps", "q", "n", "m*"],
        )
        eps_points = []
        for inv_eps in inv_eps_values:
            epsilon = 1.0 / inv_eps
            reps = max(1, round(1.0 / (8.0 * epsilon)))
            q = reps * D
            n = max(4096, 4 * q * q)
            inst = section3_mixture(n=n, d=D, epsilon=epsilon)
            family = CountSketch(m=max(4, q), n=n)
            search = minimal_m(
                family, inst, epsilon, delta, trials=trials,
                m_min=max(4, q), rng=spawn(rng), workers=self.workers,
                cache=self.cache, shard=self.shard,
            )
            m_star = search.m_star if search.found else float("nan")
            eps_table.add_row([inv_eps, reps, q, n, m_star])
            if search.found:
                eps_points.append((inv_eps, m_star))
        result.tables.append(eps_table)
        if len(eps_points) >= 2:
            slope, _ = fit_power_law(
                [p[0] for p in eps_points], [p[1] for p in eps_points]
            )
            result.metrics["slope_vs_inv_eps"] = slope

        # --- delta sweep ----------------------------------------------
        epsilon = 1.0 / 16.0
        reps = max(1, round(1.0 / (8.0 * epsilon)))
        q = reps * D
        n = max(4096, 4 * q * q)
        deltas = [0.4, 0.3, 0.2, 0.1]
        if scale < 0.5:
            deltas = [0.4, 0.2]
        delta_table = TextTable(
            title=f"E2b: m* vs delta (d={D}, eps={epsilon:g})",
            columns=["delta", "trials", "m*"],
        )
        delta_points = []
        inst = section3_mixture(n=n, d=D, epsilon=epsilon)
        for delta in deltas:
            trials = scaled_int(max(120, int(40 / delta)), scale,
                                minimum=20)
            family = CountSketch(m=max(4, q), n=n)
            search = minimal_m(
                family, inst, epsilon, delta, trials=trials,
                m_min=max(4, q), rng=spawn(rng), workers=self.workers,
                cache=self.cache, shard=self.shard,
            )
            m_star = search.m_star if search.found else float("nan")
            delta_table.add_row([delta, trials, m_star])
            if search.found:
                delta_points.append((delta, m_star))
        result.tables.append(delta_table)
        if len(delta_points) >= 2:
            slope, _ = fit_power_law(
                [1.0 / p[0] for p in delta_points],
                [p[1] for p in delta_points],
            )
            result.metrics["slope_vs_inv_delta"] = slope
            # The exact finite-delta scale is 1/ln(1/(1-2delta)) (the
            # birthday threshold for the D_{8eps} half of the mixture);
            # it approaches 1/(2 delta) only for small delta, so this fit
            # is the clean slope-1 check.
            xs = [1.0 / math.log(1.0 / (1.0 - 2.0 * p[0]))
                  for p in delta_points]
            slope_b, _ = fit_power_law(xs, [p[1] for p in delta_points])
            result.metrics["slope_vs_birthday_delta_scale"] = slope_b

        result.notes.append(
            "paper predicts slope 2 vs 1/eps and slope 1 vs 1/delta "
            "(measured against the exact birthday scale at finite delta)"
        )
        return result
