"""Tests for the experiment harness, workloads and registry.

Each experiment is run once at a tiny scale to validate its plumbing and
the qualitative shape assertions DESIGN.md promises.  The full-scale
numbers live in EXPERIMENTS.md and are regenerated by the benchmarks.
"""

import numpy as np
import pytest

from repro.experiments.harness import ExperimentResult, scaled_int
from repro.experiments.registry import (
    EXPERIMENTS,
    experiment_ids,
    get_experiment,
    run_experiment,
)
from repro.experiments.workloads import (
    clustered_points,
    lowrank_matrix,
    regression_problem,
)

TINY = 0.12


class TestHarness:
    def test_scaled_int(self):
        assert scaled_int(100, 0.5) == 50
        assert scaled_int(10, 0.01, minimum=3) == 3

    def test_scaled_int_validates(self):
        with pytest.raises(ValueError):
            scaled_int(2, 1.0, minimum=5)

    def test_result_render(self):
        result = ExperimentResult(experiment_id="EX", title="demo")
        result.metrics["foo"] = 1.25
        result.notes.append("a note")
        text = result.render()
        assert "EX" in text and "foo" in text and "a note" in text

    def test_run_validates_scale(self):
        exp = get_experiment("E5")
        with pytest.raises(ValueError):
            exp.run(scale=0.0)


class TestRegistry:
    def test_all_fourteen_registered(self):
        assert experiment_ids() == [f"E{i}" for i in range(1, 15)]

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("E99")

    def test_classes_have_claims(self):
        for cls in EXPERIMENTS.values():
            assert cls.paper_claim
            assert cls.title


class TestWorkloads:
    def test_regression_problem_shapes(self):
        a, b = regression_problem(64, 4, rng=0)
        assert a.shape == (64, 4)
        assert b.shape == (64,)

    def test_coherent_problem_has_spikes(self):
        a, _ = regression_problem(128, 4, coherent=True, rng=1)
        row_norms = np.linalg.norm(a, axis=1)
        assert row_norms.max() > 20 * np.median(row_norms)

    def test_regression_validates(self):
        with pytest.raises(ValueError):
            regression_problem(3, 5)

    def test_lowrank_singular_values(self):
        a = lowrank_matrix(40, 20, k=3, decay=0.5, rng=2)
        s = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(s[:3], 1.0)
        assert s[3] == pytest.approx(0.5, rel=1e-6)

    def test_lowrank_k_validated(self):
        with pytest.raises(ValueError):
            lowrank_matrix(10, 5, k=8)

    def test_clustered_points_shapes(self):
        points, labels = clustered_points(30, 8, 3, rng=3)
        assert points.shape == (30, 8)
        assert labels.shape == (30,)
        assert set(labels) <= {0, 1, 2}

    def test_clustered_points_validates(self):
        with pytest.raises(ValueError):
            clustered_points(10, 4, 8)


class TestExperimentShapes:
    """Tiny-scale runs asserting each experiment's qualitative claim."""

    def test_e1_quadratic_slope(self):
        # One TINY-scale slope fit is seed lottery (about 1.0-3.2 across
        # seeds around the true exponent 2), so take the median of three.
        runs = [run_experiment("E1", scale=TINY, rng=seed).metrics
                for seed in range(3)]
        hard = np.median([metrics["hard_slope_vs_d"] for metrics in runs])
        control = np.median([metrics["control_slope_vs_d"]
                             for metrics in runs])
        assert hard > 1.4
        assert control < hard

    def test_e2_scaling_exponents(self):
        # E2 fits power-law exponents from a handful of minimal-m probes.
        # Below scale 0.5 the eps fit has two points of 30 trials each
        # and is seed lottery (slopes 0.5-3.3 across seeds), so this runs
        # the four-point sweep and takes the median of three seeds.
        runs = [run_experiment("E2", scale=0.5, rng=seed).metrics
                for seed in range(3)]
        assert np.median([metrics["slope_vs_inv_eps"]
                          for metrics in runs]) > 1.2
        assert 0.5 < np.median([metrics["slope_vs_birthday_delta_scale"]
                                for metrics in runs]) < 1.6

    def test_e3_sharp_norm_transition(self):
        result = run_experiment("E3", scale=TINY, rng=0)
        assert result.metrics["max_failure_inside"] <= 0.2
        assert result.metrics["min_failure_outside"] >= 0.8

    def test_e4_birthday_agreement(self):
        result = run_experiment("E4", scale=TINY, rng=0)
        assert result.metrics["max_empirical_vs_predicted_gap"] < 0.25

    def test_e5_lemma3_margin(self):
        result = run_experiment("E5", scale=TINY, rng=0)
        assert result.metrics["min_margin"] > 0.0

    def test_e6_witness_escape(self):
        result = run_experiment("E6", scale=TINY, rng=0)
        assert result.metrics["min_escape_above_threshold"] >= 0.25
        assert result.metrics["max_escape_below_threshold"] <= 0.5

    def test_e7_decay_with_m(self):
        result = run_experiment("E7", scale=TINY, rng=0)
        assert result.metrics["exhaustive_rate_at_small_m"] > \
            result.metrics["exhaustive_rate_at_large_m"]

    def test_e8_crossover(self):
        result = run_experiment("E8", scale=TINY, rng=0)
        assert result.metrics["failure_at_smallest_m"] > 0.6
        assert result.metrics["failure_at_largest_m"] < 0.35

    def test_e9_floor(self):
        result = run_experiment("E9", scale=TINY, rng=0)
        assert result.metrics["floor_respected_everywhere"] == 1.0
        assert result.metrics["uniform_min_m_over_d2"] >= 1.0

    def test_e10_mass_accounting(self):
        result = run_experiment("E10", scale=TINY, rng=0)
        assert result.metrics["mass_bound_sound_everywhere"] == 1.0
        assert result.metrics["min_failure_of_deflated"] >= 0.9

    def test_e11_applications(self):
        result = run_experiment("E11", scale=TINY, rng=0)
        assert result.metrics["oblivious_within_guarantee"] == 1.0
        assert result.metrics["rowsampling_coherent_ratio"] > 1.05

    def test_e12_regime_map(self):
        result = run_experiment("E12", scale=TINY, rng=0)
        assert result.metrics["nn14_beats_theorem18_fraction"] == 0.0
        assert result.metrics["max_regime_improvement"] > 100
        assert result.metrics["paper_bound_dominance_fraction"] >= 0.2

    def test_results_render(self):
        result = run_experiment("E5", scale=TINY, rng=1)
        text = result.render()
        assert "E5" in text
        assert result.elapsed_seconds >= 0


class TestExtensionExperiments:
    """E13/E14 extension experiments at tiny scale."""

    def test_e13_expected_sparsity(self):
        result = run_experiment("E13", scale=TINY, rng=0)
        # Expected-sparsity sketches never succeed at small E[s] ...
        assert result.metrics["sparsejl_min_failure_small_s"] >= 0.8
        # ... while exact-sparsity OSNAP does once m is large enough.
        assert result.metrics["osnap_failure_at_max_m"] <= 0.5

    def test_e14_two_stage(self):
        result = run_experiment("E14", scale=TINY, rng=0)
        assert result.metrics["escape_factor"] > 2.0


class TestResultSerialization:
    def test_round_trip_through_json(self, tmp_path):
        result = run_experiment("E5", scale=TINY, rng=0)
        path = result.save_json(tmp_path / "e5.json")
        loaded = ExperimentResult.load_json(path)
        assert loaded.experiment_id == result.experiment_id
        assert loaded.metrics == result.metrics
        assert loaded.notes == result.notes
        assert len(loaded.tables) == len(result.tables)
        assert loaded.render() == result.render()

    def test_to_dict_is_json_safe(self):
        import json

        result = run_experiment("E12", scale=TINY, rng=1)
        text = json.dumps(result.to_dict())
        assert "E12" in text
