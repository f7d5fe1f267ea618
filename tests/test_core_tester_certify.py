"""Tests for repro.core.tester and repro.core.certify."""

import numpy as np
import pytest

from repro.core.certify import certify, witness_from_algorithm1
from repro.core.tester import (
    distortion_samples,
    failure_estimate,
    minimal_m,
)
from repro.hardinstances.dbeta import DBeta
from repro.hardinstances.mixtures import section3_mixture
from repro.sketch.countsketch import CountSketch
from repro.sketch.gaussian import GaussianSketch
from repro.sketch.hadamard_block import HadamardBlockSketch


class TestFailureEstimate:
    def test_large_m_rarely_fails(self):
        inst = DBeta(n=512, d=4, reps=1)
        fam = CountSketch(m=4096, n=512)
        est = failure_estimate(fam, inst, 0.1, trials=30, rng=0)
        assert est.point <= 0.1

    def test_tiny_m_always_fails(self):
        inst = DBeta(n=512, d=8, reps=1)
        fam = CountSketch(m=4, n=512)
        est = failure_estimate(fam, inst, 0.1, trials=20, rng=1)
        assert est.point >= 0.9

    def test_dimension_mismatch_raises(self):
        inst = DBeta(n=512, d=4, reps=1)
        fam = CountSketch(m=64, n=256)
        with pytest.raises(ValueError):
            failure_estimate(fam, inst, 0.1, trials=5)

    def test_fixed_sketch_mode(self):
        inst = DBeta(n=256, d=4, reps=1)
        fam = GaussianSketch(m=400, n=256)
        est = failure_estimate(
            fam, inst, 0.25, trials=15, rng=2, fresh_sketch=False
        )
        assert est.trials == 15

    def test_deterministic_given_seed(self):
        inst = DBeta(n=256, d=4, reps=1)
        fam = CountSketch(m=128, n=256)
        a = failure_estimate(fam, inst, 0.1, trials=20, rng=9).point
        b = failure_estimate(fam, inst, 0.1, trials=20, rng=9).point
        assert a == b


class _DrawRecordingInstance(DBeta):
    """DBeta that records the seed handed to each ``sample_support`` call
    (the stream-identical draw the trial loop uses)."""

    def __init__(self, n, d):
        super().__init__(n=n, d=d, reps=1)
        self.seen = []

    def sample_support(self, rng=None):
        self.seen.append(rng)
        return super().sample_support(rng)


class TestDistortionTrialSeedContract:
    """Pin ``_distortion_trial``'s per-trial child-seed layout.

    The trial always splits its seed into exactly two children and draws
    the subspace from the second — also with a fixed sketch, where the
    first child goes unused.  The probe cache's hit-path replay and the
    fresh/fixed comparability of estimates both rest on this layout, so
    a refactor that makes the fixed path spawn only one child must fail
    here rather than silently shift every downstream draw.
    """

    def _trial(self, fixed):
        from repro.core.tester import _distortion_trial

        fam = CountSketch(m=64, n=128)
        inst = _DrawRecordingInstance(n=128, d=3)
        _distortion_trial(fam, inst, fixed, np.random.SeedSequence(7))
        assert len(inst.seen) == 1
        return inst.seen[0]

    def test_fresh_path_draws_from_second_child(self):
        seed = self._trial(fixed=None)
        assert seed.spawn_key == (1,)

    def test_fixed_path_consumes_same_seed_layout(self):
        from repro.sketch.base import sample_sketch

        fixed = sample_sketch(CountSketch(m=64, n=128),
                              np.random.SeedSequence(0))
        fresh_seed = self._trial(fixed=None)
        fixed_seed = self._trial(fixed=fixed)
        # Same spawn position → same stream: toggling fresh_sketch never
        # shifts which child feeds the instance draw.
        assert fixed_seed.spawn_key == fresh_seed.spawn_key == (1,)
        assert fixed_seed.entropy == fresh_seed.entropy

    def test_fresh_and_fixed_sample_identical_subspaces(self):
        from repro.core.tester import _distortion_trial

        fam = CountSketch(m=64, n=128)
        fixed = fam.sample(np.random.SeedSequence(0))
        draws = []
        for use_fixed in (False, True):
            inst = _DrawRecordingInstance(n=128, d=3)
            _distortion_trial(fam, inst, fixed if use_fixed else None,
                              np.random.SeedSequence(11))
            draws.append(inst.seen[0])
        a = DBeta(n=128, d=3, reps=1).sample_draw(draws[0])
        b = DBeta(n=128, d=3, reps=1).sample_draw(draws[1])
        assert np.array_equal(a.u, b.u)


class TestDistortionSamples:
    def test_sample_count_and_range(self):
        inst = DBeta(n=256, d=4, reps=1)
        fam = CountSketch(m=512, n=256)
        values = distortion_samples(fam, inst, trials=25, rng=0)
        assert values.shape == (25,)
        assert np.all(values >= 0)

    def test_distortions_shrink_with_m(self):
        inst = DBeta(n=256, d=6, reps=1)
        small = distortion_samples(
            CountSketch(m=16, n=256), inst, trials=25, rng=1
        )
        large = distortion_samples(
            CountSketch(m=2048, n=256), inst, trials=25, rng=1
        )
        assert np.median(large) < np.median(small)


class TestMinimalM:
    def test_finds_reasonable_threshold(self):
        d, eps, delta = 6, 1 / 16, 0.2
        inst = section3_mixture(n=2048, d=d, epsilon=eps)
        fam = CountSketch(m=8, n=2048)
        result = minimal_m(fam, inst, eps, delta, trials=40, m_min=8, rng=0)
        assert result.found
        # Threshold must be around the birthday scale for q = 12 columns,
        # far below n and far above d.
        assert d < result.m_star < 2048

    def test_respects_m_max(self):
        inst = DBeta(n=256, d=8, reps=1)
        fam = CountSketch(m=2, n=256)
        result = minimal_m(
            fam, inst, 0.05, 0.05, trials=10, m_min=2, m_max=4, rng=1
        )
        assert not result.found
        assert result.m_star is None

    def test_records_evaluations(self):
        inst = DBeta(n=256, d=4, reps=1)
        fam = CountSketch(m=4, n=256)
        result = minimal_m(fam, inst, 0.1, 0.3, trials=15, m_min=4, rng=2)
        assert len(result.evaluations) >= 2
        probed = [m for m, _ in result.evaluations]
        assert result.m_star in probed

    def test_estimate_at_pools(self):
        inst = DBeta(n=256, d=4, reps=1)
        fam = CountSketch(m=4, n=256)
        result = minimal_m(fam, inst, 0.1, 0.3, trials=10, m_min=4, rng=3)
        m, est = result.evaluations[0]
        assert result.estimate_at(m).trials >= est.trials

    def test_validates_bounds(self):
        inst = DBeta(n=64, d=2, reps=1)
        fam = CountSketch(m=4, n=64)
        with pytest.raises(ValueError):
            minimal_m(fam, inst, 0.1, 0.1, m_min=10, m_max=5)
        with pytest.raises(ValueError):
            minimal_m(fam, inst, 0.1, 0.1, growth=1.0)


def _stub_threshold_estimate(threshold, trials=20):
    """A ``failure_estimate`` stand-in: fails below ``threshold``, passes
    at or above it, with deterministic all-or-nothing counts."""

    def fake(family, instance, epsilon, probe_trials, rng=None,
             fresh_sketch=True, workers=1, chunk_size=None,
             cache=None, **kwargs):
        from repro.utils.stats import BernoulliEstimate

        failures = 0 if family.m >= threshold else trials
        return BernoulliEstimate(failures, trials)

    return fake


class TestMinimalMBracket:
    """Edge cases of the exponential/bisection bracket, driven by a
    stubbed deterministic probe so pass/fail boundaries are exact."""

    inst = DBeta(n=64, d=2, reps=1)
    fam = CountSketch(m=4, n=64)

    def _search(self, monkeypatch, threshold, **kwargs):
        monkeypatch.setattr(
            "repro.core.tester.failure_estimate",
            _stub_threshold_estimate(threshold),
        )
        return minimal_m(self.fam, self.inst, 0.1, 0.1, trials=20,
                         rng=0, **kwargs)

    def test_overshoot_clamps_to_m_max(self, monkeypatch):
        # Regression: with m_min=1, growth=2, m_max=100 the exponential
        # phase used to probe 64 and stop without ever probing 100,
        # returning found=False even though m_max passes.
        result = self._search(monkeypatch, threshold=100,
                              m_min=1, m_max=100, growth=2.0)
        assert result.found
        assert result.m_star == 100
        probed = [m for m, _ in result.evaluations]
        assert probed[:8] == [1, 2, 4, 8, 16, 32, 64, 100]
        assert max(probed) == 100

    def test_overshoot_with_larger_growth(self, monkeypatch):
        result = self._search(monkeypatch, threshold=50,
                              m_min=1, m_max=50, growth=3.0)
        assert result.found and result.m_star == 50
        assert [m for m, _ in result.evaluations][:5] == [1, 3, 9, 27, 50]

    def test_m_max_still_failing_probes_it_once(self, monkeypatch):
        result = self._search(monkeypatch, threshold=101,
                              m_min=1, m_max=100, growth=2.0)
        assert not result.found and result.m_star is None
        probed = [m for m, _ in result.evaluations]
        assert probed.count(100) == 1  # m_max probed exactly once
        assert all(m <= 100 for m in probed)

    def test_pass_at_m_min_short_circuits(self, monkeypatch):
        result = self._search(monkeypatch, threshold=3,
                              m_min=8, m_max=1000, growth=2.0)
        assert result.m_star == 8
        assert len(result.evaluations) == 1

    def test_m_min_equals_m_max(self, monkeypatch):
        passing = self._search(monkeypatch, threshold=7, m_min=7, m_max=7)
        assert passing.found and passing.m_star == 7
        assert len(passing.evaluations) == 1
        failing = self._search(monkeypatch, threshold=8, m_min=7, m_max=7)
        assert not failing.found
        assert len(failing.evaluations) == 1

    def test_bisection_tightens_bracket(self, monkeypatch):
        result = self._search(monkeypatch, threshold=75,
                              m_min=1, m_max=1000, growth=2.0)
        # Exponential passes first at 128; bisection homes in on 75
        # within the documented ~5% relative tolerance.
        assert result.found
        assert 75 <= result.m_star <= 79

    @pytest.mark.parametrize("decision", ["point", "confident_pass",
                                          "confident_fail"])
    def test_each_decision_mode_searches(self, monkeypatch, decision):
        def fake(family, instance, epsilon, trials, rng=None,
                 fresh_sketch=True, workers=1, chunk_size=None,
                 cache=None, **kwargs):
            from repro.utils.stats import BernoulliEstimate

            failures = {1: 50, 2: 15, 3: 12, 4: 8, 5: 8, 6: 5, 7: 2,
                        8: 2}.get(family.m, 0)
            return BernoulliEstimate(failures, 100)

        monkeypatch.setattr("repro.core.tester.failure_estimate", fake)
        result = minimal_m(self.fam, self.inst, 0.1, 0.1, trials=100,
                           m_min=1, m_max=8, growth=2.0,
                           decision=decision, rng=0)
        assert result.found
        est = result.estimate_at(result.m_star)
        if decision == "point":
            assert est.point <= 0.1
        elif decision == "confident_pass":
            assert est.high <= 0.1
        else:
            assert est.low <= 0.1

    def test_decision_modes_order_conservatively(self, monkeypatch):
        def fake(family, instance, epsilon, trials, rng=None,
                 fresh_sketch=True, workers=1, chunk_size=None,
                 cache=None, **kwargs):
            from repro.utils.stats import BernoulliEstimate

            failures = {1: 50, 2: 15, 3: 12, 4: 8, 5: 8, 6: 5, 7: 2,
                        8: 2}.get(family.m, 0)
            return BernoulliEstimate(failures, 100)

        stars = {}
        for decision in ("confident_fail", "point", "confident_pass"):
            monkeypatch.setattr(
                "repro.core.tester.failure_estimate", fake
            )
            stars[decision] = minimal_m(
                self.fam, self.inst, 0.1, 0.1, trials=100, m_min=1,
                m_max=8, growth=2.0, decision=decision, rng=0,
            ).m_star
        # Optimistic <= unbiased <= conservative.
        assert stars["confident_fail"] <= stars["point"] \
            <= stars["confident_pass"]


class TestCertify:
    def test_refutes_undersized_sketch(self):
        inst = DBeta(n=512, d=8, reps=1)
        pi = CountSketch(m=8, n=512).sample(0).matrix
        cert = certify(pi, inst, 0.05, 0.1, trials=40, rng=1)
        assert cert.refuted
        assert cert.failure.point > 0.5
        assert "REFUTED" in str(cert)

    def test_does_not_refute_identity(self):
        inst = DBeta(n=128, d=4, reps=1)
        cert = certify(np.eye(128), inst, 0.05, 0.1, trials=20, rng=2)
        assert not cert.refuted
        assert cert.failure.point == 0.0

    def test_witness_strategy_sound(self):
        # Witness detection must never report more failures than SVD.
        inst = DBeta(n=512, d=8, reps=1)
        pi = CountSketch(m=16, n=512).sample(3).matrix
        svd = certify(pi, inst, 0.05, 0.1, trials=30, rng=4,
                      strategy="svd")
        wit = certify(pi, inst, 0.05, 0.1, trials=30, rng=4,
                      strategy="witness")
        assert wit.failure.point <= svd.failure.point + 0.15

    def test_witness_attached_on_failures(self):
        inst = DBeta(n=256, d=8, reps=1)
        pi = CountSketch(m=8, n=256).sample(5).matrix
        cert = certify(pi, inst, 0.05, 0.1, trials=20, rng=6)
        assert cert.witness is not None
        assert cert.witness.escape.point >= 0.25

    def test_unknown_strategy_raises(self):
        inst = DBeta(n=64, d=2, reps=1)
        with pytest.raises(ValueError):
            certify(np.eye(64), inst, 0.05, 0.1, trials=5,
                    strategy="bogus")

    def test_dimension_mismatch_raises(self):
        inst = DBeta(n=64, d=2, reps=1)
        with pytest.raises(ValueError):
            certify(np.eye(32), inst, 0.05, 0.1, trials=5)


class TestWitnessFromAlgorithm1:
    def test_finds_witness_on_abundant_failing_pi(self):
        epsilon = 1 / 32
        n, d = 1024, 16
        fam = HadamardBlockSketch(m=32, n=n, block_order=4, permute=True)
        pi = fam.sample(0).matrix
        inst = DBeta(n=n, d=d, reps=1)
        found = 0
        for seed in range(25):
            draw = inst.sample_draw(seed)
            report = witness_from_algorithm1(
                pi, draw, epsilon, trials=128, rng=seed
            )
            if report is not None:
                found += 1
                assert abs(report.inner_product) >= report.threshold
        # m = 32 << d^2: collisions abound; the greedy pair hits an
        # identical-copy partner (|ip| = 1) in roughly a quarter of draws.
        assert found >= 2

    def test_none_on_identity(self):
        inst = DBeta(n=64, d=4, reps=1)
        draw = inst.sample_draw(0)
        assert witness_from_algorithm1(np.eye(64), draw, 0.05) is None


class TestWitnessFromAlgorithm2:
    def test_finds_witness_at_dyadic_level(self):
        from repro.core.certify import witness_from_algorithm2
        from repro.sketch.hadamard_block import HadamardBlockSketch

        eps = 1 / 64
        n, d = 2048, 16
        pi = HadamardBlockSketch(m=32, n=n, block_order=2).sample(0).matrix
        inst = DBeta(n=n, d=d, reps=2)
        found = 0
        for seed in range(20):
            draw = inst.sample_draw(seed)
            report = witness_from_algorithm2(
                pi, draw, eps, level=1, level_prime=1, rng=seed,
                trials=128,
            )
            if report is not None:
                found += 1
                assert abs(report.inner_product) >= report.threshold
                assert report.escape.point >= 0.25
        assert found >= 3

    def test_level_reps_consistency_enforced(self):
        from repro.core.certify import witness_from_algorithm2

        inst = DBeta(n=128, d=4, reps=1)
        draw = inst.sample_draw(0)
        with pytest.raises(ValueError):
            witness_from_algorithm2(np.eye(128), draw, 0.01, level=1,
                                    level_prime=1)

    def test_none_on_orthogonal_pi(self):
        from repro.core.certify import witness_from_algorithm2

        inst = DBeta(n=128, d=4, reps=2)
        draw = inst.sample_draw(1)
        report = witness_from_algorithm2(
            np.eye(128), draw, 1 / 64, level=0, level_prime=1, rng=2
        )
        assert report is None

    def test_negative_level_rejected(self):
        from repro.core.certify import witness_from_algorithm2

        inst = DBeta(n=64, d=2, reps=1)
        draw = inst.sample_draw(0)
        with pytest.raises(ValueError):
            witness_from_algorithm2(np.eye(64), draw, 0.01, level=-1,
                                    level_prime=0)


class TestMinimalMDecisions:
    def test_conservative_exceeds_optimistic(self):
        inst = DBeta(n=512, d=6, reps=1)
        fam = CountSketch(m=8, n=512)
        common = dict(trials=60, m_min=8, rng=11)
        optimistic = minimal_m(fam, inst, 0.1, 0.2,
                               decision="confident_fail", **common)
        point = minimal_m(fam, inst, 0.1, 0.2, decision="point", **common)
        conservative = minimal_m(fam, inst, 0.1, 0.2,
                                 decision="confident_pass", **common)
        assert optimistic.found and point.found and conservative.found
        assert optimistic.m_star <= point.m_star * 1.3
        assert conservative.m_star >= point.m_star * 0.9
        assert conservative.m_star >= optimistic.m_star

    def test_unknown_decision_rejected(self):
        inst = DBeta(n=64, d=2, reps=1)
        fam = CountSketch(m=4, n=64)
        with pytest.raises(ValueError):
            minimal_m(fam, inst, 0.1, 0.1, decision="bogus")
