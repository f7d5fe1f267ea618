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
from repro.sketch.osnap import OSNAP


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


_U64 = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15


def _mix64(z):
    """splitmix64's finalizer on a Python int."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


class _KeyRecordingInstance(DBeta):
    """DBeta that records the instance keys of each derivation call."""

    def __init__(self, n, d):
        super().__init__(n=n, d=d, reps=1)
        self.calls = []

    def sample_supports(self, keys):
        self.calls.append([int(key) for key in keys])
        return super().sample_supports(keys)


class TestTrialStreamContract:
    """Pin the counter-based trial streams.

    A probe spawns one child of the caller's stream and draws its probe
    key ``K`` from it; trial ``t``'s sketch and instance keys are lanes 0
    and 1 of ``mix(K + (t + 1)·φ)``.  Every execution strategy, the
    probe cache's hit replay and the fresh/fixed comparability of
    estimates rest on this, so a change to it must fail here rather than
    silently move every downstream value.
    """

    # OSNAP on D_{1/2}: distortions are continuous, so a changed stream
    # cannot go unnoticed by landing on a common value.
    FAM = OSNAP(m=64, n=128, s=4)
    INST = DBeta(n=128, d=3, reps=2)

    def _samples(self, trials=24, **kwargs):
        return distortion_samples(self.FAM, self.INST, trials,
                                  rng=np.random.default_rng(17), **kwargs)

    def test_trials_are_lanes_of_the_probe_key(self):
        from repro.utils.rng import KeyedStream

        child = np.random.SeedSequence(17).spawn(1)[0]
        key = int(np.random.default_rng(child).bit_generator.random_raw())
        values = self._samples(trials=5)
        assert len(set(values.tolist())) == 5
        for t, value in enumerate(values):
            word = _mix64((key + (t + 1) * _PHI) & _U64)
            sketch_key = _mix64((word + _PHI) & _U64)
            instance_key = _mix64((word + 2 * _PHI) & _U64)
            kernel = self.FAM.sample_trial_batch([KeyedStream(sketch_key)])
            draw = self.INST.sample_support(KeyedStream(instance_key))
            # A trial's value is its value reduced alone.
            assert value == kernel.distortions([draw])[0]

    def test_value_independent_of_chunking_and_workers(self):
        # Two workers split the 24 trials into 8 chunks of 3.
        np.testing.assert_array_equal(self._samples(workers=2),
                                      self._samples())

    def test_value_independent_of_block_edges(self, monkeypatch):
        import repro.core.tester as tester

        reference = self._samples()
        monkeypatch.setattr(tester, "_DERIVE_BLOCK", 5)
        np.testing.assert_array_equal(self._samples(), reference)
        np.testing.assert_array_equal(self._samples(workers=2),
                                      reference)

    def test_value_independent_of_shard_split(self):
        from repro.core.tester import _trial_chunk

        key = np.uint64(0x0123456789ABCDEF)
        full = _trial_chunk(self.FAM, self.INST, None, key, range(0, 24))
        for lo, hi in [(0, 7), (7, 8), (8, 24), (5, 19)]:
            assert _trial_chunk(self.FAM, self.INST, None, key,
                                range(lo, hi)) == full[lo:hi]

    def test_batch_one_is_bit_identical_to_serial(self):
        np.testing.assert_array_equal(self._samples(batch=1),
                                      self._samples())

    @pytest.mark.parametrize("batch", [None, 4])
    def test_hit_and_miss_each_spawn_one_child(self, tmp_path, batch):
        from repro.cache import ProbeCache
        from repro.utils.rng import seed_fingerprint

        cache = ProbeCache(tmp_path)
        for use_cache in (None, cache, cache):  # off, miss, hit
            gen = np.random.default_rng(23)
            distortion_samples(self.FAM, self.INST, 12, gen,
                               cache=use_cache, batch=batch)
            assert seed_fingerprint(gen)["children_spawned"] == 1
        assert len(cache) == 1

    def test_fixed_path_draws_the_fresh_path_subspaces(self):
        # A fixed sketch is keyed by the probe's word 0, so the instance
        # keys of every trial are those of the fresh path.
        calls = []
        for fresh in (True, False):
            inst = _KeyRecordingInstance(n=128, d=3)
            failure_estimate(self.FAM, inst, 0.5, 10, rng=11,
                             fresh_sketch=fresh)
            calls.append(inst.calls)
        assert calls[0] == calls[1] and len(calls[0][0]) == 10

    def test_serial_derivation_is_bounded_by_the_block(self):
        from repro.core.tester import _DERIVE_BLOCK

        trials = 2 * _DERIVE_BLOCK + 3
        inst = _KeyRecordingInstance(n=128, d=3)
        distortion_samples(self.FAM, inst, trials, rng=2)
        # One chunk of all trials, derived block by block.
        assert [len(call) for call in inst.calls] == \
            [_DERIVE_BLOCK, _DERIVE_BLOCK, 3]


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
             fresh_sketch=True, workers=1, cache=None, **kwargs):
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
                 fresh_sketch=True, workers=1, cache=None, **kwargs):
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
                 fresh_sketch=True, workers=1, cache=None, **kwargs):
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
