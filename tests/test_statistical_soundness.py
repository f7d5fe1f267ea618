"""Statistical soundness of the measurement substrate itself.

These tests validate the *instruments* the experiments rely on: Wilson
interval coverage, mixture sampling proportions, minimal-m estimator
location, the hash-defined CountSketch/OSNAP samplers, and
seed-reproducibility of whole experiments.
"""

import numpy as np
import pytest
from scipy import stats

from repro.core.collisions import birthday_collision_probability
from repro.core.tester import failure_estimate, minimal_m
from repro.experiments.registry import run_experiment
from repro.hardinstances.dbeta import DBeta
from repro.hardinstances.mixtures import MixtureInstance
from repro.sketch import OSNAP, CountSketch
from repro.sketch.hashing import column_hash
from repro.utils.rng import as_generator, spawn, trial_keys
from repro.utils.stats import wilson_interval


class TestWilsonCoverage:
    @pytest.mark.parametrize("p_true", [0.05, 0.3, 0.7])
    def test_coverage_near_nominal(self, p_true):
        """The 95% Wilson interval covers the true p at ~95% rate."""
        rng = np.random.default_rng(hash(p_true) % 2**32)
        trials_per_interval = 60
        intervals = 400
        covered = 0
        for _ in range(intervals):
            successes = rng.binomial(trials_per_interval, p_true)
            lo, hi = wilson_interval(successes, trials_per_interval)
            covered += int(lo <= p_true <= hi)
        coverage = covered / intervals
        assert coverage >= 0.90  # generous slack below the nominal 0.95


class TestMixtureProportions:
    def test_component_frequencies_match_weights(self):
        comps = [DBeta(n=128, d=4, reps=1), DBeta(n=128, d=4, reps=2),
                 DBeta(n=128, d=4, reps=4)]
        weights = [0.5, 0.3, 0.2]
        mix = MixtureInstance(comps, weights)
        rng = as_generator(0)
        counts = {1: 0, 2: 0, 4: 0}
        draws = 600
        for _ in range(draws):
            counts[mix.sample_draw(spawn(rng)).reps] += 1
        for reps, weight in zip((1, 2, 4), weights):
            assert counts[reps] / draws == pytest.approx(weight, abs=0.07)


class TestFailureEstimatorCalibration:
    def test_estimate_matches_birthday_theory(self):
        """The estimator's point value agrees with the closed form it is
        supposed to be measuring (CountSketch on D_1: pure birthday)."""
        d, m, n = 8, 128, 1024
        inst = DBeta(n=n, d=d, reps=1)
        fam = CountSketch(m=m, n=n)
        est = failure_estimate(fam, inst, 0.25, trials=400, rng=0)
        predicted = birthday_collision_probability(d, m)
        assert est.point == pytest.approx(predicted, abs=0.07)

    def test_minimal_m_located_at_birthday_threshold(self):
        d, n, delta = 8, 1024, 0.3
        inst = DBeta(n=n, d=d, reps=1)
        fam = CountSketch(m=4, n=n)
        search = minimal_m(fam, inst, 0.25, delta, trials=200, m_min=4,
                           rng=1)
        # Invert the birthday formula: threshold where P = delta.
        lo = None
        for m in range(4, 4096):
            if birthday_collision_probability(d, m) <= delta:
                lo = m
                break
        assert search.found
        assert 0.5 * lo <= search.m_star <= 2.0 * lo


#: p-value floor for the fixed-seed goodness-of-fit checks below: low
#: enough that a sound hash never trips it, high enough that a biased
#: reduction or a correlated lane (a few percent off) always does.
P_FLOOR = 1e-4


def _entries(family, seed=0):
    """Rows and signs ``(s, n)`` of one sampled sketch, hash order."""
    kernel = family.sample(np.random.SeedSequence(seed)).kernel
    rows, values = kernel.entries(np.arange(family.n))
    return rows, np.sign(values)


class TestHashedSketchFamilies:
    """The keyed column hash behind CountSketch/OSNAP is a sound sampler.

    Theorem 8's birthday threshold (E1/E2) turns on CountSketch rows being
    uniform, pairwise colliding at rate ``1/m``, and carrying balanced
    signs independent of the rows; OSNAP additionally needs ``s`` distinct
    rows per column (one per block for the block variant).
    """

    def test_countsketch_rows_uniform(self):
        # m is not a power of two, so a modulo-biased reduction shows.
        m, n = 100, 2**16
        rows, _ = _entries(CountSketch(m, n))
        counts = np.bincount(rows.ravel(), minlength=m)
        assert stats.chisquare(counts).pvalue > P_FLOOR

    def test_countsketch_signs_balanced_and_independent_of_rows(self):
        m, n = 100, 2**16
        rows, signs = _entries(CountSketch(m, n), seed=1)
        assert abs(signs.mean()) < 4.0 / np.sqrt(n)
        table = np.stack([np.bincount(rows[signs == sign], minlength=m)
                          for sign in (-1.0, 1.0)])
        assert stats.chi2_contingency(table).pvalue > P_FLOOR

    @pytest.mark.parametrize("gap", [1, 2, 1000])
    def test_countsketch_pairwise_collision_rate(self, gap):
        # Independent keys, fixed column pairs (j, j + gap): the collision
        # probability must be 1/m, with no excess for nearby columns.
        m, pairs = 100, 200_000
        family = CountSketch(m, 4096)
        seeds = np.random.SeedSequence(2).spawn(pairs // 100)
        batch = family.sample_trial_batch(seeds)
        cols = np.arange(100)
        hits = 0
        for index in range(len(seeds)):
            rows, _ = batch.trial_kernel(index).entries(
                np.concatenate([cols, cols + gap])
            )
            hits += int(np.sum(rows[0, :100] == rows[0, 100:]))
        rate = hits / pairs
        assert rate * m == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize("m,s", [(96, 4), (96, 16), (12, 7), (8, 8)])
    def test_osnap_rows_distinct_and_uniform(self, m, s):
        # (96, 4) and (96, 16) are the sparse regime, (12, 7) and (8, 8)
        # the dense one (2s > m).
        rows, signs = _entries(OSNAP(m, 2**14, s=s), seed=3)
        ordered = np.sort(rows, axis=0)
        assert np.all(np.diff(ordered, axis=0) > 0)
        counts = np.bincount(rows.ravel(), minlength=m)
        if s < m:
            assert stats.chisquare(counts).pvalue > P_FLOOR
        assert abs(signs.mean()) < 4.0 / np.sqrt(signs.size)

    def test_osnap_block_one_uniform_entry_per_block(self):
        m, s, n = 96, 4, 2**14
        block = m // s
        rows, signs = _entries(OSNAP(m, n, s=s, variant="block"), seed=4)
        assert np.array_equal(rows // block,
                              np.broadcast_to(np.arange(s)[:, None], (s, n)))
        for b in range(s):
            counts = np.bincount(rows[b] % block, minlength=block)
            assert stats.chisquare(counts).pvalue > P_FLOOR
        assert abs(signs.mean()) < 4.0 / np.sqrt(signs.size)


def _trial_supports(instance, trials, key=0x5EED):
    """Rows and signs ``(trials, reps·d)`` of one probe's trials, with the
    trials' sketch keys, as the trial engine derives them."""
    keys = trial_keys(np.uint64(key), 0, trials)
    draws = instance.sample_supports(keys[:, 1])
    rows = np.stack([draw.rows for draw in draws])
    signs = np.stack([draw.signs for draw in draws])
    return rows, signs, keys[:, 0]


class TestTrialStreams:
    """The counter-based trial streams draw ``D_β`` soundly.

    Trial ``t``'s support comes from lanes of its instance key, a lane of
    ``mix(K + (t + 1)·φ)``; the measured failure rates are only the
    paper's quantities if those supports are uniform samples, independent
    across trials and of the trial's own sketch.
    """

    TRIALS = 20_000

    def test_rows_uniform(self):
        # n is not a power of two, so a biased reduction shows.
        rows, _, _ = _trial_supports(DBeta(n=100, d=4, reps=1), self.TRIALS)
        counts = np.bincount(rows.ravel(), minlength=100)
        assert stats.chisquare(counts).pvalue > P_FLOOR

    @pytest.mark.parametrize("n,d,reps", [
        pytest.param(12, 2, 1, id="sparse"),   # repeats re-draw lanes
        pytest.param(7, 2, 2, id="dense"),     # 2·reps·d > n: argsort
    ])
    def test_ordered_pairs_uniform(self, n, d, reps):
        rows, _, _ = _trial_supports(DBeta(n=n, d=d, reps=reps),
                                     self.TRIALS)
        pairs = rows[:, 0] * n + rows[:, 1]
        counts = np.bincount(pairs, minlength=n * n)
        off_diagonal = counts[np.arange(n * n) % (n + 1) != 0]
        assert counts.sum() == off_diagonal.sum()  # no repeated row
        assert stats.chisquare(off_diagonal).pvalue > P_FLOOR

    def test_distinct_rows_never_repeat(self):
        rows, _, _ = _trial_supports(DBeta(n=40, d=6, reps=3), 2000)
        ordered = np.sort(rows, axis=1)
        assert np.all(np.diff(ordered, axis=1) > 0)

    def test_iid_rows_repeat_at_the_birthday_rate(self):
        n, q = 100, 8
        rows, _, _ = _trial_supports(
            DBeta(n=n, d=q, reps=1, distinct_rows=False), self.TRIALS,
        )
        ordered = np.sort(rows, axis=1)
        repeated = np.any(np.diff(ordered, axis=1) == 0, axis=1).mean()
        assert repeated == pytest.approx(
            birthday_collision_probability(q, n), abs=0.015
        )

    def test_signs_balanced_and_independent_of_rows(self):
        rows, signs, _ = _trial_supports(DBeta(n=50, d=4, reps=2),
                                         self.TRIALS)
        assert abs(signs.mean()) < 4.0 / np.sqrt(signs.size)
        table = np.stack([np.bincount(rows[signs == sign], minlength=50)
                          for sign in (-1.0, 1.0)])
        assert stats.chi2_contingency(table).pvalue > P_FLOOR

    def test_consecutive_trials_overlap_at_the_independent_rate(self):
        # Two independent uniform q-subsets of [n] share q²/n rows on
        # average; correlated neighbouring streams would share more.
        n, q = 1000, 16
        rows, _, _ = _trial_supports(DBeta(n=n, d=q, reps=1), self.TRIALS)
        member = np.zeros((self.TRIALS, n), dtype=bool)
        member[np.arange(self.TRIALS)[:, None], rows] = True
        overlap = (member[:-1] & member[1:]).sum(axis=1).mean()
        assert overlap == pytest.approx(q * q / n, abs=0.02)

    def test_sketch_rows_independent_of_own_support(self):
        # A trial's CountSketch collides on its own support at the
        # birthday rate of Theorem 8, and its bucket of the first support
        # column carries no trace of which column that is.
        m, n, q = 16, 64, 4
        rows, _, sketch_keys = _trial_supports(DBeta(n=n, d=q, reps=1),
                                               self.TRIALS)
        buckets, _ = column_hash(sketch_keys[:, None], rows, 1, m)
        buckets = buckets[..., 0]
        ordered = np.sort(buckets, axis=1)
        collided = np.any(np.diff(ordered, axis=1) == 0, axis=1).mean()
        assert collided == pytest.approx(
            birthday_collision_probability(q, m), abs=0.02
        )
        table = np.zeros((8, m))
        np.add.at(table, (rows[:, 0] % 8, buckets[:, 0]), 1)
        assert stats.chi2_contingency(table).pvalue > P_FLOOR


class TestSeedReproducibility:
    @pytest.mark.parametrize("eid", ["E5", "E6", "E12"])
    def test_experiments_deterministic(self, eid):
        """Cheap experiments produce identical metrics for equal seeds."""
        a = run_experiment(eid, scale=0.15, rng=123).metrics
        b = run_experiment(eid, scale=0.15, rng=123).metrics
        assert a == b

    def test_different_seeds_change_monte_carlo_outcomes(self):
        """Distinct seeds drive genuinely different randomness (guards
        against accidentally sharing a stream across trials)."""
        d, n = 8, 512
        inst = DBeta(n=n, d=d, reps=1)
        fam = CountSketch(m=96, n=n)
        values = {
            failure_estimate(fam, inst, 0.25, trials=60, rng=seed).successes
            for seed in range(8)
        }
        assert len(values) >= 3
