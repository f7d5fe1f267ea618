"""Tests for repro.utils.stats."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.stats import (
    BernoulliEstimate,
    fit_power_law,
    geometric_mean,
    wilson_interval,
)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(30, 100)
        assert lo < 0.3 < hi

    def test_zero_successes(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0
        assert 0.0 < hi < 0.2

    def test_all_successes(self):
        lo, hi = wilson_interval(50, 50)
        assert hi == pytest.approx(1.0)
        assert 0.8 < lo < 1.0

    def test_more_trials_narrower(self):
        lo1, hi1 = wilson_interval(10, 100)
        lo2, hi2 = wilson_interval(100, 1000)
        assert hi2 - lo2 < hi1 - lo1

    def test_successes_exceeding_trials_raises(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)

    def test_confidence_bounds(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 10, confidence=1.0)

    @given(
        successes=st.integers(min_value=0, max_value=200),
        trials=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=60)
    def test_interval_ordered_and_in_unit(self, successes, trials):
        if successes > trials:
            successes = trials
        lo, hi = wilson_interval(successes, trials)
        assert 0.0 <= lo <= hi <= 1.0


class TestBernoulliEstimate:
    def test_point(self):
        assert BernoulliEstimate(3, 10).point == pytest.approx(0.3)

    def test_likely_at_most(self):
        est = BernoulliEstimate(0, 1000)
        assert est.likely_at_most(0.05)

    def test_likely_at_least(self):
        est = BernoulliEstimate(999, 1000)
        assert est.likely_at_least(0.9)

    def test_merge_pools_counts(self):
        merged = BernoulliEstimate(1, 10).merge(BernoulliEstimate(2, 20))
        assert merged.successes == 3
        assert merged.trials == 30

    def test_merge_type_error(self):
        with pytest.raises(TypeError):
            BernoulliEstimate(1, 2).merge(0.5)

    def test_merge_rejects_mismatched_confidence(self):
        # Regression: merge used to silently keep self.confidence, so
        # pooling a 0.99-interval estimate into a 0.95 one relabeled the
        # merged interval without widening it.
        a = BernoulliEstimate(1, 10, confidence=0.95)
        b = BernoulliEstimate(2, 20, confidence=0.99)
        with pytest.raises(ValueError) as excinfo:
            a.merge(b)
        assert "confidence" in str(excinfo.value)
        assert "0.95" in str(excinfo.value)
        assert "0.99" in str(excinfo.value)

    def test_merge_keeps_shared_confidence(self):
        merged = BernoulliEstimate(1, 10, confidence=0.99).merge(
            BernoulliEstimate(2, 20, confidence=0.99)
        )
        assert merged.confidence == pytest.approx(0.99)
        assert (merged.successes, merged.trials) == (3, 30)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            BernoulliEstimate(5, 2)

    def test_str_contains_counts(self):
        assert "3/10" in str(BernoulliEstimate(3, 10))


class TestFitPowerLaw:
    def test_exact_power_law(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        y = 3.0 * x**2
        alpha, c = fit_power_law(x, y)
        assert alpha == pytest.approx(2.0)
        assert c == pytest.approx(3.0)

    def test_constant_data(self):
        alpha, c = fit_power_law([1, 2, 4], [5, 5, 5])
        assert alpha == pytest.approx(0.0)
        assert c == pytest.approx(5.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [0, 1])

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])

    @given(
        alpha=st.floats(min_value=-3, max_value=3),
        c=st.floats(min_value=0.1, max_value=10),
    )
    @settings(max_examples=40)
    def test_recovers_planted_exponent(self, alpha, c):
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        y = c * x**alpha
        fitted_alpha, fitted_c = fit_power_law(x, y)
        assert fitted_alpha == pytest.approx(alpha, abs=1e-8)
        assert fitted_c == pytest.approx(c, rel=1e-6)


class TestGeometricMean:
    def test_simple(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
