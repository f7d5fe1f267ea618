"""Tests for repro.core.witness (the executable Lemma 4)."""

import numpy as np
import pytest

from repro.core.witness import (
    escape_probability,
    find_large_inner_product,
    lemma4_witness,
    witness_vector,
)
from repro.hardinstances.dbeta import DBeta, HardDraw


def planted(case, lam, epsilon, n=128, d=4, seed=0):
    """Small planted (pi, draw, p, q) with a prescribed inner product."""
    rng = np.random.default_rng(seed)
    reps = 1 if case == "distinct" else 2
    target = lam * epsilon * reps
    alpha = np.sqrt((1.0 + target) / 2.0)
    gamma = np.sqrt((1.0 - target) / 2.0)
    m = 4 * d * reps + 8
    pi = np.zeros((m, n))
    pi[0, 0], pi[1, 0] = alpha, gamma
    pi[0, 1], pi[1, 1] = alpha, -gamma
    for j in range(2, reps * d + 2):
        pi[j, j] = 1.0
    count = reps * d
    rows = np.arange(2, count + 2)
    if case == "distinct":
        rows = rows.copy()
        rows[0], rows[1] = 0, 1
        p, q = 0, 1
    else:
        rows = rows.copy()
        rows[0], rows[1] = 0, 1  # both in block 0
        p, q = 0, 1
    signs = rng.choice((-1.0, 1.0), size=count)
    draw = HardDraw(n, d, rows, signs, reps)
    return pi, draw, p, q


class TestWitnessVector:
    def test_distinct_blocks(self):
        u = witness_vector(0, 3, reps=1, d=4)
        assert np.count_nonzero(u) == 2
        assert np.linalg.norm(u) == pytest.approx(1.0)

    def test_same_block(self):
        u = witness_vector(0, 1, reps=2, d=4)
        assert np.count_nonzero(u) == 1
        assert np.linalg.norm(u) == pytest.approx(1.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            witness_vector(0, 10, reps=1, d=4)


class TestEscapeProbability:
    def test_distinct_large_lambda_escapes(self):
        pi, draw, p, q = planted("distinct", lam=5.0, epsilon=0.05)
        est = escape_probability(pi, draw, p, q, 0.05)
        assert est.point >= 0.25

    def test_same_block_large_lambda_escapes(self):
        pi, draw, p, q = planted("same", lam=5.0, epsilon=0.05)
        est = escape_probability(pi, draw, p, q, 0.05)
        assert est.point >= 0.25

    def test_tiny_lambda_does_not_escape(self):
        pi, draw, p, q = planted("distinct", lam=0.5, epsilon=0.05)
        est = escape_probability(pi, draw, p, q, 0.05)
        assert est.point == 0.0

    def test_exact_enumeration_count(self):
        pi, draw, p, q = planted("distinct", lam=3.0, epsilon=0.05)
        est = escape_probability(pi, draw, p, q, 0.05)
        # reps=1, two blocks of size 1: 2 signs => 4 exact outcomes.
        assert est.trials == 4

    def test_monte_carlo_path_for_many_signs(self):
        inst = DBeta(n=512, d=2, reps=16)
        draw = inst.sample_draw(0)
        pi = np.random.default_rng(1).standard_normal((32, 512)) / 6.0
        est = escape_probability(pi, draw, 0, 16, 0.05, trials=128, rng=2)
        assert est.trials == 128


class TestFindLargeInnerProduct:
    def test_finds_planted_pair(self):
        pi, draw, p, q = planted("distinct", lam=8.0, epsilon=0.05)
        found = find_large_inner_product(pi, draw, threshold=0.3)
        assert found is not None
        fp, fq, value = found
        assert {fp, fq} == {p, q}
        assert abs(value) == pytest.approx(0.4, abs=1e-9)

    def test_returns_none_below_threshold(self):
        pi, draw, _, _ = planted("distinct", lam=2.5, epsilon=0.05)
        assert find_large_inner_product(pi, draw, threshold=0.9) is None


class TestLemma4Witness:
    def test_full_pipeline(self):
        pi, draw, p, q = planted("distinct", lam=8.0, epsilon=0.05)
        report = lemma4_witness(pi, draw, 0.05, lam=8.0)
        assert report is not None
        assert {report.p, report.q} == {p, q}
        assert report.escape.point >= 0.25
        assert report.meets_lemma4_bound
        assert np.linalg.norm(report.u) == pytest.approx(1.0)

    def test_none_when_no_large_pair(self):
        inst = DBeta(n=256, d=3, reps=1)
        draw = inst.sample_draw(0)
        pi = np.eye(256)  # perfectly orthogonal columns
        assert lemma4_witness(pi, draw, 0.05) is None

    def test_lambda_validation(self):
        pi, draw, _, _ = planted("distinct", lam=8.0, epsilon=0.05)
        with pytest.raises(ValueError):
            lemma4_witness(pi, draw, 0.05, lam=2.0)
