"""Tests for repro.sketch.compose and repro.sketch.leverage_sampling."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.apps.regression import sketched_lstsq
from repro.experiments.workloads import regression_problem
from repro.linalg.distortion import distortion
from repro.linalg.subspace import random_subspace
from repro.sketch.compose import StackedSketch, TwoStageSketch
from repro.sketch.countsketch import CountSketch
from repro.sketch.gaussian import GaussianSketch
from repro.sketch.leverage_sampling import LeverageSampling


class TestTwoStageSketch:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            TwoStageSketch(CountSketch(m=64, n=256),
                           GaussianSketch(m=16, n=128))

    def test_shape_and_metadata(self):
        fam = TwoStageSketch(CountSketch(m=128, n=512),
                             GaussianSketch(m=32, n=128))
        assert fam.m == 32
        assert fam.n == 512
        assert "TwoStage" in fam.name
        sketch = fam.sample(0)
        assert sketch.shape == (32, 512)

    def test_apply_matches_materialized_matrix(self):
        fam = TwoStageSketch(CountSketch(m=64, n=256),
                             GaussianSketch(m=16, n=64))
        sketch = fam.sample(1)
        x = np.random.default_rng(2).standard_normal((256, 3))
        assert np.allclose(sketch.apply(x), sketch.matrix @ x)

    def test_repr_leaves_matrix_unbuilt(self):
        fam = TwoStageSketch(CountSketch(m=64, n=256),
                             GaussianSketch(m=16, n=64))
        sketch = fam.sample(3)
        assert ", lazy" in repr(sketch) and "nnz=" not in repr(sketch)
        assert not sketch.is_materialized
        matrix = sketch.matrix
        assert sketch.matrix is matrix
        assert f"nnz={sketch.nnz}" in repr(sketch)
        assert ", lazy" not in repr(sketch)

    def test_with_m_resizes_outer(self):
        fam = TwoStageSketch(CountSketch(m=64, n=256),
                             GaussianSketch(m=16, n=64))
        resized = fam.with_m(24)
        assert resized.m == 24
        assert resized.inner.m == 64

    def test_embeds_random_subspace(self):
        n, d, eps = 1024, 4, 0.3
        fam = TwoStageSketch(
            CountSketch(m=512, n=n),
            GaussianSketch(m=GaussianSketch.recommended_m(d, eps, 0.1),
                           n=512),
        )
        u = random_subspace(n, d, rng=0)
        # Composition of two embeddings: distortions add approximately.
        assert distortion(fam.sample(1).matrix, u) <= 2 * eps

    def test_apply_cost_sums_stages(self):
        fam = TwoStageSketch(CountSketch(m=64, n=256),
                             GaussianSketch(m=16, n=64))
        sketch = fam.sample(3)
        x = np.ones((256, 2))
        # Inner CountSketch: nnz(x) = 512; outer Gaussian on a dense
        # 64 x 2 intermediate: 16 * 64 * 2 = 2048.
        assert sketch.apply_cost(x) == 512 + 2048

    def test_works_in_regression(self):
        n, d = 512, 4
        a, b = regression_problem(n, d, rng=0)
        fam = TwoStageSketch(CountSketch(m=256, n=n),
                             GaussianSketch(m=96, n=256))
        res = sketched_lstsq(a, b, fam, rng=1)
        assert res.ratio is not None
        assert res.ratio < 2.0


class TestStackedSketch:
    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            StackedSketch([])

    def test_requires_matching_n(self):
        with pytest.raises(ValueError):
            StackedSketch([CountSketch(m=8, n=64),
                           CountSketch(m=8, n=32)])

    def test_total_rows(self):
        fam = StackedSketch([CountSketch(m=8, n=64),
                             CountSketch(m=16, n=64)])
        assert fam.m == 24
        assert fam.sample(0).shape == (24, 64)

    def test_sparse_stack_stays_sparse(self):
        fam = StackedSketch([CountSketch(m=8, n=64),
                             CountSketch(m=8, n=64)])
        assert sp.issparse(fam.sample(1).matrix)

    def test_each_block_counts_as_a_sketch_sample(self):
        # The stack and each of its blocks are one sketch_samples each,
        # as a two-stage sketch counts itself and its two stages.
        from repro.observe.counters import counters
        from repro.sketch import sample_sketch

        counts = []
        for fam in (StackedSketch([CountSketch(m=8, n=64)] * 2),
                    TwoStageSketch(CountSketch(m=16, n=64),
                                   CountSketch(m=8, n=16))):
            before = counters().snapshot()
            sample_sketch(fam, np.random.default_rng(0))
            counts.append(counters().diff(before).get("sketch_samples"))
        assert counts == [3, 3]

    def test_mixed_stack_densifies(self):
        fam = StackedSketch([CountSketch(m=8, n=64),
                             GaussianSketch(m=8, n=64)])
        assert isinstance(fam.sample(2).matrix, np.ndarray)

    def test_preserves_expected_norm(self):
        # Stacking k unit-column sketches scaled 1/sqrt(k) keeps
        # E||Pi x||^2 = ||x||^2; check column norms stay 1 for
        # CountSketch blocks (each column: k entries of 1/sqrt(k)).
        fam = StackedSketch([CountSketch(m=32, n=64)] * 4)
        sketch = fam.sample(3)
        norms2 = np.asarray(
            sketch.matrix.multiply(sketch.matrix).sum(axis=0)
        ).ravel()
        assert np.allclose(norms2, 1.0)

    def test_stacking_reduces_variance(self):
        n, d = 256, 4
        u = random_subspace(n, d, rng=0)
        single = CountSketch(m=64, n=n)
        stacked = StackedSketch([CountSketch(m=64, n=n)] * 8)
        d_single = [distortion(single.sample(s).matrix, u)
                    for s in range(20)]
        d_stacked = [distortion(stacked.sample(s).matrix, u)
                     for s in range(20)]
        assert np.median(d_stacked) < np.median(d_single)


class TestLeverageSampling:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            LeverageSampling(m=4, n=3, probabilities=[0.5, 0.5, 0.5])
        with pytest.raises(ValueError):
            LeverageSampling(m=4, n=2, probabilities=[1.5, -0.5])

    def test_unbiased_second_moment(self):
        # E[Pi^T Pi] = I: check the average over many samples.
        p = np.array([0.1, 0.2, 0.3, 0.4])
        fam = LeverageSampling(m=64, n=4, probabilities=p)
        total = np.zeros((4, 4))
        for seed in range(200):
            mat = fam.sample(seed).matrix.toarray()
            total += mat.T @ mat
        assert np.allclose(total / 200, np.eye(4), atol=0.15)

    def test_for_matrix_spiked_rows_sampled(self):
        rng = np.random.default_rng(0)
        a = 0.01 * rng.standard_normal((256, 3))
        a[5] = [10.0, 0.0, 0.0]
        fam = LeverageSampling.for_matrix(a, m=32, uniform_mix=0.0)
        assert fam.probabilities[5] > 0.2

    def test_for_matrix_solves_coherent_regression(self):
        n, d = 1024, 4
        a, b = regression_problem(n, d, coherent=True, rng=1)
        fam = LeverageSampling.for_matrix(
            np.column_stack([a, b]), m=256
        )
        res = sketched_lstsq(a, b, fam, rng=2)
        assert res.ratio is not None
        assert res.ratio < 1.6  # where uniform sampling blows up

    def test_with_m(self):
        fam = LeverageSampling(m=8, n=4,
                               probabilities=[0.25] * 4).with_m(16)
        assert fam.m == 16

    def test_uniform_mix_validation(self):
        with pytest.raises(ValueError):
            LeverageSampling.for_matrix(np.eye(4), m=2, uniform_mix=2.0)

    def test_zero_scores_rejected(self):
        with pytest.raises(ValueError):
            LeverageSampling.for_matrix(
                np.eye(4), m=2, scores=np.zeros(4)
            )
