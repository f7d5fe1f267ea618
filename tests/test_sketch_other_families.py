"""Tests for Gaussian, SparseJL, SRHT, HadamardBlock and RowSampling."""

import numpy as np
import pytest

from repro.linalg.distortion import distortion
from repro.linalg.gram import column_norms
from repro.linalg.subspace import random_subspace
from repro.sketch.gaussian import GaussianSketch
from repro.sketch.hadamard_block import (
    HadamardBlockSketch,
    block_hadamard_matrix,
)
from repro.sketch.row_sampling import RowSampling
from repro.sketch.sparse_jl import SparseJL
from repro.sketch.srht import SRHT


class TestGaussian:
    def test_shape_and_scale(self):
        sketch = GaussianSketch(m=100, n=50).sample(0)
        assert sketch.shape == (100, 50)
        # Entries ~ N(0, 1/m): empirical std close to 1/sqrt(m).
        assert np.std(sketch.matrix) == pytest.approx(0.1, rel=0.1)

    def test_embeds_random_subspace(self):
        n, d, eps = 256, 4, 0.25
        m = GaussianSketch.recommended_m(d, eps, 0.1)
        fam = GaussianSketch(m=m, n=n)
        u = random_subspace(n, d, rng=0)
        assert distortion(fam.sample(1).matrix, u) <= eps

    def test_recommended_m(self):
        assert GaussianSketch.recommended_m(10, 0.5, 0.5) >= 10


class TestSparseJL:
    def test_density_parameter(self):
        fam = SparseJL(m=64, n=128, q=0.25)
        assert fam.q == pytest.approx(0.25)
        assert fam.expected_column_sparsity == pytest.approx(16.0)

    def test_sparse_path_density(self):
        fam = SparseJL(m=100, n=100, q=0.1)
        sketch = fam.sample(0)
        observed = sketch.nnz / (100 * 100)
        assert observed == pytest.approx(0.1, abs=0.03)

    def test_dense_path(self):
        fam = SparseJL(m=32, n=32, q=1.0)
        sketch = fam.sample(1)
        assert sketch.nnz == 32 * 32
        assert isinstance(sketch.matrix, np.ndarray)

    def test_entry_variance_one_over_m(self):
        m = 64
        for q in (0.2, 1.0):
            sketch = SparseJL(m=m, n=200, q=q).sample(2)
            dense = sketch.dense()
            assert np.var(dense) == pytest.approx(1.0 / m, rel=0.15)

    def test_name(self):
        assert "q=0.5" in SparseJL(m=4, n=4, q=0.5).name

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            SparseJL(m=4, n=4, q=0.0)


class TestSRHT:
    def test_requires_power_of_two_n(self):
        with pytest.raises(ValueError):
            SRHT(m=8, n=100)

    def test_m_exceeding_n_raises(self):
        with pytest.raises(ValueError):
            SRHT(m=256, n=128)

    def test_fast_apply_matches_dense(self):
        sketch = SRHT(m=16, n=64).sample(0)
        x = np.random.default_rng(1).standard_normal((64, 3))
        assert np.allclose(sketch.apply(x), sketch.matrix @ x)

    def test_rows_have_unit_norm_columns_in_expectation(self):
        sketch = SRHT(m=64, n=64).sample(2)
        # m = n: the full randomized Hadamard is orthonormal.
        gram = sketch.matrix.T @ sketch.matrix
        assert np.allclose(gram, np.eye(64), atol=1e-8)

    def test_embeds_random_subspace(self):
        n, d, eps = 512, 4, 0.3
        m = min(n, SRHT.recommended_m(d, eps, 0.1))
        u = random_subspace(n, d, rng=3)
        sketch = SRHT(m=m, n=n).sample(4)
        assert distortion(sketch.matrix, u) <= eps

    def test_apply_cost_is_nlogn(self):
        sketch = SRHT(m=16, n=64).sample(5)
        cost = sketch.apply_cost(np.ones((64, 2)))
        assert cost == 64 * 6 * 2

    def test_matrix_built_once_on_first_use(self):
        sketch = SRHT(m=16, n=64).sample(6)
        assert not sketch.is_materialized
        x = np.random.default_rng(7).standard_normal((64, 3))
        sketch.apply(x)
        assert not sketch.is_materialized
        matrix = sketch.matrix
        assert sketch.is_materialized
        assert sketch.matrix is matrix

    def test_repr_leaves_matrix_unbuilt(self):
        # An implicit operator's nnz needs its matrix: repr must not ask.
        sketch = SRHT(m=16, n=64).sample(8)
        assert ", lazy" in repr(sketch) and "nnz=" not in repr(sketch)
        assert not sketch.is_materialized
        sketch.matrix
        assert f"nnz={sketch.nnz}" in repr(sketch)
        assert ", lazy" not in repr(sketch)


class TestBlockHadamardMatrix:
    def test_unit_columns(self):
        mat = block_hadamard_matrix(m=8, n=20, block_order=4)
        assert np.allclose(column_norms(mat), 1.0)

    def test_column_sparsity_is_block_order(self):
        mat = block_hadamard_matrix(m=8, n=20, block_order=4)
        sparsities = np.diff(mat.tocsc().indptr)
        assert np.all(sparsities == 4)

    def test_m_not_multiple_raises(self):
        with pytest.raises(ValueError):
            block_hadamard_matrix(m=10, n=20, block_order=4)

    def test_within_copy_columns_orthogonal(self):
        mat = block_hadamard_matrix(m=8, n=8, block_order=4).toarray()
        gram = mat.T @ mat
        assert np.allclose(gram, np.eye(8), atol=1e-9)

    def test_copies_are_identical(self):
        mat = block_hadamard_matrix(m=8, n=16, block_order=4).toarray()
        assert np.allclose(mat[:, :8], mat[:, 8:])


class TestHadamardBlockSketch:
    def test_sample_properties(self):
        fam = HadamardBlockSketch(m=16, n=64, block_order=4)
        sketch = fam.sample(0)
        assert sketch.column_sparsity == 4
        norms = column_norms(sketch.matrix)
        assert np.allclose(norms, 1.0)

    def test_permute_false_is_deterministic(self):
        fam = HadamardBlockSketch(m=8, n=32, block_order=2, permute=False)
        a = fam.sample(0).matrix.toarray()
        b = fam.sample(1).matrix.toarray()
        assert np.allclose(a, b)

    def test_with_m_rounds_up(self):
        fam = HadamardBlockSketch(m=8, n=32, block_order=4).with_m(10)
        assert fam.m == 12

    def test_for_epsilon(self):
        fam = HadamardBlockSketch.for_epsilon(d=8, epsilon=1 / 16, n=256)
        assert fam.block_order == 2
        assert fam.m >= 64
        assert fam.m % fam.block_order == 0

    def test_embeds_coherent_basis_without_copy_collision(self):
        # Chosen columns within one copy are exactly orthonormal.
        fam = HadamardBlockSketch(m=16, n=16, block_order=4, permute=False)
        sketch = fam.sample(0)
        u = np.eye(16)[:, [0, 5, 10, 15]]
        assert distortion(sketch.matrix, u) == pytest.approx(0.0, abs=1e-9)


class TestRowSampling:
    def test_m_rows_selected(self):
        sketch = RowSampling(m=10, n=100).sample(0)
        assert sketch.nnz == 10

    def test_scaling(self):
        sketch = RowSampling(m=25, n=100).sample(1)
        data = sketch.matrix.tocsc().data
        assert np.allclose(data, 2.0)

    def test_m_exceeding_n_raises(self):
        with pytest.raises(ValueError):
            RowSampling(m=101, n=100)

    def test_with_m_clamps_to_n(self):
        fam = RowSampling(m=10, n=50).with_m(500)
        assert fam.m == 50

    def test_full_sampling_is_permutation_like(self):
        sketch = RowSampling(m=16, n=16).sample(2)
        gram = (sketch.matrix.T @ sketch.matrix).toarray()
        assert np.allclose(gram, np.eye(16))
