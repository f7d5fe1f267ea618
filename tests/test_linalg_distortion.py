"""Tests for repro.linalg.distortion."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.distortion import (
    SparseProducts,
    distortion,
    distortion_of_product,
    distortion_report,
    distortions_of_products,
    is_subspace_embedding_for,
    singular_interval_of_product,
    sketched_basis,
    vector_distortion,
    worst_vector,
)
from repro.linalg.subspace import random_subspace


class TestSketchedBasis:
    def test_dense_product(self):
        pi = np.array([[1.0, 0.0], [0.0, 2.0]])
        u = np.array([[1.0], [1.0]])
        assert np.allclose(sketched_basis(pi, u), [[1.0], [2.0]])

    def test_sparse_product_matches_dense(self):
        rng = np.random.default_rng(0)
        pi = rng.standard_normal((10, 20))
        pi[np.abs(pi) < 1.0] = 0.0
        u = rng.standard_normal((20, 3))
        dense = sketched_basis(pi, u)
        sparse = sketched_basis(sp.csc_matrix(pi), u)
        assert np.allclose(dense, sparse)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            sketched_basis(np.eye(3), np.ones((4, 2)))


class TestDistortion:
    def test_identity_sketch_zero_distortion(self):
        u = random_subspace(10, 3, rng=0)
        assert distortion(np.eye(10), u) == pytest.approx(0.0, abs=1e-10)

    def test_scaled_sketch_distortion(self):
        u = random_subspace(10, 3, rng=1)
        assert distortion(1.5 * np.eye(10), u) == pytest.approx(0.5)

    def test_annihilating_sketch(self):
        u = np.eye(4)[:, :2]  # spans e1, e2
        pi = np.zeros((3, 4))
        pi[0, 0] = 1.0  # kills the e2 direction entirely
        assert distortion(pi, u) == pytest.approx(1.0)

    def test_fewer_rows_than_d_gives_full_distortion(self):
        u = random_subspace(10, 4, rng=2)
        pi = np.random.default_rng(0).standard_normal((2, 10))
        assert distortion(pi, u) >= 1.0

    def test_product_variant_agrees(self):
        rng = np.random.default_rng(3)
        pi = rng.standard_normal((8, 12)) / np.sqrt(8)
        u = random_subspace(12, 3, rng=4)
        assert distortion(pi, u) == pytest.approx(
            distortion_of_product(pi @ u)
        )


class TestDistortionReport:
    def test_pass_within_epsilon(self):
        u = random_subspace(12, 3, rng=0)
        report = distortion_report(np.eye(12), u, 0.1)
        assert report.ok
        assert report.distortion == pytest.approx(0.0, abs=1e-10)

    def test_fail_outside_epsilon(self):
        u = random_subspace(12, 3, rng=0)
        report = distortion_report(1.3 * np.eye(12), u, 0.1)
        assert not report.ok
        assert "FAIL" in str(report)

    def test_squared_interval(self):
        u = random_subspace(12, 2, rng=1)
        report = distortion_report(2.0 * np.eye(12), u, 0.5)
        lo, hi = report.squared_interval
        assert lo == pytest.approx(4.0)
        assert hi == pytest.approx(4.0)

    def test_is_subspace_embedding_for(self):
        u = random_subspace(12, 3, rng=2)
        assert is_subspace_embedding_for(np.eye(12), u, 0.05)
        assert not is_subspace_embedding_for(0.5 * np.eye(12), u, 0.05)


class TestWorstVector:
    def test_worst_vector_achieves_distortion(self):
        rng = np.random.default_rng(5)
        pi = rng.standard_normal((6, 15)) / np.sqrt(6)
        u = random_subspace(15, 4, rng=6)
        x = worst_vector(pi, u)
        assert np.linalg.norm(x) == pytest.approx(1.0)
        achieved = vector_distortion(pi, u, x)
        assert achieved == pytest.approx(distortion(pi, u), abs=1e-8)

    def test_annihilated_direction_found(self):
        u = np.eye(5)[:, :2]
        pi = np.zeros((4, 5))
        pi[0, 0] = 1.0
        x = worst_vector(pi, u)
        assert vector_distortion(pi, u, x) == pytest.approx(1.0)


class TestVectorDistortion:
    def test_zero_vector_raises(self):
        u = random_subspace(8, 2, rng=0)
        with pytest.raises(ValueError):
            vector_distortion(np.eye(8), u, np.zeros(2))

    def test_scale_invariant(self):
        rng = np.random.default_rng(7)
        pi = rng.standard_normal((5, 8))
        u = random_subspace(8, 2, rng=8)
        x = rng.standard_normal(2)
        assert vector_distortion(pi, u, x) == pytest.approx(
            vector_distortion(pi, u, 7.0 * x)
        )

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25)
    def test_distortion_bounds_any_vector(self, seed):
        rng = np.random.default_rng(seed)
        pi = rng.standard_normal((7, 12)) / np.sqrt(7)
        u = random_subspace(12, 3, rng=rng)
        x = rng.standard_normal(3)
        # The sup-distortion bounds the distortion of any vector, as long
        # as sigma stays within [1 - dist, 1 + dist].
        assert vector_distortion(pi, u, x) <= distortion(pi, u) + 1e-9


def _full_svd_distortion(product):
    """The reference: the rectangular SVD of the uncompacted product."""
    lo, hi = singular_interval_of_product(product)
    return max(1.0 - lo, hi - 1.0)


class TestDistortionsOfProducts:
    """The batched reduction must agree with the full-height rectangular
    SVD of every product."""

    def _stack(self, batch, k, d, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((batch, k, d)) / np.sqrt(k)

    @staticmethod
    def _entries(products):
        """The stack's nonzero entries, for the entry routes."""
        trial, rows, cols = np.nonzero(products)
        starts = np.searchsorted(trial, np.arange(products.shape[0] + 1))
        return SparseProducts(products.shape, starts, rows, cols,
                              products[trial, rows, cols])

    def test_matches_scalar_path_tall(self):
        # k > 2d: the dense stack takes the rectangular SVD, its entries
        # the Gram route.
        products = self._stack(6, 40, 5, seed=0)
        serial = [_full_svd_distortion(p) for p in products]
        for stack in (products, self._entries(products)):
            np.testing.assert_allclose(distortions_of_products(stack),
                                       serial, rtol=1e-9, atol=1e-12)

    def test_matches_scalar_path_near_square(self):
        # k <= 2d: the dense stack takes the rectangular SVD, its entries
        # the near-square route.
        products = self._stack(6, 8, 5, seed=1)
        serial = [_full_svd_distortion(p) for p in products]
        np.testing.assert_allclose(distortions_of_products(products),
                                   serial, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            distortions_of_products(self._entries(products)), serial,
            rtol=1e-9, atol=1e-12,
        )

    def test_rows_below_d_forces_annihilation(self):
        # A compacted stack whose true row count is below d has sigma_min
        # exactly 0, whatever the compacted k suggests.
        products = self._stack(4, 12, 5, seed=2)
        out = distortions_of_products(products, rows=3)
        hi = np.linalg.svd(products, compute_uv=False).max(axis=1)
        np.testing.assert_allclose(out, np.maximum(1.0, hi - 1.0))

    def test_rank_deficient_trial_recomputed_exactly(self):
        # One trial annihilates a direction: its Gram spectrum trips the
        # ratio floor and must be recomputed from the rectangular product.
        products = self._stack(5, 40, 4, seed=3)
        rng = np.random.default_rng(4)
        basis = np.linalg.qr(rng.standard_normal((40, 3)))[0]
        products[2] = basis @ rng.standard_normal((3, 4))
        batched = distortions_of_products(self._entries(products))
        serial = [_full_svd_distortion(p) for p in products]
        np.testing.assert_allclose(batched, serial, rtol=1e-9, atol=1e-12)
        assert batched[2] >= 1.0

    def test_stack_of_one_takes_the_rectangular_svd(self):
        # A dense stack (the per-trial engine's stack of one) takes the
        # rectangular SVD, so a product without zero rows reduces to
        # exactly the full SVD.
        product = self._stack(1, 40, 5, seed=0)[0]
        assert distortions_of_products(product[None])[0] \
            == _full_svd_distortion(product)
        assert distortion_of_product(product) \
            == _full_svd_distortion(product)

    @pytest.mark.parametrize("k", [2, 3, 4, 9])
    def test_empty_stack_reduces_to_no_values(self, k):
        # A dense stack and its entries accept a stack of zero trials, at
        # k < d, near-square and tall, as compact_rows does.
        empty = np.zeros((0, k, 3))
        assert distortions_of_products(empty).shape == (0,)
        assert distortions_of_products(self._entries(empty)).shape == (0,)

    def test_validation(self):
        with pytest.raises(ValueError):
            distortions_of_products(np.ones((3, 4)))
        with pytest.raises(ValueError):
            distortions_of_products(np.ones((2, 0, 3)))
