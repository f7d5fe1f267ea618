"""Tests for repro.sketch.osnap."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.osnap import OSNAP


class TestConstruction:
    def test_basic(self):
        fam = OSNAP(m=32, n=100, s=4)
        assert fam.s == 4
        assert fam.variant == "uniform"

    def test_s_exceeding_m_raises(self):
        with pytest.raises(ValueError):
            OSNAP(m=3, n=10, s=4)

    def test_unknown_variant_raises(self):
        with pytest.raises(ValueError):
            OSNAP(m=8, n=10, s=2, variant="bogus")

    def test_block_requires_divisibility(self):
        with pytest.raises(ValueError):
            OSNAP(m=10, n=20, s=4, variant="block")

    def test_name_mentions_s_and_variant(self):
        assert "s=4" in OSNAP(m=8, n=10, s=4).name

    def test_with_m_preserves_s(self):
        fam = OSNAP(m=16, n=100, s=4).with_m(50)
        assert fam.s == 4
        assert fam.m == 50

    def test_with_m_block_rounds_to_multiple(self):
        fam = OSNAP(m=16, n=100, s=4, variant="block").with_m(50)
        assert fam.m % 4 == 0
        assert fam.m >= 50

    @pytest.mark.parametrize("variant,s,m,effective", [
        # block: at least s, rounded up to a multiple of s
        ("block", 4, 1, 4),
        ("block", 4, 3, 4),
        ("block", 4, 4, 4),
        ("block", 4, 5, 8),
        ("block", 4, 50, 52),
        ("block", 3, 0, 3),
        ("block", 3, 7, 9),
        ("block", 1, 7, 7),
        # uniform: at least s, otherwise unchanged
        ("uniform", 4, 1, 4),
        ("uniform", 4, 3, 4),
        ("uniform", 4, 5, 5),
        ("uniform", 3, 50, 50),
    ])
    def test_with_m_effective_dimension(self, variant, s, m, effective):
        fam = OSNAP(m=4 * s, n=100, s=s, variant=variant).with_m(m)
        assert fam.m == effective
        assert (fam.s, fam.variant) == (s, variant)


class TestSampleUniform:
    @pytest.mark.parametrize("s", [1, 2, 4, 7])
    def test_exact_column_sparsity(self, s):
        sketch = OSNAP(m=32, n=100, s=s).sample(s)
        assert sketch.column_sparsity == s
        assert sketch.nnz == s * 100

    def test_values_are_pm_inv_sqrt_s(self):
        s = 4
        sketch = OSNAP(m=32, n=50, s=s).sample(0)
        data = np.abs(sketch.matrix.tocsc().data)
        assert np.allclose(data, 1.0 / np.sqrt(s))

    def test_unit_column_norms(self):
        sketch = OSNAP(m=32, n=50, s=4).sample(1)
        norms2 = np.asarray(
            sketch.matrix.multiply(sketch.matrix).sum(axis=0)
        ).ravel()
        assert np.allclose(norms2, 1.0)

    def test_rows_distinct_within_column(self):
        sketch = OSNAP(m=16, n=64, s=8).sample(2)
        csc = sketch.matrix.tocsc()
        for j in range(64):
            rows = csc.indices[csc.indptr[j]:csc.indptr[j + 1]]
            assert len(set(rows)) == 8

    def test_dense_regime_s_close_to_m(self):
        sketch = OSNAP(m=8, n=20, s=7).sample(3)
        assert sketch.column_sparsity == 7

    def test_s_equals_m(self):
        sketch = OSNAP(m=4, n=10, s=4).sample(4)
        assert sketch.column_sparsity == 4

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_statistical_row_coverage(self, seed):
        sketch = OSNAP(m=8, n=40, s=2).sample(seed)
        coo = sketch.matrix.tocoo()
        assert coo.row.min() >= 0
        assert coo.row.max() < 8


class TestSampleBlock:
    def test_one_nonzero_per_block(self):
        s, m = 4, 32
        sketch = OSNAP(m=m, n=20, s=s, variant="block").sample(0)
        block = m // s
        csc = sketch.matrix.tocsc()
        for j in range(20):
            rows = sorted(csc.indices[csc.indptr[j]:csc.indptr[j + 1]])
            blocks = [r // block for r in rows]
            assert blocks == [0, 1, 2, 3]

    def test_countsketch_special_case(self):
        sketch = OSNAP(m=16, n=30, s=1, variant="block").sample(1)
        assert sketch.column_sparsity == 1
        data = sketch.matrix.tocsc().data
        assert set(np.unique(data)) <= {-1.0, 1.0}


class TestBounds:
    def test_recommended_m_positive(self):
        assert OSNAP.recommended_m(16, 0.1, 0.1) > 0

    def test_recommended_s_positive(self):
        assert OSNAP.recommended_s(16, 0.1, 0.1) >= 1

    def test_recommended_m_gamma_grows_with_gamma(self):
        small = OSNAP.recommended_m_gamma(16, 0.1, 0.1, gamma=0.1)
        large = OSNAP.recommended_m_gamma(16, 0.1, 0.1, gamma=1.0)
        assert large > small

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            OSNAP.recommended_m_gamma(16, 0.1, 0.1, gamma=0.0)
