"""Property-based tests for the batched distortion reduction.

:func:`repro.linalg.distortion.distortions_of_products` is the reduction
step of the batched trial engine and owns four internal regimes:

* a stack of one, or ``k < d`` — rectangular gufunc SVD directly;
* ``d <= k <= 2d`` — isolated columns by their norms, one rectangular SVD
  of the zero-padded coupled columns (the whole stack when some trial
  has every column coupled);
* ``k > 2d`` — symmetric eigenvalues of the ``d x d`` Gram matrices
  (squared spectrum);
* rank-deficient trials inside the Gram path — squared-spectrum ratio
  below ``_GRAM_RATIO_FLOOR``, or a rounded eigenvalue ``<= 0`` —
  recomputed from the rectangular product.

Hypothesis drives random ``(B, k, d)`` shapes straddling every switch,
and sketch-like sparse stacks (disjoint supports, CountSketch buckets,
chains of coupled columns) through the isolated-column route, and checks
the batched values against the full-height rectangular SVD of every
product (:func:`singular_interval_of_product`) at the 1e-9 relative
tolerance the golden pins use for cross-BLAS SVD agreement.  The
per-trial :func:`distortion_of_product` is a stack of one through the
same reduction, so it is checked against that reference too, never used
as one.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.linalg.distortion import (
    _GRAM_RATIO_FLOOR,
    distortion_of_product,
    distortions_of_products,
    singular_interval_of_product,
)

pytestmark = pytest.mark.kernels

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: The tolerance of the golden stream pins: everything upstream of the
#: SVD is bit-identical, the reduction may differ by BLAS rounding.
RTOL = 1e-9
ATOL = 1e-12


def _full_svd_distortion(product):
    lo, hi = singular_interval_of_product(product)
    return max(1.0 - lo, hi - 1.0)


def _reference(products):
    """Per-product distortions from the rectangular SVD of each
    uncompacted product: independent of the reduction under test."""
    return np.array([_full_svd_distortion(p) for p in products])


def _stack(batch, k, d, seed, scale=None):
    gen = np.random.default_rng(seed)
    products = gen.normal(size=(batch, k, d))
    if scale is None:
        # Near-isometric scaling so distortions sit in the regime the
        # trial engine actually measures (sigma around 1).
        products /= np.sqrt(max(k, 1))
    else:
        products *= scale
    return products


class TestShapeSweep:
    @given(
        batch=st.integers(min_value=1, max_value=6),
        d=st.integers(min_value=1, max_value=6),
        # k from 1 to 5d-ish: covers k < d (annihilation), the k <= 2d
        # rectangular branch, and the k > 2d Gram branch.
        k_factor=st.floats(min_value=0.25, max_value=5.0),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, **COMMON)
    def test_batched_matches_serial_svds(self, batch, d, k_factor, seed):
        k = max(1, int(round(k_factor * d)))
        products = _stack(batch, k, d, seed)
        np.testing.assert_allclose(
            distortions_of_products(products), _reference(products),
            rtol=RTOL, atol=ATOL,
        )

    @given(
        batch=st.integers(min_value=1, max_value=4),
        d=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=30, **COMMON)
    def test_gram_switch_boundary_is_seamless(self, batch, d, seed):
        """k = 2d (rectangular) and k = 2d+1 (Gram) agree with the reference."""
        for k in (2 * d, 2 * d + 1):
            products = _stack(batch, k, d, seed)
            np.testing.assert_allclose(
                distortions_of_products(products), _reference(products),
                rtol=RTOL, atol=ATOL,
            )

    @given(
        batch=st.integers(min_value=1, max_value=4),
        d=st.integers(min_value=1, max_value=5),
        extra=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=30, **COMMON)
    def test_fewer_rows_than_columns_annihilates(self, batch, d, extra,
                                                 seed):
        """k < d: a direction is lost, sigma_min is exactly 0."""
        k = max(1, d - extra)
        if k >= d:
            return
        products = _stack(batch, k, d, seed)
        values = distortions_of_products(products)
        np.testing.assert_allclose(values, _reference(products),
                                   rtol=RTOL, atol=ATOL)
        assert np.all(values >= 1.0)  # 1 - sigma_min with sigma_min = 0


class TestRankDeficientFallback:
    @given(
        batch=st.integers(min_value=2, max_value=5),
        d=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=10**6),
        victim=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=30, **COMMON)
    def test_exact_deficiency_recomputed_exactly(self, batch, d, seed,
                                                 victim):
        """A rank-deficient trial in the Gram path falls back to the
        rectangular SVD and still matches the reference value."""
        k = 3 * d  # force the Gram branch
        products = _stack(batch, k, d, seed)
        victim %= batch
        # Make one trial exactly rank-deficient: duplicate a column.
        products[victim, :, 0] = products[victim, :, -1]
        values = distortions_of_products(products)
        np.testing.assert_allclose(values, _reference(products),
                                   rtol=RTOL, atol=ATOL)
        assert values[victim] >= 1.0 - RTOL

    @given(
        d=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=10**6),
        # Straddle the fallback threshold: sigma_min/sigma_max from well
        # below sqrt(_GRAM_RATIO_FLOOR) = 1e-6 to well above it.
        log_ratio=st.floats(min_value=-9.0, max_value=-3.0),
    )
    @settings(max_examples=40, **COMMON)
    def test_near_deficiency_straddles_floor(self, d, seed, log_ratio):
        """Trials on either side of ``_GRAM_RATIO_FLOOR`` match the reference.

        Constructs a product with a controlled sigma_min/sigma_max ratio
        via an SVD recomposition.  Below the floor the fallback recomputes
        the rectangular SVD; above it the Gram value is used — the
        *distortion* (max(1-lo, hi-1), dominated by 1-lo ~ 1 here) stays
        within 1e-9 of the reference either way, which is exactly why the floor
        is a safe switch point.
        """
        k = 3 * d
        gen = np.random.default_rng(seed)
        base = gen.normal(size=(k, d))
        u, _, vt = np.linalg.svd(base, full_matrices=False)
        sigma = np.linspace(1.0, 0.9, d)
        sigma[-1] = 10.0 ** log_ratio
        product = (u * sigma) @ vt
        # With log_ratio in [-9, -3] the squared ratio spans
        # [1e-18, 1e-6], landing on both sides of the floor (1e-12).
        assert 1e-18 < _GRAM_RATIO_FLOOR < 1e-6
        stack = np.stack([product, gen.normal(size=(k, d)) / np.sqrt(k)])
        np.testing.assert_allclose(
            distortions_of_products(stack), _reference(stack),
            rtol=RTOL, atol=ATOL,
        )


class TestRowCompaction:
    @given(
        batch=st.integers(min_value=1, max_value=4),
        d=st.integers(min_value=1, max_value=4),
        k=st.integers(min_value=1, max_value=12),
        pad=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, **COMMON)
    def test_zero_row_padding_with_rows_matches_uncompacted(
            self, batch, d, k, pad, seed):
        """Compacted stacks: zero rows change no singular value, and
        ``rows`` (the true m) governs the annihilation rule."""
        products = _stack(batch, k, d, seed)
        padded = np.concatenate(
            [products, np.zeros((batch, pad, d))], axis=1
        )
        np.testing.assert_allclose(
            distortions_of_products(padded, rows=k + pad),
            _reference(padded),
            rtol=RTOL, atol=ATOL,
        )

    def test_rows_below_d_forces_annihilation(self):
        # A compacted stack may have k >= d while the true row count is
        # below d: sigma_min must be 0 regardless of the compacted shape.
        gen = np.random.default_rng(0)
        products = gen.normal(size=(3, 4, 3)) / 2.0
        values = distortions_of_products(products, rows=2)
        assert np.all(values >= 1.0)


def _signs(gen, size):
    return gen.choice([-1.0, 1.0], size=size)


def _disjoint_product(gen, k, d):
    """A ``k x d`` product whose columns have pairwise disjoint, nonempty
    row supports (``k >= d``): every column is isolated."""
    rows = gen.permutation(k)
    used = int(gen.integers(d, k + 1))
    cuts = np.sort(gen.choice(np.arange(1, used), size=d - 1,
                              replace=False))
    product = np.zeros((k, d))
    for col, support in enumerate(np.split(rows[:used], cuts)):
        product[support, col] = gen.normal(size=support.size)
    return product


def _bucket_product(gen, k, d):
    """A CountSketch-like ``k x d`` product on ``D_1``: every column is
    ``±e_r``, and the columns of a bucket of 2-5 share their row, so a
    bucket is exactly rank deficient (``k >= d``)."""
    sizes = []
    while sum(sizes) < d:
        sizes.append(min(d - sum(sizes), int(gen.choice([1, 1, 2, 3, 4, 5]))))
    rows = gen.permutation(k)[:len(sizes)]
    cols = np.split(gen.permutation(d), np.cumsum(sizes)[:-1])
    product = np.zeros((k, d))
    for row, bucket in zip(rows, cols):
        product[row, bucket] = _signs(gen, bucket.size)
    return product


def _chain_product(gen, k, d, coupled):
    """A ``k x d`` product (``k > d``) with exactly ``coupled`` coupled
    columns (0 or 2..d): they form a chain in which neighbours share one
    row, so the coupled block has full column rank; the other columns
    are isolated unit-scale columns on rows of their own."""
    rows = gen.permutation(k)
    cols = gen.permutation(d)
    product = np.zeros((k, d))
    scale = 1.0 / np.sqrt(2.0)
    for i, col in enumerate(cols[:coupled]):
        product[rows[i:i + 2], col] = scale * (1.0 + 0.3 * gen.normal(size=2))
    free = rows[coupled + 1:] if coupled else rows
    for row, col in zip(free, cols[coupled:]):
        product[row, col] = _signs(gen, 1)[0] * (1.0 + 0.3 * gen.normal())
    return product


class TestIsolatedColumns:
    """The near-square route (``d <= k <= 2d``) on sketch-like stacks."""

    @given(
        batch=st.integers(min_value=2, max_value=5),
        d=st.integers(min_value=1, max_value=8),
        extra=st.integers(min_value=0, max_value=8),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, **COMMON)
    def test_disjoint_supports_reduce_to_column_norms(self, batch, d, extra,
                                                      seed):
        gen = np.random.default_rng(seed)
        k = d + extra % (d + 1)
        products = np.stack([_disjoint_product(gen, k, d)
                             for _ in range(batch)])
        np.testing.assert_allclose(
            distortions_of_products(products), _reference(products),
            rtol=RTOL, atol=ATOL,
        )

    @given(
        batch=st.integers(min_value=2, max_value=6),
        d=st.integers(min_value=2, max_value=12),
        extra=st.integers(min_value=0, max_value=12),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, **COMMON)
    def test_countsketch_buckets_of_parallel_columns(self, batch, d, extra,
                                                     seed):
        """Buckets of 2-5 parallel ``±e_r`` columns: exact rank
        deficiency inside the coupled block, widths differing by trial."""
        gen = np.random.default_rng(seed)
        k = d + extra % (d + 1)
        products = np.stack([_bucket_product(gen, k, d)
                             for _ in range(batch)])
        np.testing.assert_allclose(
            distortions_of_products(products, rows=4 * d),
            _reference(products), rtol=RTOL, atol=ATOL,
        )

    @given(
        batch=st.integers(min_value=2, max_value=5),
        d=st.integers(min_value=2, max_value=8),
        victim=st.integers(min_value=0, max_value=4),
        buckets=st.booleans(),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=30, **COMMON)
    def test_all_zero_column_is_a_zero_singular_value(self, batch, d, victim,
                                                      buckets, seed):
        gen = np.random.default_rng(seed)
        build = _bucket_product if buckets else _disjoint_product
        products = np.stack([build(gen, 2 * d, d) for _ in range(batch)])
        victim %= batch
        products[victim, :, int(gen.integers(d))] = 0.0
        values = distortions_of_products(products)
        np.testing.assert_allclose(values, _reference(products),
                                   rtol=RTOL, atol=ATOL)
        assert values[victim] >= 1.0

    @given(
        d=st.integers(min_value=3, max_value=8),
        counts=st.lists(st.integers(min_value=0, max_value=8), min_size=2,
                        max_size=6),
        full=st.booleans(),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, **COMMON)
    def test_mixed_coupled_widths_keep_each_trials_extremes(self, d, counts,
                                                            full, seed):
        """Trials with no coupled column next to partly coupled ones pad
        to different widths; with ``full`` one trial has every column
        coupled and the stack is reduced as it is."""
        gen = np.random.default_rng(seed)
        # 1 coupled column is impossible (it needs a partner).
        coupled = [min(c, d - 1) if c != 1 else 0 for c in counts]
        coupled[0] = 0
        if full:
            coupled[-1] = d
        products = np.stack([_chain_product(gen, d + 1 + d // 2, d, c)
                             for c in coupled])
        np.testing.assert_allclose(
            distortions_of_products(products), _reference(products),
            rtol=RTOL, atol=ATOL,
        )

    @given(
        batch=st.integers(min_value=2, max_value=5),
        d=st.integers(min_value=2, max_value=8),
        short=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=30, **COMMON)
    def test_fewer_rows_than_columns_in_a_stack_annihilates(
            self, batch, d, short, seed):
        """``k < d`` in a stack of several sparse trials: ``σ_min`` is 0
        and ``σ_max`` still matches the reference."""
        gen = np.random.default_rng(seed)
        k = max(1, d - short)
        products = np.stack([_bucket_product(gen, d, d)[:k]
                             for _ in range(batch)])
        values = distortions_of_products(products)
        np.testing.assert_allclose(values, _reference(products),
                                   rtol=RTOL, atol=ATOL)
        assert np.all(values >= 1.0)


class TestGramEigenvalues:
    @given(
        batch=st.integers(min_value=2, max_value=5),
        d=st.integers(min_value=2, max_value=8),
        victim=st.integers(min_value=0, max_value=4),
        sparse=st.booleans(),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, **COMMON)
    def test_duplicated_column_in_a_tall_trial(self, batch, d, victim,
                                               sparse, seed):
        """A duplicated column makes the Gram matrix exactly singular, so
        its rounded ``λ_min`` may come out negative: it must count as
        suspect and be recomputed, never reach ``sqrt`` as a NaN."""
        gen = np.random.default_rng(seed)
        k = 3 * d
        products = _stack(batch, k, d, seed)
        if sparse:
            products *= gen.random(size=products.shape) < 0.3
        victim %= batch
        products[victim, :, 0] = products[victim, :, -1]
        with np.errstate(invalid="raise"):
            values = distortions_of_products(products)
        np.testing.assert_allclose(values, _reference(products),
                                   rtol=RTOL, atol=ATOL)
        assert values[victim] >= 1.0 - RTOL


#: Row layouts of the zero-row insertion property: ``k`` nonzero rows
#: among ``m`` in total, for a product with ``d`` columns.
_LAYOUTS = ("fewer-nonzero-rows-than-d", "m-below-d", "exactly-d-nonzero",
            "single-nonzero-row", "tall")


def _layout(layout, d, extra):
    """``(k, m)`` for one layout; ``None`` where ``d`` cannot realize it."""
    if layout == "fewer-nonzero-rows-than-d":
        if d < 2:
            return None
        k = 1 + extra % (d - 1)
        return k, d + extra
    if layout == "m-below-d":
        if d < 2:
            return None
        m = 1 + extra % (d - 1)
        return 1 + extra % m, m
    if layout == "exactly-d-nonzero":
        return d, d + extra
    if layout == "single-nonzero-row":
        return 1, 1 + extra
    return d + 1 + extra, d + 1 + 2 * extra


class TestZeroRowInsertion:
    @given(
        layout=st.sampled_from(_LAYOUTS),
        d=st.integers(min_value=1, max_value=6),
        extra=st.integers(min_value=0, max_value=12),
        cancel=st.booleans(),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=80, **COMMON)
    def test_zero_rows_anywhere_keep_the_full_svd_distortion(
            self, layout, d, extra, cancel, seed):
        """``distortion_of_product`` drops zero rows before its SVD; with
        zero rows inserted anywhere it must still match the rectangular
        SVD of the full-height product."""
        shape = _layout(layout, d, extra)
        if shape is None:
            return
        k, m = shape
        gen = np.random.default_rng(seed)
        # Built the way a sketch scatters ΠU: entries summed into bins.
        touched = np.sort(gen.choice(m, size=k, replace=False))
        rows = np.repeat(touched, d)
        cols = np.tile(np.arange(d), k)
        weights = gen.normal(size=k * d) / np.sqrt(k)
        if cancel and k < m:
            # A row two opposite entries touch: it sums to an exact 0.
            row = gen.choice(np.setdiff1d(np.arange(m), touched))
            pair = gen.normal(size=d)
            rows = np.concatenate([rows, np.full(2 * d, row)])
            cols = np.concatenate([cols, np.arange(d), np.arange(d)])
            weights = np.concatenate([weights, pair, -pair])
        product = np.bincount(rows * d + cols, weights=weights,
                              minlength=m * d).reshape(m, d)
        assert np.count_nonzero(product.any(axis=1)) == k
        np.testing.assert_allclose(
            distortion_of_product(product), _full_svd_distortion(product),
            rtol=RTOL, atol=ATOL,
        )
