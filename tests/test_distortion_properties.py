"""Property-based tests for the batched distortion reduction.

:func:`repro.linalg.distortion.distortions_of_products` is the reduction
step of the trial engine and owns four internal regimes:

* a dense stack (a dense family's trial, a stack of one) — rectangular
  gufunc SVD directly;
* a :class:`~repro.linalg.distortion.SparseProducts` trial that touches
  at most ``2d`` rows (near-square, CountSketch's shape) — isolated
  columns by their norms, one rectangular SVD per exact shape of the
  chunk's coupled blocks;
* a :class:`~repro.linalg.distortion.SparseProducts` trial that touches
  more than ``2d`` rows (tall, OSNAP's shape) — symmetric eigenvalues of
  its ``d x d`` Gram matrix built from the entries that share a row
  (squared spectrum), in sub-blocks of trials;
* rank-deficient trials inside the Gram route — squared-spectrum ratio
  below ``_GRAM_RATIO_FLOOR``, or a rounded eigenvalue ``<= 0`` —
  recomputed from their dense rectangular product.

Hypothesis drives random ``(B, k, d)`` shapes straddling every switch,
sketch-like sparse stacks (disjoint supports, CountSketch buckets,
chains of coupled columns) through the near-square route, and chunks of
the batched column scatter through both entry routes (CountSketch on
``D_1`` and ``D_{1/2}``; both layouts with ``s`` from 2 to 8, dense
regime included; hashed collisions and exact cancellations, chunks
crossing a sub-block edge), and checks the values against the
full-height rectangular SVD of every product
(:func:`singular_interval_of_product`) at the 1e-9 relative tolerance
the golden pins use for cross-BLAS SVD agreement.  A trial's value must
also be bitwise its value in a chunk of one, at any chunk size and
offset, on mixed-route and mixed-shape chunks.  The per-trial
:func:`distortion_of_product` is a stack of one through the same
reduction, so it is checked against that reference too, never used as
one.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.hardinstances.dbeta import DBeta, HardDraw
from repro.hardinstances.mixtures import MixtureInstance
from repro.linalg.distortion import (
    _GRAM_BLOCK_BYTES,
    _GRAM_RATIO_FLOOR,
    SparseProducts,
    distortion_of_product,
    distortions_of_products,
    singular_interval_of_product,
)
from repro.sketch import OSNAP, CountSketch
from repro.sketch.batched import BatchedColumnScatter
from repro.sketch.hashing import column_hash
from repro.utils.rng import KeyedStream, trial_keys

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


def _sparse(products):
    """A dense ``(B, k, d)`` stack as its nonzero entries, for the entry
    routes: ``np.nonzero`` lists them by trial, row and column."""
    trial, rows, cols = np.nonzero(products)
    starts = np.searchsorted(trial, np.arange(products.shape[0] + 1))
    return SparseProducts(products.shape, starts, rows, cols,
                          products[trial, rows, cols])


def _most_rows(products):
    """The most rows one trial of a sparse stack touches: more than
    ``2d`` sends the stack down the tall route."""
    return max(np.unique(products.rows[start:stop]).size
               for start, stop in zip(products.starts[:-1],
                                      products.starts[1:]))


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
        # k from 1 to 5d-ish: the entries cover k < d (annihilation),
        # the k <= 2d near-square route and the k > 2d Gram route; the
        # dense stack takes the rectangular SVD at every k.
        k_factor=st.floats(min_value=0.25, max_value=5.0),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, **COMMON)
    def test_batched_matches_serial_svds(self, batch, d, k_factor, seed):
        k = max(1, int(round(k_factor * d)))
        products = _stack(batch, k, d, seed)
        for stack in (products, _sparse(products)):
            np.testing.assert_allclose(
                distortions_of_products(stack), _reference(products),
                rtol=RTOL, atol=ATOL,
            )

    @given(
        batch=st.integers(min_value=1, max_value=4),
        d=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=30, **COMMON)
    def test_gram_switch_boundary_is_seamless(self, batch, d, seed):
        """Entries whose first trial touches k = 2d rows (near-square) or
        k = 2d+1 (tall) agree with the reference, and so does the dense
        stack's rectangular SVD on both.  The other trials are sparse, so
        isolated and coupled columns meet the switch too."""
        gen = np.random.default_rng(seed)
        for k in (2 * d, 2 * d + 1):
            products = _stack(batch, k, d, seed)
            products[1:] *= gen.random(size=products[1:].shape) < 0.3
            entries = _sparse(products)
            assert _most_rows(entries) == k
            for stack in (products, entries):
                np.testing.assert_allclose(
                    distortions_of_products(stack), _reference(products),
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
        """A rank-deficient trial in the Gram route falls back to the
        rectangular SVD and still matches the reference value."""
        k = 3 * d
        products = _stack(batch, k, d, seed)
        victim %= batch
        # Make one trial exactly rank-deficient: duplicate a column.
        products[victim, :, 0] = products[victim, :, -1]
        values = distortions_of_products(_sparse(products))
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
            distortions_of_products(_sparse(stack)), _reference(stack),
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
    """The near-square route on the entries of sketch-like ``(B, k, d)``
    stacks, ``k <= 2d``: no trial can touch more than ``2d`` rows."""

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
            distortions_of_products(_sparse(products)), _reference(products),
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
            distortions_of_products(_sparse(products), rows=4 * d),
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
        values = distortions_of_products(_sparse(products))
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
        coupled and the SVD block is ``d`` columns wide."""
        gen = np.random.default_rng(seed)
        # 1 coupled column is impossible (it needs a partner).
        coupled = [min(c, d - 1) if c != 1 else 0 for c in counts]
        coupled[0] = 0
        if full:
            coupled[-1] = d
        products = np.stack([_chain_product(gen, d + 1 + d // 2, d, c)
                             for c in coupled])
        np.testing.assert_allclose(
            distortions_of_products(_sparse(products)), _reference(products),
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
        values = distortions_of_products(_sparse(products))
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
        entries = _sparse(products)
        # A masked chunk whose trials all touch at most 2d rows would
        # take the near-square route instead.
        assume(_most_rows(entries) > 2 * d)
        with np.errstate(invalid="raise"):
            values = distortions_of_products(entries)
        np.testing.assert_allclose(values, _reference(products),
                                   rtol=RTOL, atol=ATOL)
        assert values[victim] >= 1.0 - RTOL


def _scatter_chunk(s, m, variant, d, reps, batch, seed, n=64):
    """Keys and ``D_β`` draws of one batched column-scatter chunk
    (CountSketch at ``s = 1``)."""
    keys = np.random.default_rng(seed).integers(
        2**63, size=(batch, 2), dtype=np.uint64
    )
    kernel = BatchedColumnScatter(keys[:, 0], s, (m, n), variant)
    return kernel, DBeta(n, d, reps=reps).sample_supports(keys[:, 1])


def _trial_references(kernel, draws):
    """Each trial's distortion from the full-height SVD of its serial
    kernel's product."""
    return np.array([
        _full_svd_distortion(kernel.trial_kernel(i).sketched_basis(draw))
        for i, draw in enumerate(draws)
    ])


@st.composite
def _tall_shapes(draw):
    """``(s, m, variant, d, reps)`` whose chunks are mostly tall: a trial
    touches at least ``s`` rows and usually far more than ``2d``."""
    variant = draw(st.sampled_from(["uniform", "block"]))
    dense = draw(st.booleans())
    s = draw(st.integers(min_value=3 if variant == "block" and dense
                         else 2, max_value=8))
    if dense:
        # 2s > m: OSNAP's dense regime (a block of one row per entry).
        m = s if variant == "block" \
            else draw(st.integers(min_value=s, max_value=2 * s - 1))
    elif variant == "block":
        m = s * draw(st.integers(min_value=2, max_value=8))
    else:
        m = draw(st.integers(min_value=2 * s, max_value=48))
    d = draw(st.integers(min_value=1, max_value=max(1, min(6, m // 4))))
    reps = draw(st.integers(min_value=2 if s == 2 else 1, max_value=4))
    return s, m, variant, d, reps


class TestSparseGramRoute:
    """Chunks of the batched column scatter, reduced from their hashed
    entries by the tall (Gram) or the near-square route, against the
    full-height SVD of every trial."""

    @given(
        shape=_tall_shapes(),
        batch=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=80, **COMMON)
    def test_tall_chunks_match_the_full_svd(self, shape, batch, seed):
        s, m, variant, d, reps = shape
        kernel, draws = _scatter_chunk(s, m, variant, d, reps, batch, seed)
        assume(_most_rows(kernel.sketched_bases(draws)) > 2 * d)
        np.testing.assert_allclose(
            kernel.distortions(draws), _trial_references(kernel, draws),
            rtol=RTOL, atol=ATOL,
        )

    @given(
        m=st.integers(min_value=1, max_value=48),
        d=st.integers(min_value=1, max_value=8),
        reps=st.sampled_from([1, 2]),
        batch=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=80, **COMMON)
    def test_near_square_chunks_match_the_full_svd(self, m, d, reps, batch,
                                                   seed):
        """CountSketch on ``D_1`` and ``D_{1/2}``: a trial has at most
        ``2d`` entries, so the chunk is near-square, ``m < d`` included."""
        kernel, draws = _scatter_chunk(1, m, "uniform", d, reps, batch,
                                       seed)
        assert _most_rows(kernel.sketched_bases(draws)) <= 2 * d
        np.testing.assert_allclose(
            kernel.distortions(draws), _trial_references(kernel, draws),
            rtol=RTOL, atol=ATOL,
        )

    @given(
        d=st.sampled_from([24, 32, 40]),
        extra=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=8, **COMMON)
    def test_chunks_crossing_a_sub_block_edge(self, d, extra, seed):
        block = _GRAM_BLOCK_BYTES // (8 * d * d)
        kernel, draws = _scatter_chunk(4, 128, "uniform", d, 1,
                                       block + extra, seed, n=256)
        assert _most_rows(kernel.sketched_bases(draws)) > 2 * d
        np.testing.assert_allclose(
            kernel.distortions(draws), _trial_references(kernel, draws),
            rtol=RTOL, atol=ATOL,
        )

    @given(
        variant=st.sampled_from(["uniform", "block"]),
        s=st.sampled_from([1, 2, 4, 8]),
        cancel=st.booleans(),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, **COMMON)
    def test_support_columns_hashing_to_one_row(self, variant, s, cancel,
                                                seed):
        """Output column 0's two support columns share a row, where their
        entries add or cancel to an exact 0.  At ``s = 1`` the chunk is
        near-square and output column 1 touches that row too, so even a
        cancelled entry couples column 0; at ``s >= 2`` it is tall."""
        n, m, d, reps = 512, 32, 3, 2
        kernel, draws = _scatter_chunk(s, m, variant, d, reps, 4, seed, n=n)
        key = kernel.trial_kernel(0).key
        rows, signs = column_hash(key, np.arange(n), s, m, variant)
        gen = np.random.default_rng(seed)
        hits = np.array([np.intersect1d(rows[0], row).size for row in rows])
        mates = np.flatnonzero(hits[1:]) + 1
        assume(mates.size >= 2)
        lead = gen.choice(mates, size=2 if s == 1 else 1, replace=False)
        partner = int(lead[0])
        shared = int(np.intersect1d(rows[0], rows[partner])[0])
        sign_a = signs[0][rows[0] == shared][0]
        sign_b = signs[partner][rows[partner] == shared][0]
        # At s = 1 lead[1], output column 1's first support column,
        # hashes to the shared row as well.
        support = np.concatenate((
            [0], lead,
            gen.choice(np.setdiff1d(np.arange(1, n), lead),
                       size=reps * d - 1 - lead.size, replace=False),
        ))
        draw_signs = gen.choice([-1.0, 1.0], size=reps * d)
        draw_signs[1] = draw_signs[0] * sign_a * sign_b * (-1 if cancel
                                                           else 1)
        draws[0] = HardDraw(n, d, support, draw_signs, reps)
        products = kernel.sketched_bases(draws)
        if s == 1:
            assert _most_rows(products) <= 2 * d
        else:
            assert _most_rows(products) > 2 * d
        serial = kernel.trial_kernel(0).sketched_basis(draws[0])
        assert (serial[shared, 0] == 0.0) == cancel
        own = slice(products.starts[0], products.starts[1])
        at = (products.rows[own] == shared) & (products.cols[own] == 0)
        assert np.array_equal(products.values[own][at], [serial[shared, 0]])
        if s == 1:
            assert np.count_nonzero(products.rows[own] == shared) >= 2
        np.testing.assert_allclose(
            kernel.distortions(draws), _trial_references(kernel, draws),
            rtol=RTOL, atol=ATOL,
        )

    @given(
        d=st.sampled_from([4, 32]),
        seed=st.integers(min_value=0, max_value=10**6),
        data=st.data(),
    )
    @settings(max_examples=20, **COMMON)
    def test_a_trials_value_ignores_its_chunk_mates(self, d, seed, data):
        """Moved to another position among other trials of a tall chunk
        (across a sub-block edge at ``d = 32``), a trial's value is
        bitwise the same."""
        block = _GRAM_BLOCK_BYTES // (8 * d * d)
        batch = min(block + 8, 40)
        pool, draws = _scatter_chunk(4, 128, "uniform", d, 1, 2 * batch,
                                     seed, n=256)
        # Half of the first chunk's trials, among new mates, reshuffled.
        moved = list(range(batch // 2)) + list(range(batch, 2 * batch
                                                     - batch // 2))
        chunks = [list(range(batch)), data.draw(st.permutations(moved))]
        values = {}
        for chunk in chunks:
            kernel = BatchedColumnScatter(
                [pool.trial_kernel(i).key for i in chunk], 4, pool.shape
            )
            picked = [draws[i] for i in chunk]
            assert _most_rows(kernel.sketched_bases(picked)) > 2 * d
            for trial, value in zip(chunk, kernel.distortions(picked)):
                values.setdefault(trial, set()).add(value)
        assert all(len(seen) == 1 for seen in values.values())


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


def _probe_chunk(family, instance, key, start, stop):
    """Trials ``start .. stop - 1`` of the probe keyed by ``key``, sampled
    and reduced as one chunk, on the trial engine's streams."""
    keys = trial_keys(np.uint64(key), start, stop)
    kernel = family.sample_trial_batch(
        [KeyedStream(sketch_key) for sketch_key in keys[:, 0]]
    )
    return kernel.distortions(instance.sample_supports(keys[:, 1]))


_PROBE_N = 4096


def _probe_instance(kind, d):
    if kind == "D_1":
        return DBeta(_PROBE_N, d, reps=1)
    if kind == "D_1/2":
        return DBeta(_PROBE_N, d, reps=2)
    return MixtureInstance([DBeta(_PROBE_N, d, reps=1),
                            DBeta(_PROBE_N, d, reps=2)], weights=[0.5, 0.5])


class TestChunkIndependence:
    """A trial's value is its value in a chunk of one, whatever chunk of a
    probe it is reduced in: its route and every shape it is reduced at
    come from its own entries.  The examples mix near-square coupled
    blocks of several shapes (CountSketch on ``D_{1/2}`` and a mixture,
    OSNAP ``s = 2``) and both routes in one chunk (OSNAP ``s = 3``)."""

    @given(
        s=st.sampled_from([1, 2, 3, 4]),
        d=st.sampled_from([4, 16, 32, 64]),
        m=st.integers(min_value=4, max_value=512),
        kind=st.sampled_from(["D_1", "D_1/2", "mixture"]),
        key=st.integers(min_value=0, max_value=2**64 - 1),
        size=st.sampled_from([2, 7, 32]),
        offset=st.integers(min_value=0, max_value=10**6),
    )
    @example(s=1, d=32, m=256, kind="D_1/2", key=6, size=32, offset=0)
    @example(s=1, d=32, m=512, kind="mixture", key=1, size=32, offset=0)
    @example(s=2, d=16, m=40, kind="D_1", key=284, size=32, offset=0)
    @example(s=2, d=64, m=256, kind="D_1", key=100, size=32, offset=0)
    @example(s=3, d=64, m=200, kind="D_1", key=0, size=32, offset=0)
    @settings(max_examples=40, **COMMON)
    def test_value_equals_its_value_alone(self, s, d, m, kind, key, size,
                                          offset):
        family = CountSketch(m, _PROBE_N) if s == 1 \
            else OSNAP(m, _PROBE_N, s=s)
        instance = _probe_instance(kind, d)
        chunk = _probe_chunk(family, instance, key, offset, offset + size)
        alone = [_probe_chunk(family, instance, key, t, t + 1)[0]
                 for t in range(offset, offset + size)]
        np.testing.assert_array_equal(chunk, alone)
