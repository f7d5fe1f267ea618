"""Equivalence suite for the matrix-free apply kernels.

The contract under test (see :mod:`repro.sketch.kernels`) is *bit*
identity, not numerical closeness: every kernel operation must reproduce
the materialized scipy path exactly (``np.array_equal``), so that the
Monte-Carlo trial engine can run matrix-free without perturbing a single
recorded experiment number.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.tester import distortion_samples, failure_estimate
from repro.hardinstances.dbeta import DBeta, HardDraw
from repro.linalg.sparse_ops import sketch_apply_cost
from repro.sketch import (
    OSNAP,
    CountSketch,
    LeverageSampling,
    RowSampling,
    Sketch,
    SparseJL,
    sample_sketch,
)
from repro.sketch.kernels import (
    SCATTER_MAX_COLUMNS,
    SCATTER_MAX_REPS,
    ColumnScatterKernel,
    CooScatterKernel,
    RowGatherKernel,
)
from repro.utils.rng import draw_key

pytestmark = pytest.mark.kernels

N = 192
M = 96


def _leverage_family(m=M, n=N):
    gen = np.random.default_rng(2024)
    p = gen.random(n)
    p /= p.sum()
    return LeverageSampling(m, n, probabilities=p)


FAMILIES = [
    pytest.param(lambda: CountSketch(M, N), id="countsketch"),
    pytest.param(lambda: OSNAP(M, N, s=4), id="osnap-uniform"),
    pytest.param(lambda: OSNAP(M, N, s=4, variant="block"), id="osnap-block"),
    pytest.param(lambda: SparseJL(M, N, q=0.05), id="sparsejl"),
    pytest.param(lambda: RowSampling(M, N), id="rowsampling"),
    pytest.param(_leverage_family, id="leverage"),
]

#: Input builders covering dtypes, layouts and contiguity.  Each returns an
#: array with leading dimension ``n``.
INPUTS = [
    pytest.param(lambda gen, n: gen.standard_normal((n, 16)), id="tall-f8"),
    pytest.param(lambda gen, n: gen.standard_normal((n, 3)), id="narrow-f8"),
    pytest.param(lambda gen, n: gen.standard_normal((n, 1)), id="one-col"),
    pytest.param(
        lambda gen, n: gen.standard_normal((n, SCATTER_MAX_COLUMNS)),
        id="at-cutoff",
    ),
    pytest.param(
        lambda gen, n: gen.standard_normal((n, SCATTER_MAX_COLUMNS + 1)),
        id="past-cutoff",
    ),
    pytest.param(lambda gen, n: gen.standard_normal(n), id="vector-f8"),
    pytest.param(
        lambda gen, n: gen.standard_normal((n, 8)).astype(np.float32),
        id="tall-f4",
    ),
    pytest.param(
        lambda gen, n: gen.standard_normal(n).astype(np.float32),
        id="vector-f4",
    ),
    pytest.param(
        lambda gen, n: np.asfortranarray(gen.standard_normal((n, 8))),
        id="fortran",
    ),
    pytest.param(
        lambda gen, n: gen.standard_normal((n, 16))[:, ::2],
        id="noncontiguous-cols",
    ),
    pytest.param(
        lambda gen, n: gen.standard_normal((2 * n, 8))[::2],
        id="noncontiguous-rows",
    ),
]


def _reference_csc(kernel) -> sp.csc_matrix:
    """``Π`` assembled by scipy (COO → CSC) from the kernel's index/value
    representation — independent of the kernel's own matrix builder."""
    rep = kernel.representation()
    m, n = kernel.shape
    values = rep["values"]
    if "cols" not in rep:  # column scatter: (s, n) rows and values
        rows = rep["rows"].T.ravel()
        cols = np.repeat(np.arange(n), rep["rows"].shape[0])
        values = values.T.ravel()
    elif "rows" not in rep:  # row gather: one entry per output row
        rows, cols = np.arange(m), rep["cols"]
    else:
        rows, cols = rep["rows"], rep["cols"]
    return sp.coo_matrix((values, (rows, cols)), shape=(m, n)).tocsc()


def _sparse_equal(a, b) -> bool:
    """Exact equality of two sparse matrices (structure and values)."""
    a = a.tocsc()
    b = b.tocsc()
    a.sort_indices()
    b.sort_indices()
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


class TestApplyBitIdentity:
    @pytest.mark.parametrize("make_family", FAMILIES)
    @pytest.mark.parametrize("make_input", INPUTS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_kernel_apply_matches_matmul(self, make_family, make_input, seed):
        family = make_family()
        sketch = family.sample(np.random.SeedSequence(seed))
        kernel = sketch.kernel
        assert kernel is not None
        a = make_input(np.random.default_rng(seed + 100), family.n)
        expected = sketch.matrix @ np.asarray(a, dtype=float)
        if sp.issparse(expected):
            expected = expected.toarray()
        assert np.array_equal(kernel.apply(a), np.asarray(expected))

    @pytest.mark.parametrize("make_family", FAMILIES)
    @pytest.mark.parametrize("make_input", INPUTS)
    def test_sketch_apply_dispatches_to_kernel(self, make_family, make_input):
        """``Sketch.apply`` equals the materialized product exactly."""
        family = make_family()
        sketch = sample_sketch(family, np.random.SeedSequence(5))
        a = make_input(np.random.default_rng(55), family.n)
        got = sketch.apply(a)
        assert not sketch.is_materialized
        assert np.array_equal(got, Sketch(sketch.matrix).apply(a))

    @pytest.mark.parametrize("make_family", FAMILIES)
    def test_sparse_input_falls_back_to_matrix(self, make_family):
        family = make_family()
        sketch = sample_sketch(family, np.random.SeedSequence(9))
        a = sp.random(
            family.n, 6, density=0.2, format="csr",
            random_state=np.random.default_rng(3),
        )
        expected = sketch.matrix @ a
        if sp.issparse(expected):
            expected = expected.toarray()
        assert np.array_equal(sketch.apply(a), np.asarray(expected))
        assert sketch.is_materialized


class TestMaterialization:
    @pytest.mark.parametrize("make_family", FAMILIES)
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_matrix_is_scipy_assembly_of_representation(self, make_family,
                                                        seed):
        family = make_family()
        sketch = sample_sketch(family, np.random.SeedSequence(seed))
        expected = _reference_csc(sketch.kernel)
        assert not sketch.is_materialized
        matrix = sketch.matrix
        assert sketch.is_materialized
        # Canonical CSC as built, not merely after a re-sort.
        assert matrix.format == "csc" and matrix.shape == expected.shape
        assert np.array_equal(matrix.indptr, expected.indptr)
        assert np.array_equal(matrix.indices, expected.indices)
        assert np.array_equal(matrix.data, expected.data)

    @pytest.mark.parametrize("make_family", FAMILIES)
    def test_kernel_statistics_match_matrix(self, make_family):
        family = make_family()
        sketch = sample_sketch(family, np.random.SeedSequence(17))
        # Read the statistics BEFORE materialization: they must come from
        # the kernel and still agree with the matrix-derived values.
        kernel_nnz = sketch.nnz
        kernel_s = sketch.column_sparsity
        assert not sketch.is_materialized
        explicit = Sketch(sketch.matrix)
        assert kernel_nnz == explicit.nnz
        assert kernel_s == explicit.column_sparsity
        assert sketch.shape == explicit.shape

    @pytest.mark.parametrize("make_family", FAMILIES)
    def test_apply_cost_matches_matrix_path(self, make_family):
        family = make_family()
        sketch = sample_sketch(family, np.random.SeedSequence(21))
        gen = np.random.default_rng(0)
        a = gen.standard_normal((family.n, 5))
        a[gen.random(a.shape) < 0.5] = 0.0
        cost = sketch.apply_cost(a)
        assert not sketch.is_materialized
        assert cost == Sketch(sketch.matrix).apply_cost(a)
        assert sketch_apply_cost(sketch.kernel, a) == \
            sketch_apply_cost(sketch.matrix, a)

    def test_repr_flags_deferred_matrix(self):
        sketch = sample_sketch(CountSketch(8, 16), np.random.SeedSequence(0))
        assert ", lazy" in repr(sketch)
        sketch.matrix
        assert ", lazy" not in repr(sketch)


class TestBasisImage:
    @pytest.mark.parametrize("make_family", FAMILIES)
    @pytest.mark.parametrize("reps", [1, 2, SCATTER_MAX_REPS,
                                      2 * SCATTER_MAX_REPS])
    @pytest.mark.parametrize("distinct_rows", [True, False])
    def test_structured_draw_bit_identity(self, make_family, reps,
                                          distinct_rows):
        family = make_family()
        d = max(1, 32 // reps)
        instance = DBeta(family.n, d, reps=reps, distinct_rows=distinct_rows)
        draw = instance.sample_draw(np.random.SeedSequence(4))
        sketch = sample_sketch(family, np.random.SeedSequence(8))
        got = sketch.basis_image(draw)
        assert not sketch.is_materialized
        assert np.array_equal(got, draw.sketched_basis(sketch.matrix))

    @pytest.mark.parametrize("make_family", FAMILIES)
    def test_unstructured_draw_bit_identity(self, make_family):
        family = make_family()
        instance = DBeta(family.n, 8, reps=2)
        draw = instance.sample_draw(np.random.SeedSequence(6))
        unstructured = HardDraw(draw.n, draw.d, draw.rows, draw.signs,
                                draw.reps, u=draw.u)
        sketch = sample_sketch(family, np.random.SeedSequence(2))
        got = sketch.basis_image(unstructured)
        expected = unstructured.sketched_basis(sketch.matrix)
        assert np.array_equal(got, expected)

    def test_combine_sketched_columns_refactor_matches(self):
        """``sketched_basis`` is gather + combine, exactly."""
        instance = DBeta(N, 8, reps=4)
        draw = instance.sample_draw(np.random.SeedSequence(1))
        pi = CountSketch(M, N).sample(np.random.SeedSequence(1)).matrix
        sub = np.asarray(pi.tocsc()[:, draw.rows].toarray(), dtype=float)
        assert np.array_equal(
            draw.sketched_basis(pi), draw.combine_sketched_columns(sub)
        )


class TestTrialEngineDeterminism:
    @pytest.mark.parametrize("make_family", FAMILIES)
    def test_failure_estimate_workers_invariant(self, make_family):
        """Kernel path: identical estimates at workers=1 and 4."""
        family = make_family()
        instance = DBeta(family.n, 4, reps=2)
        kwargs = dict(epsilon=0.5, trials=24)
        est1 = failure_estimate(
            family, instance, rng=np.random.SeedSequence(33),
            workers=1, **kwargs
        )
        est4 = failure_estimate(
            family, instance, rng=np.random.SeedSequence(33),
            workers=4, **kwargs
        )
        assert est1.successes == est4.successes
        assert est1.trials == est4.trials

    @pytest.mark.parametrize("make_family", FAMILIES)
    def test_trial_stream_matches_materialized_engine(self, make_family,
                                                      monkeypatch):
        """The kernel-backed trial stream equals the pre-kernel one.

        Sampling the explicit matrix with the kernel stripped, one trial
        at a time, reproduces the engine as it was before the matrix-free
        path existed.  The distortion sequence must be bit-identical, and
        within SVD tolerance for CountSketch and OSNAP, which the engine
        reduces from their hashed entries instead.
        """
        import repro.core.tester as tester

        family = make_family()
        instance = DBeta(family.n, 4, reps=SCATTER_MAX_REPS)
        new = distortion_samples(
            family, instance, trials=16, rng=np.random.SeedSequence(12)
        )
        hashed = isinstance(family, (CountSketch, OSNAP))

        def matrix_only(fam, rng=None):
            sketch = fam.sample(rng)
            return Sketch(sketch.matrix, family=fam)

        monkeypatch.setattr(tester, "sample_sketch", matrix_only)
        monkeypatch.setattr(family, "sample_trial_batch", lambda streams: None)
        old = distortion_samples(
            family, instance, trials=16, rng=np.random.SeedSequence(12)
        )
        if hashed:
            np.testing.assert_allclose(new, old, rtol=1e-9, atol=1e-12)
        else:
            assert np.array_equal(new, old)


class TestApplyValidation:
    @pytest.fixture
    def sketch(self):
        return CountSketch(8, 32).sample(np.random.SeedSequence(0))

    def test_scalar_input_rejected(self, sketch):
        with pytest.raises(ValueError, match="0-D"):
            sketch.apply(3.0)

    def test_three_dimensional_input_rejected(self, sketch):
        with pytest.raises(ValueError, match="3-D"):
            sketch.apply(np.zeros((32, 2, 2)))

    def test_vector_with_wrong_length(self, sketch):
        with pytest.raises(ValueError, match="vector with leading dimension"):
            sketch.apply(np.zeros(31))

    def test_matrix_with_wrong_leading_dimension(self, sketch):
        with pytest.raises(ValueError, match="matrix with leading dimension"):
            sketch.apply(np.zeros((16, 4)))

    def test_validation_leaves_matrix_unbuilt(self, sketch):
        with pytest.raises(ValueError, match="vector with leading dimension"):
            sketch.apply(np.zeros(31))
        assert not sketch.is_materialized

    def test_vector_apply_returns_vector(self, sketch):
        out = sketch.apply(np.ones(32))
        assert out.shape == (8,)


class TestKernelConstruction:
    def test_column_scatter_rejects_sparsity_above_m(self):
        with pytest.raises(ValueError, match="cannot exceed"):
            ColumnScatterKernel(0, 9, (8, 4))

    def test_column_scatter_rejects_block_sparsity_not_dividing_m(self):
        with pytest.raises(ValueError, match="s \\| m"):
            ColumnScatterKernel(0, 3, (8, 4), variant="block")

    def test_row_gather_rejects_out_of_range_cols(self):
        with pytest.raises(ValueError, match="column index"):
            RowGatherKernel(np.array([0, 9]), np.ones(2), (2, 4))

    def test_coo_rejects_non_canonical_order(self):
        with pytest.raises(ValueError, match="canonical"):
            CooScatterKernel(
                np.array([1, 0]), np.array([0, 0]), np.ones(2), (4, 4)
            )

    def test_coo_from_triplets_canonicalizes(self):
        kernel = CooScatterKernel.from_triplets(
            np.array([1, 0, 2]), np.array([1, 1, 0]), np.array([2.0, 3.0, 4.0]),
            (4, 4),
        )
        dense = kernel.materialize().toarray()
        expected = np.zeros((4, 4))
        expected[1, 1], expected[0, 1], expected[2, 0] = 2.0, 3.0, 4.0
        assert np.array_equal(dense, expected)

    def test_type_error_inside_sample_propagates(self):
        # sample_sketch does not retry a draw on TypeError: an error raised
        # inside a family's sampler surfaces, instead of the family being
        # re-sampled from an already-advanced stream.
        class Broken(CountSketch):
            def sample(self, rng=None):
                super().sample(rng)
                raise TypeError("broken sampler")

        with pytest.raises(TypeError, match="broken sampler"):
            sample_sketch(Broken(M, N), np.random.default_rng(0))


HASHED_FAMILIES = [
    pytest.param(lambda: CountSketch(M, N), id="countsketch"),
    pytest.param(lambda: OSNAP(M, N, s=4), id="osnap-uniform"),
    pytest.param(lambda: OSNAP(M, N, s=4, variant="block"), id="osnap-block"),
    pytest.param(lambda: OSNAP(12, N, s=7), id="osnap-dense"),
]


class TestSupportOnlyHashing:
    """CountSketch/OSNAP are a keyed column hash: any set of columns is
    evaluated on its own, and every path agrees on what ``Π`` is."""

    @pytest.mark.parametrize("make_family", HASHED_FAMILIES)
    def test_column_gather_is_materialized_slice(self, make_family):
        family = make_family()
        kernel = sample_sketch(family, np.random.SeedSequence(3)).kernel
        # Unsorted, repeated columns; gathered before the full evaluation.
        idx = np.array([N - 1, 5, 0, 5, 77, 130])
        gathered = kernel.column_gather(idx)
        expected = kernel.materialize()[:, idx].toarray()
        assert np.array_equal(gathered, expected)
        assert gathered.flags.f_contiguous == expected.flags.f_contiguous

    @pytest.mark.parametrize("make_family", HASHED_FAMILIES)
    def test_batched_trial_kernel_is_serial_sample(self, make_family):
        family = make_family()
        seeds = np.random.SeedSequence(11).spawn(5)
        batched = family.sample_trial_batch(seeds)
        idx = np.arange(0, N, 7)
        for index, seed in enumerate(seeds):
            serial = sample_sketch(family, seed).kernel
            got = batched.trial_kernel(index)
            assert got.key == serial.key
            assert np.array_equal(got.column_gather(idx),
                                  serial.column_gather(idx))

    def test_key_is_the_next_uint64_of_the_stream(self):
        for seed in range(10):
            gen = np.random.default_rng(seed)
            ref = np.random.default_rng(seed)
            assert draw_key(gen) == ref.integers(2**64, dtype=np.uint64)
            assert gen.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("make_family", HASHED_FAMILIES)
    def test_shared_generator_draws_distinct_sketches(self, make_family):
        family = make_family()
        gen = np.random.default_rng(0)
        first = family.sample(gen)
        second = family.sample(gen)
        assert first.kernel.key != second.kernel.key
        assert not _sparse_equal(first.matrix, second.matrix)

    @pytest.mark.parametrize("make_family,reps", [
        pytest.param(lambda n: CountSketch(256, n), 1, id="countsketch"),
        pytest.param(lambda n: OSNAP(256, n, s=4), 2, id="osnap-uniform"),
        pytest.param(lambda n: OSNAP(256, n, s=4, variant="block"), 2,
                     id="osnap-block"),
    ])
    def test_trials_independent_of_ambient_dimension(self, make_family,
                                                     reps):
        # A full (s, n) draw at n = 2^30 would need at least 8 GiB, and so
        # would the dense n×d subspace: completing proves that neither the
        # serial nor the batched trial touches more than the support.
        n = 2**30
        family = make_family(n)
        instance = DBeta(n, 8, reps=reps)
        serial = distortion_samples(family, instance, trials=6,
                                    rng=np.random.SeedSequence(4))
        batched = distortion_samples(family, instance, trials=6,
                                     rng=np.random.SeedSequence(4), batch=3)
        np.testing.assert_allclose(batched, serial, rtol=1e-9, atol=1e-12)


_U64 = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15


def _mix64(z):
    """splitmix64's finalizer on a Python int."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


def _lane(key, j, t):
    """``H(j, t) = mix(mix(key + (j + 1)·φ) + (t + 1)·φ)``."""
    column = _mix64((key + (j + 1) * _PHI) & _U64)
    return _mix64((column + (t + 1) * _PHI) & _U64)


def _reference_column(key, j, s, m, variant):
    """Column ``j``'s rows and signs, one lane at a time, as the
    :mod:`repro.sketch.hashing` docstring defines them."""
    signs = [1.0 - 2.0 * (_lane(key, j, 2 * i + 1) >> 63) for i in range(s)]
    if variant == "block":
        block = m // s
        rows = [b * block + (_lane(key, j, 2 * b) * block >> 64)
                for b in range(s)]
    elif s > 1 and 2 * s > m:
        rows = sorted(range(m), key=lambda r: _lane(key, j, 2 * r))[:s]
    else:
        rows, lane = [], 0
        while len(rows) < s:
            row = _lane(key, j, lane) * m >> 64
            if row not in rows:
                rows.append(row)
            lane += 2
    return rows, signs


class TestColumnHashDefinition:
    """``column_hash`` evaluates every lane it needs in one vectorized mix;
    each row and sign must still be the docstring's lane formula."""

    @pytest.mark.parametrize("s,m,variant", [
        pytest.param(1, 1024, "uniform", id="countsketch"),
        pytest.param(1, 1, "uniform", id="countsketch-m1"),
        # 2s <= m with many repeats, so columns re-evaluate extra lanes.
        pytest.param(4, 9, "uniform", id="uniform-sparse"),
        pytest.param(4, 96, "uniform", id="uniform-sparse-wide"),
        pytest.param(4, 6, "uniform", id="uniform-dense"),
        pytest.param(7, 7, "uniform", id="uniform-dense-full"),
        pytest.param(4, 96, "block", id="block"),
        pytest.param(4, 4, "block", id="block-unit"),
    ])
    def test_rows_and_signs_match_lane_formula(self, s, m, variant):
        from repro.sketch.hashing import column_hash

        keys = [0, 1, 0x0123456789ABCDEF, _U64, _U64 - _PHI + 1]
        cols = [0, 1, 2, 191, 10**6, 2**62 + 3]
        rows, signs = column_hash(np.array(keys, dtype=np.uint64)[:, None],
                                  np.array(cols), s, m, variant)
        assert rows.shape == signs.shape == (len(keys), len(cols), s)
        for a, key in enumerate(keys):
            for b, j in enumerate(cols):
                want_rows, want_signs = _reference_column(key, j, s, m,
                                                          variant)
                assert rows[a, b].tolist() == want_rows
                assert signs[a, b].tolist() == want_signs


class TestKernelProperties:
    """Hypothesis sweeps over shapes and seeds."""

    @given(
        m=st.integers(min_value=1, max_value=48),
        n=st.integers(min_value=1, max_value=96),
        s=st.integers(min_value=1, max_value=6),
        cols=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_osnap_kernel_equivalence(self, m, n, s, cols, seed):
        s = min(s, m)
        family = OSNAP(m, n, s=s)
        sketch = family.sample(np.random.SeedSequence(seed))
        a = np.random.default_rng(seed).standard_normal((n, cols))
        assert np.array_equal(
            sketch.kernel.apply(a), np.asarray(sketch.matrix @ a)
        )

    @given(
        m=st.integers(min_value=1, max_value=48),
        n=st.integers(min_value=1, max_value=96),
        q=st.floats(min_value=0.01, max_value=0.4),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_sparsejl_kernel_equivalence(self, m, n, q, seed):
        family = SparseJL(m, n, q=q)
        sketch = family.sample(np.random.SeedSequence(seed))
        a = np.random.default_rng(seed).standard_normal(n)
        assert np.array_equal(
            sketch.kernel.apply(a), np.asarray(sketch.matrix @ a)
        )

    @given(
        m=st.integers(min_value=1, max_value=48),
        reps=st.integers(min_value=1, max_value=12),
        d=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_countsketch_basis_image_equivalence(self, m, reps, d, seed):
        n = max(96, reps * d)
        family = CountSketch(m, n)
        instance = DBeta(n, d, reps=reps)
        draw = instance.sample_draw(np.random.SeedSequence(seed))
        sketch = sample_sketch(family, np.random.SeedSequence(seed + 1))
        got = sketch.basis_image(draw)
        assert np.array_equal(got, draw.sketched_basis(sketch.matrix))
