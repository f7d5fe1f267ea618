"""Cross-cutting property-based tests (hypothesis) on core invariants.

Each property here corresponds to a structural fact the paper's proofs
rely on; they are exercised over randomized parameter spaces rather than
fixed examples.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.collisions import birthday_collision_probability
from repro.core.heavy import average_heavy_count
from repro.core.lemmas import fact5_probabilities
from repro.core.witness import escape_probability, witness_vector
from repro.hardinstances.dbeta import DBeta
from repro.linalg.distortion import distortion_of_product, sketched_basis
from repro.linalg.gram import column_norms
from repro.linalg.subspace import is_isometry
from repro.sketch.countsketch import CountSketch
from repro.sketch.osnap import OSNAP

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSketchInvariants:
    @given(
        m=st.integers(min_value=2, max_value=64),
        n=st.integers(min_value=1, max_value=128),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, **COMMON)
    def test_countsketch_unit_columns(self, m, n, seed):
        """Every CountSketch column has exactly one ±1 entry."""
        sketch = CountSketch(m=m, n=n).sample(seed)
        assert np.allclose(column_norms(sketch.matrix), 1.0)
        counts = np.diff(sketch.matrix.tocsc().indptr)
        assert np.all(counts == 1)

    @given(
        m=st.integers(min_value=8, max_value=64),
        s=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, **COMMON)
    def test_osnap_exact_sparsity_and_unit_norm(self, m, s, seed):
        """OSNAP columns: exactly s nonzeros of magnitude 1/sqrt(s)."""
        if s > m:
            s = m
        sketch = OSNAP(m=m, n=32, s=s).sample(seed)
        counts = np.diff(sketch.matrix.tocsc().indptr)
        assert np.all(counts == s)
        assert np.allclose(column_norms(sketch.matrix), 1.0)

    @given(
        m=st.integers(min_value=4, max_value=32),
        s=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=30, **COMMON)
    def test_osnap_heavy_count_is_s(self, m, s, seed):
        """The average heavy count at threshold 1/sqrt(s) is exactly s."""
        if s > m:
            s = m
        sketch = OSNAP(m=m, n=24, s=s).sample(seed)
        avg = average_heavy_count(sketch.matrix, 1.0 / math.sqrt(s))
        assert avg == pytest.approx(float(s))


class TestHardInstanceInvariants:
    @given(
        d=st.integers(min_value=1, max_value=8),
        reps=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, **COMMON)
    def test_dbeta_is_isometry(self, d, reps, seed):
        """Conditioned on distinct rows, U from D_beta is an isometry."""
        inst = DBeta(n=max(64, 2 * reps * d), d=d, reps=reps)
        assert is_isometry(inst.sample(seed))

    @given(
        d=st.integers(min_value=1, max_value=6),
        reps=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=30, **COMMON)
    def test_fast_sketched_basis_matches_dense(self, d, reps, seed):
        """The structured ΠU fast path equals the dense product."""
        n = max(64, 2 * reps * d)
        inst = DBeta(n=n, d=d, reps=reps)
        draw = inst.sample_draw(seed)
        pi = np.random.default_rng(seed + 1).standard_normal((10, n))
        assert np.allclose(
            draw.sketched_basis(pi), sketched_basis(pi, draw.u)
        )

    @given(
        d=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=30, **COMMON)
    def test_identity_sketch_never_fails(self, d, seed):
        """The identity is a 0-distortion embedding for every draw."""
        inst = DBeta(n=64, d=d, reps=2)
        draw = inst.sample_draw(seed)
        product = draw.sketched_basis(np.eye(64))
        assert distortion_of_product(product) == pytest.approx(0.0,
                                                               abs=1e-9)


class TestAntiConcentrationInvariants:
    @given(
        x1=st.floats(min_value=0.1, max_value=5),
        frac2=st.floats(min_value=0, max_value=1),
        frac3=st.floats(min_value=0, max_value=1),
        sign2=st.sampled_from([-1.0, 1.0]),
        sign3=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=80, **COMMON)
    def test_fact5_with_ordered_magnitudes(self, x1, frac2, frac3, sign2,
                                           sign3):
        """Fact 5 for |x1| >= |x2| >= |x3| with arbitrary signs."""
        x2 = sign2 * x1 * frac2
        x3 = sign3 * abs(x2) * frac3
        upper, lower = fact5_probabilities(x1, x2, x3, a=x1)
        assert upper >= 0.25
        assert lower >= 0.25

    @given(
        lam=st.floats(min_value=2.5, max_value=10),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=25, **COMMON)
    def test_lemma4_escape_for_planted_pairs(self, lam, seed):
        """Escape probability >= 1/4 whenever |<c1, c2>| = lam*eps, lam
        comfortably above 2 (here the witness enumeration is exact)."""
        epsilon = 0.05
        if lam * epsilon >= 1.0:
            lam = 0.9 / epsilon
        n, d = 64, 3
        target = lam * epsilon
        alpha = math.sqrt((1 + target) / 2)
        gamma = math.sqrt((1 - target) / 2)
        pi = np.zeros((16, n))
        pi[0, 0], pi[1, 0] = alpha, gamma
        pi[0, 1], pi[1, 1] = alpha, -gamma
        pi[2, 2], pi[3, 3] = 1.0, 1.0
        rows = np.array([0, 1, 2])
        signs = np.random.default_rng(seed).choice((-1.0, 1.0), size=3)
        from repro.hardinstances.dbeta import HardDraw

        draw = HardDraw(n, d, rows, signs, 1)
        est = escape_probability(pi, draw, 0, 1, epsilon)
        assert est.point >= 0.25


class TestBirthdayInvariants:
    @given(
        q=st.integers(min_value=2, max_value=40),
        m=st.integers(min_value=2, max_value=2000),
    )
    @settings(max_examples=60, **COMMON)
    def test_complement_product_form(self, q, m):
        """1 - P equals the product form directly."""
        p = birthday_collision_probability(q, m)
        if q > m:
            assert p == 1.0
            return
        expected = 1.0
        for i in range(1, q):
            expected *= 1.0 - i / m
        assert 1.0 - p == pytest.approx(expected, rel=1e-9)

    @given(st.integers(min_value=2, max_value=30))
    @settings(max_examples=20, **COMMON)
    def test_witness_vector_always_unit(self, d):
        reps = 2
        u = witness_vector(0, d, reps=reps, d=d)
        assert np.linalg.norm(u) == pytest.approx(1.0)


class TestCompositionInvariants:
    @given(
        m1=st.integers(min_value=16, max_value=64),
        m2=st.integers(min_value=4, max_value=16),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=25, **COMMON)
    def test_two_stage_apply_equals_matrix(self, m1, m2, seed):
        """Composed apply equals the materialized matrix product."""
        from repro.sketch.compose import TwoStageSketch
        from repro.sketch.gaussian import GaussianSketch

        fam = TwoStageSketch(CountSketch(m=m1, n=48),
                             GaussianSketch(m=m2, n=m1))
        sketch = fam.sample(seed)
        x = np.random.default_rng(seed + 1).standard_normal((48, 2))
        assert np.allclose(sketch.apply(x), sketch.matrix @ x)

    @given(
        k=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=20, **COMMON)
    def test_stacked_norm_preserved_in_expectation(self, k, seed):
        """Stacked CountSketch columns keep exactly unit norm."""
        from repro.linalg.gram import column_norms as norms
        from repro.sketch.compose import StackedSketch

        fam = StackedSketch([CountSketch(m=16, n=32)] * k)
        sketch = fam.sample(seed)
        assert np.allclose(norms(sketch.matrix), 1.0)


class TestRankCertificateInvariants:
    @given(
        m=st.integers(min_value=4, max_value=64),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=30, **COMMON)
    def test_rank_drop_implies_interval_failure(self, m, seed):
        """The NN13b certificate is strictly weaker than the interval
        test: rank deficiency always implies an interval failure (the
        smallest singular value is 0 < 1 - eps)."""
        from repro.core.rank_certificate import rank_certificate

        inst = DBeta(n=128, d=4, reps=2)
        draw = inst.sample_draw(seed)
        pi = CountSketch(m=m, n=128).sample(seed + 1).matrix
        cert = rank_certificate(pi, draw, 0.1)
        if cert.rank_deficient:
            assert cert.interval_failure
