"""Tests for repro.hardinstances (DBeta, mixtures, identity instances)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardinstances.dbeta import DBeta
from repro.hardinstances.identity import PermutedIdentity, SpikedSubspace
from repro.hardinstances.mixtures import (
    MixtureInstance,
    section3_mixture,
    section5_level_count,
    section5_mixture,
)
from repro.linalg.subspace import is_isometry
from repro.utils.rng import KeyedStream

_U64 = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15


def _lane(word, t):
    """Lane ``t`` of ``word``: splitmix64's finalizer of ``word + (t+1)·φ``."""
    z = (word + (t + 1) * _PHI) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


def _reference_support(key, q, n, distinct_rows):
    """A ``D_β`` support's rows and signs, one lane at a time."""
    signs = [1.0 - 2.0 * (_lane(key, 2 * i + 1) >> 63) for i in range(q)]
    if not distinct_rows:
        rows = [_lane(key, 2 * r) * n >> 64 for r in range(q)]
    elif 2 * q > n:
        rows = sorted(range(n), key=lambda r: _lane(key, 2 * r))[:q]
    else:
        rows, lane = [], 0
        while len(rows) < q:
            row = _lane(key, lane) * n >> 64
            if row not in rows:
                rows.append(row)
            lane += 2
    return rows, signs


class TestDBetaConstruction:
    def test_beta_from_reps(self):
        inst = DBeta(n=100, d=5, reps=4)
        assert inst.beta == pytest.approx(0.25)

    def test_from_beta_rounds(self):
        inst = DBeta.from_beta(n=100, d=5, beta=0.26)
        assert inst.reps == 4

    def test_from_beta_one(self):
        assert DBeta.from_beta(n=50, d=5, beta=1.0).reps == 1

    def test_from_beta_invalid(self):
        with pytest.raises(ValueError):
            DBeta.from_beta(n=50, d=5, beta=0.0)

    def test_support_exceeding_n_raises(self):
        with pytest.raises(ValueError):
            DBeta(n=10, d=5, reps=3)

    def test_name_contains_reps(self):
        assert "reps=2" in DBeta(n=100, d=5, reps=2).name


class TestDBetaSampling:
    @pytest.mark.parametrize("reps", [1, 2, 4])
    def test_isometry_with_distinct_rows(self, reps):
        inst = DBeta(n=200, d=6, reps=reps)
        u = inst.sample(0)
        assert is_isometry(u)

    def test_entries_have_magnitude_sqrt_beta(self):
        inst = DBeta(n=200, d=4, reps=4)
        u = inst.sample(1)
        nonzero = np.abs(u[u != 0])
        assert np.allclose(nonzero, 0.5)

    def test_column_support_size(self):
        inst = DBeta(n=300, d=5, reps=3)
        u = inst.sample(2)
        assert np.all(np.count_nonzero(u, axis=0) == 3)

    def test_deterministic(self):
        inst = DBeta(n=100, d=4, reps=2)
        assert np.allclose(inst.sample(9), inst.sample(9))

    def test_draw_consistent_with_u(self):
        inst = DBeta(n=150, d=4, reps=2)
        draw = inst.sample_draw(3)
        rebuilt = draw.v_matrix() @ draw.w_matrix()
        assert np.allclose(rebuilt, draw.u)

    def test_draw_metadata(self):
        inst = DBeta(n=150, d=4, reps=2)
        draw = inst.sample_draw(4)
        assert draw.n == 150
        assert draw.d == 4
        assert draw.reps == 2
        assert draw.beta == pytest.approx(0.5)
        assert draw.rows.shape == (8,)
        assert set(np.unique(draw.signs)) <= {-1.0, 1.0}

    @pytest.mark.parametrize("n,reps,distinct_rows", [
        pytest.param(500, 3, True, id="distinct"),
        # 2q <= n with frequent repeats: extra lanes are evaluated.
        pytest.param(40, 3, True, id="distinct-repeats"),
        # 2q > n: the q smallest of n lane words.
        pytest.param(30, 3, True, id="distinct-dense"),
        pytest.param(18, 3, True, id="distinct-full"),
        pytest.param(40, 3, False, id="iid"),
    ])
    def test_support_matches_lane_formula(self, n, reps, distinct_rows):
        # A draw is keyed by the next uint64 of the stream; its rows and
        # signs are the lane formula of repro.utils.rng.keyed_sample.
        inst = DBeta(n=n, d=6, reps=reps, distinct_rows=distinct_rows)
        q = 6 * reps
        for seed in range(20):
            gen = np.random.default_rng(seed)
            draw = inst.sample_support(gen)
            ref = np.random.default_rng(seed)
            key = int(ref.integers(2**64, dtype=np.uint64))
            assert gen.bit_generator.state == ref.bit_generator.state
            rows, signs = _reference_support(key, q, n, distinct_rows)
            assert draw.rows.tolist() == rows
            assert draw.signs.tolist() == signs

    def test_supports_vectorized_equal_single_draws(self):
        inst = DBeta(n=300, d=5, reps=2)
        keys = np.arange(1, 40, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        for key, draw in zip(keys, inst.sample_supports(keys)):
            single = inst.sample_draw(KeyedStream(key))
            assert np.array_equal(draw.rows, single.rows)
            assert np.array_equal(draw.signs, single.signs)
            assert np.array_equal(draw.u, single.u)

    def test_iid_rows_mode_allows_duplicates(self):
        # With n tiny and many rows, duplicates become likely.
        inst = DBeta(n=4, d=2, reps=2, distinct_rows=False)
        saw_duplicate = False
        for seed in range(50):
            rows = inst.sample_draw(seed).rows
            if len(set(rows.tolist())) < len(rows):
                saw_duplicate = True
                break
        assert saw_duplicate

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_sketched_basis_fast_path(self, seed):
        inst = DBeta(n=120, d=4, reps=3)
        draw = inst.sample_draw(seed)
        rng = np.random.default_rng(seed + 1)
        pi = rng.standard_normal((10, 120))
        assert np.allclose(draw.sketched_basis(pi), pi @ draw.u)

    def test_sketched_basis_sparse_pi(self):
        inst = DBeta(n=80, d=3, reps=2)
        draw = inst.sample_draw(0)
        pi = sp.random(12, 80, density=0.2, random_state=0, format="csc")
        assert np.allclose(
            draw.sketched_basis(pi), pi.toarray() @ draw.u
        )


class TestMixture:
    def test_weights_default_uniform(self):
        comps = [DBeta(n=100, d=4, reps=1), DBeta(n=100, d=4, reps=2)]
        mix = MixtureInstance(comps)
        assert np.allclose(mix.weights, [0.5, 0.5])

    def test_mismatched_components_raise(self):
        with pytest.raises(ValueError):
            MixtureInstance([
                DBeta(n=100, d=4, reps=1),
                DBeta(n=100, d=5, reps=1),
            ])

    def test_bad_weights_raise(self):
        comps = [DBeta(n=100, d=4, reps=1), DBeta(n=100, d=4, reps=2)]
        with pytest.raises(ValueError):
            MixtureInstance(comps, weights=[0.9, 0.2])

    def test_empty_components_raise(self):
        with pytest.raises(ValueError):
            MixtureInstance([])

    def test_sampling_covers_components(self):
        comps = [DBeta(n=100, d=4, reps=1), DBeta(n=100, d=4, reps=2)]
        mix = MixtureInstance(comps)
        seen = {mix.sample_draw(seed).reps for seed in range(40)}
        assert seen == {1, 2}

    def test_degenerate_weights(self):
        comps = [DBeta(n=100, d=4, reps=1), DBeta(n=100, d=4, reps=2)]
        mix = MixtureInstance(comps, weights=[1.0, 0.0])
        assert all(mix.sample_draw(s).reps == 1 for s in range(10))


class TestSection3Mixture:
    def test_components(self):
        mix = section3_mixture(n=4096, d=8, epsilon=1 / 16)
        reps = sorted(c.reps for c in mix.components)
        assert reps == [1, 2]

    def test_epsilon_cap(self):
        with pytest.raises(ValueError):
            section3_mixture(n=4096, d=8, epsilon=0.2)


class TestSection5Mixture:
    def test_level_count(self):
        assert section5_level_count(1 / 32) == 2
        assert section5_level_count(1 / 64) == 3
        assert section5_level_count(1 / 8) == 1  # clamped

    def test_components_are_dyadic(self):
        mix = section5_mixture(n=8192, d=4, epsilon=1 / 64)
        reps = sorted(c.reps for c in mix.components)
        assert reps == [1, 2, 4, 8]

    def test_weights(self):
        mix = section5_mixture(n=8192, d=4, epsilon=1 / 64)
        w = mix.weights
        assert w[0] == pytest.approx(0.5)
        assert np.allclose(w[1:], 0.5 / 3)


class TestPermutedIdentity:
    def test_is_d1(self):
        inst = PermutedIdentity(n=100, d=6)
        assert inst.reps == 1
        assert is_isometry(inst.sample(0))

    def test_entries_are_pm1(self):
        u = PermutedIdentity(n=100, d=6).sample(1)
        nonzero = np.abs(u[u != 0])
        assert np.allclose(nonzero, 1.0)


class TestSpikedSubspace:
    def test_alpha_one_is_coherent(self):
        inst = SpikedSubspace(n=50, d=4, alpha=1.0)
        u = inst.sample(0)
        assert np.all(np.count_nonzero(u, axis=0) == 1)

    def test_alpha_zero_is_dense(self):
        inst = SpikedSubspace(n=50, d=4, alpha=0.0)
        u = inst.sample(1)
        assert is_isometry(u)
        assert np.count_nonzero(u) > 4 * 10

    def test_intermediate_alpha_isometry(self):
        u = SpikedSubspace(n=60, d=5, alpha=0.5).sample(2)
        assert is_isometry(u)

    def test_unstructured_flag(self):
        draw = SpikedSubspace(n=50, d=4, alpha=0.5).sample_draw(0)
        assert not draw.structured
        draw2 = SpikedSubspace(n=50, d=4, alpha=1.0).sample_draw(0)
        assert draw2.structured

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            SpikedSubspace(n=50, d=4, alpha=1.5)
