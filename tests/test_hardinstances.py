"""Tests for repro.hardinstances (DBeta, mixtures, identity instances)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tester import distortion_samples
from repro.experiments.e06_lemma4_witness import planted_pi_and_draw
from repro.hardinstances import dbeta
from repro.hardinstances.dbeta import DBeta, HardDraw
from repro.hardinstances.identity import PermutedIdentity, SpikedSubspace
from repro.hardinstances.mixtures import (
    MixtureInstance,
    section3_mixture,
    section5_level_count,
    section5_mixture,
)
from repro.linalg.subspace import is_isometry
from repro.sketch import (
    OSNAP,
    SRHT,
    CountSketch,
    GaussianSketch,
    RowSampling,
    SparseJL,
)
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


def _instances():
    n, d = 64, 4
    for reps in (1, 2, 8):
        for distinct_rows in (True, False):
            yield pytest.param(
                DBeta(n, d, reps=reps, distinct_rows=distinct_rows),
                id=f"dbeta-reps{reps}-{'distinct' if distinct_rows else 'iid'}",
            )
    yield pytest.param(section3_mixture(n, d, 0.05), id="section3")
    yield pytest.param(section5_mixture(n, d, 0.01), id="section5")
    yield pytest.param(PermutedIdentity(n, d), id="permuted-identity")
    for alpha in (0.0, 0.5, 1.0):
        yield pytest.param(SpikedSubspace(n, d, alpha=alpha),
                           id=f"spiked-{alpha:g}")


class TestOneDrawType:
    """A draw is its support; a structured draw builds ``u`` on first use."""

    @pytest.mark.parametrize("instance", list(_instances()))
    def test_draw_and_support_agree_bit_for_bit(self, instance):
        for seed in range(4):
            draw = instance.sample_draw(seed)
            support = instance.sample_support(seed)
            assert type(draw) is type(support) is HardDraw
            assert np.array_equal(draw.rows, support.rows)
            assert np.array_equal(draw.signs, support.signs)
            assert draw.structured == support.structured
            assert draw.u.tobytes() == support.u.tobytes()
            assert draw.u.shape == (instance.n, instance.d)
            if draw.structured:
                assert np.array_equal(draw.u,
                                      draw.v_matrix() @ draw.w_matrix())

    def test_u_is_assembled_once_on_first_use(self, monkeypatch):
        calls = []
        original = dbeta.assemble_basis
        monkeypatch.setattr(dbeta, "assemble_basis",
                            lambda *args: calls.append(args) or
                            original(*args))
        draw = DBeta(64, 4, reps=2).sample_draw(0)
        assert calls == []
        assert draw.u is draw.u
        assert len(calls) == 1

    def test_explicit_u_makes_an_unstructured_draw(self):
        lazy = DBeta(64, 4, reps=2).sample_draw(1)
        given_u = np.ones((64, 4))
        draw = HardDraw(64, 4, lazy.rows, lazy.signs, 2, u=given_u)
        assert lazy.structured and not draw.structured
        assert draw.u is given_u

    @pytest.mark.parametrize("seed", range(4))
    def test_coherent_spike_is_the_eager_spike(self, seed):
        # The spike SpikedSubspace built eagerly at alpha = 1, from the
        # same stream: rows, then signs, and nothing else.
        n, d = 50, 4
        gen = np.random.default_rng(seed)
        rows = gen.choice(n, size=d, replace=False)
        signs = gen.choice((-1.0, 1.0), size=d)
        spike = np.zeros((n, d))
        spike[rows, np.arange(d)] = signs
        draw = SpikedSubspace(n, d, alpha=1.0).sample_draw(seed)
        assert draw.structured
        assert draw.u.tobytes() == spike.tobytes()

    @pytest.mark.parametrize("case",
                             ["distinct", "same_block", "distinct_noisy"])
    def test_planted_draws_carry_their_own_basis(self, case):
        _, draw, _, _ = planted_pi_and_draw(case, 3.0, 0.05, 256, 6,
                                            np.random.default_rng(0))
        assert draw.structured
        assert np.array_equal(draw.u, draw.v_matrix() @ draw.w_matrix())
        assert is_isometry(draw.u)

    @pytest.mark.parametrize("family", [
        pytest.param(CountSketch(64, 256), id="countsketch"),
        pytest.param(OSNAP(64, 256, s=4), id="osnap"),
        pytest.param(GaussianSketch(32, 256), id="gaussian"),
        pytest.param(SRHT(32, 256), id="srht"),
        pytest.param(SparseJL(64, 256), id="sparse-jl"),
        pytest.param(RowSampling(64, 256), id="row-sampling"),
    ])
    def test_probes_never_build_u(self, family, monkeypatch):
        calls = []
        original = dbeta.assemble_basis
        monkeypatch.setattr(dbeta, "assemble_basis",
                            lambda *args: calls.append(args) or
                            original(*args))
        values = distortion_samples(family, DBeta(256, 4, reps=2), 6, rng=2)
        assert values.shape == (6,)
        assert calls == []
