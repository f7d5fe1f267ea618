"""Regression suite for the batched trial engine.

The contracts under test (see :mod:`repro.sketch.batched` and the
``batch`` knob in :mod:`repro.core.tester`):

* ``batch`` is a chunk size only: ``None``, ``1`` and any larger value
  give the same values **bit for bit**, for every family, with a fresh
  or a fixed sketch, and share one cache entry;
* CountSketch and OSNAP reduce every chunk from its hashed entries: their
  values agree with the dense per-trial reduction
  (``distortion_of_product(sketch.basis_image(draw))`` on each trial's
  own sketch, computed here independently of the engine) to tight
  relative tolerance; every other family runs that dense reduction, so
  its values equal the reference bit for bit;
* per-trial reconstruction (``trial_kernel``, compacted products) matches
  the serial samplers exactly, because the batched samplers consume the
  same per-trial sub-streams;
* ``minimal_m`` records *effective* dimensions for block-structured
  families — each probed at most once, never past ``m_max``.
"""

import tracemalloc

import numpy as np
import pytest

import repro.core.tester as tester
from repro.core.tester import (
    distortion_samples,
    failure_estimate,
    minimal_m,
)
from repro.experiments.e03_column_norms import ScaledCountSketch
from repro.hardinstances.dbeta import DBeta, HardDraw
from repro.hardinstances.mixtures import MixtureInstance
from repro.linalg.distortion import (
    _GRAM_BLOCK_BYTES,
    SparseProducts,
    distortion_of_product,
)
from repro.sketch import (
    OSNAP,
    SRHT,
    CountSketch,
    GaussianSketch,
    LeverageSampling,
    RowSampling,
    SparseJL,
    StackedSketch,
    TwoStageSketch,
    sample_sketch,
)
from repro.sketch.base import SketchFamily
from repro.sketch.batched import BatchedColumnScatter
from repro.sketch.hadamard_block import HadamardBlockSketch
from repro.observe.counters import counters
from repro.utils.rng import (
    KeyedStream,
    as_generator,
    draw_key,
    spawn_seeds,
    trial_keys,
)
from repro.utils.stats import BernoulliEstimate

pytestmark = pytest.mark.kernels

N = 192
M = 96
TRIALS = 12
SEED = 20220620


def _leverage_family(m=M, n=N):
    gen = np.random.default_rng(2024)
    p = gen.random(n)
    p /= p.sum()
    return LeverageSampling(m, n, probabilities=p)


#: (family factory, instance reps) pairs: both column-scatter layouts
#: (the only vectorized samplers), and families that run the per-trial
#: path under batch > 1 — row gathers (row and leverage sampling),
#: sparse-JL's triplet kernel and the kernel-less Gaussian.
CASES = [
    pytest.param(lambda: CountSketch(M, N), 1, id="countsketch"),
    pytest.param(lambda: OSNAP(M, N, s=4), 2, id="osnap-uniform"),
    pytest.param(lambda: OSNAP(M, N, s=4, variant="block"), 2,
                 id="osnap-block"),
    pytest.param(lambda: RowSampling(M, N), 1, id="rowsampling"),
    pytest.param(_leverage_family, 2, id="leverage"),
    pytest.param(lambda: SparseJL(M, N, q=0.05), 1, id="sparsejl"),
    pytest.param(lambda: GaussianSketch(48, N), 1, id="gaussian"),
]


def _probe_key(seed):
    """The probe key a cache-off probe at ``SeedSequence(seed)`` draws:
    one spawned child, then one 64-bit word."""
    return draw_key(spawn_seeds(as_generator(np.random.SeedSequence(seed)),
                                1)[0])


def _dense_reference(family, instance, trials=TRIALS, seed=SEED,
                     fixed=False):
    """Each trial's value from the dense per-trial reduction on its own
    sketch (the probe's one sketch when ``fixed``), on the streams the
    engine hands trial ``t``: lanes of ``(probe key, t)``."""
    key = _probe_key(seed)
    keys = trial_keys(key, 0, trials)
    if fixed:
        keys[:, 0] = trial_keys(key, -1, 0)[0, 0]
    return np.array([
        distortion_of_product(
            family.sample(KeyedStream(sketch_key)).basis_image(
                instance.sample_support(KeyedStream(instance_key))
            )
        )
        for sketch_key, instance_key in keys
    ])


def _serial_and_batched(family, instance, batch, trials=TRIALS, seed=SEED):
    serial = distortion_samples(
        family, instance, trials=trials, rng=np.random.SeedSequence(seed)
    )
    batched = distortion_samples(
        family, instance, trials=trials, rng=np.random.SeedSequence(seed),
        batch=batch,
    )
    return serial, batched


def _reference_and_batched(family, instance, batch, trials=TRIALS,
                           seed=SEED):
    """The dense per-trial reference and the engine's values at ``batch``."""
    return (_dense_reference(family, instance, trials, seed),
            distortion_samples(family, instance, trials=trials,
                               rng=np.random.SeedSequence(seed),
                               batch=batch))


class TestBatchDelegation:
    """Every ``batch`` gives the same bits; the hashed families agree with
    the dense per-trial reduction to tolerance."""

    @pytest.mark.parametrize("make_family,reps", CASES)
    def test_batch_one_is_bit_identical(self, make_family, reps):
        instance = DBeta(N, 6, reps=reps)
        serial, batched = _serial_and_batched(make_family(), instance, 1)
        assert np.array_equal(serial, batched)

    @pytest.mark.parametrize("make_family,reps", CASES)
    def test_batch_matches_serial_to_tolerance(self, make_family, reps):
        instance = DBeta(N, 6, reps=reps)
        reference, batched = _reference_and_batched(make_family(), instance,
                                                    4)
        np.testing.assert_allclose(batched, reference, rtol=1e-9,
                                   atol=1e-12)

    def test_kernel_less_fallback_is_bit_identical(self):
        # Gaussian sketches carry no kernel, so even batch > 1 must fall
        # back to the exact serial arithmetic inside the chunk.
        instance = DBeta(N, 6, reps=1)
        serial, batched = _serial_and_batched(
            GaussianSketch(48, N), instance, 4
        )
        assert np.array_equal(serial, batched)

    def test_failure_counts_agree(self):
        family = OSNAP(M, N, s=4)
        instance = DBeta(N, 6, reps=2)
        reference = _dense_reference(family, instance, trials=24)
        batched = failure_estimate(
            family, instance, epsilon=0.6, trials=24,
            rng=np.random.SeedSequence(SEED), batch=8,
        )
        assert (int(np.sum(reference > 0.6)), 24) \
            == (batched.successes, batched.trials)

    def test_mixture_mixed_reps_groups(self):
        mixture = MixtureInstance(
            [DBeta(N, 6, reps=1), DBeta(N, 6, reps=2)], weights=[0.5, 0.5]
        )
        reference, batched = _reference_and_batched(
            OSNAP(M, N, s=4), mixture, 4, trials=TRIALS
        )
        np.testing.assert_allclose(batched, reference, rtol=1e-9,
                                   atol=1e-12)

    def test_trailing_partial_chunk(self):
        # trials not divisible by batch: the last chunk is smaller and
        # must still line up trial for trial.
        instance = DBeta(N, 6, reps=2)
        reference, batched = _reference_and_batched(
            OSNAP(M, N, s=4), instance, 5, trials=13
        )
        np.testing.assert_allclose(batched, reference, rtol=1e-9,
                                   atol=1e-12)


def _sketch_family_classes():
    """Every :class:`SketchFamily` subclass the package defines."""
    import repro.experiments  # noqa: F401 - experiments define families too

    found, stack = set(), [SketchFamily]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                stack.append(sub)
    return {cls for cls in found if cls.__module__.startswith("repro.")}


#: One or more instances of every family.  The vectorized samplers
#: (CountSketch, OSNAP) own their accumulation order; every other family
#: must run the per-trial path under batch > 1.
FAMILY_FACTORIES = {
    CountSketch: [lambda: CountSketch(M, N)],
    OSNAP: [lambda: OSNAP(M, N, s=4),
            lambda: OSNAP(M, N, s=4, variant="block")],
    ScaledCountSketch: [lambda: ScaledCountSketch(M, N, c=0.5)],
    GaussianSketch: [lambda: GaussianSketch(48, N)],
    HadamardBlockSketch: [lambda: HadamardBlockSketch(M, N, block_order=4)],
    LeverageSampling: [_leverage_family],
    RowSampling: [lambda: RowSampling(M, N)],
    # Both regimes: a triplet kernel below q = 0.5, a dense matrix above.
    SparseJL: [lambda: SparseJL(M, N, q=0.05),
               lambda: SparseJL(M, N, q=0.6)],
    SRHT: [lambda: SRHT(64, 256)],
    TwoStageSketch: [lambda: TwoStageSketch(CountSketch(M, N),
                                            GaussianSketch(48, M))],
    StackedSketch: [lambda: StackedSketch([CountSketch(48, N),
                                           OSNAP(48, N, s=2)])],
}
VECTORIZED = {CountSketch, OSNAP}


class TestBatchContractConformance:
    """Only the vectorized samplers run the entries engine; every other
    family runs the dense per-trial reduction, bit for bit.  No family's
    values depend on ``batch``."""

    def test_every_family_has_a_factory(self):
        missing = _sketch_family_classes() - set(FAMILY_FACTORIES)
        assert not missing, sorted(cls.__qualname__ for cls in missing)

    @pytest.mark.parametrize("cls,make_family", [
        pytest.param(cls, make, id=f"{cls.__name__}-{i}")
        for cls, makes in FAMILY_FACTORIES.items()
        for i, make in enumerate(makes)
    ])
    def test_batch_honours_the_family_contract(self, cls, make_family):
        family = make_family()
        assert type(family) is cls
        instance = DBeta(family.n, 6, reps=2)
        reference, batched = _reference_and_batched(family, instance, 4)
        if cls in VECTORIZED:
            np.testing.assert_allclose(batched, reference, rtol=1e-9,
                                       atol=1e-12)
        else:
            assert np.array_equal(reference, batched)
        for batch in (None, 1, 5):
            assert np.array_equal(
                batched, _serial_and_batched(family, instance, batch)[1]
            )


class TestBatchDeterminism:
    """batch > 1 results are canonical: execution layout never matters."""

    def test_serial_vs_parallel_bit_identical(self):
        family = OSNAP(M, N, s=4)
        instance = DBeta(N, 6, reps=2)
        one = distortion_samples(
            family, instance, trials=16, rng=np.random.SeedSequence(3),
            batch=4, workers=1,
        )
        two = distortion_samples(
            family, instance, trials=16, rng=np.random.SeedSequence(3),
            batch=4, workers=2,
        )
        assert np.array_equal(one, two)

    def test_cold_warm_off_cache_bit_identical(self, tmp_path):
        from repro.cache.probes import ProbeCache

        family = CountSketch(M, N)
        instance = DBeta(N, 6, reps=1)

        def run(cache=None):
            return distortion_samples(
                family, instance, trials=16,
                rng=np.random.SeedSequence(5), batch=4, cache=cache,
            )

        off = run()
        cold = run(ProbeCache(tmp_path / "cache"))
        warm = run(ProbeCache(tmp_path / "cache"))
        assert np.array_equal(off, cold)
        assert np.array_equal(cold, warm)

    def test_batch_size_stays_out_of_the_cache_key(self, tmp_path):
        # The chunk size changes no value, so a record stored at one
        # batch is a hit at every other.
        from repro.cache.probes import ProbeCache

        family = OSNAP(M, N, s=4)
        instance = DBeta(N, 6, reps=2)
        cache = ProbeCache(tmp_path / "cache")
        values = []
        for batch in (None, 2, 4):
            before = counters().snapshot()
            values.append(distortion_samples(
                family, instance, trials=8,
                rng=np.random.SeedSequence(5), batch=batch, cache=cache,
            ))
            delta = counters().diff(before)
            assert delta.get("cache_hit", 0) == (batch is not None)
        from repro.cache.store import JsonlStore

        records = [r for r in JsonlStore(cache.path).load()
                   if r.get("kind") == "distortion_samples"]
        assert len(records) == 1
        assert all(np.array_equal(values[0], other) for other in values)

    def test_batch_one_aliases_serial_cache_entry(self, tmp_path):
        # batch=1 delegates to the serial path, so it shares the serial
        # cache entries rather than recomputing.
        from repro.cache.probes import ProbeCache

        family = CountSketch(M, N)
        instance = DBeta(N, 6, reps=1)
        cache = ProbeCache(tmp_path / "cache")
        distortion_samples(family, instance, trials=8,
                           rng=np.random.SeedSequence(5), cache=cache)
        distortion_samples(family, instance, trials=8,
                           rng=np.random.SeedSequence(5), batch=1,
                           cache=cache)
        from repro.cache.store import JsonlStore

        assert len(JsonlStore(cache.path).load()) == 1


class TestPerTrialReconstruction:
    """The batched samplers replay the serial per-trial sub-streams."""

    SCATTER_CASES = [
        pytest.param(lambda: CountSketch(M, N), id="countsketch"),
        pytest.param(lambda: OSNAP(M, N, s=4), id="osnap-uniform"),
        pytest.param(lambda: OSNAP(M, N, s=4, variant="block"),
                     id="osnap-block"),
    ]

    @pytest.mark.parametrize("make_family", SCATTER_CASES)
    def test_trial_kernels_match_serial_sampler(self, make_family):
        family = make_family()
        seeds = np.random.SeedSequence(SEED).spawn(6)
        batched = family.sample_trial_batch(seeds)
        for index, seed in enumerate(seeds):
            serial = sample_sketch(family, seed).kernel
            got = batched.trial_kernel(index).representation()
            want = serial.representation()
            assert np.array_equal(got["rows"], want["rows"])
            assert np.array_equal(got["values"], want["values"])

    @pytest.mark.parametrize("make_family", SCATTER_CASES)
    def test_compacted_products_match_serial_scatter_bitwise(
            self, make_family):
        # Every chunk comes back as its hashed entries, which sum the
        # support columns one output column hashes to one row in the
        # serial kernel's per-column order: placed into a zero matrix
        # they must give the serial product bitwise — not merely close —
        # every position at most once.
        family = make_family()
        instance = DBeta(N, 6, reps=2)
        seeds = np.random.SeedSequence(SEED).spawn(4)
        pairs = [seed.spawn(2) for seed in seeds]
        batched = family.sample_trial_batch([p[0] for p in pairs])
        draws = [instance.sample_support(p[1]) for p in pairs]
        products = batched.sketched_bases(draws)
        assert isinstance(products, SparseProducts)
        for index, draw in enumerate(draws):
            serial = batched.trial_kernel(index).sketched_basis(draw)
            span = slice(products.starts[index], products.starts[index + 1])
            rows = products.rows[span].astype(np.int64)
            cols = products.cols[span]
            assert np.all(np.diff(rows * 6 + cols) > 0)
            product = np.zeros_like(serial)
            product[rows, cols] = products.values[span]
            assert np.array_equal(product, serial)


class TestTallChunks:
    """Chunks whose products touch more than 2d rows (the OSNAP shape),
    and the reference grid's chunks of both families, reduced from their
    hashed entries."""

    def test_singular_gram_falls_back_to_the_trials_product(self):
        # Output column 1 repeats output column 0's support columns and
        # signs, so each ΠU has two equal columns and an exactly singular
        # Gram matrix.  Its rounded λ_min is ±ε·λ_max: through sqrt that
        # is a σ_min near 1e-8, so each trial must be recomputed from its
        # own dense product, and a negative λ_min must never reach sqrt.
        n, d, reps = 256, 6, 2
        family = OSNAP(64, n, s=4)
        instance = DBeta(n, d, reps=reps)
        seeds = np.random.SeedSequence(SEED).spawn(4)
        pairs = [seed.spawn(2) for seed in seeds]
        batched = family.sample_trial_batch([p[0] for p in pairs])
        draws = []
        for _, seed in pairs:
            draw = instance.sample_support(seed)
            rows, signs = draw.rows.copy(), draw.signs.copy()
            rows[reps:2 * reps] = rows[:reps]
            signs[reps:2 * reps] = signs[:reps]
            draws.append(HardDraw(n, d, rows, signs, reps))
        # Each trial touches more than 2d rows: the chunk is tall.
        products = batched.sketched_bases(draws)
        assert all(
            np.unique(products.rows[start:stop]).size > 2 * d
            for start, stop in zip(products.starts[:-1],
                                   products.starts[1:])
        )
        with np.errstate(invalid="raise"):
            values = batched.distortions(draws)
        for index, draw in enumerate(draws):
            product = batched.trial_kernel(index).sketched_basis(draw)
            np.testing.assert_allclose(
                values[index], distortion_of_product(product), rtol=1e-9
            )

    def test_reference_chunk_stays_small(self):
        # One OSNAP chunk of the reference grid (s=4 on D_{1/2}).  Its
        # entries and pair lists take one 8-byte word per hashed entry
        # each, and each sub-block one (b, d, d) Gram stack; a dozen entry
        # arrays and two Gram stacks bound the chunk, a quarter of the
        # dense (B, min(m, q·s), d) block a scatter would fill.
        entries = 32 * 2 * 64 * 4
        peak = _reference_chunk_peak(OSNAP(1024, 16384, s=4), reps=2)
        assert peak < 12 * 8 * entries + 2 * _GRAM_BLOCK_BYTES

    def test_reference_countsketch_chunk_stays_small(self):
        # One CountSketch chunk of the reference grid (D_1), near-square:
        # sixteen words per hashed entry bound it, a quarter of the dense
        # (B, d, d) block a scatter would fill.
        entries = 32 * 64
        peak = _reference_chunk_peak(CountSketch(1024, 16384), reps=1)
        assert peak < 16 * 8 * entries


def _reference_chunk_peak(family, reps):
    """The ``tracemalloc`` peak of ``distortions`` on one 32-trial chunk
    of the reference grid (n=16384, d=64, m=1024), after a warm-up call."""
    keys = trial_keys(np.uint64(SEED), 0, 32)
    batched = family.sample_trial_batch(
        [KeyedStream(key) for key in keys[:, 0]]
    )
    draws = DBeta(family.n, 64, reps=reps).sample_supports(keys[:, 1])
    batched.distortions(draws)
    tracemalloc.start()
    try:
        batched.distortions(draws)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFixedSketch:
    """A fixed hashed sketch runs in chunks as one key repeated."""

    @pytest.mark.parametrize("make_family,reps", CASES[:3])
    def test_fixed_sketch_is_one_key_repeated(self, make_family, reps):
        family = make_family()
        instance = DBeta(N, 6, reps=reps)
        key = _probe_key(SEED)
        fixed = family.sample_trial_batch(
            [KeyedStream(trial_keys(key, -1, 0)[0, 0])]
        )
        values = tester._trial_chunk(family, instance, fixed, key,
                                     range(TRIALS))
        np.testing.assert_allclose(
            values, _dense_reference(family, instance, fixed=True),
            rtol=1e-9, atol=1e-12,
        )

    @pytest.mark.parametrize("make_family", [
        pytest.param(lambda: CountSketch(M, N), id="countsketch"),
        pytest.param(lambda: GaussianSketch(48, N), id="gaussian"),
    ])
    def test_fixed_sketch_counts_one_sample_at_any_batch(self,
                                                         make_family):
        estimates = set()
        for batch in (None, 1, 4):
            before = counters().snapshot()
            est = failure_estimate(
                make_family(), DBeta(N, 6, reps=1), epsilon=0.1,
                trials=10, rng=np.random.SeedSequence(0),
                fresh_sketch=False, batch=batch,
            )
            assert counters().diff(before)["sketch_samples"] == 1
            estimates.add((est.successes, est.trials))
        assert len(estimates) == 1


class TestBatchedKernelValidation:
    def test_repeat_needs_a_batch_of_one(self):
        batched = CountSketch(M, N).sample_trial_batch(
            np.random.SeedSequence(0).spawn(2)
        )
        with pytest.raises(ValueError, match="batch of one"):
            batched.repeated(3)

    def test_batch_must_be_positive(self):
        with pytest.raises(ValueError):
            distortion_samples(
                CountSketch(M, N), DBeta(N, 6, reps=1), trials=4,
                rng=np.random.SeedSequence(0), batch=0,
            )

    def test_column_scatter_rejects_non_flat_keys(self):
        with pytest.raises(ValueError, match="1-D"):
            BatchedColumnScatter(np.zeros((2, 2), dtype=np.uint64), 1,
                                 (4, 8))

    def test_column_scatter_rejects_sparsity_above_m(self):
        with pytest.raises(ValueError, match="cannot exceed"):
            BatchedColumnScatter([0, 1], 5, (4, 8))

    def test_distortions_validates_draw_count(self):
        family = CountSketch(M, N)
        batched = family.sample_trial_batch(
            np.random.SeedSequence(0).spawn(3)
        )
        instance = DBeta(N, 6, reps=1)
        draws = [
            instance.sample_support(seed)
            for seed in np.random.SeedSequence(1).spawn(2)
        ]
        with pytest.raises(ValueError, match="expected 3 draws"):
            batched.distortions(draws)


def _recording_stub(threshold, trials=20):
    """Deterministic ``failure_estimate`` stand-in recording effective
    dimensions; accepts the ``batch``/``shard`` forwarded by ``minimal_m``."""
    seen = []

    def fake(family, instance, epsilon, probe_trials, rng=None,
             fresh_sketch=True, workers=1, cache=None, **kwargs):
        seen.append(family.m)
        failures = 0 if family.m >= threshold else trials
        return BernoulliEstimate(failures, trials)

    return fake, seen


class TestMinimalMEffectiveDimension:
    """Block-structured families: ``with_m`` rounds up, and the search
    must report what it actually probed."""

    inst = DBeta(n=64, d=2, reps=1)

    @pytest.mark.parametrize("family,step", [
        pytest.param(OSNAP(m=4, n=64, s=4, variant="block"), 4,
                     id="osnap-block"),
        pytest.param(HadamardBlockSketch(m=4, n=64, block_order=4), 4,
                     id="hadamard-block"),
    ])
    def test_effective_m_recorded_once_and_capped(self, family, step,
                                                  monkeypatch):
        stub, seen = _recording_stub(threshold=40)
        monkeypatch.setattr("repro.core.tester.failure_estimate", stub)
        result = minimal_m(family, self.inst, 0.1, 0.1, trials=20,
                           rng=np.random.SeedSequence(0),
                           m_min=1, m_max=50)
        probed = [m for m, _ in result.evaluations]
        assert probed == seen  # evaluations record what was executed
        assert all(m % step == 0 for m in probed)
        assert all(m <= 50 for m in probed)
        assert len(set(probed)) == len(probed)  # aliased m never re-probed
        assert result.found
        assert result.m_star in probed
        assert result.m_star == family.with_m(result.m_star).m

    def test_m_star_is_effective_dimension(self, monkeypatch):
        # Requested bracket values that are not multiples of the block
        # size must surface as their rounded (actually probed) dimension.
        family = OSNAP(m=4, n=64, s=4, variant="block")
        stub, seen = _recording_stub(threshold=33)
        monkeypatch.setattr("repro.core.tester.failure_estimate", stub)
        result = minimal_m(family, self.inst, 0.1, 0.1, trials=20,
                           rng=np.random.SeedSequence(0),
                           m_min=1, m_max=100)
        assert result.m_star % 4 == 0
        assert result.m_star == 36  # smallest multiple of 4 above 33

    def test_rounding_never_exceeds_m_max(self, monkeypatch):
        # m_max=49 is not a multiple of 4: the largest probeable block
        # dimension is 48, and the search must not round past the cap.
        family = OSNAP(m=4, n=64, s=4, variant="block")
        stub, seen = _recording_stub(threshold=1000)
        monkeypatch.setattr("repro.core.tester.failure_estimate", stub)
        result = minimal_m(family, self.inst, 0.1, 0.1, trials=20,
                           rng=np.random.SeedSequence(0),
                           m_min=1, m_max=49)
        assert not result.found
        assert max(seen) == 48
        assert seen.count(48) == 1

    def test_m_min_rounding_past_m_max_returns_unfound(self, monkeypatch):
        family = OSNAP(m=8, n=64, s=8, variant="block")
        stub, seen = _recording_stub(threshold=1)
        monkeypatch.setattr("repro.core.tester.failure_estimate", stub)
        result = minimal_m(family, self.inst, 0.1, 0.1, trials=20,
                           rng=np.random.SeedSequence(0),
                           m_min=5, m_max=7)
        assert not result.found
        assert seen == []

    def test_real_search_reports_probed_dimension(self):
        # End-to-end (no stub): the reported m_star is a dimension the
        # block family can actually instantiate, within the cap.
        family = OSNAP(m=8, n=N, s=4, variant="block")
        instance = DBeta(N, 16, reps=1)
        result = minimal_m(family, instance, epsilon=0.6, delta=0.2,
                           trials=16, rng=np.random.SeedSequence(8),
                           m_min=4, m_max=50, batch=8)
        for m, _ in result.evaluations:
            assert m % 4 == 0
            assert m <= 50
        if result.found:
            assert result.m_star == family.with_m(result.m_star).m
            assert result.m_star in [m for m, _ in result.evaluations]

    def test_minimal_m_always_forwards_batch_and_shard(self, monkeypatch):
        # Every probe receives batch= and shard= explicitly, unset or not.
        forwarded = []

        def stub(family, instance, epsilon, trials, rng=None, **kwargs):
            forwarded.append((kwargs["batch"], kwargs["shard"]))
            return BernoulliEstimate(0 if family.m >= 8 else trials, trials)

        monkeypatch.setattr("repro.core.tester.failure_estimate", stub)
        result = minimal_m(CountSketch(4, 64), self.inst, 0.1, 0.1,
                           trials=20, rng=np.random.SeedSequence(0),
                           m_min=1, m_max=32)
        assert result.found and result.m_star == 8
        assert forwarded and set(forwarded) == {(None, None)}
