"""Entries-engine vs dense per-trial throughput for the Monte-Carlo trials.

Like ``benchmarks/test_apply_kernels.py`` this uses manual
``time.perf_counter`` timing so it doubles as a CI smoke test.  Scale via
``REPRO_BENCH_SCALE``: ``1.0`` (default) reproduces the reference numbers
in ``docs/perf.md``; CI runs at ``0.05`` where only the equivalence
assertions are load-bearing and the speedup floor relaxes to a sanity
threshold.

The measurement is end-to-end :func:`distortion_samples` — seeding, the
batched sampler, the hashed entries, and the reduction from them all
inside the timer — against the dense per-trial reduction on the same
trial streams: each trial's sketch sampled on its own, its product
built through the sketch's kernel (``basis_image``) and reduced by
:func:`distortion_of_product`, as every path ran CountSketch and OSNAP
before they ran in chunks by default.  Reference grid (n=16384, d=64,
m=1024, s ∈ {1, 4}): the entries engine is ≥3× faster.
"""

import os
import time

import numpy as np
import pytest

from repro.core.tester import distortion_samples
from repro.hardinstances.dbeta import DBeta
from repro.linalg.distortion import distortion_of_product
from repro.sketch import OSNAP, CountSketch, sample_sketch
from repro.utils.rng import (
    KeyedStream,
    as_generator,
    draw_key,
    spawn_seeds,
    trial_keys,
)

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
FULL_FIDELITY = SCALE >= 1.0

#: Reference grid of the acceptance measurement (full scale).
REF_N = max(256, int(16384 * SCALE))
REF_D = max(4, int(64 * min(1.0, 4 * SCALE)))
REF_M = max(REF_D + 1, int(1024 * min(1.0, 4 * SCALE)))
TRIALS = max(8, int(64 * min(1.0, 2 * SCALE)))
BATCH = 32

SEED = 20220620

CASES = [
    pytest.param(lambda: CountSketch(REF_M, REF_N), 1, id="countsketch-s1"),
    pytest.param(lambda: OSNAP(REF_M, REF_N, s=4), 2, id="osnap-s4"),
]


def _best_of(repeats, fn, *args, **kwargs):
    """Minimum wall-clock over ``repeats`` runs (noise-robust timing)."""
    best = np.inf
    out = None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best, out


def _run(family, instance, **kwargs):
    return distortion_samples(
        family, instance, trials=TRIALS,
        rng=np.random.SeedSequence(SEED), **kwargs,
    )


def _dense_run(family, instance):
    """The same trials through the dense per-trial reduction: the probe
    key ``_run`` draws, every trial's keys and supports derived at once,
    then one sketch, product and SVD per trial."""
    key = draw_key(spawn_seeds(as_generator(np.random.SeedSequence(SEED)),
                               1)[0])
    keys = trial_keys(key, 0, TRIALS)
    draws = instance.sample_supports(keys[:, 1])
    return np.array([
        distortion_of_product(
            sample_sketch(family, KeyedStream(sketch_key)).basis_image(draw)
        )
        for sketch_key, draw in zip(keys[:, 0], draws)
    ])


class TestBatchedTrialSpeedup:
    """The acceptance measurement: distortion_samples, entries engine vs
    the dense per-trial reduction."""

    @pytest.mark.parametrize("make_family,reps", CASES)
    def test_batched_trials_faster_and_equivalent(self, make_family, reps):
        family = make_family()
        instance = DBeta(REF_N, REF_D, reps=reps)

        # Warm-up outside the timed region (allocator, BLAS threads).
        _run(family, instance, batch=BATCH)
        _dense_run(family, instance)

        t_batched, batched = _best_of(3, _run, family, instance, batch=BATCH)
        t_serial, serial = _best_of(3, _dense_run, family, instance)

        # Same seed, same trial streams: the entries engine must reproduce
        # the dense values to SVD tolerance at every scale.
        np.testing.assert_allclose(batched, serial, rtol=1e-9, atol=1e-12)

        speedup = t_serial / t_batched
        print(
            f"\n[{family.name}] n={REF_N} d={REF_D} m={REF_M} "
            f"trials={TRIALS} batch={BATCH}: serial {1e3 * t_serial:.1f} ms, "
            f"batched {1e3 * t_batched:.1f} ms, speedup {speedup:.2f}x"
        )
        if FULL_FIDELITY:
            assert speedup >= 3.0, (
                f"batched trial engine only {speedup:.2f}x faster "
                f"(acceptance floor is 3x at full scale)"
            )
        else:
            # Smoke scale: timings are noise-dominated; only require that
            # batching is not pathologically slower.
            assert speedup >= 0.3

    @pytest.mark.parametrize("make_family,reps", CASES)
    def test_batch_one_is_bit_identical_to_serial(self, make_family, reps):
        """batch=1 gives the default path's bits — at every scale."""
        family = make_family()
        instance = DBeta(REF_N, REF_D, reps=reps)
        assert np.array_equal(
            _run(family, instance, batch=1), _run(family, instance)
        )

    def test_parallel_batched_is_bit_identical_to_serial_batched(self):
        """workers=2 with batch-sized chunks reproduces workers=1 bitwise."""
        family = CountSketch(REF_M, REF_N)
        instance = DBeta(REF_N, REF_D, reps=1)
        one = _run(family, instance, batch=8)
        two = _run(family, instance, batch=8, workers=2)
        assert np.array_equal(one, two)
