"""Tests for repro.utils.parallel and the determinism guarantees it gives.

Covers the three contract pillars of the trial engine:

* serial and parallel runs of the same seed are bit-identical;
* RNG child streams are order-robust (spawning neither reads from nor
  perturbs the parent stream);
* StreamingSketcher.merge is warning-free under
  ``-W error::scipy.sparse.SparseEfficiencyWarning``.
"""

import warnings

import numpy as np
import pytest
from scipy.sparse import SparseEfficiencyWarning

from repro.core.tester import distortion_samples, failure_estimate
from repro.observe.ledger import RunLedger
from repro.hardinstances.dbeta import DBeta
from repro.sketch.countsketch import CountSketch
from repro.sketch.gaussian import GaussianSketch
from repro.sketch.streaming import StreamingSketcher
from repro.utils.parallel import (
    TrialExecutor,
    available_cpus,
    resolve_workers,
    run_trials,
)
from repro.utils.rng import as_generator, spawn, spawn_seeds
from repro.utils.stats import estimate_probability


def _first_uniform(seed):
    """Module-level trial fn so the process-pool backend can pickle it."""
    return float(np.random.default_rng(seed).random())


def _uniform_chunk(seeds):
    """Module-level chunk fn (picklable): one result per seed, in order."""
    return [_first_uniform(seed) for seed in seeds]


def _coin_flip(gen):
    """Module-level event fn (picklable) for estimate_probability."""
    return bool(gen.random() < 0.5)


class TestTrialExecutor:
    def test_serial_matches_parallel_bitwise(self):
        serial = TrialExecutor(workers=1).run(_first_uniform, 40, rng=3)
        parallel = TrialExecutor(workers=2).run(_first_uniform, 40, rng=3)
        assert serial == parallel  # exact float equality, element for element

    def test_chunk_size_does_not_change_results(self):
        base = run_trials(_first_uniform, 25, rng=1, workers=1)
        for chunk in (1, 3, 7, 25):
            assert run_trials(
                _first_uniform, 25, rng=1, workers=2, chunk_size=chunk
            ) == base

    def test_results_in_trial_order(self):
        seeds = spawn_seeds(5, 12)
        expected = [_first_uniform(s) for s in seeds]
        got = TrialExecutor(workers=2, chunk_size=5).run_seeded(
            _first_uniform, seeds
        )
        assert got == expected

    def test_workers_none_and_zero_mean_all_cpus(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) == resolve_workers(None)
        assert resolve_workers(3) == 3

    def test_default_workers_respect_scheduler_affinity(self):
        # In a cpuset-limited container, os.cpu_count() reports the
        # host's cores; the default worker count must use the affinity
        # mask instead, falling back only where the syscall is absent.
        import os

        assert resolve_workers(None) == available_cpus()
        if hasattr(os, "sched_getaffinity"):
            assert available_cpus() == len(os.sched_getaffinity(0))
        else:  # pragma: no cover - non-Linux fallback
            assert available_cpus() == (os.cpu_count() or 1)

    def test_affinity_fallback_when_syscall_fails(self, monkeypatch):
        import repro.utils.parallel as parallel_module

        def broken(pid):
            raise OSError("no affinity")

        monkeypatch.setattr(parallel_module.os, "sched_getaffinity",
                            broken, raising=False)
        assert parallel_module.available_cpus() == \
            (parallel_module.os.cpu_count() or 1)

    @pytest.mark.parametrize("chunked", [False, True],
                             ids=["per-trial", "chunk"])
    def test_one_dispatch_path_decomposes_any_way(self, chunked):
        # run_seeded and run_chunked share one dispatch path: every
        # workers/chunk_size setting yields the same results, and the
        # batch_done spans tile [0, n) in order.
        n = 10
        seeds = spawn_seeds(4, n)
        expected = [_first_uniform(seed) for seed in seeds]
        for workers in (1, 2):
            for chunk_size in (None, 3):
                executor = TrialExecutor(workers=workers,
                                         chunk_size=chunk_size)
                with RunLedger() as ledger:
                    got = executor.run_chunked(_uniform_chunk, seeds) \
                        if chunked \
                        else executor.run_seeded(_first_uniform, seeds)
                assert got == expected
                spans = [tuple(e["span"]) for e in ledger.events
                         if e["kind"] == "batch_done"]
                assert spans[0][0] == 0 and spans[-1][1] == n
                assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
                if chunk_size is not None:
                    assert len(spans) == -(-n // chunk_size)
                if workers == 1 and chunk_size is None:
                    assert spans == [(0, n)]  # serial default: one chunk

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            TrialExecutor(workers=-1)
        with pytest.raises(ValueError):
            TrialExecutor(chunk_size=0)
        with pytest.raises(ValueError):
            TrialExecutor().run(_first_uniform, 0, rng=0)


class TestBitIdenticalTrialLoops:
    def test_failure_estimate(self):
        inst = DBeta(n=256, d=4, reps=1)
        fam = CountSketch(m=64, n=256)
        serial = failure_estimate(fam, inst, 0.25, trials=30, rng=7,
                                  workers=1)
        parallel = failure_estimate(fam, inst, 0.25, trials=30, rng=7,
                                    workers=2)
        assert serial == parallel
        assert serial.trials == 30

    def test_failure_estimate_fixed_sketch(self):
        inst = DBeta(n=128, d=4, reps=1)
        fam = GaussianSketch(m=200, n=128)
        serial = failure_estimate(fam, inst, 0.25, trials=12, rng=2,
                                  fresh_sketch=False, workers=1)
        parallel = failure_estimate(fam, inst, 0.25, trials=12, rng=2,
                                    fresh_sketch=False, workers=2)
        assert serial == parallel

    def test_distortion_samples(self):
        inst = DBeta(n=256, d=4, reps=1)
        fam = CountSketch(m=128, n=256)
        serial = distortion_samples(fam, inst, trials=20, rng=5, workers=1)
        parallel = distortion_samples(fam, inst, trials=20, rng=5, workers=2)
        assert np.array_equal(serial, parallel)  # bit-identical floats

    def test_estimate_probability(self):
        serial = estimate_probability(_coin_flip, trials=60, rng=11,
                                      workers=1)
        parallel = estimate_probability(_coin_flip, trials=60, rng=11,
                                        workers=2)
        assert serial == parallel


class TestSpawnOrderIndependence:
    def test_child_seed_ignores_parent_draws(self):
        undisturbed = as_generator(42)
        disturbed = as_generator(42)
        disturbed.random(size=1000)  # advance the parent stream
        a = spawn(undisturbed).integers(0, 10**9, size=8)
        b = spawn(disturbed).integers(0, 10**9, size=8)
        assert np.array_equal(a, b)

    def test_spawning_leaves_parent_stream_untouched(self):
        plain = as_generator(7)
        spawning = as_generator(7)
        for _ in range(5):
            spawn(spawning)
        assert np.array_equal(
            plain.random(size=16), spawning.random(size=16)
        )

    def test_spawn_seeds_depends_only_on_spawn_count(self):
        gen_a = as_generator(9)
        gen_b = as_generator(9)
        gen_b.integers(0, 100, size=50)
        first_a = spawn_seeds(gen_a, 3)
        first_b = spawn_seeds(gen_b, 3)
        for seq_a, seq_b in zip(first_a, first_b):
            assert np.array_equal(
                seq_a.generate_state(4), seq_b.generate_state(4)
            )
        # A later batch continues the spawn counter, never repeats.
        second_a = spawn_seeds(gen_a, 3)
        assert not np.array_equal(
            first_a[0].generate_state(4), second_a[0].generate_state(4)
        )


class TestStreamingMergeRegression:
    def test_merge_is_sparse_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", SparseEfficiencyWarning)
            left = StreamingSketcher(CountSketch(m=32, n=200), columns=3,
                                     rng=7)
            right = StreamingSketcher(CountSketch(m=32, n=200), columns=3,
                                      rng=7)
            rows = np.arange(10)
            data = np.arange(30, dtype=float).reshape(10, 3)
            left.update_rows(rows, data)
            right.update_rows(rows + 10, data)
            merged = left.merge(right).result()
        assert merged.shape == (32, 3)

    def test_merge_rejects_family_mismatch(self):
        a = StreamingSketcher(CountSketch(m=16, n=64), columns=2, rng=0)
        b = StreamingSketcher(GaussianSketch(m=16, n=64), columns=2, rng=0)
        with pytest.raises(ValueError, match="families"):
            a.merge(b)

    def test_merge_rejects_shape_mismatch(self):
        a = StreamingSketcher(CountSketch(m=16, n=64), columns=2, rng=0)
        b = StreamingSketcher(CountSketch(m=32, n=64), columns=2, rng=0)
        with pytest.raises(ValueError, match="shapes"):
            a.merge(b)

    def test_merge_rejects_different_seeds(self):
        a = StreamingSketcher(CountSketch(m=16, n=64), columns=2, rng=0)
        b = StreamingSketcher(CountSketch(m=16, n=64), columns=2, rng=1)
        with pytest.raises(ValueError, match="same family and seed"):
            a.merge(b)
