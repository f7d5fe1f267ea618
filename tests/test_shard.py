"""Tests for :mod:`repro.shard` — sharded fan-out with deterministic merge.

The cardinal invariant: for a fixed seed, a workload split across N
shards (each computing only its contiguous trial slice), merged with
``python -m repro.cache merge``, and replayed against the folded store is
**bit-identical** to a serial run — returned values, the caller's RNG
state afterwards, counter deltas, result JSON, and the deterministic
ledger view.  Including after a shard is killed mid-run and only that
shard is re-run.  Run alone with ``pytest -m shard``.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.cache import (
    JsonlStore,
    MergeConflict,
    ProbeCache,
    cache_key,
    merge_stores,
)
from repro.cache.__main__ import main as cache_main
from repro.core.tester import (
    ShardPending,
    distortion_samples,
    failure_estimate,
    minimal_m,
)
from repro.hardinstances.dbeta import DBeta
from repro.observe import RunLedger, counters, deterministic_view
from repro.shard import (
    merged_dir,
    open_shard_cache,
    shard_pass,
    shard_store_dir,
    sharded_call,
)
from repro.sketch.countsketch import CountSketch
from repro.utils.parallel import ShardSpec, normalize_shard, shard_spans
from repro.utils.rng import seed_fingerprint, trial_keys

pytestmark = pytest.mark.shard

#: Counter prefixes that legitimately differ between serial, cached, and
#: sharded runs of one workload (see ``NON_RESULT_COUNTER_PREFIXES``).
_BOOKKEEPING = ("cache_", "checkpoint_", "shard_")


def _family():
    return CountSketch(m=40, n=64)


def _instance():
    return DBeta(n=64, d=4, reps=1)


def _strip(delta):
    return {k: v for k, v in delta.items() if not k.startswith(_BOOKKEEPING)}


def _estimate_fn(seed=7, trials=30, fresh_sketch=True, batch=None):
    """A ShardedFn around one failure_estimate probe.

    Returns ``(estimate key, tail draws)`` — the tail certifies that the
    parent RNG ends in the serial run's state after a sharded replay.
    """

    def fn(cache, shard):
        gen = np.random.default_rng(seed)
        est = failure_estimate(
            _family(), _instance(), 0.5, trials, gen,
            fresh_sketch=fresh_sketch, cache=cache, batch=batch,
            shard=shard,
        )
        tail = gen.integers(0, 10**9, 4).tolist()
        return (est.successes, est.trials, est.confidence), tail

    return fn


def _samples_fn(seed=9, trials=24, batch=None):
    def fn(cache, shard):
        gen = np.random.default_rng(seed)
        values = distortion_samples(
            _family(), _instance(), trials, gen, cache=cache, batch=batch,
            shard=shard,
        )
        return [float(v) for v in values], gen.integers(0, 10**9, 4).tolist()

    return fn


def _search_fn(seed=3):
    def fn(cache, shard):
        return minimal_m(
            _family(), _instance(), 0.5, 0.3, trials=15, m_min=4,
            m_max=256, rng=np.random.default_rng(seed), cache=cache,
            shard=shard,
        )

    return fn


def _search_key(result):
    return (
        result.m_star,
        [(m, est.successes, est.trials) for m, est in result.evaluations],
    )


class TestShardSpans:
    def test_balanced_tiling(self):
        assert shard_spans(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_more_shards_than_trials(self):
        assert shard_spans(2, 4) == [(0, 1), (1, 2), (2, 2), (2, 2)]

    @pytest.mark.parametrize("total,count", [
        (1, 1), (17, 4), (100, 7), (5, 9), (0, 3),
    ])
    def test_spans_tile_exactly(self, total, count):
        spans = shard_spans(total, count)
        assert len(spans) == count
        cursor = 0
        for lo, hi in spans:
            assert lo == cursor and lo <= hi
            cursor = hi
        assert cursor == total


class TestShardSpanStreams:
    """A shard runs its span of trial indices on the serial run's streams:
    a trial's keys are lanes of ``(probe key, t)`` alone."""

    def test_span_keys_equal_serial_keys(self):
        key = np.uint64(0xDEADBEEF12345678)
        serial = trial_keys(key, 0, 10)
        for lo, hi in shard_spans(10, 3):
            np.testing.assert_array_equal(trial_keys(key, lo, hi),
                                          serial[lo:hi])

    def test_parent_advances_by_one_spawn_regardless_of_span(self, tmp_path):
        # Serial, every shard slice (computed or already on disk) and the
        # hit replay each spawn exactly one child of the caller's stream.
        states = []
        for shard, directory in [(None, None), ((0, 3), "s"), ((1, 3), "s"),
                                 ((1, 3), "s"), ((2, 3), "s")]:
            gen = np.random.default_rng(5)
            cache = None if directory is None \
                else ProbeCache(tmp_path / directory)
            try:
                distortion_samples(_family(), _instance(), 10, gen,
                                   cache=cache, shard=shard)
            except ShardPending:
                pass
            states.append((seed_fingerprint(gen),
                           gen.integers(0, 10**9, 4).tolist()))
        assert states[0][0]["children_spawned"] == 1
        assert all(state == states[0] for state in states)

    @pytest.mark.parametrize("batch", [None, 4])
    def test_span_slices_concatenate_to_serial_values(self, batch):
        # Chunks are ``batch`` trials each from a span's start, as the
        # executor cuts them, so a shard cuts other chunks than the serial
        # run; a trial's value does not depend on its chunk.
        from repro.core.tester import _trial_chunk

        key = np.uint64(77)

        def run(lo, hi):
            return [value for start in range(lo, hi, batch or hi - lo)
                    for value in _trial_chunk(
                        _family(), _instance(), None, key,
                        range(start, min(start + (batch or hi), hi)),
                    )]

        serial = run(0, 10)
        for count in (2, 3, 4):
            sliced = [value for lo, hi in shard_spans(10, count)
                      if lo < hi for value in run(lo, hi)]
            assert sliced == serial


class TestNormalizeShard:
    def test_degenerate_fanouts_are_serial(self):
        assert normalize_shard(None) is None
        assert normalize_shard((0, 1)) is None
        assert normalize_shard(ShardSpec(0, 1)) is None

    def test_pair_and_spec_accepted(self):
        assert normalize_shard((1, 3)) == ShardSpec(1, 3)
        assert normalize_shard(ShardSpec(2, 4)) == ShardSpec(2, 4)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            normalize_shard("1/3")
        with pytest.raises(ValueError):
            ShardSpec(3, 3)
        with pytest.raises(ValueError):
            ShardSpec(-1, 2)


class TestShardedFailureEstimate:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_merged_replay_matches_serial(self, tmp_path, shards):
        fn = _estimate_fn()
        serial = fn(None, None)
        assert sharded_call(fn, shards, tmp_path) == serial

    @pytest.mark.parametrize("shards", [2, 3])
    def test_fixed_sketch_matches_serial(self, tmp_path, shards):
        fn = _estimate_fn(fresh_sketch=False)
        assert sharded_call(fn, shards, tmp_path) == fn(None, None)

    def test_batched_matches_serial_batched(self, tmp_path):
        # batch=7 with trials=30: the spans (10 trials each) cut other
        # chunks than the serial run, and the values are the serial ones.
        fn = _samples_fn(batch=7, trials=30)
        assert sharded_call(fn, 3, tmp_path) == fn(None, None)
        assert fn(None, None) == _samples_fn(trials=30)(None, None)

    def test_batch_workers_and_shards_give_one_set_of_values(self,
                                                            tmp_path):
        # OSNAP s=3 on a mixture of D_1 and D_{1/2}: chunks mix
        # near-square and tall trials and coupled blocks of many shapes,
        # and no chunking, worker count or shard split moves a bit.
        from repro.hardinstances.mixtures import MixtureInstance
        from repro.sketch.osnap import OSNAP

        family = OSNAP(m=30, n=128, s=3)
        instance = MixtureInstance([DBeta(128, 6, reps=1),
                                    DBeta(128, 6, reps=2)],
                                   weights=[0.5, 0.5])

        def fn(batch, workers):
            def run(cache, shard):
                return distortion_samples(
                    family, instance, 20, np.random.default_rng(4),
                    workers=workers, cache=cache, batch=batch, shard=shard,
                ).tolist()
            return run

        reference = fn(None, 1)(None, None)
        for batch in (None, 1, 8):
            for workers in (1, 2):
                run = fn(batch, workers)
                assert run(None, None) == reference
                directory = tmp_path / f"{batch}-{workers}"
                assert sharded_call(run, 3, directory) == reference

    def test_final_replay_counter_delta_matches_serial(self, tmp_path):
        # The aggregate over all shard passes legitimately exceeds the
        # serial cost (each merge round replays resolved probes); the
        # contract is on the final replay against the folded store: its
        # counter delta — the one an experiment turns into count_*
        # metrics — is the serial run's, fixed-sketch sampling included
        # (attributed to shard 0's delta exactly once).
        fn = _estimate_fn(fresh_sketch=False)
        before = counters().snapshot()
        serial = fn(None, None)
        serial_delta = _strip(counters().diff(before))
        sharded_call(fn, 3, tmp_path)
        merged_cache = ProbeCache(merged_dir(tmp_path))
        before = counters().snapshot()
        replay = fn(merged_cache, None)
        assert replay == serial
        assert _strip(counters().diff(before)) == serial_delta

    def test_shard_without_cache_rejected(self):
        with pytest.raises(ValueError, match="shard= requires cache="):
            failure_estimate(
                _family(), _instance(), 0.5, 8,
                np.random.default_rng(0), shard=(0, 2),
            )

    def test_first_pass_stores_slice_and_raises_pending(self, tmp_path):
        fn = _estimate_fn(trials=30)
        result, pending = shard_pass(fn, (1, 3), tmp_path)
        assert result is None and pending == 1
        [record] = JsonlStore(
            shard_store_dir(tmp_path, 1) / ProbeCache.FILENAME
        ).load()
        assert record["spec"]["shard"] == {
            "count": 3, "index": 1, "span": [10, 20],
        }
        assert record["value"]["trials"] == 10

    def test_rerun_of_stored_slice_computes_nothing(self, tmp_path):
        fn = _estimate_fn(trials=30)
        shard_pass(fn, (1, 3), tmp_path)
        before = counters().snapshot()
        result, pending = shard_pass(fn, (1, 3), tmp_path)
        delta = counters().diff(before)
        assert result is None and pending == 1
        assert delta.get("trials", 0) == 0  # peek hit: no recompute


class TestShardedDistortionSamples:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_concatenated_slices_match_serial_order(self, tmp_path, shards):
        fn = _samples_fn()
        assert sharded_call(fn, shards, tmp_path) == fn(None, None)

    def test_more_shards_than_trials(self, tmp_path):
        # Empty spans: shards beyond the trial budget store empty slices.
        fn = _samples_fn(trials=3)
        assert sharded_call(fn, 5, tmp_path) == fn(None, None)


class TestShardedMinimalM:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_search_matches_serial(self, tmp_path, shards):
        fn = _search_fn()
        serial = fn(None, None)
        merged = sharded_call(fn, shards, tmp_path)
        assert not merged.pending
        assert _search_key(merged) == _search_key(serial)

    def test_pending_pass_returns_early(self, tmp_path):
        result, pending = shard_pass(_search_fn(), (0, 3), tmp_path)
        assert result is None and pending == 1

    def test_deterministic_ledger_view_matches_serial_replay(self, tmp_path):
        # The merged replay hits the cache for every probe the cold serial
        # run computed; their deterministic views (shard/cache/batch events
        # dropped, timing and identity fields stripped) must coincide
        # event for event.
        fn = _search_fn()
        with RunLedger() as ledger:
            serial_cold = fn(ProbeCache(tmp_path / "serial"), None)
        serial_events = ledger.events
        sharded_call(fn, 3, tmp_path / "sharded")
        merged_cache = ProbeCache(merged_dir(tmp_path / "sharded"))
        with RunLedger() as ledger:
            replay = fn(merged_cache, None)
        assert _search_key(replay) == _search_key(serial_cold)
        assert deterministic_view(ledger.events) == \
            deterministic_view(serial_events)


class TestCrashAShard:
    def _settle(self, fn, shards, directory, skip=None, max_rounds=64):
        """One manual round: every shard pass (minus ``skip``) + merge."""
        stores = [shard_store_dir(directory, k) for k in range(shards)]
        pending_total = 0
        for k in range(shards):
            if skip is not None and k == skip:
                continue
            _, pending = shard_pass(fn, (k, shards), directory)
            pending_total += pending
        merge_stores(stores, merged_dir(directory))
        return pending_total

    def test_killed_shard_rerun_reproduces_serial_bytes(self, tmp_path):
        fn = _search_fn()
        serial = fn(None, None)
        shards = 3
        # Round 1, during which shard 1 is "killed mid-write": its store
        # is truncated mid-line — the state a SIGKILL leaves behind.
        self._settle(fn, shards, tmp_path)
        store = shard_store_dir(tmp_path, 1) / ProbeCache.FILENAME
        data = store.read_bytes()
        store.write_bytes(data[: len(data) // 2])
        # Re-run ONLY shard 1: the torn line is dropped, the lost slice
        # recomputed; then resume normal rounds to completion.
        _, pending = shard_pass(fn, (1, shards), tmp_path)
        assert pending >= 1
        merge_stores(
            [shard_store_dir(tmp_path, k) for k in range(shards)],
            merged_dir(tmp_path),
        )
        for _ in range(64):
            if self._settle(fn, shards, tmp_path) == 0:
                break
        else:
            pytest.fail("sharded workload did not settle")
        merged_cache = ProbeCache(merged_dir(tmp_path))
        replay = fn(merged_cache, None)
        assert _search_key(replay) == _search_key(serial)


def _partial(kind, parent_spec, count, index, span, value, counters_=None):
    spec = dict(parent_spec)
    spec["shard"] = {"count": count, "index": index, "span": list(span)}
    return {
        "key": cache_key(kind, spec),
        "kind": kind,
        "spec": spec,
        "value": value,
        "counters": counters_ or {},
    }


def _write_store(directory, records):
    store = JsonlStore(Path(directory) / ProbeCache.FILENAME)
    for record in records:
        store.append(record)
    store.close()
    return directory


class TestMergeStores:
    PARENT = {"m": 8, "trials": 10, "seed": {"entropy": 1}}

    def _fe(self, index, span, successes, count=2):
        return _partial(
            "failure_estimate", self.PARENT, count, index, span,
            {"successes": successes, "trials": span[1] - span[0],
             "confidence": 0.95},
            {"trials": span[1] - span[0]},
        )

    def test_complete_tiling_folds_to_parent_key(self, tmp_path):
        a = _write_store(tmp_path / "a", [self._fe(0, (0, 5), 2)])
        b = _write_store(tmp_path / "b", [self._fe(1, (5, 10), 3)])
        report = merge_stores([a, b], tmp_path / "out")
        assert report.folded_groups == 1 and report.pending_groups == 0
        hit = ProbeCache(tmp_path / "out").get("failure_estimate",
                                               self.PARENT)
        assert hit.value == {"successes": 5, "trials": 10,
                             "confidence": 0.95}
        assert hit.counters == {"trials": 10}

    def test_missing_slice_stays_pending(self, tmp_path):
        a = _write_store(tmp_path / "a", [self._fe(0, (0, 5), 2)])
        report = merge_stores([a], tmp_path / "out")
        assert report.folded_groups == 0 and report.pending_groups == 1
        assert ProbeCache(tmp_path / "out").get(
            "failure_estimate", self.PARENT
        ) is None

    def test_merge_is_idempotent_and_byte_stable(self, tmp_path):
        a = _write_store(tmp_path / "a", [self._fe(0, (0, 5), 2)])
        b = _write_store(tmp_path / "b", [self._fe(1, (5, 10), 3)])
        merge_stores([a, b], tmp_path / "out")
        merged = tmp_path / "out" / ProbeCache.FILENAME
        first = merged.read_bytes()
        merge_stores([b, a], tmp_path / "out")  # re-merge, swapped order
        assert merged.read_bytes() == first

    def test_output_is_the_stores_own_lines_in_key_order(self, tmp_path):
        a = _write_store(tmp_path / "a", [self._fe(0, (0, 5), 2)])
        b = _write_store(tmp_path / "b", [self._fe(1, (5, 10), 3)])
        merge_stores([a, b], tmp_path / "out")
        records = JsonlStore(tmp_path / "out" / ProbeCache.FILENAME).load()
        assert [r["key"] for r in records] == sorted(r["key"]
                                                     for r in records)
        expected = _write_store(tmp_path / "appended", records)
        assert (tmp_path / "out" / ProbeCache.FILENAME).read_bytes() \
            == (expected / ProbeCache.FILENAME).read_bytes()

    def test_merge_inside_another_merges_replace(self, tmp_path,
                                                 monkeypatch):
        # Two launchers merge into one output: the second merges while the
        # first is between its write and its replace.  Each moves a
        # temporary of its own, the last replace wins whole, and the
        # inputs stay, so a later merge over all of them folds everything.
        a = _write_store(tmp_path / "a", [self._fe(0, (0, 5), 2)])
        b = _write_store(tmp_path / "b", [self._fe(1, (5, 10), 3)])
        out = tmp_path / "out"
        real_replace, nested = os.replace, []

        def replace(src, dst):
            if not nested:
                nested.append(dst)
                merge_stores([b], out)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        merge_stores([a], out)
        monkeypatch.setattr(os, "replace", real_replace)
        assert nested
        assert sorted(p.name for p in out.iterdir()) == [ProbeCache.FILENAME]
        assert (out / ProbeCache.FILENAME).read_bytes() \
            == (a / ProbeCache.FILENAME).read_bytes()
        report = merge_stores([a, b], out)
        assert report.folded_groups == 1 and report.pending_groups == 0
        assert ProbeCache(out).get("failure_estimate", self.PARENT).value \
            == {"successes": 5, "trials": 10, "confidence": 0.95}

    def test_empty_merge_leaves_an_empty_store(self, tmp_path):
        report = merge_stores([tmp_path / "absent"], tmp_path / "out")
        assert report.records_in == 0
        assert (tmp_path / "out" / ProbeCache.FILENAME).read_bytes() == b""
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) \
            == [ProbeCache.FILENAME]

    def test_conflicting_payloads_raise(self, tmp_path):
        a = _write_store(tmp_path / "a", [self._fe(0, (0, 5), 2)])
        b = _write_store(tmp_path / "b", [self._fe(0, (0, 5), 4)])
        with pytest.raises(MergeConflict, match="two different payloads"):
            merge_stores([a, b], tmp_path / "out")

    def test_overlapping_spans_raise(self, tmp_path):
        a = _write_store(tmp_path / "a", [self._fe(0, (0, 6), 2)])
        b = _write_store(tmp_path / "b", [self._fe(1, (5, 10), 3)])
        with pytest.raises(MergeConflict, match="overlapping"):
            merge_stores([a, b], tmp_path / "out")

    def test_shard_count_disagreement_raises(self, tmp_path):
        a = _write_store(tmp_path / "a", [self._fe(0, (0, 5), 2, count=2)])
        b = _write_store(
            tmp_path / "b", [self._fe(1, (5, 10), 3, count=3)]
        )
        with pytest.raises(MergeConflict, match="shard count"):
            merge_stores([a, b], tmp_path / "out")

    def test_tampered_record_key_raises(self, tmp_path):
        record = self._fe(0, (0, 5), 2)
        record["key"] = "0" * len(record["key"])
        a = _write_store(tmp_path / "a", [record])
        with pytest.raises(MergeConflict, match="content"):
            merge_stores([a], tmp_path / "out")

    def test_fold_verified_against_existing_full_record(self, tmp_path):
        a = _write_store(tmp_path / "a", [self._fe(0, (0, 5), 2)])
        b = _write_store(tmp_path / "b", [self._fe(1, (5, 10), 3)])
        full = ProbeCache(tmp_path / "out")
        full.put("failure_estimate", self.PARENT,
                 {"successes": 9, "trials": 10, "confidence": 0.95},
                 {"trials": 10})
        full.close()
        with pytest.raises(MergeConflict, match="disagrees with the full"):
            merge_stores([a, b], tmp_path / "out")


class TestMergeCli:
    def test_merge_command_folds_and_reports(self, tmp_path, capsys):
        fn = _samples_fn(trials=12)
        for k in range(2):
            shard_pass(fn, (k, 2), tmp_path)
        code = cache_main([
            "merge", str(merged_dir(tmp_path)),
            str(shard_store_dir(tmp_path, 0)),
            str(shard_store_dir(tmp_path, 1)),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "folded 1 probe groups" in out
        replay = fn(ProbeCache(merged_dir(tmp_path)), None)
        assert replay == fn(None, None)

    def test_conflict_exits_2(self, tmp_path, capsys):
        parent = {"m": 8, "trials": 10, "seed": {"entropy": 1}}
        a = _write_store(tmp_path / "a", [_partial(
            "failure_estimate", parent, 2, 0, (0, 5),
            {"successes": 1, "trials": 5, "confidence": 0.95},
        )])
        b = _write_store(tmp_path / "b", [_partial(
            "failure_estimate", parent, 2, 0, (0, 5),
            {"successes": 4, "trials": 5, "confidence": 0.95},
        )])
        code = cache_main(["merge", str(tmp_path / "out"), str(a), str(b)])
        assert code == 2
        assert "merge failed" in capsys.readouterr().err

    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cache_main([])
        assert excinfo.value.code == 2


class TestOpenShardCache:
    def test_reads_fall_back_to_merged_store(self, tmp_path):
        spec = {"m": 4, "trials": 2, "seed": {"e": 0}}
        merged = ProbeCache(merged_dir(tmp_path))
        merged.put("failure_estimate", spec,
                   {"successes": 1, "trials": 2, "confidence": 0.95})
        merged.close()
        cache = open_shard_cache(tmp_path, 0)
        assert cache.get("failure_estimate", spec) is not None
        # Writes land in the shard's own store, not the merged one.
        cache.put("failure_estimate", {"m": 5}, {"successes": 0})
        cache.close()
        assert ProbeCache(merged_dir(tmp_path)).get(
            "failure_estimate", {"m": 5}
        ) is None
        assert ProbeCache(shard_store_dir(tmp_path, 0)).get(
            "failure_estimate", {"m": 5}
        ) is not None

    def test_miss_reads_a_merge_that_replaced_the_merged_store(self,
                                                               tmp_path):
        parent = TestMergeStores.PARENT
        a = _write_store(tmp_path / "a",
                         [TestMergeStores()._fe(0, (0, 5), 2)])
        b = _write_store(tmp_path / "b",
                         [TestMergeStores()._fe(1, (5, 10), 3)])
        merge_stores([a], merged_dir(tmp_path))
        cache = open_shard_cache(tmp_path, 0)
        assert cache.peek("failure_estimate", parent) is None
        merge_stores([a, b], merged_dir(tmp_path))
        hit = cache.get("failure_estimate", parent)
        assert hit.value["successes"] == 5
        # Three records, each indexed once, and the shard store untouched.
        assert len(cache) == 3
        assert not cache.path.exists()


class TestCliShards:
    """End-to-end ``--shards`` through the real experiments CLI."""

    ARGS = ["E1", "--scale", "0.02", "--seed", "3"]

    def _run(self, tmp_path, extra, out):
        from repro.experiments.__main__ import main

        code = main(self.ARGS + ["--json-dir", str(tmp_path / out)] + extra)
        return code, tmp_path / out / "E1.json"

    def test_shards_byte_identical_to_serial(self, tmp_path, capsys):
        code, serial = self._run(tmp_path, [], "serial")
        assert code == 0
        code, sharded = self._run(
            tmp_path,
            ["--shards", "3", "--cache-dir", str(tmp_path / "cache")],
            "sharded",
        )
        assert code == 0
        assert sharded.read_bytes() == serial.read_bytes()

    def test_single_shard_pass_exits_3(self, tmp_path, capsys):
        code, result = self._run(
            tmp_path,
            ["--shards", "2", "--shard-index", "0",
             "--cache-dir", str(tmp_path / "cache")],
            "pass0",
        )
        assert code == 3
        assert not result.exists()  # no result until merge resolves probes
        assert "awaiting cache merge" in capsys.readouterr().err
        store = shard_store_dir(tmp_path / "cache", 0) / ProbeCache.FILENAME
        assert store.exists()
        for line in store.read_text().splitlines():
            assert json.loads(line)["spec"]["shard"]["index"] == 0

    def test_shard_index_requires_shards(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + ["--shard-index", "0"])
        assert excinfo.value.code == 2
        assert "--shard-index requires --shards" in capsys.readouterr().err

    def test_shards_require_cache_dir(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + ["--shards", "2"])
        assert excinfo.value.code == 2
        assert "--shards requires --cache-dir" in capsys.readouterr().err
