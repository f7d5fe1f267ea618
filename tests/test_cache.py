"""Tests for :mod:`repro.cache` — the probe cache and checkpoint/resume.

The cardinal invariant under test: cold-cache, warm-cache, and cache-off
runs at a fixed seed are **bit-identical** — in returned values, in the
state of the caller's RNG afterwards, and in ``count_*`` metrics.  Run
alone with ``pytest -m cache``.
"""

import json
import os

import numpy as np
import pytest

from repro.cache import (
    ExperimentCheckpoint,
    JsonlStore,
    ProbeCache,
    cache_key,
    canonical_json,
)
from repro.core.tester import (
    ENGINE_VERSION,
    distortion_samples,
    failure_estimate,
    minimal_m,
)
from repro.hardinstances.dbeta import DBeta
from repro.observe.counters import counters
from repro.observe.ledger import RunLedger, read_events
from repro.sketch.countsketch import CountSketch

pytestmark = pytest.mark.cache


def _family():
    return CountSketch(m=40, n=64)


def _instance():
    return DBeta(n=64, d=4, reps=1)


class TestCanonicalKeys:
    def test_key_order_independent(self):
        assert cache_key("k", {"a": 1, "b": 2}) == cache_key("k", {"b": 2, "a": 1})

    def test_numpy_scalars_normalize(self):
        assert cache_key("k", {"m": np.int64(7), "eps": np.float64(0.5)}) \
            == cache_key("k", {"m": 7, "eps": 0.5})

    def test_kind_separates_namespaces(self):
        assert cache_key("a", {"x": 1}) != cache_key("b", {"x": 1})

    def test_nested_spec_stable(self):
        spec = {"family": _family().spec(), "instance": _instance().spec()}
        assert cache_key("k", spec) == cache_key("k", json.loads(canonical_json(spec)))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    @pytest.mark.parametrize("spec", [
        pytest.param({"m": np.int64(7), "n": np.int32(-3),
                      "u": np.uint64(2**64 - 1)}, id="numpy-ints"),
        pytest.param({"eps": np.float64(0.1), "x": np.float64(-0.0),
                      "big": np.float64(1e300)}, id="numpy-float64"),
        pytest.param({"eps": np.float32(0.1), "tiny": np.float32(1e-30)},
                     id="numpy-float32"),
        pytest.param({"yes": np.bool_(True), "no": np.bool_(False),
                      "plain": True}, id="numpy-bools"),
        pytest.param({"a": np.arange(4), "b": np.array([[0.5, 1.5]]),
                      "c": np.array(3.25), "e": np.array([], dtype=float)},
                     id="arrays"),
        pytest.param({"t": (1, np.int64(2), (np.float32(0.5),)),
                      "l": [np.bool_(True), None, "s"]}, id="tuples"),
        pytest.param({"z": {"y": {"x": [np.int16(1), {"w": np.float64(2)}]}},
                      "a": {"b": [np.array([1, 2]), ()]}}, id="nested"),
        pytest.param({"s": np.str_("text"), np.str_("key"): 1.0},
                     id="numpy-str"),
    ])
    def test_encoder_matches_the_builtin_walk(self, spec):
        # The numpy-aware encoder gives the strings (and so the keys) of
        # a full to_builtin rebuild followed by the plain encoder.
        from repro.utils.serialization import to_builtin

        walked = json.dumps(to_builtin(spec), sort_keys=True,
                            separators=(",", ":"), allow_nan=False)
        assert canonical_json(spec) == walked

    @pytest.mark.parametrize("value", [np.float64("nan"), np.float32("inf"),
                                       np.array([1.0, np.nan])])
    def test_non_finite_numpy_values_rejected(self, value):
        with pytest.raises(ValueError):
            canonical_json({"x": value})

    def test_numpy_dict_key_rejected(self):
        # No spec has one; a numpy key raises rather than being coerced.
        with pytest.raises(TypeError):
            canonical_json({np.int64(1): "x"})

    def test_stream_version_only_in_hashed_family_specs(self):
        # CountSketch/OSNAP are defined by a versioned column hash, so
        # their keys name the version and entries cached under another
        # definition of the sketch miss; every other family keeps the
        # plain {type, params} spec, so its keys are unchanged.
        from repro.sketch import OSNAP, GaussianSketch, RowSampling, SparseJL
        from repro.sketch.hashing import STREAM_VERSION

        assert _family().spec() == {
            "type": "CountSketch", "params": {"m": 40, "n": 64},
            "stream": STREAM_VERSION,
        }
        assert OSNAP(40, 64, s=2).spec()["stream"] == STREAM_VERSION
        for family in (GaussianSketch(8, 64), RowSampling(8, 64),
                       SparseJL(8, 64, q=0.1)):
            assert set(family.spec()) == {"type", "params"}


class TestJsonlStore:
    def test_round_trip_and_persistence(self, tmp_path):
        store = JsonlStore(tmp_path / "s.jsonl")
        store.append({"a": 1})
        store.append({"b": [1, 2]})
        store.close()
        assert JsonlStore(tmp_path / "s.jsonl").load() == [{"a": 1}, {"b": [1, 2]}]

    def test_missing_file_loads_empty(self, tmp_path):
        assert JsonlStore(tmp_path / "none.jsonl").load() == []

    def test_torn_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\n{"torn": ')
        assert JsonlStore(path).load() == [{"a": 1}, {"b": 2}]

    def test_earlier_corruption_raises(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"a": 1}\nnot json\n{"b": 2}\n')
        with pytest.raises(ValueError, match="line 2"):
            JsonlStore(path).load()

    def test_non_finite_record_rejected_and_store_unchanged(self, tmp_path):
        # allow_nan=False: a NaN/Infinity field would write a token only
        # Python's lenient parser reads back.  The record is serialized
        # before the file is touched, so the store stays pristine.
        store = JsonlStore(tmp_path / "s.jsonl")
        store.append({"ok": 1.5})
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                store.append({"value": bad})
            with pytest.raises(ValueError):
                store.append({"nested": {"deep": [1.0, bad]}})
        store.close()
        assert JsonlStore(tmp_path / "s.jsonl").load() == [{"ok": 1.5}]

    def test_rejected_record_never_creates_file(self, tmp_path):
        store = JsonlStore(tmp_path / "fresh.jsonl")
        with pytest.raises(ValueError):
            store.append({"value": float("nan")})
        assert not (tmp_path / "fresh.jsonl").exists()

    def test_numpy_scalars_round_trip(self, tmp_path):
        store = JsonlStore(tmp_path / "s.jsonl")
        store.append({
            "i": np.int64(7),
            "f": np.float64(0.25),
            "b": np.bool_(True),
            "a": np.arange(3),
        })
        store.close()
        [record] = JsonlStore(tmp_path / "s.jsonl").load()
        assert record == {"i": 7, "f": 0.25, "b": True, "a": [0, 1, 2]}

    def test_non_finite_numpy_scalar_rejected(self, tmp_path):
        store = JsonlStore(tmp_path / "s.jsonl")
        with pytest.raises(ValueError):
            store.append({"value": np.float64("nan")})
        assert not (tmp_path / "s.jsonl").exists()

    def test_concurrent_multiprocess_appends_never_tear(self, tmp_path):
        # The O_APPEND atomicity contract: several processes hammering
        # one store (a server worker plus CLI runs) interleave whole
        # lines, never fragments.  Buffered-handle appends fail this:
        # a flush can land a line in several write syscalls.
        import multiprocessing

        path = tmp_path / "hammer.jsonl"
        workers, per_worker = 4, 50
        processes = [
            multiprocessing.Process(
                target=_hammer_appends, args=(path, worker, per_worker),
            )
            for worker in range(workers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        records = JsonlStore(path).load()
        assert len(records) == workers * per_worker
        seen = {(record["worker"], record["i"]) for record in records}
        assert seen == {
            (worker, i)
            for worker in range(workers) for i in range(per_worker)
        }


#: Bytes on disk -> what both JSON-lines readers make of them: the
#: complete lines' records, or the message of the ``ValueError`` raised.
_LINE_RULE_CASES = {
    "parseable-tail-without-newline": (
        b'{"kind": "a"}\n{"kind": "b"}', [{"kind": "a"}]),
    "corrupt-complete-final-line": (
        b'{"kind": "a"}\n{"kind": "b"\n', "line 2"),
    "corrupt-middle-line": (
        b'{"kind": "a"}\nnot json\n{"kind": "b"}\n', "line 2"),
    "blank-lines": (b'\n{"kind": "a"}\n\n', [{"kind": "a"}]),
}


class TestOneLineRule:
    """The probe store and the run ledger read a file the same way."""

    @pytest.mark.parametrize("reader", ["store", "ledger"])
    @pytest.mark.parametrize("case", sorted(_LINE_RULE_CASES))
    def test_store_and_ledger_agree(self, tmp_path, reader, case):
        data, expected = _LINE_RULE_CASES[case]
        path = tmp_path / "lines.jsonl"
        path.write_bytes(data)
        read = {"store": lambda: JsonlStore(path).read_new(),
                "ledger": lambda: read_events(path)}[reader]
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected):
                read()
        else:
            assert read() == expected


#: An appender paused mid-line: it takes the store's shared append lock,
#: writes the first half of its record, reports "half", and writes the
#: rest once it reads a line on stdin.
_PAUSED_WRITER = """
import fcntl, os, sys
fd = os.open(sys.argv[1], os.O_WRONLY | os.O_APPEND)
fcntl.flock(fd, fcntl.LOCK_SH)
line = sys.argv[2].encode() + b"\\n"
os.write(fd, line[:len(line) // 2])
print("half", flush=True)
sys.stdin.readline()
os.write(fd, line[len(line) // 2:])
fcntl.flock(fd, fcntl.LOCK_UN)
"""


class TestTornTailTrim:
    """The first-append trim must tell a dead writer's fragment from a
    line a live writer has only half written."""

    def _paused_writer(self, path, record):
        import subprocess
        import sys

        writer = subprocess.Popen(
            [sys.executable, "-c", _PAUSED_WRITER, str(path),
             json.dumps(record, sort_keys=True)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        assert writer.stdout.readline() == b"half\n"
        return writer

    def test_first_append_waits_for_a_live_half_written_line(self,
                                                             tmp_path):
        import threading

        path = tmp_path / "probes.jsonl"
        JsonlStore(path).append({"n": 1})
        writer = self._paused_writer(path, {"n": 2})
        try:
            store = JsonlStore(path)
            appender = threading.Thread(target=store.append,
                                        args=({"n": 3},))
            appender.start()
            # The trim waits for the live line instead of truncating it.
            appender.join(timeout=0.5)
            assert appender.is_alive()
        finally:
            writer.communicate(b"go\n", timeout=30)
        appender.join(timeout=30)
        assert not appender.is_alive()
        store.close()
        assert writer.returncode == 0
        records = JsonlStore(path).load()
        assert sorted(record["n"] for record in records) == [1, 2, 3]

    def test_first_append_trims_a_killed_writers_fragment(self, tmp_path):
        path = tmp_path / "probes.jsonl"
        JsonlStore(path).append({"n": 1})
        intact = path.read_bytes()
        writer = self._paused_writer(path, {"n": 2})
        writer.kill()
        writer.wait(timeout=30)
        assert len(path.read_bytes()) > len(intact)  # the fragment
        store = JsonlStore(path)
        store.append({"n": 3})
        store.close()
        assert path.read_bytes() == intact + b'{"n": 3}\n'


class TestThreadedAppends:
    def test_thread_hammer_on_one_probe_cache(self, tmp_path, monkeypatch):
        # The server's to_thread workers share one ProbeCache.  Slowing
        # the first-append trim widens the check-then-open window, so
        # without the append helper's lock several threads would each
        # open (and all but one leak) an append descriptor.
        import os
        import sys
        import threading
        import time

        from repro.utils.appendfile import AppendOnlyFile

        fd_dir = "/proc/self/fd"
        if not os.path.isdir(fd_dir):
            pytest.skip("needs /proc/self/fd to count descriptors")
        trim = AppendOnlyFile._trim_torn_tail

        def slow_trim(appender):
            time.sleep(0.05)
            trim(appender)

        monkeypatch.setattr(AppendOnlyFile, "_trim_torn_tail", slow_trim)
        before = len(os.listdir(fd_dir))
        cache = ProbeCache(tmp_path)
        threads, per_thread = 8, 25
        start = threading.Barrier(threads)

        def hammer(worker):
            start.wait()
            for i in range(per_thread):
                cache.put("k", {"worker": worker, "i": i},
                          {"pad": "x" * 512})

        workers = [threading.Thread(target=hammer, args=(worker,))
                   for worker in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers)
        cache.close()
        assert len(os.listdir(fd_dir)) == before
        lines = cache.path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == threads * per_thread
        records = [json.loads(line) for line in lines]
        assert {record["key"] for record in records} == {
            cache_key("k", {"worker": worker, "i": i})
            for worker in range(threads) for i in range(per_thread)
        }


def _hammer_appends(path, worker, count):
    """Module-level so the multiprocess hammer test can spawn it."""
    store = JsonlStore(path)
    for i in range(count):
        # padding makes a torn line overwhelmingly likely to corrupt a
        # neighbour under buffered I/O, keeping the test sensitive
        store.append({"worker": worker, "i": i, "pad": "x" * 512})
    store.close()


class TestProbeCacheStore:
    def test_put_get_round_trip(self, tmp_path):
        cache = ProbeCache(tmp_path)
        spec = {"m": 8, "trials": 10}
        assert cache.get("failure_estimate", spec) is None
        cache.put("failure_estimate", spec, {"successes": 3},
                  {"trials": 10, "cache_miss": 1})
        hit = cache.get("failure_estimate", spec)
        assert hit.value == {"successes": 3}
        # Bookkeeping counters are stripped before storage so replaying
        # the delta never double-counts cache machinery.
        assert hit.counters == {"trials": 10}

    def test_survives_reload(self, tmp_path):
        ProbeCache(tmp_path).put("k", {"x": 1}, {"v": 2}, {"trials": 5})
        hit = ProbeCache(tmp_path).get("k", {"x": 1})
        assert hit is not None and hit.value == {"v": 2}

    def test_scoped_view_separates_keys(self, tmp_path):
        cache = ProbeCache(tmp_path)
        point = cache.scoped(search="minimal_m", decision="point")
        confident = cache.scoped(search="minimal_m", decision="confident_pass")
        point.put("failure_estimate", {"m": 8}, {"successes": 1})
        assert confident.get("failure_estimate", {"m": 8}) is None
        assert point.get("failure_estimate", {"m": 8}).value == {"successes": 1}
        # The unscoped spec is untouched as well.
        assert cache.get("failure_estimate", {"m": 8}) is None

    @pytest.mark.parametrize("reload", [False, True])
    def test_record_whose_spec_disagrees_with_its_key_raises(self, tmp_path,
                                                             reload):
        # A tampered or corrupted store: the line keyed by spec A holds
        # spec B.  Looking up A must raise, not return B's value — from a
        # freshly loaded store and from a live one following the file.
        asked, stored = {"m": 8, "trials": 10}, {"m": 9, "trials": 10}
        live = ProbeCache(tmp_path)
        JsonlStore(live.path).append({
            "key": cache_key("failure_estimate", asked),
            "kind": "failure_estimate", "spec": stored,
            "value": {"successes": 1}, "counters": {},
        })
        cache = ProbeCache(tmp_path) if reload else live
        with pytest.raises(ValueError, match="corruption"):
            cache.get("failure_estimate", asked)
        with pytest.raises(ValueError, match="corruption"):
            cache.peek("failure_estimate", asked)


class TestProbeCacheFollowsOtherWriters:
    """A live ProbeCache sees records other processes append later."""

    def test_record_put_by_another_cache_is_a_hit(self, tmp_path):
        reader = ProbeCache(tmp_path)
        assert reader.get("k", {"x": 1}) is None
        writer = ProbeCache(tmp_path)
        writer.put("k", {"x": 1}, {"v": 2}, {"trials": 5})
        writer.close()
        hit = reader.get("k", {"x": 1})  # same instance, not rebuilt
        assert hit is not None
        assert hit.value == {"v": 2} and hit.counters == {"trials": 5}

    def test_half_written_line_waits_for_its_newline(self, tmp_path):
        source = ProbeCache(tmp_path / "source")
        source.put("k", {"x": 3}, {"v": 4})
        source.close()
        line = source.path.read_bytes()
        reader = ProbeCache(tmp_path / "shared")
        reader.put("k", {"x": 0}, {"v": 0})  # creates the shared file
        half = len(line) // 2
        with open(reader.path, "ab") as handle:
            handle.write(line[:half])
        assert reader.peek("k", {"x": 3}) is None
        with open(reader.path, "ab") as handle:
            handle.write(line[half:-1])
        assert reader.peek("k", {"x": 3}) is None  # complete JSON, no newline
        with open(reader.path, "ab") as handle:
            handle.write(b"\n")
        assert reader.peek("k", {"x": 3}).value == {"v": 4}
        assert reader.peek("k", {"x": 0}).value == {"v": 0}
        reader.close()

    def test_replaced_store_is_read_from_the_start(self, tmp_path):
        # A merge rewrites its output store through os.replace; a live
        # cache must not resume the new file at the old file's offset.
        reader = ProbeCache(tmp_path)
        writer = ProbeCache(tmp_path)
        writer.put("k", {"x": 1}, {"v": 1})
        writer.close()
        assert reader.get("k", {"x": 1}) is not None
        source = ProbeCache(tmp_path / "source")
        source.put("k", {"x": 2}, {"pad": "y" * 512})
        source.put("k", {"x": 3}, {"v": 3})
        source.close()
        os.replace(source.path, reader.path)
        assert reader.peek("k", {"x": 3}).value == {"v": 3}
        assert reader.peek("k", {"x": 2}) is not None

    def test_threads_following_one_cache_never_tear(self, tmp_path):
        # Server threads share one ProbeCache: concurrent misses follow
        # the file while another writer appends.  Every record must be
        # indexed whole (an offset off a line boundary would raise) and
        # none skipped.
        import sys
        import threading

        reader = ProbeCache(tmp_path)
        writer = ProbeCache(tmp_path)
        total, readers = 200, 6
        errors = []
        done = threading.Event()

        def write():
            for i in range(total):
                writer.put("k", {"i": i}, {"pad": "x" * 256})
            done.set()

        def read(worker):
            try:
                while not done.is_set():
                    reader.peek("k", {"i": -1 - worker})  # always a miss
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        threads = [threading.Thread(target=write)] + [
            threading.Thread(target=read, args=(worker,))
            for worker in range(readers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(reader.peek("k", {"i": i}) is not None
                   for i in range(total))
        writer.close()


class TestFailureEstimateBitIdentity:
    def _run(self, cache, seed=7, fresh_sketch=True):
        gen = np.random.default_rng(seed)
        est = failure_estimate(_family(), _instance(), 0.5, 20, gen,
                               fresh_sketch=fresh_sketch, cache=cache)
        # The tail draw certifies that the parent stream ends in the same
        # state on hit and miss (spawn-counter replay).
        tail = gen.integers(0, 10**9, 4).tolist()
        return est, tail

    @pytest.mark.parametrize("fresh_sketch", [True, False])
    def test_off_cold_warm_identical(self, tmp_path, fresh_sketch):
        off = self._run(None, fresh_sketch=fresh_sketch)
        cache = ProbeCache(tmp_path)
        cold = self._run(cache, fresh_sketch=fresh_sketch)
        warm = self._run(cache, fresh_sketch=fresh_sketch)
        assert off == cold == warm

    def test_counter_deltas_identical_cold_vs_warm(self, tmp_path):
        cache = ProbeCache(tmp_path)
        before = counters().snapshot()
        self._run(cache)
        cold = counters().diff(before)
        before = counters().snapshot()
        self._run(cache)
        warm = counters().diff(before)
        strip = lambda d: {k: v for k, v in d.items()  # noqa: E731
                           if not k.startswith(("cache_", "checkpoint_"))}
        assert strip(cold) == strip(warm)
        assert cold.get("cache_miss") == 1 and "cache_hit" not in cold
        assert warm.get("cache_hit") == 1 and "cache_miss" not in warm

    def test_warm_run_executes_zero_trials(self, tmp_path):
        cache = ProbeCache(tmp_path)
        self._run(cache)
        with RunLedger() as ledger:
            self._run(cache)
        kinds = [event["kind"] for event in ledger.events]
        assert "batch_dispatch" not in kinds  # no trial engine invocation
        assert kinds.count("cache_hit") == 1

    def test_different_seeds_do_not_alias(self, tmp_path):
        cache = ProbeCache(tmp_path)
        self._run(cache, seed=7)
        before = counters().snapshot()
        self._run(cache, seed=8)
        assert counters().diff(before).get("cache_miss") == 1

    def test_fingerprintless_rng_bypasses_cache(self, tmp_path, monkeypatch):
        # An RNG whose stream state cannot be fingerprinted (no recorded
        # SeedSequence) is uncacheable and must silently compute.
        monkeypatch.setattr("repro.core.tester.seed_fingerprint",
                            lambda rng: None)
        cache = ProbeCache(tmp_path)
        est = failure_estimate(_family(), _instance(), 0.5, 5,
                               np.random.default_rng(3), cache=cache)
        assert est.trials == 5
        assert len(cache) == 0


class TestDistortionSamplesBitIdentity:
    def _run(self, cache, seed=9):
        gen = np.random.default_rng(seed)
        values = distortion_samples(_family(), _instance(), 12, gen,
                                    cache=cache)
        return values, gen.integers(0, 10**9, 4).tolist()

    def test_off_cold_warm_identical(self, tmp_path):
        off_values, off_tail = self._run(None)
        cache = ProbeCache(tmp_path)
        cold_values, cold_tail = self._run(cache)
        warm_values, warm_tail = self._run(cache)
        np.testing.assert_array_equal(off_values, cold_values)
        np.testing.assert_array_equal(off_values, warm_values)
        assert off_tail == cold_tail == warm_tail

    def test_arrays_round_trip_exactly_through_disk(self, tmp_path):
        cache = ProbeCache(tmp_path)
        cold_values, _ = self._run(cache)
        warm_values, _ = self._run(ProbeCache(tmp_path))  # fresh index
        np.testing.assert_array_equal(cold_values, warm_values)
        assert warm_values.dtype == np.float64


def _estimate(cache, trials=20, epsilon=0.5, fresh_sketch=True):
    return failure_estimate(_family(), _instance(), epsilon, trials,
                            np.random.default_rng(13),
                            fresh_sketch=fresh_sketch, cache=cache)


def _samples(cache, trials=12):
    return distortion_samples(_family(), _instance(), trials,
                              np.random.default_rng(13), cache=cache)


class TestResultShapingInputsInKey:
    """Every input that shapes a probe's result is part of its cache key:
    a record stored under one value misses under another.  (``batch``,
    ``decision`` and the seed have their own tests.)"""

    @pytest.mark.parametrize("probe,field,other", [
        pytest.param(_estimate, "trials", 21, id="failure_estimate-trials"),
        pytest.param(_estimate, "epsilon", 0.3,
                     id="failure_estimate-epsilon"),
        pytest.param(_estimate, "fresh_sketch", False,
                     id="failure_estimate-fresh_sketch"),
        pytest.param(_samples, "trials", 13, id="distortion_samples-trials"),
    ])
    def test_other_value_is_a_miss(self, tmp_path, probe, field, other):
        cache = ProbeCache(tmp_path)
        probe(cache)
        before = counters().snapshot()
        warm = probe(cache, **{field: other})
        delta = counters().diff(before)
        assert delta.get("cache_miss") == 1
        assert "cache_hit" not in delta
        assert len(cache) == 2
        np.testing.assert_array_equal(warm, probe(None, **{field: other}))


class TestBatchCacheKeys:
    """``batch`` is a chunk size that changes no value, so every setting
    shares one cache entry."""

    def _samples(self, cache, batch, seed=11):
        gen = np.random.default_rng(seed)
        return distortion_samples(_family(), _instance(), 12, gen,
                                  cache=cache, batch=batch)

    @pytest.mark.parametrize("first,second", [(None, 1), (1, None)])
    def test_batch_one_and_serial_share_samples_entry(self, tmp_path,
                                                      first, second):
        cache = ProbeCache(tmp_path)
        cold = self._samples(cache, first)
        assert len(cache) == 1
        before = counters().snapshot()
        warm = self._samples(cache, second)
        delta = counters().diff(before)
        assert delta.get("cache_hit") == 1
        assert "cache_miss" not in delta
        np.testing.assert_array_equal(cold, warm)
        assert len(cache) == 1  # nothing new written

    def test_batch_one_and_serial_share_estimate_entry(self, tmp_path):
        cache = ProbeCache(tmp_path)
        gen = np.random.default_rng(11)
        cold = failure_estimate(_family(), _instance(), 0.5, 20, gen,
                                cache=cache, batch=None)
        before = counters().snapshot()
        gen = np.random.default_rng(11)
        warm = failure_estimate(_family(), _instance(), 0.5, 20, gen,
                                cache=cache, batch=1)
        delta = counters().diff(before)
        assert delta.get("cache_hit") == 1
        assert "cache_miss" not in delta
        assert (cold.successes, cold.trials) == (warm.successes, warm.trials)

    @pytest.mark.parametrize("first,second", [(None, 4), (4, None), (8, 3)])
    def test_any_batch_hits_the_entry_of_another(self, tmp_path, first,
                                                 second):
        cache = ProbeCache(tmp_path)
        cold = self._samples(cache, first)
        before = counters().snapshot()
        warm = self._samples(cache, second)
        delta = counters().diff(before)
        assert delta.get("cache_hit") == 1
        assert "cache_miss" not in delta
        np.testing.assert_array_equal(cold, warm)
        assert len(cache) == 1


class TestEngineVersionInKey:
    """Every probe spec names the trial engine's version, so a store
    written by an engine whose values differ recomputes each probe once
    instead of replaying them."""

    # Records of every earlier engine, per-trial (batch None) and batched.
    # ``None`` is the spec a store written before the version field holds;
    # engine 2 differs from engine 3 only in batched values.  A version
    # bump adds its predecessor here through ENGINE_VERSION.
    @pytest.mark.parametrize("engine,batch", [
        (None, None), (None, 8), (2, 8),
        *((engine, batch) for engine in range(3, ENGINE_VERSION)
          for batch in (None, 8)),
    ])
    def test_record_under_earlier_engine_is_a_miss(self, tmp_path, engine,
                                                   batch):
        from repro.utils.rng import seed_fingerprint

        trials = 16
        gen = np.random.default_rng(11)
        old_spec = {
            "family": _family().spec(), "instance": _instance().spec(),
            "m": _family().m, "trials": trials,
            "seed": seed_fingerprint(gen),
        }
        if engine is not None:
            old_spec["engine"] = engine
        if batch is not None:
            old_spec["batch"] = batch
        cache = ProbeCache(tmp_path)
        cache.put("distortion_samples", old_spec,
                  {"values": [0.5] * trials}, {})
        before = counters().snapshot()
        values = distortion_samples(_family(), _instance(), trials, gen,
                                    cache=cache, batch=batch)
        delta = counters().diff(before)
        assert delta.get("cache_miss") == 1
        assert "cache_hit" not in delta
        np.testing.assert_array_equal(values, distortion_samples(
            _family(), _instance(), trials, np.random.default_rng(11),
            batch=batch,
        ))
        assert len(cache) == 2

    def test_every_stored_spec_names_the_engine(self, tmp_path):
        cache = ProbeCache(tmp_path)
        for batch in (None, 1, 4):
            distortion_samples(_family(), _instance(), 8,
                               np.random.default_rng(5), cache=cache,
                               batch=batch)
        failure_estimate(_family(), _instance(), 0.5, 8,
                         np.random.default_rng(5), cache=cache)
        minimal_m(_family(), _instance(), 0.5, 0.3, trials=8, m_min=4,
                  m_max=64, rng=np.random.default_rng(5), cache=cache)
        cache.close()
        records = JsonlStore(cache.path).load()
        assert len(records) >= 4
        assert all(record["spec"]["engine"] == ENGINE_VERSION
                   for record in records)


class TestMinimalMWarmStart:
    def _search(self, cache, seed=3, decision="point"):
        return minimal_m(_family(), _instance(), 0.5, 0.3, trials=15,
                         m_min=4, m_max=256, decision=decision,
                         rng=np.random.default_rng(seed), cache=cache)

    def test_off_cold_warm_identical(self, tmp_path):
        off = self._search(None)
        cache = ProbeCache(tmp_path)
        cold = self._search(cache)
        warm = self._search(cache)
        key = lambda r: (r.m_star,  # noqa: E731
                         [(m, e.successes, e.trials) for m, e in r.evaluations])
        assert key(off) == key(cold) == key(warm)

    def test_warm_rerun_executes_zero_trials(self, tmp_path):
        cache = ProbeCache(tmp_path)
        cold = self._search(cache)
        before = counters().snapshot()
        with RunLedger() as ledger:
            warm = self._search(cache)
        delta = counters().diff(before)
        kinds = [event["kind"] for event in ledger.events]
        assert "batch_dispatch" not in kinds
        assert delta.get("cache_hit") == len(warm.evaluations)
        assert "cache_miss" not in delta
        assert warm.m_star == cold.m_star

    def test_decision_rule_in_key(self, tmp_path):
        # Probes under different decision rules must not alias: the rule
        # shapes which m values get probed and what "pass" means.
        cache = ProbeCache(tmp_path)
        self._search(cache, decision="point")
        before = counters().snapshot()
        self._search(cache, decision="confident_pass")
        assert counters().diff(before).get("cache_miss", 0) > 0


class TestExperimentCheckpoint:
    def _result(self):
        from repro.experiments.harness import ExperimentResult
        from repro.utils.tables import TextTable

        result = ExperimentResult(experiment_id="ET", title="checkpointed")
        table = TextTable(title="t", columns=["a"])
        table.add_row([1])
        result.tables.append(table)
        result.metrics["x"] = 0.5
        return result

    def test_save_load_round_trip(self, tmp_path):
        ckpt = ExperimentCheckpoint(tmp_path)
        ckpt.save(self._result(), seed=0, scale=0.1)
        loaded = ckpt.load("ET", seed=0, scale=0.1)
        assert loaded is not None
        assert loaded.metrics == {"x": 0.5}
        assert loaded.tables[0].rows == [["1"]]

    @pytest.mark.parametrize("seed,scale", [(1, 0.1), (0, 0.2)])
    def test_config_mismatch_reruns(self, tmp_path, seed, scale):
        ckpt = ExperimentCheckpoint(tmp_path)
        ckpt.save(self._result(), seed=0, scale=0.1)
        assert ckpt.load("ET", seed=seed, scale=scale) is None

    @pytest.mark.parametrize("engine", [3, None])
    def test_engine_mismatch_reruns(self, tmp_path, engine):
        ckpt = ExperimentCheckpoint(tmp_path)
        ckpt.save(self._result(), seed=0, scale=0.1, engine=4)
        assert ckpt.load("ET", seed=0, scale=0.1, engine=4) is not None
        assert ckpt.load("ET", seed=0, scale=0.1, engine=engine) is None
        meta = json.loads((tmp_path / "ET.meta.json").read_text())
        assert "batch" not in meta  # a chunk size changes no value

    def test_corrupt_checkpoint_reruns_not_raises(self, tmp_path):
        ckpt = ExperimentCheckpoint(tmp_path)
        ckpt.save(self._result(), seed=0, scale=0.1)
        ckpt.path_for("ET").write_text("{ corrupt")
        assert ckpt.load("ET", seed=0, scale=0.1) is None

    @pytest.mark.parametrize("name,text", [
        ("ET.json", '{"experiment_id": "ET", "title": "t", "tables": 5}'),
        ("ET.json", '{"experiment_id": "ET", "title": "t", '
                    '"tables": ["x"]}'),
        ("ET.json", '["x"]'),
        ("ET.meta.json", '["x"]'),
        ("ET.meta.json", '5'),
    ], ids=["number-tables", "string-table", "list-payload", "list-sidecar",
            "number-sidecar"])
    def test_wrong_shaped_checkpoint_reruns_not_raises(self, tmp_path, name,
                                                       text):
        # Valid JSON of the wrong shape is as stale as unreadable JSON.
        ckpt = ExperimentCheckpoint(tmp_path)
        ckpt.save(self._result(), seed=0, scale=0.1)
        (tmp_path / name).write_text(text)
        assert ckpt.load("ET", seed=0, scale=0.1) is None

    def test_save_leaves_no_temporary_file(self, tmp_path):
        ExperimentCheckpoint(tmp_path).save(self._result(), seed=0,
                                            scale=0.1)
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "ET.json", "ET.meta.json"]

    def test_bytes_match_save_json(self, tmp_path):
        result = self._result()
        ckpt = ExperimentCheckpoint(tmp_path / "c")
        ckpt.save(result, seed=0, scale=0.1)
        result.save_json(tmp_path / "direct.json")
        assert ckpt.raw_bytes("ET") == (tmp_path / "direct.json").read_bytes()


class TestCliCacheAndResume:
    """End-to-end: --cache-dir / --resume through the real CLI.

    Uses E1 at a tiny scale — unlike E5, it runs real ``minimal_m``
    searches, so the cache actually sees probes.
    """

    ARGS = ["E1", "--scale", "0.02", "--seed", "3"]

    def _run(self, tmp_path, extra, out):
        from repro.experiments.__main__ import main

        assert main(self.ARGS + ["--json-dir", str(tmp_path / out)] + extra) == 0
        return (tmp_path / out / "E1.json").read_bytes()

    def test_cold_warm_resume_byte_identical(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        off = self._run(tmp_path, [], "off")
        cold = self._run(tmp_path, cache, "cold")
        warm = self._run(tmp_path, cache, "warm")
        resumed = self._run(tmp_path, cache + ["--resume"], "resumed")
        assert off == cold == warm == resumed

    def test_resume_skips_completed_experiment(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        cache = ["--cache-dir", str(tmp_path / "cache")]
        ledger = tmp_path / "resume.jsonl"
        assert main(self.ARGS + cache) == 0
        assert main(self.ARGS + cache
                    + ["--resume", "--ledger", str(ledger)]) == 0
        events = [json.loads(line) for line in ledger.read_text().splitlines()]
        kinds = [event["kind"] for event in events]
        assert "experiment_resumed" in kinds
        assert "experiment_start" not in kinds  # skipped, not re-run

    def test_interrupted_run_resumes_bit_identical(self, tmp_path, capsys):
        # Simulate a run killed midway: probes cached, but no checkpoint
        # written.  --resume then finds no checkpoint, re-runs against the
        # warm cache, and must produce the uninterrupted run's bytes.
        from repro.experiments.registry import get_experiment

        cache_dir = tmp_path / "cache"
        baseline = self._run(tmp_path, [], "base")
        # Partial warmup: run the experiment against the cache directly
        # (probes stored) but write no checkpoint — the state a SIGKILL
        # between probe completion and checkpoint save leaves behind.
        partial = ProbeCache(cache_dir)
        get_experiment("E1").run(scale=0.02, rng=3, cache=partial)
        partial.close()
        restarted = self._run(
            tmp_path, ["--cache-dir", str(cache_dir), "--resume"], "rest"
        )
        assert restarted == baseline

    def _resumed(self, tmp_path, extra):
        """Run E1 with ``extra`` and ``--resume``; whether it resumed."""
        from repro.experiments.__main__ import main

        ledger = tmp_path / "resume.jsonl"
        if ledger.exists():
            ledger.unlink()
        assert main(self.ARGS + ["--cache-dir", str(tmp_path / "cache"),
                                 "--json-dir", str(tmp_path / "resumed"),
                                 "--resume", "--ledger", str(ledger)]
                    + extra) == 0
        kinds = [json.loads(line)["kind"]
                 for line in ledger.read_text().splitlines()]
        return "experiment_resumed" in kinds

    def test_resume_under_another_batch_replays(self, tmp_path, capsys):
        # --batch is a chunk size: a run with it writes the serial bytes,
        # and a checkpoint written without it replays under it.
        cache = ["--cache-dir", str(tmp_path / "cache")]
        serial = self._run(tmp_path, [], "serial")
        assert self._run(tmp_path, ["--batch", "8"], "batched") == serial
        self._run(tmp_path, cache, "cold")
        assert self._resumed(tmp_path, ["--batch", "8"])
        assert (tmp_path / "resumed" / "E1.json").read_bytes() == serial

    @pytest.mark.parametrize("engine", range(3, ENGINE_VERSION))
    def test_resume_of_checkpoint_from_earlier_engine_reruns(self, tmp_path,
                                                             capsys, engine):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        baseline = self._run(tmp_path, cache, "cold")
        meta_path = tmp_path / "cache" / "checkpoints" / "E1.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["engine"] = engine
        meta_path.write_text(json.dumps(meta))
        assert not self._resumed(tmp_path, [])
        assert (tmp_path / "resumed" / "E1.json").read_bytes() == baseline
        assert self._resumed(tmp_path, [])

    @pytest.mark.parametrize("name,text", [
        ("E1.json", '{"experiment_id": "E1", "title": "t", "tables": 5}'),
        ("E1.meta.json", '["x"]'),
    ], ids=["number-tables", "list-sidecar"])
    def test_resume_of_wrong_shaped_checkpoint_reruns(self, tmp_path,
                                                      capsys, name, text):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        baseline = self._run(tmp_path, cache, "cold")
        checkpoints = tmp_path / "cache" / "checkpoints"
        (checkpoints / name).write_text(text)
        assert not self._resumed(tmp_path, [])
        assert (tmp_path / "resumed" / "E1.json").read_bytes() == baseline
        # The re-run rewrote the checkpoint, which now replays.
        assert (checkpoints / "E1.json").read_bytes() == baseline
        assert self._resumed(tmp_path, [])

    def test_resume_without_cache_dir_is_usage_error(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + ["--resume"])
        assert excinfo.value.code == 2
        assert "--resume requires --cache-dir" in capsys.readouterr().err

    def test_summarize_reports_hit_rate(self, tmp_path, capsys):
        from repro.experiments.__main__ import main
        from repro.observe.summarize import summarize_path

        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(self.ARGS + cache) == 0
        ledger = tmp_path / "warm.jsonl"
        assert main(self.ARGS + cache + ["--ledger", str(ledger)]) == 0
        report = summarize_path(ledger)
        assert "Probe cache" in report
        assert "100.0%" in report
