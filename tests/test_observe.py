"""Tests for the observability layer (``repro.observe``).

Covers the counter arithmetic, the ledger's buffering/fork/no-op
contracts, trace spans, the deterministic-view guarantee (serial vs
``workers=4`` event payloads identical modulo timing fields), the
harness's ``count_*`` metrics, and the ``summarize`` renderer.
"""

import json
import math
import os

import numpy as np
import pytest

from repro.core.tester import (
    distortion_samples,
    failure_estimate,
    minimal_m,
)
from repro.experiments.harness import Experiment
from repro.hardinstances.dbeta import DBeta
from repro.hardinstances.mixtures import section3_mixture
from repro.observe import (
    Counters,
    RunLedger,
    add_count,
    counters,
    current_ledger,
    deterministic_view,
    emit_event,
    read_events,
    trace,
    use_ledger,
)
from repro.observe.ledger import read_event_segments
from repro.observe.summarize import summarize, summarize_path, summarize_paths
from repro.sketch.countsketch import CountSketch

pytestmark = pytest.mark.observe


class TestCounters:
    def test_increment_and_get(self):
        c = Counters()
        c.increment("x")
        c.increment("x", 4)
        assert c.get("x") == 5
        assert c.get("never") == 0

    def test_snapshot_diff(self):
        c = Counters({"a": 2})
        before = c.snapshot()
        c.increment("a", 3)
        c.increment("b")
        assert c.diff(before) == {"a": 3, "b": 1}
        # Unchanged counters do not appear in the delta.
        c2 = Counters({"a": 1})
        assert c2.diff(c2.snapshot()) == {}

    def test_merge_clear(self):
        c = Counters({"a": 1})
        c.merge({"a": 2, "b": 5})
        assert c.as_dict() == {"a": 3, "b": 5}
        c.clear()
        assert len(c) == 0

    def test_global_add_count(self):
        before = counters().snapshot()
        add_count("test_only_counter", 7)
        assert counters().diff(before) == {"test_only_counter": 7}


class TestRunLedger:
    def test_emit_without_ledger_is_noop(self):
        assert current_ledger() is None
        emit_event("probe", m=1)  # must not raise or record anywhere

    def test_context_installs_and_keeps_events(self):
        with RunLedger() as ledger:
            assert current_ledger() is ledger
            emit_event("probe", m=3, successes=1, trials=10)
        assert current_ledger() is None
        [event] = ledger.events
        assert event["kind"] == "probe" and event["m"] == 3
        assert "t" in event

    def test_closed_ledger_drops_events(self):
        with RunLedger() as ledger:
            pass
        ledger.emit("probe", m=1)
        assert ledger.events == []

    def test_foreign_pid_events_rejected(self):
        ledger = RunLedger()
        ledger._pid = os.getpid() + 1  # simulate a forked worker
        ledger.emit("probe", m=1)
        assert ledger.events == []

    def test_buffered_writes(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path, buffer_lines=2) as ledger:
            ledger.emit("a")
            assert not path.exists()  # still buffered
            ledger.emit("b")
            assert len(path.read_text().splitlines()) == 2
            ledger.emit("c")
        # close() flushes the tail.
        assert [e["kind"] for e in read_events(path)] == ["a", "b", "c"]

    def test_appends_across_runs(self, tmp_path):
        path = tmp_path / "run.jsonl"
        for kind in ("first", "second"):
            with RunLedger(path) as ledger:
                ledger.emit(kind)
        assert [e["kind"] for e in read_events(path)] == ["first", "second"]

    def test_numpy_fields_serialized(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.emit("probe", m=np.int64(8), rate=np.float32(0.5))
        [event] = read_events(path)
        assert event["m"] == 8
        assert event["rate"] == pytest.approx(0.5)

    def test_non_finite_fields_rejected(self, tmp_path):
        # allow_nan=False: a NaN/inf field must raise instead of writing
        # a bare-token line no strict JSON reader could parse back.
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.emit("probe", m=4)
            for bad in (float("nan"), float("inf"), np.float64("nan")):
                with pytest.raises(ValueError):
                    ledger.emit("probe", rate=bad)
        assert [e["kind"] for e in read_events(path)] == ["probe"]

    def test_torn_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind": "a"}\n{"kind": "b"')
        assert [e["kind"] for e in read_events(path)] == ["a"]

    def test_reopen_after_torn_tail_keeps_every_event(self, tmp_path):
        # A writer killed mid-line leaves a fragment; the next writer's
        # first event must not be glued onto it.
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.emit("a")
            ledger.emit("b")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"t": 2, "kind": "tor')
        with RunLedger(path) as ledger:
            ledger.emit("c")
            ledger.emit("d")
        assert [e["kind"] for e in read_events(path)] == ["a", "b", "c", "d"]
        assert path.read_text(encoding="utf-8").endswith("\n")

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind": "a"}\nnot json\n{"kind": "b"}\n')
        with pytest.raises(ValueError, match="line 2"):
            read_events(path)

    def test_use_ledger_does_not_close(self):
        ledger = RunLedger()
        with use_ledger(ledger):
            emit_event("x")
        emit_event("ignored")  # no longer installed
        ledger.emit("y")  # but still open
        assert [e["kind"] for e in ledger.events] == ["x", "y"]

    def test_bad_buffer_size_rejected(self):
        with pytest.raises(ValueError):
            RunLedger(buffer_lines=0)


class TestTrace:
    def test_trace_emits_elapsed(self):
        with RunLedger() as ledger:
            with trace("span", trials=12):
                pass
        [event] = ledger.events
        assert event["kind"] == "trace" and event["name"] == "span"
        assert event["trials"] == 12
        assert event["elapsed"] >= 0.0

    def test_trace_without_ledger_is_noop(self):
        with trace("span"):
            pass

    def test_trace_emits_on_exception(self):
        with RunLedger() as ledger:
            with pytest.raises(RuntimeError):
                with trace("span"):
                    raise RuntimeError("boom")
        assert [e["kind"] for e in ledger.events] == ["trace"]


class TestDeterministicView:
    def test_strips_timing_and_execution(self):
        events = [
            {"t": 1.0, "kind": "probe", "m": 8, "elapsed": 0.5},
            {"t": 2.0, "kind": "batch_done", "batch": 0, "worker": 123},
            {"t": 3.0, "kind": "experiment_start", "experiment": "E1",
             "workers": 4},
        ]
        assert deterministic_view(events) == [
            {"kind": "probe", "m": 8},
            {"kind": "experiment_start", "experiment": "E1"},
        ]


def _run_search_with_ledger(workers):
    inst = section3_mixture(n=512, d=4, epsilon=1 / 16)
    fam = CountSketch(m=8, n=512)
    with RunLedger() as ledger:
        result = minimal_m(
            fam, inst, 1 / 16, 0.2, trials=16, m_min=8, rng=11,
            workers=workers,
        )
    return result, ledger.events


class TestLedgerDeterminism:
    def test_serial_vs_parallel_payloads_identical(self):
        serial_result, serial_events = _run_search_with_ledger(workers=1)
        parallel_result, parallel_events = _run_search_with_ledger(workers=4)
        assert serial_result.m_star == parallel_result.m_star
        assert serial_result.evaluations == parallel_result.evaluations
        assert deterministic_view(serial_events) == \
            deterministic_view(parallel_events)
        # The parallel run has *more* raw events (per-chunk batch_done),
        # which is exactly what the deterministic view factors out.
        assert len(parallel_events) > len(serial_events)

    def test_probe_events_match_evaluations(self):
        result, events = _run_search_with_ledger(workers=1)
        probes = [e for e in events if e["kind"] == "probe"]
        assert [(p["m"], p["successes"], p["trials"]) for p in probes] == \
            [(m, est.successes, est.trials) for m, est in result.evaluations]
        assert all(p["decision"] == "point" for p in probes)
        assert {p["phase"] for p in probes} <= {"exponential", "bisection"}
        start = [e for e in events if e["kind"] == "minimal_m_start"]
        end = [e for e in events if e["kind"] == "minimal_m_end"]
        assert len(start) == 1 and len(end) == 1
        assert end[0]["m_star"] == result.m_star
        assert end[0]["probes"] == len(result.evaluations)

    def test_trial_loop_traces_emitted(self):
        inst = DBeta(n=128, d=4, reps=1)
        fam = CountSketch(m=16, n=128)
        with RunLedger() as ledger:
            distortion_samples(fam, inst, trials=6, rng=0)
            failure_estimate(fam, inst, 0.5, trials=8, rng=0)
        names = [e["name"] for e in ledger.events if e["kind"] == "trace"]
        assert names == ["distortion_samples", "failure_estimate"]
        batches = [e for e in ledger.events if e["kind"] == "batch_done"]
        assert sum(b["trials"] for b in batches) == 14

    def test_ledger_does_not_perturb_results(self):
        inst = DBeta(n=128, d=4, reps=1)
        fam = CountSketch(m=16, n=128)
        plain = distortion_samples(fam, inst, trials=8, rng=7)
        with RunLedger():
            observed = distortion_samples(fam, inst, trials=8, rng=7)
        np.testing.assert_array_equal(plain, observed)


class _CountingExperiment(Experiment):
    experiment_id = "EX"
    title = "counter fixture"
    paper_claim = "n/a"

    def _run(self, scale, rng):
        result = self._result()
        inst = DBeta(n=128, d=4, reps=1)
        distortion_samples(
            CountSketch(m=16, n=128), inst, trials=8, rng=0,
            workers=self.workers,
        )
        result.metrics["answer"] = 42.0
        return result


class TestExperimentCounters:
    def test_count_metrics_attached(self):
        result = _CountingExperiment().run(scale=1.0, rng=0)
        assert result.metrics["count_trials"] == 8
        assert result.metrics["count_sketch_samples"] == 8
        # CountSketch trials reduce from their hashed entries.
        assert result.metrics["count_batched_kernel_applies"] == 8
        assert result.metrics["answer"] == 42.0

    def test_count_metrics_identical_across_workers(self):
        serial = _CountingExperiment().run(scale=1.0, rng=0)
        parallel = _CountingExperiment().run(scale=1.0, rng=0, workers=2)
        assert serial.metrics == parallel.metrics

    def test_experiment_events_bracket_run(self):
        with RunLedger() as ledger:
            _CountingExperiment().run(scale=1.0, rng=0)
        kinds = [e["kind"] for e in ledger.events]
        assert kinds[0] == "experiment_start"
        assert kinds[-2:] == ["counters", "experiment_end"]
        end = ledger.events[-1]
        assert end["metrics"]["count_trials"] == 8
        counter_event = ledger.events[-2]
        assert counter_event["experiment"] == "EX"
        assert counter_event["trials"] == 8


class TestSummarize:
    def _ledger_events(self, tmp_path, workers=1):
        inst = section3_mixture(n=512, d=4, epsilon=1 / 16)
        fam = CountSketch(m=8, n=512)
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            ledger.emit("cli_start", experiments=["E1"], scale=0.05,
                        seed=0, workers=workers)
            result = minimal_m(fam, inst, 1 / 16, 0.2, trials=16,
                               m_min=8, rng=11, workers=workers)
        return path, result

    def test_every_probe_reported(self, tmp_path):
        path, result = self._ledger_events(tmp_path)
        text = summarize_path(path)
        for m, est in result.evaluations:
            assert f"{m}" in text
        assert "minimal_m #1" in text
        assert f"m*={result.m_star}" in text
        assert "Wall-clock breakdown" in text

    def test_incomplete_run_is_diagnosable(self):
        # A crashed run: experiment and search started, no end events.
        events = [
            {"t": 0, "kind": "experiment_start", "experiment": "E3"},
            {"t": 1, "kind": "minimal_m_start", "m_min": 4, "m_max": 64,
             "decision": "point", "delta": 0.1},
            {"t": 2, "kind": "probe", "m": 4, "successes": 9, "trials": 10,
             "passed": False, "phase": "exponential", "elapsed": 0.5},
        ]
        text = summarize(events)
        assert "INCOMPLETE" in text
        assert "E3" in text
        assert "0.900" in text  # the probe's failure rate

    def test_empty_ledger(self):
        text = summarize([])
        assert "0 events" in text

    def test_counters_table(self):
        events = [
            {"t": 0, "kind": "experiment_start", "experiment": "E1"},
            {"t": 1, "kind": "counters", "experiment": "E1",
             "sketch_samples": 20, "trials": 20},
            {"t": 2, "kind": "experiment_end", "experiment": "E1",
             "elapsed": 1.0, "metrics": {}},
        ]
        text = summarize(events)
        assert "Counters (E1)" in text
        assert "sketch_samples" in text


class TestMonotonicStamps:
    def test_events_carry_both_clocks(self):
        with RunLedger() as ledger:
            emit_event("probe", m=4)
            emit_event("probe", m=8)
        first, second = ledger.events
        assert "t" in first and "mono" in first
        assert second["mono"] >= first["mono"]

    def test_mono_stripped_from_deterministic_view(self):
        with RunLedger() as ledger:
            emit_event("probe", m=4)
        [view] = deterministic_view(ledger.events)
        assert "mono" not in view and "t" not in view

    def test_mono_not_folded_into_counters_table(self):
        events = [
            {"t": 0, "mono": 12.5, "kind": "experiment_start",
             "experiment": "E1"},
            {"t": 1, "mono": 13.5, "kind": "counters", "experiment": "E1",
             "sketch_samples": 20},
            {"t": 2, "mono": 14.5, "kind": "experiment_end",
             "experiment": "E1", "elapsed": 1.0},
        ]
        text = summarize(events)
        assert "mono" not in text

    def test_concurrent_thread_emission_never_tears(self, tmp_path):
        # The estimation server emits from several compute threads into
        # one request-log ledger; every line must parse and none may drop.
        import threading

        path = tmp_path / "threads.jsonl"
        ledger = RunLedger(path, buffer_lines=2, keep_events=False)
        per_thread = 200

        def hammer(worker):
            for i in range(per_thread):
                ledger.emit("probe", worker=worker, i=i)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ledger.close()
        events = read_events(path)
        assert len(events) == 4 * per_thread


class TestNegativeIntervalClamping:
    def _events(self, elapsed):
        return [
            {"t": 100.0, "kind": "experiment_start", "experiment": "E1"},
            {"t": 90.0, "kind": "experiment_end", "experiment": "E1",
             "elapsed": elapsed},
            {"t": 91.0, "kind": "trace", "name": "span",
             "elapsed": elapsed},
        ]

    def test_negative_intervals_clamped_and_flagged(self):
        # A legacy ledger spanning an NTP step backwards: summarize must
        # neither render negative seconds nor pretend the data is clean.
        text = summarize(self._events(-5.0))
        assert "-5.0" not in text
        assert "negative interval" in text
        assert "2 negative interval(s)" in text

    def test_clean_ledger_not_flagged(self):
        text = summarize(self._events(5.0))
        assert "negative interval" not in text

    def test_mono_fallback_for_missing_elapsed(self):
        # An end event without elapsed (older emitter) still gets a
        # wall-clock figure when both events carry comparable mono stamps.
        events = [
            {"t": 0.0, "mono": 10.0, "pid": 1, "kind": "experiment_start",
             "experiment": "E1"},
            {"t": 1.0, "mono": 12.5, "pid": 1, "kind": "experiment_end",
             "experiment": "E1"},
        ]
        text = summarize(events)
        assert "2.50" in text

    def test_mono_span_guards(self):
        from repro.observe.summarize import _mono_span

        # different processes: mono epochs are incomparable
        assert _mono_span({"mono": 10.0, "pid": 1},
                          {"mono": 12.5, "pid": 2}) is None
        # backwards mono (corrupt/edited ledger) is not a duration
        assert _mono_span({"mono": 12.5, "pid": 1},
                          {"mono": 10.0, "pid": 1}) is None
        # missing stamps (legacy ledger) fall through to "?"
        assert _mono_span({"pid": 1}, {"mono": 10.0, "pid": 1}) is None
        span = _mono_span({"mono": 10.0, "pid": 1},
                          {"mono": 12.5, "pid": 1})
        assert span is not None and math.isclose(span, 2.5)


class TestScopedCounters:
    def test_use_counters_isolates_and_restores(self):
        from repro.observe import use_counters

        baseline = counters().get("scoped_test")
        scoped = Counters()
        with use_counters(scoped):
            add_count("scoped_test", 3)
            assert counters() is scoped
        assert scoped.get("scoped_test") == 3
        assert counters().get("scoped_test") == baseline

    def test_scope_is_thread_local_via_context_copy(self):
        # asyncio.to_thread copies the calling context; the scoped
        # aggregate must follow the copy while other threads keep the
        # global.  Exercised directly with contextvars.copy_context().
        import contextvars

        from repro.observe import use_counters

        scoped = Counters()
        with use_counters(scoped):
            context = contextvars.copy_context()
        baseline = counters().get("ctx_test")
        context.run(add_count, "ctx_test", 2)
        assert scoped.get("ctx_test") == 2
        assert counters().get("ctx_test") == baseline


class TestMultiStreamSummarize:
    """Ledgers written by several shard/pid streams must be regrouped
    per stream, never summarized as one interleaved run."""

    @staticmethod
    def _probe(t, m, shard=None, pid=None):
        event = {"t": t, "kind": "probe", "m": m, "successes": 1,
                 "trials": 10, "passed": True, "phase": "exponential",
                 "elapsed": 0.1}
        if shard is not None:
            event["shard"] = shard
        if pid is not None:
            event["pid"] = pid
        return event

    def _shard_events(self):
        # Interleaved in time, as concurrent shard appends would land.
        events = []
        for t, (shard, m) in enumerate([("0/3", 8), ("1/3", 8), ("2/3", 8),
                                        ("0/3", 16), ("2/3", 16),
                                        ("1/3", 16)]):
            events.append(self._probe(t, m, shard=shard, pid=100 + t % 3))
        return events

    def test_shard_streams_get_sections(self):
        text = summarize(self._shard_events())
        for label in ("shard 0/3", "shard 1/3", "shard 2/3"):
            assert f"=== {label}" in text
        assert "3 shard/pid streams" in text

    def test_sections_do_not_interleave(self):
        text = summarize(self._shard_events())
        # Each section holds exactly its own two probes: headers appear in
        # shard order and each section body mentions both probed m values.
        first = text.index("=== shard 0/3")
        second = text.index("=== shard 1/3")
        third = text.index("=== shard 2/3")
        assert first < second < third
        for lo, hi in ((first, second), (second, third), (third, len(text))):
            section = text[lo:hi]
            # Each shard stream holds exactly its own 2 events / 1 search.
            assert "(2 events)" in section
            assert "1 searches" in section

    def test_pid_grouping_without_shard_labels(self):
        events = [self._probe(0, 8, pid=41), self._probe(1, 8, pid=42),
                  self._probe(2, 16, pid=41)]
        text = summarize(events)
        assert "=== pid 41 (2 events)" in text
        assert "=== pid 42 (1 events)" in text

    def test_single_stream_renders_flat(self):
        # One pid = the pre-shard layout: no section headers.
        events = [self._probe(0, 8, pid=7), self._probe(1, 16, pid=7)]
        assert "===" not in summarize(events)

    def test_counters_fold_ignores_identity_fields(self):
        # pid/shard are stream identity, not counter payload: they must
        # not be summed into the counters table.  All events share one
        # pid, so the render stays flat and 4242 could only appear as a
        # (wrongly folded) counter row.
        events = [
            {"t": 0, "kind": "experiment_start", "experiment": "E1",
             "pid": 4242},
            {"t": 1, "kind": "counters", "experiment": "E1", "pid": 4242,
             "trials": 20},
            {"t": 2, "kind": "experiment_end", "experiment": "E1",
             "elapsed": 1.0, "metrics": {}, "pid": 4242},
        ]
        text = summarize(events)
        assert "===" not in text  # single stream: flat render
        assert "4242" not in text


class TestEventSegments:
    def test_segments_concatenate_in_order(self, tmp_path):
        paths = []
        for index, kind in enumerate(["a", "b"]):
            path = tmp_path / f"seg{index}.jsonl"
            path.write_text(json.dumps({"t": index, "kind": kind}) + "\n")
            paths.append(path)
        assert [e["kind"] for e in read_event_segments(paths)] == ["a", "b"]

    def test_torn_final_line_per_segment(self, tmp_path):
        # A shard killed mid-append leaves a torn *final* line in its own
        # segment; that must not poison the segments that follow it.
        first = tmp_path / "crashed.jsonl"
        first.write_text('{"t": 0, "kind": "a"}\n{"t": 1, "kind": "torn')
        second = tmp_path / "clean.jsonl"
        second.write_text('{"t": 2, "kind": "b"}\n')
        events = read_event_segments([first, second])
        assert [e["kind"] for e in events] == ["a", "b"]

    def test_missing_segment_is_empty(self, tmp_path):
        path = tmp_path / "only.jsonl"
        path.write_text('{"t": 0, "kind": "a"}\n')
        events = read_event_segments([tmp_path / "absent.jsonl", path])
        assert [e["kind"] for e in events] == ["a"]

    def test_summarize_paths_groups_segments(self, tmp_path):
        paths = []
        for index in range(2):
            path = tmp_path / f"shard{index}.jsonl"
            event = TestMultiStreamSummarize._probe(
                index, 8, shard=f"{index}/2", pid=50 + index)
            path.write_text(json.dumps(event) + "\n")
            paths.append(path)
        text = summarize_paths(paths)
        assert "=== shard 0/2" in text and "=== shard 1/2" in text


class TestShardLabelStamping:
    def test_events_carry_shard_and_pid(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path, shard="1/3") as ledger:
            ledger.emit("probe", m=8)
        [event] = read_events(path)
        assert event["shard"] == "1/3"
        assert event["pid"] == os.getpid()

    def test_no_shard_label_omits_field(self):
        with RunLedger() as ledger:
            ledger.emit("probe", m=8)
        [event] = ledger.events
        assert "shard" not in event
        assert event["pid"] == os.getpid()

    def test_explicit_field_wins_over_label(self):
        # An event that names its own shard (e.g. a merge report about
        # another shard's store) must not be overwritten by the label.
        with RunLedger(shard="0/2") as ledger:
            ledger.emit("shard_partial", shard="1/2")
        [event] = ledger.events
        assert event["shard"] == "1/2"


class TestResultJsonRoundTrip:
    def test_summarized_ledger_json_parseable(self, tmp_path):
        # Each ledger line individually parses as a JSON object.
        path, _ = TestSummarize()._ledger_events(tmp_path)
        for line in path.read_text().splitlines():
            assert isinstance(json.loads(line), dict)
