"""Tests for :mod:`repro.sanitize` — the determinism race detector.

Covers the ledger-recorded trace and the diff layer (stream traces,
double-consumption, draw-count drift), the :func:`~repro.sanitize.sanitized`
re-execution wrapper around the three probes, and seeded fault
injection: each of the historical failure modes (double-consumed child
streams, a cache spec missing a result-shaping field, NaN reaching a
JSON emit site) must be caught with the right diagnostic.  Run alone
with ``pytest -m sanitize``.
"""

import numpy as np
import pytest

from repro.cache import ProbeCache
from repro.core import tester
from repro.core.tester import (
    ShardPending,
    distortion_samples,
    failure_estimate,
    minimal_m,
)
from repro.experiments.harness import ExperimentResult
from repro.observe.ledger import RunLedger, deterministic_view
from repro.sanitize import (
    DeterminismError,
    cache_events,
    check_trace,
    diff_traces,
    replay_generator,
    sanitized,
    sanitized_rerun,
    stream_events,
)
from repro.sanitize.__main__ import main as sanitize_main
from repro.sketch.compose import StackedSketch, TwoStageSketch
from repro.sketch.countsketch import CountSketch
from repro.sketch.osnap import OSNAP
from repro.sketch.gaussian import GaussianSketch
from repro.hardinstances.dbeta import DBeta
from repro.utils.parallel import ShardSpec, available_cpus
from repro.utils.rng import (
    seed_fingerprint,
    spawn,
    spawn_seeds,
)

pytestmark = pytest.mark.sanitize


def _family():
    return CountSketch(m=40, n=64)


def _instance():
    return DBeta(n=64, d=4, reps=1)


def _spawn_event(base, count=2, entropy=7, spawn_key=(), **extra):
    event = {
        "kind": "spawn", "entropy": entropy,
        "spawn_key": list(spawn_key), "base": base, "count": count,
    }
    event.update(extra)
    return event


class TestRecorder:
    def test_nothing_recorded_outside_activation(self):
        ledger = RunLedger()
        spawn_seeds(np.random.default_rng(7), 3)
        assert ledger.events == []

    def test_spawn_events_carry_tree_position_and_counter(self):
        child = np.random.SeedSequence(9).spawn(2)[1]
        with RunLedger() as ledger:
            spawn_seeds(np.random.default_rng(7), 3)
            spawn_seeds(child, 2)
        events = stream_events(ledger.events)
        assert [e["kind"] for e in events] == ["spawn", "spawn"]
        first, second = events
        assert first["entropy"] == 7
        assert first["spawn_key"] == []
        assert first["base"] == 0 and first["count"] == 3
        assert second["entropy"] == 9
        assert second["spawn_key"] == [1]
        assert second["base"] == 0 and second["count"] == 2

    def test_spawn_counter_advances_across_calls(self):
        gen = np.random.default_rng(3)
        with RunLedger() as ledger:
            spawn_seeds(gen, 2)
            spawn_seeds(gen, 2)
        bases = [e["base"] for e in stream_events(ledger.events)]
        assert bases == [0, 2]

    def test_site_provenance_attached_but_not_compared(self):
        with RunLedger() as ledger:
            spawn(np.random.default_rng(0))
        event = stream_events(ledger.events)[0]
        module, line, function = event["site"].split(":")
        assert "test_sanitize" in module and int(line) > 0
        assert function == "test_site_provenance_attached_but_not_compared"
        assert "site" not in deterministic_view([event])[0]

    def test_probe_cache_lookups_reach_the_recorder(self, tmp_path):
        cache = ProbeCache(tmp_path)
        with RunLedger() as ledger:
            for _ in range(2):
                failure_estimate(_family(), _instance(), 0.3, 6,
                                 rng=np.random.default_rng(1), cache=cache)
        kinds = [e["kind"] for e in cache_events(ledger.events)]
        assert kinds == ["cache_miss", "cache_hit"]


class TestCheckTrace:
    def test_one_live_parent_never_overlaps(self):
        gen = np.random.default_rng(3)
        with RunLedger() as ledger:
            spawn_seeds(gen, 4)
            spawn_seeds(gen, 4)
        assert check_trace(ledger.events) == []

    def test_rebuilt_parent_double_consumption_detected(self):
        # Two distinct SeedSequence objects at the same spawn-tree
        # position: the classic race that silently correlates trials.
        with RunLedger() as ledger:
            spawn_seeds(np.random.default_rng(7), 2)
            spawn_seeds(np.random.default_rng(7), 2)
        faults = check_trace(ledger.events)
        assert [fault.kind for fault in faults] == ["double-consumption"]
        assert "handed out twice" in faults[0].detail

    def _shard_slices(self, tmp_path, shards):
        """Run the given shard slices of one probe under one ledger."""
        cache = ProbeCache(tmp_path)
        with RunLedger() as ledger:
            for shard in shards:
                with pytest.raises(ShardPending):
                    distortion_samples(_family(), _instance(), 12,
                                       np.random.default_rng(7),
                                       cache=cache, shard=shard)
        return ledger.events

    def test_shard_slice_spawns_one_child_per_probe(self, tmp_path):
        # A shard's slice of trial indices consumes one probe-level spawn
        # of its own pass, whatever the span.
        trace = self._shard_slices(tmp_path, [(1, 3)])
        [event] = stream_events(trace)
        assert (event["kind"], event["base"], event["count"]) == \
            ("spawn", 0, 1)
        assert check_trace(trace) == []

    def test_two_shard_slices_in_one_pass_detected(self, tmp_path):
        # Shards rebuild the parent from the seed, so two of them inside
        # one recording hand out the probe's child twice; each shard pass
        # must record into a ledger of its own.
        trace = self._shard_slices(tmp_path, [(0, 3), (2, 3)])
        faults = check_trace(trace)
        assert [fault.kind for fault in faults] == ["double-consumption"]
        assert "[0, 1)" in faults[0].detail


class TestDiffTraces:
    def test_identical_traces_agree(self):
        assert diff_traces([_spawn_event(0)], [_spawn_event(0)]) is None

    def test_provenance_differences_are_ignored(self):
        reference = [_spawn_event(0, site="cold:1:run", t=1.0, pid=10)]
        candidate = [_spawn_event(0, site="hit:9:replay", t=2.0, pid=11)]
        assert diff_traces(reference, candidate) is None

    def test_draw_count_drift_classified(self):
        divergence = diff_traces([_spawn_event(0)], [_spawn_event(2)],
                                 axis="workers=4")
        assert divergence is not None
        assert divergence.kind == "draw-count-drift"
        assert divergence.axis == "workers=4"
        assert "spawn counter 2 instead of 0" in divergence.detail

    def test_different_parent_is_stream_divergence(self):
        divergence = diff_traces([_spawn_event(0, entropy=7)],
                                 [_spawn_event(0, entropy=8)])
        assert divergence is not None
        assert divergence.kind == "stream-divergence"

    def test_length_mismatch_reported_at_first_missing_event(self):
        reference = [_spawn_event(0), _spawn_event(2)]
        divergence = diff_traces(reference, reference[:1])
        assert divergence is not None
        assert divergence.kind == "missing-events" and divergence.index == 1
        extra = diff_traces(reference[:1], reference)
        assert extra is not None and extra.kind == "extra-events"

    def test_execution_events_ignored_and_other_events_compared(self):
        # A recorded ledger holds every event of the run; the diff
        # compares its deterministic view, so trial batches and cache
        # lookups are ignored and probes are compared.
        probe = {"kind": "probe", "m": 8, "successes": 2, "elapsed": 0.1}
        reference = [probe, {"kind": "cache_miss", "key": "ab"},
                     _spawn_event(0)]
        candidate = [{"kind": "batch_done", "batch": 3},
                     {**probe, "elapsed": 0.7}, _spawn_event(0)]
        assert diff_traces(reference, candidate) is None
        assert diff_traces([probe, _spawn_event(0)],
                           [_spawn_event(0), probe]) is not None

    def test_other_event_mismatch_is_event_divergence(self):
        probe = {"kind": "probe", "m": 8, "successes": 2, "trials": 10}
        divergence = diff_traces(
            [_spawn_event(0), probe],
            [_spawn_event(0), {**probe, "successes": 3}],
            axis="shards=3",
        )
        assert divergence is not None
        assert divergence.kind == "event-divergence"
        assert divergence.index == 1
        assert "successes" in divergence.detail


class TestReplayGenerator:
    def test_replay_spawns_bit_identical_children(self):
        gen = np.random.default_rng(123)
        spawn(gen)
        spawn(gen)
        replay = replay_generator(seed_fingerprint(gen))
        expected = spawn(gen).integers(0, 2**63)
        assert spawn(replay).integers(0, 2**63) == expected

    def test_raw_state_generator_rejected(self, monkeypatch):
        monkeypatch.setattr("repro.sanitize.runtime.seed_fingerprint",
                            lambda gen: None)
        with pytest.raises(DeterminismError, match="raw bit-generator"):
            sanitized_rerun("probe", lambda gen, workers, cache: 0.0,
                            rng=np.random.default_rng(0))


class TestSanitizedHook:
    def test_failure_estimate_matches_plain_and_stream_transparent(self):
        family, instance = _family(), _instance()
        plain_rng = np.random.default_rng(42)
        plain = failure_estimate(family, instance, 0.3, 12, rng=plain_rng)
        sanitized_rng = np.random.default_rng(42)
        checked = sanitized(failure_estimate, family, instance, 0.3, 12,
                            rng=sanitized_rng)
        assert checked == plain
        # The caller's generator ends in the same state either way.
        assert seed_fingerprint(sanitized_rng) == seed_fingerprint(plain_rng)

    def test_distortion_samples_sanitized_across_workers(self):
        family, instance = _family(), _instance()
        plain = distortion_samples(family, instance, 10,
                                   rng=np.random.default_rng(9))
        checked = sanitized(distortion_samples, family, instance, 10,
                            rng=np.random.default_rng(9), workers=2)
        assert np.asarray(checked).tobytes() == np.asarray(plain).tobytes()

    def test_minimal_m_sanitized_matches_plain(self):
        family, instance = _family(), _instance()
        plain = minimal_m(family, instance, 0.5, 0.25, trials=8, m_min=8,
                          rng=np.random.default_rng(1))
        checked = sanitized(minimal_m, family, instance, 0.5, 0.25,
                            trials=8, m_min=8, rng=np.random.default_rng(1))
        assert checked == plain

    def test_sanitized_passes_on_warm_cache(self, tmp_path):
        family, instance = _family(), _instance()
        cache = ProbeCache(tmp_path)
        failure_estimate(family, instance, 0.3, 12,
                         rng=np.random.default_rng(5), cache=cache)
        checked = sanitized(failure_estimate, family, instance, 0.3, 12,
                            rng=np.random.default_rng(5), cache=cache,
                            workers=2)
        plain = failure_estimate(family, instance, 0.3, 12,
                                 rng=np.random.default_rng(5))
        assert checked == plain

    @pytest.mark.parametrize("family", [
        TwoStageSketch(CountSketch(64, 512), GaussianSketch(16, 64)),
        StackedSketch([GaussianSketch(8, 512)] * 2),
    ], ids=["two-stage", "stacked"])
    def test_families_that_spawn_in_trials_sanitized_across_workers(
            self, family):
        # Their sample() spawns per trial; a trial chunk logs nothing,
        # wherever it runs.
        instance = DBeta(512, 4)
        plain = failure_estimate(family, instance, 0.5, 16,
                                 rng=np.random.default_rng(3))
        checked = sanitized(failure_estimate, family, instance, 0.5, 16,
                            rng=np.random.default_rng(3), workers=2)
        assert checked == plain

    def test_sanitized_rejects_shard_passes(self):
        with pytest.raises(ValueError, match="sanitized= cannot be combined"):
            sanitized(failure_estimate, _family(), _instance(), 0.3, 12,
                      rng=np.random.default_rng(0),
                      shard=ShardSpec(index=0, count=2))


class TestFaultInjection:
    def test_double_consumed_child_stream_caught(self):
        # A workload that rebuilds "the same" parent twice instead of
        # threading one generator: both spawns occupy spawn-tree slot 0.
        def racy(gen, workers, cache):
            first = spawn_seeds(np.random.default_rng(11), 2)
            second = spawn_seeds(np.random.default_rng(11), 2)
            return float(len(first) + len(second))

        with pytest.raises(DeterminismError,
                           match="double-consumed child stream"):
            sanitized_rerun("racy_probe", racy,
                            rng=np.random.default_rng(0))

    def test_dropped_spec_field_caught_as_result_mismatch(self, tmp_path,
                                                          monkeypatch):
        # Re-create the PR 6 bug class: a result-shaping parameter
        # (epsilon here) silently missing from the cache spec, so two
        # distinct probes collide on one key.  The sanitizer's serial
        # cache-off replay computes the true value and flags the stale
        # cached bytes.
        real_spec = tester._probe_spec

        def leaky_spec(family, instance, fingerprint, trials, **params):
            params.pop("epsilon", None)
            return real_spec(family, instance, fingerprint, trials, **params)

        monkeypatch.setattr(tester, "_probe_spec", leaky_spec)
        # A Gaussian sketch's distortions are continuous, so epsilon
        # genuinely shapes the estimate (CountSketch-on-DBeta distortion
        # is the binary collision indicator and would mask the fault).
        family, instance = GaussianSketch(m=12, n=64), _instance()
        cache = ProbeCache(tmp_path)
        polluting = failure_estimate(family, instance, 0.05, 12,
                                     rng=np.random.default_rng(3),
                                     cache=cache)
        honest = failure_estimate(family, instance, 0.9, 12,
                                  rng=np.random.default_rng(3))
        assert polluting != honest, "fixture epsilons must disagree"
        with pytest.raises(DeterminismError, match="results differ"):
            sanitized(failure_estimate, family, instance, 0.9, 12,
                      rng=np.random.default_rng(3), cache=cache)

    def test_nan_metric_fails_at_the_emit_site(self, tmp_path):
        result = ExperimentResult(experiment_id="EX", title="nan probe")
        result.metrics["exponent"] = float("nan")
        with pytest.raises(ValueError):
            result.save_json(tmp_path / "result.json")


def _probe_experiment(workers_shape_result):
    """A ``run_experiment`` stand-in: one real probe, whose result bytes
    depend on ``workers`` only when ``workers_shape_result`` (the fault)."""

    def run(experiment_id, scale, rng, workers=1, cache=None, shard=None):
        values = distortion_samples(
            OSNAP(m=40, n=64, s=2), _instance(), 12,
            np.random.default_rng(rng), workers=workers, cache=cache,
            shard=shard,
        )
        result = ExperimentResult(experiment_id=experiment_id,
                                  title="probe")
        result.metrics["mean"] = float(values.mean())
        if workers_shape_result:
            result.metrics["workers"] = workers
        return result

    return run


class TestAxisBattery:
    """Every axis compares its result bytes with the serial reference's,
    not only its stream trace."""

    def _axes(self, monkeypatch, tmp_path, fault):
        from repro.sanitize import runner

        monkeypatch.setattr(runner, "run_experiment",
                            _probe_experiment(fault))
        report = runner.sanitize_experiment("EX", workers=2, shards=2,
                                            shard_dir=tmp_path)
        return report, {axis["axis"]: axis for axis in report["axes"]}

    def test_every_axis_reproduces_the_serial_bytes(self, monkeypatch,
                                                    tmp_path):
        report, axes = self._axes(monkeypatch, tmp_path, fault=False)
        assert report["status"] == "ok"
        assert all(entry["result_match"] for entry in axes.values())

    @pytest.mark.skipif(available_cpus() < 2,
                        reason="the workers axis runs serially on one CPU")
    def test_workers_dependent_result_is_caught(self, monkeypatch,
                                                tmp_path):
        # The pool chunks the trials differently but keeps every stream:
        # only the comparison of result bytes can catch it.
        report, axes = self._axes(monkeypatch, tmp_path, fault=True)
        assert report["status"] == "divergent"
        assert not axes["workers=2"]["result_match"]
        assert not axes["workers=2"]["divergences"]
        assert all(entry["result_match"] for name, entry in axes.items()
                   if name != "workers=2")


class TestCli:
    def test_nonpositive_axis_exits_two(self, capsys):
        assert sanitize_main(["run", "--workers", "0", "--", "E1"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_batch_is_not_an_option(self, capsys):
        # The trial chunk size is the executor's choice, on no axis.
        with pytest.raises(SystemExit) as excinfo:
            sanitize_main(["run", "--batch", "8", "--", "E5"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --batch" in capsys.readouterr().err

    def test_missing_experiment_exits_two(self, capsys):
        assert sanitize_main(["run", "--"]) == 2
        assert "no experiment selected" in capsys.readouterr().err

    def test_unknown_experiment_exits_two(self, capsys):
        assert sanitize_main(["run", "--", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err
