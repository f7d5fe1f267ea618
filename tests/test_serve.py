"""Tests for the estimation server (:mod:`repro.serve`).

Four layers, matching the package's own:

* parameter validation — spec round-trips, unknown types, bad values;
* the single-flight gate — coalescing, backpressure, drain;
* the service — offline bit-identity (cold and warm), replay envelopes,
  per-request cache tallies, exactly-one-computation under concurrent
  duplicates (asserted from the ledger's ``batch_dispatch`` events);
* the HTTP transport — status mapping, Retry-After, graceful shutdown.

Concurrency-sensitive tests never sleep-and-hope: the computation is
blocked on a :class:`threading.Event` injected into ``_execute``, so
followers attach and rejections trigger deterministically.
"""

import asyncio
import importlib.util
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.cache import ProbeCache
from repro.core.tester import failure_estimate, minimal_m
from repro.hardinstances import DBeta, MixtureInstance, PermutedIdentity
from repro.observe.ledger import read_events
from repro.serve import (
    BadRequest,
    Draining,
    EstimationService,
    Overloaded,
    ServeClient,
    ServeError,
    ServeHTTP,
    SingleFlightGate,
    family_from_spec,
    instance_from_spec,
)
from repro.sketch import CountSketch, OSNAP
from repro.utils.rng import seed_fingerprint

pytestmark = pytest.mark.serve

FAMILY_SPEC = {"type": "CountSketch", "params": {"m": 16, "n": 64}}
INSTANCE_SPEC = {"type": "PermutedIdentity", "n": 64, "d": 4}
ESTIMATE_REQUEST = {
    "family": FAMILY_SPEC,
    "instance": INSTANCE_SPEC,
    "epsilon": 0.5,
    "trials": 40,
    "seed": 0,
}


class TestParams:
    def test_family_round_trips(self):
        family = family_from_spec(FAMILY_SPEC)
        assert isinstance(family, CountSketch)
        assert family.spec() == CountSketch(16, 64).spec()

    def test_family_with_defaults_omitted(self):
        family = family_from_spec(
            {"type": "OSNAP", "params": {"m": 8, "n": 32, "s": 2}}
        )
        assert isinstance(family, OSNAP)
        assert family.spec()["params"]["variant"] == "uniform"

    def test_unknown_family_rejected(self):
        with pytest.raises(BadRequest, match="unknown sketch family"):
            family_from_spec({"type": "NoSuchSketch", "params": {}})

    def test_bogus_param_rejected(self):
        with pytest.raises(BadRequest, match="unknown field"):
            family_from_spec(
                {"type": "CountSketch",
                 "params": {"m": 16, "n": 64, "sparsity": 3}}
            )

    def test_invalid_param_value_rejected(self):
        with pytest.raises(BadRequest):
            family_from_spec(
                {"type": "CountSketch", "params": {"m": -1, "n": 64}}
            )

    def test_instance_partial_spec_fills_defaults(self):
        instance = instance_from_spec(INSTANCE_SPEC)
        assert isinstance(instance, PermutedIdentity)
        # the canonical spec carries the DBeta base's defaulted fields
        assert instance.spec()["reps"] == 1

    def test_instance_wrong_value_rejected(self):
        with pytest.raises(BadRequest, match="round-trip"):
            instance_from_spec(
                {"type": "PermutedIdentity", "n": 64, "d": 4, "reps": 3}
            )

    def test_mixture_rebuilt_recursively(self):
        mixture = MixtureInstance(
            [DBeta(64, 4), PermutedIdentity(64, 4)], [0.25, 0.75],
        )
        rebuilt = instance_from_spec(mixture.spec())
        assert rebuilt.spec() == mixture.spec()

    def test_non_dict_spec_rejected(self):
        with pytest.raises(BadRequest, match="spec object"):
            family_from_spec("CountSketch")

    def test_hashed_family_stream_field(self):
        # Requests may omit the stream version (FAMILY_SPEC does) or name
        # the current one; a request for another stream cannot be served.
        current = CountSketch(16, 64).spec()
        assert "stream" in current
        assert family_from_spec(current).spec() == current
        with pytest.raises(BadRequest, match="stream"):
            family_from_spec(dict(current, stream=current["stream"] - 1))


class TestSingleFlightGate:
    def test_inflight_bound_validated(self):
        with pytest.raises(ValueError):
            SingleFlightGate(0)

    def test_leader_exception_propagates_to_followers(self):
        async def scenario():
            gate = SingleFlightGate(4)
            release = asyncio.Event()

            async def failing():
                await release.wait()
                raise RuntimeError("boom")

            async def fast():
                return "never"

            leader = asyncio.create_task(gate.run("k", failing))
            await asyncio.sleep(0)
            follower = asyncio.create_task(gate.run("k", fast))
            await asyncio.sleep(0)
            release.set()
            with pytest.raises(RuntimeError, match="boom"):
                await leader
            with pytest.raises(RuntimeError, match="boom"):
                await follower

        asyncio.run(scenario())

    def test_distinct_keys_beyond_limit_rejected(self):
        async def scenario():
            gate = SingleFlightGate(1)
            release = asyncio.Event()

            async def slow():
                await release.wait()
                return 1

            leader = asyncio.create_task(gate.run("a", slow))
            await asyncio.sleep(0)
            with pytest.raises(Overloaded) as excinfo:
                await gate.run("b", slow)
            assert excinfo.value.retry_after > 0
            release.set()
            assert await leader == (1, False)

        asyncio.run(scenario())

    def test_drain_refuses_new_and_waits_for_inflight(self):
        async def scenario():
            gate = SingleFlightGate(4)
            release = asyncio.Event()
            done = []

            async def slow():
                await release.wait()
                done.append(True)
                return 42

            leader = asyncio.create_task(gate.run("a", slow))
            await asyncio.sleep(0)
            drainer = asyncio.create_task(gate.drain())
            await asyncio.sleep(0)
            with pytest.raises(Draining):
                await gate.run("b", slow)
            assert not drainer.done()
            release.set()
            await drainer
            assert done == [True]
            assert await leader == (42, False)

        asyncio.run(scenario())


def _blocking_execute(monkeypatch, started, release):
    """Patch ``_execute`` to block until ``release`` (deterministic
    concurrency: followers attach / rejections fire while blocked)."""
    original = EstimationService._execute

    def blocked(self, plan):
        started.set()
        assert release.wait(timeout=30), "test deadlock: never released"
        return original(self, plan)

    monkeypatch.setattr(EstimationService, "_execute", blocked)


class TestServiceIdentity:
    def test_cold_response_matches_offline_api(self, tmp_path):
        service = EstimationService(tmp_path / "cache")
        response = asyncio.run(
            service.handle("failure_estimate", ESTIMATE_REQUEST)
        )
        offline = failure_estimate(
            CountSketch(16, 64), PermutedIdentity(64, 4), 0.5, 40, rng=0,
        )
        assert response["result"]["successes"] == offline.successes
        assert response["result"]["trials"] == offline.trials
        assert response["result"]["point"] == offline.point
        assert response["cache"] == {"hits": 0, "misses": 1}
        service.close()

    def test_warm_response_byte_identical_and_hit(self, tmp_path):
        service = EstimationService(tmp_path / "cache")
        cold = asyncio.run(
            service.handle("failure_estimate", ESTIMATE_REQUEST)
        )
        warm = asyncio.run(
            service.handle("failure_estimate", ESTIMATE_REQUEST)
        )
        assert json.dumps(cold["result"], sort_keys=True) == \
            json.dumps(warm["result"], sort_keys=True)
        assert warm["cache"] == {"hits": 1, "misses": 0}
        assert cold["replay"] == warm["replay"]
        service.close()

    def test_warm_across_service_instances_shares_cli_cache(self, tmp_path):
        # A CLI-style offline run against the same cache directory warms
        # the server: the shared store is one economy, not two.
        cache = ProbeCache(tmp_path / "cache")
        failure_estimate(
            CountSketch(16, 64), PermutedIdentity(64, 4), 0.5, 40, rng=0,
            cache=cache,
        )
        cache.close()
        service = EstimationService(tmp_path / "cache")
        response = asyncio.run(
            service.handle("failure_estimate", ESTIMATE_REQUEST)
        )
        assert response["cache"] == {"hits": 1, "misses": 0}
        service.close()

    def test_minimal_m_matches_offline(self, tmp_path):
        service = EstimationService(tmp_path / "cache")
        response = asyncio.run(service.handle("minimal_m", {
            "family": FAMILY_SPEC, "instance": INSTANCE_SPEC,
            "epsilon": 0.5, "delta": 0.2, "trials": 30, "m_max": 64,
            "seed": 7,
        }))
        offline = minimal_m(
            CountSketch(16, 64), PermutedIdentity(64, 4), 0.5, 0.2,
            trials=30, m_max=64, rng=7,
        )
        assert response["result"]["m_star"] == offline.m_star
        assert len(response["result"]["evaluations"]) == \
            len(offline.evaluations)
        service.close()

    def test_replay_envelope_names_the_computation(self, tmp_path):
        service = EstimationService(tmp_path / "cache")
        request = dict(ESTIMATE_REQUEST, seed=5, spawn_key=[2, 1])
        response = asyncio.run(
            service.handle("failure_estimate", request)
        )
        replay = response["replay"]
        assert replay["endpoint"] == "failure_estimate"
        assert replay["seed"] == 5 and replay["spawn_key"] == [2, 1]
        expected = seed_fingerprint(
            np.random.SeedSequence(5, spawn_key=(2, 1))
        )
        assert replay["seed_fingerprint"] == expected
        assert replay["params"]["family"] == CountSketch(16, 64).spec()
        service.close()

    def test_served_request_stream_is_in_the_ledger(self, tmp_path):
        ledger_path = tmp_path / "serve-ledger.jsonl"
        service = EstimationService(tmp_path / "cache",
                                    ledger_path=ledger_path)
        request = dict(ESTIMATE_REQUEST, seed=5, spawn_key=[2])
        response = asyncio.run(
            service.handle("failure_estimate", request)
        )
        service.close()
        events = read_events(ledger_path)
        kinds = [event["kind"] for event in events]
        served = events[kinds.index("request_start"):
                        kinds.index("request_done")]
        spawns = [(event["entropy"], event["spawn_key"], event["count"],
                   event["base"])
                  for event in served if event["kind"] == "spawn"]
        fingerprint = response["replay"]["seed_fingerprint"]
        assert spawns == [(5, [2], 1, fingerprint["children_spawned"])]

    def test_batch_is_a_chunk_size_outside_the_key(self, tmp_path):
        # Requests that differ only in batch share one key and replay,
        # and a record computed at one batch is a hit at another.
        service = EstimationService(tmp_path / "cache")
        plans = [service._plan("failure_estimate",
                               dict(ESTIMATE_REQUEST, batch=batch))
                 for batch in (8, 3)]
        plans.append(service._plan("failure_estimate", ESTIMATE_REQUEST))
        assert len({plan.key for plan in plans}) == 1
        assert all(plan.replay == plans[0].replay for plan in plans)
        assert "batch" not in plans[0].replay["params"]
        cold = asyncio.run(service.handle(
            "failure_estimate", dict(ESTIMATE_REQUEST, batch=8),
        ))
        warm = asyncio.run(
            service.handle("failure_estimate", ESTIMATE_REQUEST)
        )
        assert warm["cache"] == {"hits": 1, "misses": 0}
        assert cold["result"] == warm["result"]
        with pytest.raises(BadRequest):
            service._plan("failure_estimate",
                          dict(ESTIMATE_REQUEST, batch=0))
        service.close()

    def test_client_import_leaves_the_server_unloaded(self):
        # The client is importable on its own: neither asyncio nor the
        # experiments the server runs come with it.
        import subprocess

        probe = ("import sys, repro.serve.client; "
                 "print('asyncio' in sys.modules, "
                 "'repro.serve.service' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True,
                             env=TestKilledServerRestart._env())
        assert out.stdout.split() == ["False", "False"]

    def test_spawn_key_changes_the_stream(self, tmp_path):
        service = EstimationService(tmp_path / "cache")
        base = asyncio.run(
            service.handle("failure_estimate", ESTIMATE_REQUEST)
        )
        keyed = asyncio.run(service.handle(
            "failure_estimate", dict(ESTIMATE_REQUEST, spawn_key=[1]),
        ))
        assert base["replay"]["key"] != keyed["replay"]["key"]
        service.close()

    def test_validation_errors_are_bad_requests(self, tmp_path):
        service = EstimationService(tmp_path / "cache")
        cases = [
            ("failure_estimate", {}),
            ("failure_estimate", dict(ESTIMATE_REQUEST, trials=0)),
            ("failure_estimate", dict(ESTIMATE_REQUEST, seed=-1)),
            ("failure_estimate", dict(ESTIMATE_REQUEST, epsilon="big")),
            ("nonsense_endpoint", {}),
            ("run_experiment", {"experiment": "E999"}),
            ("minimal_m", {"family": FAMILY_SPEC,
                           "instance": INSTANCE_SPEC,
                           "epsilon": 0.5, "delta": 1.5}),
            ("sketch_apply", {"family": FAMILY_SPEC,
                              "matrix": [[1.0, 2.0]]}),
        ]
        for endpoint, payload in cases:
            with pytest.raises(BadRequest):
                asyncio.run(service.handle(endpoint, payload))
        service.close()


class TestServiceConcurrency:
    def test_concurrent_duplicates_compute_once(self, tmp_path,
                                                monkeypatch):
        ledger = tmp_path / "ledger.jsonl"
        started = threading.Event()
        release = threading.Event()
        _blocking_execute(monkeypatch, started, release)

        async def scenario():
            service = EstimationService(
                tmp_path / "cache", ledger_path=ledger, max_inflight=2,
            )
            tasks = [
                asyncio.create_task(
                    service.handle("failure_estimate", ESTIMATE_REQUEST)
                )
                for _ in range(5)
            ]
            while not started.is_set():
                await asyncio.sleep(0.01)
            # the leader is blocked in its thread; cycle the loop until
            # every other task has attached to the pending future
            for _ in range(20):
                await asyncio.sleep(0)
            assert service.gate.inflight == 1
            release.set()
            responses = await asyncio.gather(*tasks)
            service.close()
            return responses

        responses = asyncio.run(scenario())
        payloads = {
            json.dumps(response, sort_keys=True) for response in responses
        }
        assert len(payloads) == 1  # N identical replayable responses
        events = read_events(ledger)
        kinds = [event["kind"] for event in events]
        assert kinds.count("batch_dispatch") == 1  # exactly 1 computation
        assert kinds.count("request_start") == 1
        assert kinds.count("cache_miss") == 1
        assert kinds.count("cache_hit") == 0

    def test_backpressure_rejects_distinct_excess_work(self, tmp_path,
                                                       monkeypatch):
        started = threading.Event()
        release = threading.Event()
        _blocking_execute(monkeypatch, started, release)

        async def scenario():
            service = EstimationService(
                tmp_path / "cache", max_inflight=1,
            )
            leader = asyncio.create_task(
                service.handle("failure_estimate", ESTIMATE_REQUEST)
            )
            while not started.is_set():
                await asyncio.sleep(0.01)
            other = dict(ESTIMATE_REQUEST, trials=41)
            with pytest.raises(Overloaded) as excinfo:
                await service.handle("failure_estimate", other)
            assert excinfo.value.retry_after > 0
            # duplicates of the in-flight request still coalesce freely
            follower = asyncio.create_task(
                service.handle("failure_estimate", ESTIMATE_REQUEST)
            )
            for _ in range(20):
                await asyncio.sleep(0)
            release.set()
            first, second = await asyncio.gather(leader, follower)
            service.close()
            assert first == second

        asyncio.run(scenario())

    def test_drain_finishes_inflight_then_refuses(self, tmp_path,
                                                  monkeypatch):
        started = threading.Event()
        release = threading.Event()
        _blocking_execute(monkeypatch, started, release)

        async def scenario():
            service = EstimationService(tmp_path / "cache")
            leader = asyncio.create_task(
                service.handle("failure_estimate", ESTIMATE_REQUEST)
            )
            while not started.is_set():
                await asyncio.sleep(0.01)
            drainer = asyncio.create_task(service.drain())
            await asyncio.sleep(0)
            with pytest.raises(Draining):
                await service.handle(
                    "failure_estimate", dict(ESTIMATE_REQUEST, trials=99),
                )
            assert not drainer.done()
            release.set()
            await drainer
            response = await leader
            service.close()
            assert response["result"]["trials"] == 40

        asyncio.run(scenario())


class TestHTTP:
    @staticmethod
    async def _with_server(tmp_path, fn, **service_kwargs):
        service = EstimationService(tmp_path / "cache", **service_kwargs)
        server = ServeHTTP(service, port=0)
        await server.start()
        host, port = server.address
        client = ServeClient(f"http://{host}:{port}")
        try:
            return await fn(client)
        finally:
            await server.shutdown()

    def test_healthz_metrics_and_compute(self, tmp_path):
        async def check(client):
            health = await asyncio.to_thread(client.healthz)
            assert health["status"] == "ok"
            cold = await asyncio.to_thread(
                client.call, "failure_estimate", ESTIMATE_REQUEST,
            )
            warm = await asyncio.to_thread(
                client.call, "failure_estimate", ESTIMATE_REQUEST,
            )
            assert cold["result"] == warm["result"]
            assert warm["cache"] == {"hits": 1, "misses": 0}
            metrics = await asyncio.to_thread(client.metrics)
            assert metrics["server"]["requests_total"] == 2
            assert metrics["counters"]["cache_hit"] >= 1

        asyncio.run(self._with_server(tmp_path, check))

    def test_http_error_mapping(self, tmp_path):
        async def check(client):
            with pytest.raises(ServeError) as excinfo:
                await asyncio.to_thread(
                    client.call, "failure_estimate", {"epsilon": 0.5},
                )
            assert excinfo.value.status == 400
            with pytest.raises(ServeError) as excinfo:
                await asyncio.to_thread(client.call, "no_such", {})
            assert excinfo.value.status == 404
            with pytest.raises(ServeError) as excinfo:
                await asyncio.to_thread(
                    client._request, "POST", "/healthz", {},
                )
            assert excinfo.value.status == 405

        asyncio.run(self._with_server(tmp_path, check))

    def test_unknown_field_is_a_400_on_every_endpoint(self, tmp_path):
        # Each body is valid but for one field its endpoint never reads:
        # a typo, or a knob another endpoint takes.  None may be ignored.
        search = {"family": FAMILY_SPEC, "instance": INSTANCE_SPEC,
                  "epsilon": 0.5, "delta": 0.2, "m_max": 64}
        samples = {"family": FAMILY_SPEC, "instance": INSTANCE_SPEC,
                   "trials": 4}
        cases = [
            ("failure_estimate", dict(ESTIMATE_REQUEST, trails=7)),
            ("distortion_samples", dict(samples, fresh_sketch=False)),
            ("minimal_m", dict(search, trails=7)),
            ("minimal_m", dict(search, batch=8)),
            ("run_experiment", {"experiment": "E1", "batch": 8}),
            ("sketch_apply", {"family": FAMILY_SPEC,
                              "matrix": [[1.0]] * 64, "lazy": True}),
            ("run_experiment", {"experiment": "E1", "workers": 2}),
        ]

        async def check(client):
            for endpoint, payload in cases:
                with pytest.raises(ServeError) as excinfo:
                    await asyncio.to_thread(client.call, endpoint, payload)
                assert excinfo.value.status == 400, endpoint
                assert "unknown field" in str(excinfo.value), endpoint

        asyncio.run(self._with_server(tmp_path, check))

    def test_benchmark_request_bodies_are_accepted(self, tmp_path,
                                                   monkeypatch):
        # perfbench's served workload posts these bodies; planning them
        # must not trip the unknown-field check.
        path = Path(__file__).resolve().parents[1] / "perfbench" \
            / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      path)
        workloads = importlib.util.module_from_spec(spec)
        # Its dataclasses resolve their module through sys.modules.
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec.loader.exec_module(workloads)
        service = EstimationService(tmp_path / "cache")
        for endpoint, body in [("failure_estimate", workloads.FE_REQUEST),
                               ("minimal_m", workloads.MM_REQUEST)]:
            plan = service._plan(endpoint, dict(body, seed=1))
            assert plan.replay["params"]["trials"] == body["trials"]
        service.close()

    def test_http_429_carries_retry_after(self, tmp_path, monkeypatch):
        started = threading.Event()
        release = threading.Event()
        _blocking_execute(monkeypatch, started, release)

        async def check(client):
            blocked = asyncio.create_task(asyncio.to_thread(
                client.call, "failure_estimate", ESTIMATE_REQUEST,
            ))
            while not started.is_set():
                await asyncio.sleep(0.01)
            with pytest.raises(ServeError) as excinfo:
                await asyncio.to_thread(
                    client.call, "failure_estimate",
                    dict(ESTIMATE_REQUEST, trials=41),
                )
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            release.set()
            await blocked

        asyncio.run(
            self._with_server(tmp_path, check, max_inflight=1)
        )

    def test_server_ledger_summarizes(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"

        async def check(client):
            await asyncio.to_thread(
                client.call, "failure_estimate", ESTIMATE_REQUEST,
            )
            await asyncio.to_thread(
                client.call, "failure_estimate", ESTIMATE_REQUEST,
            )

        asyncio.run(
            self._with_server(tmp_path, check, ledger_path=ledger)
        )
        from repro.observe.summarize import summarize_path

        report = summarize_path(ledger)
        assert "Probe cache: 1/2 hits" in report


#: A cold request that computes for about a second at the reference
#: grid, long enough to kill the server while it is in flight.
SLOW_REQUEST = {
    "family": {"type": "CountSketch", "params": {"m": 1024, "n": 16384}},
    "instance": {"type": "DBeta", "n": 16384, "d": 64, "reps": 1},
    "epsilon": 0.5,
    "trials": 2000,
    "seed": 5,
}


class TestKilledServerRestart:
    """``kill -9`` of ``python -m repro.serve`` mid-request, then a restart
    on the same ``--cache-dir``: the store and the request ledger both
    carry on past the dead writer's torn lines."""

    @staticmethod
    def _env():
        import os
        from pathlib import Path

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parents[1])]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        return env

    def _start(self, cache_dir):
        import subprocess
        import sys

        server = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--cache-dir", str(cache_dir)],
            stdout=subprocess.PIPE, env=self._env(), text=True,
        )
        line = server.stdout.readline()
        if not line.startswith("serving on "):
            server.kill()
            server.wait(timeout=30)
            server.stdout.close()
            pytest.fail(f"repro.serve did not start: {line!r}")
        return server, ServeClient(line.split()[-1])

    def test_kill_9_mid_request_then_restart_on_the_same_store(
            self, tmp_path):
        import http.client
        import subprocess
        import sys
        import time

        from repro.cache.store import JsonlStore

        cache_dir = tmp_path / "cache"
        store_path = cache_dir / ProbeCache.FILENAME
        ledger_path = cache_dir / "serve-ledger.jsonl"
        server, client = self._start(cache_dir)
        try:
            before = client.call("failure_estimate", ESTIMATE_REQUEST)
            stored = len(JsonlStore(store_path).load())
            interrupted = []

            def cold():
                try:
                    client.call("failure_estimate", SLOW_REQUEST)
                except (ConnectionError, http.client.HTTPException) as exc:
                    interrupted.append(exc)  # the connection dies with it

            caller = threading.Thread(target=cold)
            caller.start()
            deadline = time.monotonic() + 60
            while client.healthz()["inflight"] == 0:
                assert time.monotonic() < deadline, "request never started"
                time.sleep(0.01)
            server.kill()
            server.wait(timeout=30)
            caller.join(timeout=60)
            assert interrupted
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)
            server.stdout.close()
        # The killed request stored nothing; then both files get a dead
        # writer's torn final line, independent of when the kill landed.
        assert len(JsonlStore(store_path).load()) == stored
        with open(store_path, "ab") as handle:
            handle.write(b'{"key": "tor')
        with open(ledger_path, "ab") as handle:
            handle.write(b'{"t": 2, "kind": "tor')

        server, client = self._start(cache_dir)
        try:
            answer = client.call("failure_estimate", SLOW_REQUEST)
            again = client.call("failure_estimate", ESTIMATE_REQUEST)
        finally:
            server.terminate()
            server.wait(timeout=60)
            server.stdout.close()
        offline = failure_estimate(
            CountSketch(1024, 16384), DBeta(16384, 64, reps=1), 0.5, 2000,
            rng=5,
        )
        assert answer["result"]["successes"] == offline.successes
        assert answer["result"]["trials"] == offline.trials
        assert again["cache"] == {"hits": 1, "misses": 0}
        assert again["result"] == before["result"]
        assert len(JsonlStore(store_path).load()) == stored + 1
        summary = subprocess.run(
            [sys.executable, "-m", "repro.observe", "summarize",
             str(ledger_path)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=self._env(),
        )
        assert summary.returncode == 0, summary.stdout
        kinds = [event["kind"] for event in read_events(ledger_path)]
        assert kinds.count("request_done") == 3
