"""The benchmark's four workloads and the closed loop that drives them.

Every workload is a closed loop: a client issues its next op only after
the previous one returned.  ``probe_batched``, ``probe_serial`` and
``search_cache`` run one client in this process; ``serve_mixed`` runs two
client threads, each on its own connection, against a ``repro.serve``
subprocess.  The workload seed is the only source of inputs: op ``i``'s
inputs are drawn from ``default_rng([seed, 1])`` in op order, and warm-up
and pool inputs from ``default_rng([seed, 0])``.  The program under test
sees only the generated seeds and parameters.

Why these four (see ``perfbench/README.md`` for the layer map):

* ``probe_batched`` — the headline Monte-Carlo probe on the batched
  engine, where sketch sampling dominates; cache and server are idle.
* ``probe_serial`` — the same grid on the default per-trial engine, where
  the per-trial SVD dominates, so a sampling-only change should leave it
  flat.
* ``search_cache`` — a cold ``minimal_m`` search, its warm replay and a
  3-shard settle: the cache layer both writes and reads, and the warm
  replay bypasses every compute layer.
* ``serve_mixed`` — warm and cold requests sharing one server and store:
  HTTP, single-flight gate, JSON and ledger sit beside compute.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.cache import ProbeCache
from repro.core import tester
from repro.hardinstances import DBeta
from repro.observe.counters import counters
from repro.observe.ledger import read_events
from repro.serve.client import ServeClient
from repro.shard import sharded_call
from repro.sketch import OSNAP, CountSketch

HERE = Path(__file__).resolve().parent

#: The reference probe grid (ROADMAP headline workload).
REF_N, REF_D, REF_M = 16384, 64, 1024
TRIALS, BATCH = 64, 32

#: Ops run in rounds this long; the host's speed is measured between
#: them (about 17 ms per round).
ROUND_SECONDS = 0.25
#: Reference units per host-speed sample, and one unit's time on a calm
#: host of the kind the baseline ran on (see ``perfbench/README.md``).
REFERENCE_UNITS = 3
REFERENCE_UNIT_S = 0.0055

#: The ``minimal_m`` search of ``search_cache`` and of the served pool.
#: Its ``m*`` estimates fall in about [370, 780].  Growing by 3 from 11
#: brackets them between the probes at 297 and 891, and bisecting that
#: bracket stops after exactly 5 steps for any ``m*`` in [371, 742), so
#: nearly every seed probes 10 points and search times are comparable
#: across seeds (doubling from 16 gave 9 to 13 probes).
SEARCH_D, SEARCH_TRIALS = 16, 100
SEARCH_EPSILON, SEARCH_DELTA = 0.5, 0.2
SEARCH_M_MIN, SEARCH_M_MAX, SEARCH_GROWTH = 11, 65536, 3.0
SHARDS = 3

#: Served request bodies (``seed`` is added per request).
FE_REQUEST = {
    "family": {"type": "CountSketch", "params": {"m": REF_M, "n": REF_N}},
    "instance": {"type": "DBeta", "n": REF_N, "d": REF_D, "reps": 1},
    "epsilon": 0.5, "trials": TRIALS, "batch": BATCH,
}
MM_REQUEST = {
    "family": {"type": "CountSketch",
               "params": {"m": SEARCH_M_MIN, "n": REF_N}},
    "instance": {"type": "DBeta", "n": REF_N, "d": SEARCH_D, "reps": 1},
    "epsilon": SEARCH_EPSILON, "delta": SEARCH_DELTA,
    "trials": SEARCH_TRIALS, "m_min": SEARCH_M_MIN, "m_max": SEARCH_M_MAX,
    "growth": SEARCH_GROWTH,
}

#: One block of ``serve_mixed`` request kinds (65/10/20/5%).
MIX_BLOCK = ("warm_fe",) * 13 + ("warm_mm",) * 2 + ("cold",) * 4 + ("repeat",)

#: Workload-specific per-layer metrics; every workload reports all of
#: them, with zero where the workload has no such layer.
SERVE_TAGS = ("failure_estimate.hit", "failure_estimate.miss",
              "minimal_m.hit")
EXTRA_UNITS: Dict[str, str] = {
    "search.probes": "count",
    "search.cold_s": "s",
    "search.warm_ms": "ms",
    "search.settle_s": "s",
    **{f"serve.rtt_ms.{q}.{tag}": "ms"
       for tag in SERVE_TAGS for q in ("p50", "p95")},
    "serve.server_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.coalesced_frac": "frac",
    "serve.rejected": "count",
}


class Outcome(NamedTuple):
    """What one op reports: trials it computed, the bytes of its output
    (for the digest), whether its checks passed, and a latency tag."""

    trials: int
    output: bytes
    ok: bool
    tag: str = ""


@dataclass
class PassResult:
    """One timed pass of a workload."""

    ops: int = 0
    failed: int = 0
    #: Seconds spent in rounds of ops (host-speed sampling excluded).
    wall: float = 0.0
    window: Tuple[float, float] = (0.0, 0.0)
    #: Host factor measured before the first round and after each round
    #: (see :func:`host_factor`).
    factors: List[float] = field(default_factory=list)
    #: ``wall`` and op latencies, each divided by the mean of the factors
    #: measured before and after its round.
    norm_wall: float = 0.0
    norm_latencies: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    tags: List[str] = field(default_factory=list)
    trials: int = 0
    digest: str = ""
    #: Counter deltas over the pass (the server's, for ``serve_mixed``).
    delta: Dict[str, int] = field(default_factory=dict)
    #: Counts that repeat exactly for the same seed and op count.
    counts: Dict[str, int] = field(default_factory=dict)
    #: Workload-specific observations (phase times, server times).
    extra: Dict[str, Any] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


def _seed(gen: np.random.Generator) -> int:
    return int(gen.integers(2**62))


class Workload:
    """Base class: one client, no server, counters read in-process."""

    name = ""
    #: Ops in one pass at ``--scale 1``.
    ops_at_scale_1 = 0
    clients = 1
    #: The system under test runs in a server subprocess, which a traced
    #: pass starts through ``serve_traced.py``.
    remote = False
    #: Modules a fresh interpreter imports during set-up.
    modules: Tuple[str, ...] = ("repro.core.tester", "repro.sketch",
                                "repro.hardinstances")

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self._dirs = itertools.count()

    def setup(self, trace_path: Optional[Path] = None) -> None:
        """Build fixtures and run the untimed warm-up."""

    def teardown(self) -> None:
        """Release what :meth:`setup` started."""

    def start_pass(self) -> None:
        self._plan = np.random.default_rng([self.seed, 1])

    def plan(self, index: int) -> Any:
        """Op ``index``'s inputs; called in op order."""
        return _seed(self._plan)

    def op(self, index: int, planned: Any) -> Outcome:
        raise NotImplementedError

    def end_pass(self, result: PassResult) -> None:
        """Amend ``result`` with what only the workload can see."""

    def verify(self) -> List[str]:
        """Post-pass correctness checks; returns failure messages."""
        return []

    def counter_snapshot(self) -> Dict[str, int]:
        return counters().snapshot()

    def counts(self, result: PassResult) -> Dict[str, int]:
        """Counts that repeat exactly for the same seed and op count."""
        names = ("trials", "sketch_samples", "cache_hit", "cache_miss")
        return {"ops": result.ops,
                **{name: result.delta.get(name, 0) for name in names}}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def extras(self, plain: PassResult,
               traced: PassResult) -> Dict[str, float]:
        return dict.fromkeys(EXTRA_UNITS, 0.0)


def _reference_unit() -> float:
    """Time one fixed unit of numpy-RNG, LAPACK and interpreter work."""
    began = time.monotonic()
    gen = np.random.default_rng(12345)
    for _ in range(6):
        rows = gen.integers(0, REF_M, size=REF_N)
        gen.choice((-1.0, 1.0), size=REF_N)
        np.bincount(rows, minlength=REF_M)
    np.linalg.svd(gen.standard_normal((REF_M, REF_D)), compute_uv=False)
    tally: Dict[int, int] = {}
    for value in range(20000):
        tally[value & 255] = tally.get(value & 255, 0) + value
    return time.monotonic() - began


def host_factor() -> float:
    """How much slower than a calm reference host this host runs now.

    Times :data:`REFERENCE_UNITS` units of work that touch no repository
    code and divides their median by :data:`REFERENCE_UNIT_S`.  On shared
    machines host speed drifts by up to 2× within minutes and dips for
    fractions of a second, so the benchmark divides each round's times by
    the factors measured around it.  The unit mixes the kinds of work the
    workloads do — RNG draws, an ``(m, d)`` SVD, interpreter loops — in
    the proportions that tracked the probe calls' drift best on a recorded
    trace.
    """
    units = sorted(_reference_unit() for _ in range(REFERENCE_UNITS))
    return units[len(units) // 2] / REFERENCE_UNIT_S


def run_pass(workload: Workload, ops: Optional[int],
             seconds: Optional[float], tracer: Any = None) -> PassResult:
    """Drive ``workload`` until ``ops`` ops or ``seconds`` have elapsed.

    The first op always runs.  ``workload.clients`` threads each claim
    the next op index in turn, so op inputs do not depend on which thread
    runs them.  Ops run in rounds of about :data:`ROUND_SECONDS`; between
    rounds every client is idle while :func:`host_factor` is measured.
    ``seconds`` counts time in rounds only.
    """
    workload.start_pass()
    lock = threading.Lock()
    claimed = [0]
    records: Dict[int, Tuple[float, Outcome, int]] = {}
    result = PassResult()
    exhausted = threading.Event()

    def claim(round_end: float) -> Optional[Tuple[int, Any]]:
        with lock:
            index = claimed[0]
            now = time.monotonic()
            if index > 0 and (
                (ops is not None and index >= ops)
                or (seconds is not None
                    and result.wall + now - round_start >= seconds)
            ):
                exhausted.set()
                return None
            if index > 0 and now >= round_end:
                return None
            claimed[0] += 1
            return index, workload.plan(index)

    def client(round_end: float) -> None:
        while True:
            claim_ = claim(round_end)
            if claim_ is None:
                return
            index, planned = claim_
            if tracer is not None:
                tracer.set_op(index)
            began = time.monotonic()
            try:
                outcome = workload.op(index, planned)
            except Exception as exc:  # one failed op must not end the run
                outcome = Outcome(0, b"", False, "error")
                with lock:
                    result.errors.append(
                        f"op {index}: {type(exc).__name__}: {exc}"
                    )
            records[index] = (time.monotonic() - began, outcome,
                              len(result.factors) - 1)

    before = workload.counter_snapshot()
    # A round is normalized by the mean of the factors measured just
    # before and just after it; on a recorded trace this steadied the
    # 90th percentile more than the factor after alone.
    result.factors.append(host_factor())
    bracket: List[float] = []
    start = time.monotonic()
    while not exhausted.is_set():
        round_start = time.monotonic()
        round_end = round_start + ROUND_SECONDS
        threads = [threading.Thread(target=client, args=(round_end,))
                   for _ in range(workload.clients - 1)]
        for thread in threads:
            thread.start()
        client(round_end)
        for thread in threads:
            thread.join()
        end = time.monotonic()
        result.wall += end - round_start
        result.factors.append(host_factor())
        bracket.append((result.factors[-2] + result.factors[-1]) / 2)
        result.norm_wall += (end - round_start) / bracket[-1]
    after = workload.counter_snapshot()

    digest = hashlib.sha256()
    for index in sorted(records):
        latency, outcome, round_index = records[index]
        result.latencies.append(latency)
        result.norm_latencies.append(latency / bracket[round_index])
        result.tags.append(outcome.tag)
        result.trials += outcome.trials
        result.failed += not outcome.ok
        digest.update(outcome.output)
    result.ops = len(records)
    result.window = (start, end)
    result.digest = digest.hexdigest()
    result.delta = {name: value - before.get(name, 0)
                    for name, value in after.items()}
    workload.end_pass(result)
    result.counts = workload.counts(result)
    return result


def _probe_ok(values: np.ndarray) -> bool:
    return bool(values.shape == (TRIALS,) and np.all(np.isfinite(values))
                and np.all(values >= 0))


class ProbeBatched(Workload):
    """Pairs of cache-off batched ``distortion_samples`` calls:
    CountSketch on ``D_1`` and OSNAP ``s=4`` on ``D_{1/2}``."""

    name = "probe_batched"
    ops_at_scale_1 = 100

    def setup(self, trace_path: Optional[Path] = None) -> None:
        self.cases = [
            (CountSketch(REF_M, REF_N), DBeta(REF_N, REF_D, reps=1)),
            (OSNAP(REF_M, REF_N, s=4), DBeta(REF_N, REF_D, reps=2)),
        ]
        warm = np.random.default_rng([self.seed, 0])
        for family, instance in self.cases:
            self._call(family, instance, _seed(warm))

    @staticmethod
    def _call(family: Any, instance: Any, seed: int,
              batch: Optional[int] = BATCH) -> np.ndarray:
        return tester.distortion_samples(family, instance, TRIALS, rng=seed,
                                         batch=batch)

    def start_pass(self) -> None:
        super().start_pass()
        self.first: List[Tuple[Any, Any, int, np.ndarray]] = []

    def plan(self, index: int) -> List[int]:
        return [_seed(self._plan) for _ in self.cases]

    def op(self, index: int, planned: List[int]) -> Outcome:
        outputs, ok = [], True
        for (family, instance), seed in zip(self.cases, planned):
            values = self._call(family, instance, seed)
            ok = ok and _probe_ok(values)
            if index == 0:
                self.first.append((family, instance, seed, values))
            outputs.append(values.tobytes())
        return Outcome(TRIALS * len(self.cases), b"".join(outputs), ok)

    def verify(self) -> List[str]:
        failures = []
        for family, instance, seed, values in self.first:
            serial = self._call(family, instance, seed, batch=None)
            if not np.allclose(values, serial, rtol=1e-9, atol=1e-12):
                failures.append(f"{family.name}: batched values differ "
                                f"from the serial path at rtol 1e-9")
        return failures


class ProbeSerial(Workload):
    """Cache-off ``distortion_samples`` calls on the default (unbatched)
    engine: CountSketch on ``D_1``."""

    name = "probe_serial"
    ops_at_scale_1 = 80

    def setup(self, trace_path: Optional[Path] = None) -> None:
        self.family = CountSketch(REF_M, REF_N)
        self.instance = DBeta(REF_N, REF_D, reps=1)
        self._call(_seed(np.random.default_rng([self.seed, 0])))

    def _call(self, seed: int, batch: Optional[int] = None) -> np.ndarray:
        return tester.distortion_samples(self.family, self.instance, TRIALS,
                                         rng=seed, batch=batch)

    def start_pass(self) -> None:
        super().start_pass()
        self.first: Optional[Tuple[int, np.ndarray]] = None

    def op(self, index: int, planned: int) -> Outcome:
        values = self._call(planned)
        if index == 0:
            self.first = (planned, values)
        return Outcome(TRIALS, values.tobytes(), _probe_ok(values))

    def verify(self) -> List[str]:
        if self.first is None:
            return []
        seed, values = self.first
        if not np.array_equal(self._call(seed, batch=1), values):
            return ["batch=1 is not bit-identical to batch=None"]
        return []


def _search_output(result: Any) -> bytes:
    return repr((
        result.m_star, result.found, result.pending, result.delta,
        [(m, est.successes, est.trials, est.confidence)
         for m, est in result.evaluations],
    )).encode()


class SearchCache(Workload):
    """Per op: a cold ``minimal_m`` into a fresh probe cache, its warm
    replay through a freshly opened cache, and the same search as a
    3-shard ``sharded_call``."""

    name = "search_cache"
    ops_at_scale_1 = 16
    modules = Workload.modules + ("repro.cache", "repro.shard")

    def setup(self, trace_path: Optional[Path] = None) -> None:
        self.family = CountSketch(SEARCH_M_MIN, REF_N)
        self.instance = DBeta(REF_N, SEARCH_D, reps=1)
        self.op(-1, _seed(np.random.default_rng([self.seed, 0])))

    def _search(self, seed: int, cache: Any, shard: Any = None) -> Any:
        return tester.minimal_m(
            self.family, self.instance, SEARCH_EPSILON, SEARCH_DELTA,
            trials=SEARCH_TRIALS, m_min=SEARCH_M_MIN, m_max=SEARCH_M_MAX,
            growth=SEARCH_GROWTH, rng=seed, cache=cache, shard=shard,
        )

    def _cached_search(self, seed: int, directory: Path) -> Any:
        cache = ProbeCache(directory)
        try:
            return self._search(seed, cache)
        finally:
            cache.close()

    def start_pass(self) -> None:
        super().start_pass()
        self.phases: List[Tuple[float, float, float]] = []
        self.probes = 0

    def op(self, index: int, planned: int) -> Outcome:
        root = self.workdir / f"search-{next(self._dirs)}"
        began = time.monotonic()
        cold = self._cached_search(planned, root / "cold")
        cold_done = time.monotonic()
        misses = counters().get("cache_miss")
        warm = self._cached_search(planned, root / "cold")
        warm_misses = counters().get("cache_miss") - misses
        warm_done = time.monotonic()
        settled = sharded_call(partial(self._search, planned), SHARDS,
                               root / "shards")
        settled_done = time.monotonic()
        if index >= 0:
            self.phases.append((cold_done - began, warm_done - cold_done,
                                settled_done - warm_done))
            self.probes += len(cold.evaluations)
        output = _search_output(cold)
        ok = (cold.found and warm_misses == 0
              and _search_output(warm) == output
              and _search_output(settled) == output)
        # The cold search and the shard passes each compute every trial.
        trials = 2 * sum(est.trials for _, est in cold.evaluations)
        return Outcome(trials, output, ok)

    def end_pass(self, result: PassResult) -> None:
        result.extra["phases"] = self.phases

    def counts(self, result: PassResult) -> Dict[str, int]:
        return {**super().counts(result), "search.probes": self.probes}

    def extras(self, plain: PassResult,
               traced: PassResult) -> Dict[str, float]:
        """Phase medians from the untraced pass."""
        extras = super().extras(plain, traced)
        cold, warm, settle = (float(np.median(column))
                              for column in zip(*plain.extra["phases"]))
        extras.update({
            "search.probes": plain.counts["search.probes"],
            "search.cold_s": cold,
            "search.warm_ms": warm * 1e3,
            "search.settle_s": settle,
        })
        return extras


def _result_bytes(response: Dict[str, Any]) -> bytes:
    return json.dumps(response["result"], sort_keys=True).encode()


class ServeMixed(Workload):
    """A fixed request mix from two closed-loop clients against
    ``python -m repro.serve --port 0 --cache-dir <tmp>``.

    65% warm ``failure_estimate`` (pool of 16 pre-warmed seeds), 10% warm
    ``minimal_m`` (pool of 4), 20% cold ``failure_estimate`` (fresh seed)
    and 5% cold repeats of the previous cold seed (coalesced or hit).
    The median falls in the warm mode and the 90th percentile in the cold
    one, so neither sits on a mode boundary.
    """

    name = "serve_mixed"
    ops_at_scale_1 = 2000
    clients = 2
    remote = True
    modules = ()  # the server process imports them during set-up
    FE_POOL, MM_POOL = 16, 4

    def setup(self, trace_path: Optional[Path] = None) -> None:
        cache_dir = self.workdir / f"serve-{next(self._dirs)}"
        command = [sys.executable, "-m", "repro.serve"] if trace_path is None \
            else [sys.executable, str(HERE / "serve_traced.py"),
                  str(trace_path)]
        self.server = subprocess.Popen(
            command + ["--port", "0", "--cache-dir", str(cache_dir)],
            stdout=subprocess.PIPE, text=True,
        )
        announced = self.server.stdout.readline().split()
        if announced[:2] != ["serving", "on"]:
            self.teardown()
            raise RuntimeError("repro.serve did not announce its address")
        self.client = ServeClient(announced[2], timeout=120.0)
        self.ledger = cache_dir / "serve-ledger.jsonl"
        self.lock = threading.Lock()
        warm = np.random.default_rng([self.seed, 0])
        self.fe_pool = [_seed(warm) for _ in range(self.FE_POOL)]
        self.mm_pool = [_seed(warm) for _ in range(self.MM_POOL)]
        self.references: Dict[Tuple[str, int], bytes] = {}
        for endpoint, pool in (("failure_estimate", self.fe_pool),
                               ("minimal_m", self.mm_pool)):
            for seed in pool:
                self.references[(endpoint, seed)] = _result_bytes(
                    self.client.call(endpoint, self._payload(endpoint, seed))
                )

    @staticmethod
    def _payload(endpoint: str, seed: int) -> Dict[str, Any]:
        body = FE_REQUEST if endpoint == "failure_estimate" else MM_REQUEST
        return dict(body, seed=seed)

    def teardown(self) -> None:
        self.server.send_signal(signal.SIGTERM)
        try:
            self.server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()

    def start_pass(self) -> None:
        super().start_pass()
        self.block: List[str] = []
        self.last_cold: Optional[int] = None
        self.cold = 0
        self.rechecks: List[Tuple[int, Dict[str, Any]]] = []
        self.ledger_start = len(read_events(self.ledger))

    def plan(self, index: int) -> Tuple[str, int, bool]:
        # Kinds come in shuffled blocks of 20, so every seed gets the mix's
        # exact proportions.
        if not self.block:
            self.block = list(self._plan.permutation(MIX_BLOCK))
        kind = self.block.pop()
        if kind == "warm_fe":
            pool = self.fe_pool
            return "failure_estimate", pool[self._plan.integers(len(pool))], \
                False
        if kind == "warm_mm":
            pool = self.mm_pool
            return "minimal_m", pool[self._plan.integers(len(pool))], False
        if kind == "cold" or self.last_cold is None:
            self.last_cold = _seed(self._plan)
            self.cold += 1
            return "failure_estimate", self.last_cold, self.cold % 10 == 1
        return "failure_estimate", self.last_cold, False

    def op(self, index: int, planned: Tuple[str, int, bool]) -> Outcome:
        endpoint, seed, recheck = planned
        response = self.client.call(endpoint, self._payload(endpoint, seed))
        output = _result_bytes(response)
        with self.lock:
            reference = self.references.setdefault((endpoint, seed), output)
            if recheck:
                self.rechecks.append((seed, response["result"]))
        hit = response["cache"]["misses"] == 0
        return Outcome(0, output, output == reference,
                       f"{endpoint}.{'hit' if hit else 'miss'}")

    def end_pass(self, result: PassResult) -> None:
        events = read_events(self.ledger)[self.ledger_start:]
        result.trials = sum(event["trials"] for event in events
                            if event["kind"] == "batch_done")
        result.extra["server_elapsed"] = [
            event["elapsed"] for event in events
            if event["kind"] == "request_done"
        ]

    def verify(self) -> List[str]:
        """Re-check one cold response in ten against the offline API."""
        family = CountSketch(REF_M, REF_N)
        instance = DBeta(REF_N, REF_D, reps=1)
        failures = []
        for seed, served in self.rechecks:
            est = tester.failure_estimate(
                family, instance, FE_REQUEST["epsilon"], TRIALS, rng=seed,
                batch=BATCH,
            )
            offline = {"successes": est.successes, "trials": est.trials,
                       "confidence": est.confidence, "point": est.point,
                       "low": est.low, "high": est.high}
            if offline != served:
                failures.append(f"served failure_estimate at seed {seed} "
                                f"differs from the offline API")
        return failures

    def counter_snapshot(self) -> Dict[str, int]:
        snapshot = self.client.metrics()
        return {**snapshot["counters"],
                **{f"server.{name}": value
                   for name, value in snapshot["server"].items()}}

    def counts(self, result: PassResult) -> Dict[str, int]:
        # Whether a cold repeat coalesces or hits depends on timing, so
        # only the op count and rejections repeat exactly.
        return {"ops": result.ops,
                "serve.rejected":
                    result.delta.get("server.requests_rejected", 0)}

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``)."""
        status = Path(f"/proc/{self.server.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def extras(self, plain: PassResult,
               traced: PassResult) -> Dict[str, float]:
        extras = super().extras(plain, traced)
        latencies = np.asarray(traced.latencies) * 1e3
        tags = np.asarray(traced.tags)
        for tag in SERVE_TAGS:
            chosen = latencies[tags == tag]
            if chosen.size:
                extras[f"serve.rtt_ms.p50.{tag}"] = \
                    float(np.percentile(chosen, 50))
                extras[f"serve.rtt_ms.p95.{tag}"] = \
                    float(np.percentile(chosen, 95))
        server_ms = np.asarray(traced.extra["server_elapsed"]) * 1e3
        requests = traced.delta.get("server.requests_total", 0)
        extras.update({
            "serve.server_ms": float(np.median(server_ms)),
            # Mean time a request spends outside EstimationService._execute:
            # HTTP, gate wait, thread hop and encoding.
            "serve.overhead_ms":
                float(latencies.sum() - server_ms.sum()) / traced.ops,
            "serve.coalesced_frac":
                traced.delta.get("server.requests_coalesced", 0) / requests
                if requests else 0.0,
            "serve.rejected": traced.counts["serve.rejected"],
        })
        return extras


WORKLOADS = {cls.name: cls for cls in (ProbeBatched, ProbeSerial,
                                       SearchCache, ServeMixed)}
