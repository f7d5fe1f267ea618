"""The estimation service: validated, coalesced, replayable probes.

:class:`EstimationService` is the transport-independent core of
``python -m repro.serve``: it maps endpoint names plus JSON payloads to
computations from :mod:`repro.core.tester` and
:mod:`repro.experiments.registry`, and owns everything that makes the
server more than a loop around them:

* **validation** — family/instance specs are rebuilt and round-trip
  verified (:mod:`repro.serve.params`); bad parameters raise
  :class:`~repro.serve.params.BadRequest` before any trial runs;
* **determinism** — each request derives its generator from
  ``SeedSequence(seed, spawn_key)``, so a request with spawn key ``()``
  is *the same computation* as the offline API/CLI at ``rng=seed`` and
  returns a bit-identical result; the ``replay`` envelope in every
  response (normalized params + seed fingerprint + request key) is a
  complete recipe for reproducing the answer offline;
* **coalescing and backpressure** — requests are keyed by the canonical
  hash of their normalized params + seed fingerprint and routed through a
  :class:`~repro.serve.flight.SingleFlightGate`;
* **shared warm cache** — computations run against the server's
  :class:`~repro.cache.ProbeCache`, the same on-disk store CLI runs use,
  so answers computed by either are warm for both;
* **isolation** — each request computes under its own
  :func:`~repro.observe.counters.use_counters` scope (exact per-request
  cache hit/miss tallies, no cross-request pollution of cached counter
  deltas) and logs into the shared request-ledger
  (:class:`~repro.observe.RunLedger`), which ``observe summarize``
  renders unchanged.
"""

from __future__ import annotations

import asyncio
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..cache import ProbeCache
from ..cache.keys import cache_key
from ..core.tester import (
    _DECISIONS,
    distortion_samples,
    failure_estimate,
    minimal_m,
)
from ..experiments.registry import experiment_ids, run_experiment
from ..observe.counters import Counters, counters, use_counters
from ..observe.ledger import RunLedger, emit_event, use_ledger
from ..sketch import sample_sketch
from ..utils.rng import seed_fingerprint
from ..utils.stats import BernoulliEstimate
from .flight import SingleFlightGate
from .params import (
    BadRequest,
    family_from_spec,
    instance_from_spec,
    optional_field,
    require,
    require_positive_float,
    require_positive_int,
)

__all__ = ["ENDPOINTS", "EstimationService"]

#: Compute endpoints served under ``POST /v1/<endpoint>``.
ENDPOINTS = (
    "sketch_apply",
    "failure_estimate",
    "distortion_samples",
    "minimal_m",
    "run_experiment",
)

#: Request fields that choose how, not what, a request computes (the
#: trial chunk size).  An endpoint that reads one validates it, but it
#: stays out of the request key and the replay, so requests that differ
#: only in it coalesce onto one computation and one response.
_EXECUTION_FIELDS = ("batch",)


class _Plan(NamedTuple):
    """A validated request: coalescing key, replay envelope, computation."""

    endpoint: str
    key: str
    replay: Dict[str, Any]
    compute: Callable[[], Dict[str, Any]]


def _estimate_dict(est: BernoulliEstimate) -> Dict[str, Any]:
    """JSON shape of a :class:`~repro.utils.stats.BernoulliEstimate`."""
    return {
        "successes": int(est.successes),
        "trials": int(est.trials),
        "confidence": float(est.confidence),
        "point": float(est.point),
        "low": float(est.low),
        "high": float(est.high),
    }


def _seed_of(payload: Dict[str, Any]) -> Tuple[int, Tuple[int, ...]]:
    """Extract and validate the request's seed-derivation fields."""
    seed = payload.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise BadRequest(f"seed must be a nonnegative integer, got "
                         f"{seed!r}")
    raw_key = payload.get("spawn_key", [])
    if not isinstance(raw_key, list):
        raise BadRequest("spawn_key must be a list of nonnegative "
                         "integers")
    spawn_key = []
    for item in raw_key:
        if isinstance(item, bool) or not isinstance(item, int) or item < 0:
            raise BadRequest("spawn_key must be a list of nonnegative "
                             f"integers, got {raw_key!r}")
        spawn_key.append(item)
    return seed, tuple(spawn_key)


def _require_bool(value: Any, field: str) -> bool:
    if not isinstance(value, bool):
        raise BadRequest(f"{field} must be a boolean, got {value!r}")
    return value


class EstimationService:
    """Transport-independent request handling for the serve endpoints.

    Parameters
    ----------
    cache_dir:
        Directory of the shared :class:`~repro.cache.ProbeCache`; ``None``
        disables the warm store (every request computes).
    ledger_path:
        Request-log destination.  ``None`` keeps the service silent;
        otherwise every request appends ``request_*`` events plus the
        computation's own events (spawns, cache hits, batch dispatches) —
        flushed per event, so the log is live for ``observe summarize``.
    max_inflight:
        Bound on *distinct* concurrent computations (coalesced followers
        are free); excess new work is rejected as 429/Overloaded.
    workers:
        ``workers`` setting forwarded to every trial engine call.
        ``1`` (the default) keeps each request single-process; the
        service's own concurrency comes from handling requests in
        parallel threads.
    """

    def __init__(self, cache_dir: Union[str, Path, None] = None, *,
                 ledger_path: Union[str, Path, None] = None,
                 max_inflight: int = 4, workers: int = 1) -> None:
        self._cache = ProbeCache(cache_dir) if cache_dir is not None \
            else None
        if ledger_path is not None:
            self._ledger: Optional[RunLedger] = RunLedger(
                ledger_path, buffer_lines=1)
        else:
            self._ledger = None
        self._gate = SingleFlightGate(max_inflight)
        self._workers = workers
        self._metrics = Counters()
        self._merge_lock = threading.Lock()
        self._closed = False

    @property
    def gate(self) -> SingleFlightGate:
        return self._gate

    @property
    def cache(self) -> Optional[ProbeCache]:
        return self._cache

    @property
    def ledger(self) -> Optional[RunLedger]:
        return self._ledger

    # ------------------------------------------------------------------
    # request handling

    async def handle(self, endpoint: str,
                     payload: Dict[str, Any]) -> Dict[str, Any]:
        """Validate, coalesce, and execute one request.

        Returns the full response envelope.  Raises
        :class:`~repro.serve.params.BadRequest`,
        :class:`~repro.serve.flight.Overloaded`, or
        :class:`~repro.serve.flight.Draining` for the transport layer to
        map onto 400/429/503.
        """
        plan = self._plan(endpoint, payload)

        async def thunk() -> Dict[str, Any]:
            return await asyncio.to_thread(self._execute, plan)

        response, coalesced = await self._gate.run(plan.key, thunk)
        self._metrics.increment("requests_total")
        self._metrics.increment(f"requests_{endpoint}")
        if coalesced:
            self._metrics.increment("requests_coalesced")
        return response

    def _plan(self, endpoint: str, payload: Any) -> _Plan:
        if endpoint not in ENDPOINTS:
            raise BadRequest(
                f"unknown endpoint {endpoint!r}; serveable endpoints: "
                f"{', '.join(ENDPOINTS)}"
            )
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        seed, spawn_key = _seed_of(payload)
        seq = np.random.SeedSequence(seed, spawn_key=spawn_key)
        fingerprint = seed_fingerprint(seq)
        planner = getattr(self, f"_plan_{endpoint}")
        normalized, compute = planner(payload, seed, spawn_key)
        # The normalized params are exactly the fields the planner reads.
        unknown = set(payload) - set(normalized) - {"seed", "spawn_key"}
        if unknown:
            raise BadRequest(f"unknown field(s) for {endpoint}: "
                             f"{', '.join(sorted(unknown))}")
        normalized = {name: value for name, value in normalized.items()
                      if name not in _EXECUTION_FIELDS}
        key = cache_key(f"serve:{endpoint}", {
            "params": normalized,
            "seed_fingerprint": fingerprint,
        })
        replay = {
            "endpoint": endpoint,
            "params": normalized,
            "seed": seed,
            "spawn_key": list(spawn_key),
            "seed_fingerprint": fingerprint,
            "key": key,
        }
        return _Plan(endpoint, key, replay, compute)

    def _request_rng(self, seed: int,
                     spawn_key: Tuple[int, ...]) -> np.random.Generator:
        """The request's generator — identical to offline ``rng=seed``
        when the spawn key is empty, since ``default_rng(seed)`` records
        exactly ``SeedSequence(seed)``."""
        return np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=spawn_key)
        )

    def _execute(self, plan: _Plan) -> Dict[str, Any]:
        """Run one planned computation (called in a worker thread).

        Scopes a request-local counter aggregate (exact cache tallies, no
        cross-request pollution of cached counter deltas) and installs
        the shared request ledger for the computation's events.
        """
        start = time.perf_counter()
        request_counters = Counters()
        key8 = plan.key[:16]
        try:
            with use_ledger(self._ledger), use_counters(request_counters):
                emit_event("request_start", endpoint=plan.endpoint,
                           key=key8)
                try:
                    value = plan.compute()
                except ValueError as exc:
                    raise BadRequest(str(exc)) from exc
                hits = request_counters.get("cache_hit")
                misses = request_counters.get("cache_miss")
                emit_event("request_done", endpoint=plan.endpoint,
                           key=key8, elapsed=time.perf_counter() - start,
                           cache_hits=hits, cache_misses=misses)
        except BaseException as exc:
            with use_ledger(self._ledger):
                emit_event("request_failed", endpoint=plan.endpoint,
                           key=key8, error=type(exc).__name__,
                           elapsed=time.perf_counter() - start)
            raise
        finally:
            with self._merge_lock:
                counters().merge(request_counters.snapshot())
        return {
            "endpoint": plan.endpoint,
            "result": value,
            "replay": plan.replay,
            "cache": {"hits": hits, "misses": misses},
        }

    # ------------------------------------------------------------------
    # endpoint planners

    def _plan_failure_estimate(
        self, payload: Dict[str, Any], seed: int,
        spawn_key: Tuple[int, ...],
    ) -> Tuple[Dict[str, Any], Callable[[], Dict[str, Any]]]:
        family = family_from_spec(require(payload, "family"))
        instance = instance_from_spec(require(payload, "instance"))
        epsilon = require_positive_float(require(payload, "epsilon"),
                                         "epsilon")
        trials = require_positive_int(require(payload, "trials"), "trials")
        fresh_sketch = _require_bool(payload.get("fresh_sketch", True),
                                     "fresh_sketch")
        batch = optional_field(payload, "batch", None,
                               require_positive_int)
        normalized = {
            "family": family.spec(),
            "instance": instance.spec(),
            "epsilon": epsilon,
            "trials": trials,
            "fresh_sketch": fresh_sketch,
            "batch": batch,
        }

        def compute() -> Dict[str, Any]:
            est = failure_estimate(
                family, instance, epsilon, trials,
                rng=self._request_rng(seed, spawn_key),
                fresh_sketch=fresh_sketch, workers=self._workers,
                cache=self._cache, batch=batch,
            )
            return _estimate_dict(est)

        return normalized, compute

    def _plan_distortion_samples(
        self, payload: Dict[str, Any], seed: int,
        spawn_key: Tuple[int, ...],
    ) -> Tuple[Dict[str, Any], Callable[[], Dict[str, Any]]]:
        family = family_from_spec(require(payload, "family"))
        instance = instance_from_spec(require(payload, "instance"))
        trials = require_positive_int(require(payload, "trials"), "trials")
        batch = optional_field(payload, "batch", None,
                               require_positive_int)
        normalized = {
            "family": family.spec(),
            "instance": instance.spec(),
            "trials": trials,
            "batch": batch,
        }

        def compute() -> Dict[str, Any]:
            values = distortion_samples(
                family, instance, trials,
                rng=self._request_rng(seed, spawn_key),
                workers=self._workers, cache=self._cache, batch=batch,
            )
            return {
                "distortions": [float(x) for x in values],
                "trials": int(values.size),
            }

        return normalized, compute

    def _plan_minimal_m(
        self, payload: Dict[str, Any], seed: int,
        spawn_key: Tuple[int, ...],
    ) -> Tuple[Dict[str, Any], Callable[[], Dict[str, Any]]]:
        family = family_from_spec(require(payload, "family"))
        instance = instance_from_spec(require(payload, "instance"))
        epsilon = require_positive_float(require(payload, "epsilon"),
                                         "epsilon")
        delta = require_positive_float(require(payload, "delta"), "delta")
        if delta >= 1.0:
            raise BadRequest(f"delta must lie in (0, 1), got {delta}")
        trials = optional_field(payload, "trials", 200,
                                require_positive_int)
        m_min = optional_field(payload, "m_min", 1, require_positive_int)
        m_max = optional_field(payload, "m_max", 1_000_000,
                               require_positive_int)
        if m_max < m_min:
            raise BadRequest(f"m_max ({m_max}) must be >= m_min ({m_min})")
        growth = optional_field(payload, "growth", 2.0,
                                require_positive_float)
        if growth <= 1.0:
            raise BadRequest(f"growth must exceed 1, got {growth}")
        decision = payload.get("decision", "point")
        if decision not in _DECISIONS:
            raise BadRequest(
                f"decision must be one of {', '.join(_DECISIONS)}; got "
                f"{decision!r}"
            )
        normalized = {
            "family": family.spec(),
            "instance": instance.spec(),
            "epsilon": epsilon,
            "delta": delta,
            "trials": trials,
            "m_min": m_min,
            "m_max": m_max,
            "growth": growth,
            "decision": decision,
        }

        def compute() -> Dict[str, Any]:
            result = minimal_m(
                family, instance, epsilon, delta, trials=trials,
                m_min=m_min, m_max=m_max, growth=growth,
                decision=decision,
                rng=self._request_rng(seed, spawn_key),
                workers=self._workers, cache=self._cache,
            )
            return {
                "m_star": result.m_star,
                "found": bool(result.found),
                "pending": bool(result.pending),
                "delta": float(result.delta),
                "evaluations": [
                    {"m": int(m), **_estimate_dict(est)}
                    for m, est in result.evaluations
                ],
            }

        return normalized, compute

    def _plan_sketch_apply(
        self, payload: Dict[str, Any], seed: int,
        spawn_key: Tuple[int, ...],
    ) -> Tuple[Dict[str, Any], Callable[[], Dict[str, Any]]]:
        family = family_from_spec(require(payload, "family"))
        matrix = require(payload, "matrix")
        try:
            a = np.asarray(matrix, dtype=float)
        except (TypeError, ValueError):
            raise BadRequest("matrix must be a rectangular nested list "
                             "of numbers") from None
        if a.ndim != 2:
            raise BadRequest(f"matrix must be 2-dimensional, got "
                             f"{a.ndim} dimension(s)")
        if a.shape[0] != family.n:
            raise BadRequest(
                f"matrix has {a.shape[0]} rows but the family's ambient "
                f"dimension is n={family.n}"
            )
        if not np.all(np.isfinite(a)):
            raise BadRequest("matrix entries must be finite")
        normalized = {
            "family": family.spec(),
            "matrix": a.tolist(),
        }

        def compute() -> Dict[str, Any]:
            sketch = sample_sketch(
                family, self._request_rng(seed, spawn_key),
            )
            out = np.asarray(sketch.apply(a))
            return {
                "result": out.tolist(),
                "shape": [int(dim) for dim in out.shape],
            }

        return normalized, compute

    def _plan_run_experiment(
        self, payload: Dict[str, Any], seed: int,
        spawn_key: Tuple[int, ...],
    ) -> Tuple[Dict[str, Any], Callable[[], Dict[str, Any]]]:
        experiment = require(payload, "experiment")
        known = experiment_ids()
        if experiment not in known:
            raise BadRequest(
                f"unknown experiment {experiment!r}; serveable "
                f"experiments: {', '.join(known)}"
            )
        scale = optional_field(payload, "scale", 1.0,
                               require_positive_float)
        normalized = {
            "experiment": experiment,
            "scale": scale,
        }

        def compute() -> Dict[str, Any]:
            result = run_experiment(
                experiment, scale=scale,
                rng=self._request_rng(seed, spawn_key),
                workers=self._workers, cache=self._cache,
            )
            return result.to_dict()

        return normalized, compute

    # ------------------------------------------------------------------
    # introspection endpoints

    def healthz(self) -> Dict[str, Any]:
        """Liveness payload for ``GET /healthz``."""
        return {
            "status": "draining" if self._gate.draining else "ok",
            "inflight": self._gate.inflight,
            "max_inflight": self._gate.max_inflight,
            "endpoints": list(ENDPOINTS),
        }

    def metrics(self) -> Dict[str, Any]:
        """Counter snapshot for ``GET /metrics``.

        ``counters`` is the process-global aggregate (every request's
        delta is merged in after it completes); ``server`` is the
        request-level bookkeeping (totals, per-endpoint, coalesced,
        rejected).
        """
        with self._merge_lock:
            aggregate = counters().snapshot()
        return {
            "counters": aggregate,
            "server": self._metrics.as_dict(),
            "inflight": self._gate.inflight,
            "max_inflight": self._gate.max_inflight,
            "draining": self._gate.draining,
        }

    def note_rejected(self) -> None:
        """Record one backpressure rejection (called by the transport)."""
        self._metrics.increment("requests_rejected")
        with use_ledger(self._ledger):
            emit_event("request_rejected")

    # ------------------------------------------------------------------
    # lifecycle

    async def drain(self) -> None:
        """Refuse new computations and wait for in-flight ones."""
        await self._gate.drain()

    def close(self) -> None:
        """Flush and release the ledger and cache (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._ledger is not None:
            self._ledger.close()
        if self._cache is not None:
            self._cache.close()
