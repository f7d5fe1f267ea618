"""Sketch-as-a-service: the async estimation server.

``python -m repro.serve --port 8400 --cache-dir cache/`` exposes the
library's Monte-Carlo probes (:func:`~repro.core.tester.failure_estimate`,
:func:`~repro.core.tester.minimal_m`, …) as JSON-over-HTTP endpoints with
the guarantees the batch CLI already has — deterministic seeding, a
shared content-addressed warm cache, ledger observability — plus the two
a long-running server needs: **single-flight coalescing** of concurrent
identical requests and **bounded-inflight backpressure**.

Layering (each importable on its own):

* :mod:`repro.serve.params` — spec validation (round-trip verified);
* :mod:`repro.serve.flight` — coalescing gate + 429 backpressure;
* :mod:`repro.serve.service` — endpoint planning and execution;
* :mod:`repro.serve.http` — the asyncio HTTP/1.1 transport;
* :mod:`repro.serve.client` — a stdlib client.

Every response carries a ``replay`` envelope (normalized params, seed,
spawn key, seed fingerprint, request key): feed the same seed to the
offline API or CLI and you get the bit-identical answer — the server
adds availability and warmth, never a different result.  See
``docs/serving.md``.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

from .client import ServeClient, ServeError

if TYPE_CHECKING:
    from .flight import Draining, Overloaded, SingleFlightGate
    from .http import ServeHTTP
    from .params import BadRequest, family_from_spec, instance_from_spec
    from .service import ENDPOINTS, EstimationService

#: The server side's public names, by module.  They are imported on first
#: use, so a client process (``import repro.serve.client``) loads neither
#: asyncio nor the experiments the server runs.
_SERVER_NAMES = {
    "Draining": "flight",
    "Overloaded": "flight",
    "SingleFlightGate": "flight",
    "ServeHTTP": "http",
    "BadRequest": "params",
    "family_from_spec": "params",
    "instance_from_spec": "params",
    "ENDPOINTS": "service",
    "EstimationService": "service",
}


def __getattr__(name: str) -> Any:
    if name not in _SERVER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SERVER_NAMES[name]}", __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "ENDPOINTS",
    "BadRequest",
    "Draining",
    "EstimationService",
    "Overloaded",
    "ServeClient",
    "ServeError",
    "ServeHTTP",
    "SingleFlightGate",
    "family_from_spec",
    "instance_from_spec",
]
