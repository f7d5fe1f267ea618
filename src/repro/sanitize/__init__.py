"""``repro.sanitize`` — runtime determinism sanitizer.

The repository's determinism contract — bit-identical results across
``workers``, cache states, and shard/merge/replay runs at a fixed
seed — is enforced at runtime by diffing run ledgers: every
RNG fan-out (:func:`repro.utils.rng.spawn_seeds`) is a ``spawn`` event
in the installed run ledger (:class:`repro.observe.ledger.RunLedger`),
beside the probes, searches and counters, and every probe-cache lookup
is a ``cache_hit``/``cache_miss`` event.  The sanitizer records a
reference serial execution and a candidate configuration into in-memory
ledgers of their own and diffs their deterministic views
(:func:`repro.observe.deterministic_view`).  The first divergent event
is reported with its payload — for a draw, its spawn-tree path and call
``site`` — and the configuration axis that broke; double-consumed
child streams or draw-count drift are hard errors even when the final
bytes happen to agree.

Three entry points:

* ``sanitized(failure_estimate, ...)`` — wraps
  :func:`repro.core.tester.failure_estimate` / ``distortion_samples`` /
  ``minimal_m``: the probe re-executes as a serial cache-off replay and
  both legs must agree (:func:`~repro.sanitize.runtime.sanitized_rerun`).
* ``python -m repro.sanitize run -- E1 --scale 0.05`` — the config-axis
  battery over whole experiments (:mod:`repro.sanitize.runner`), gated
  in CI as the sanitizer smoke.
* The pieces themselves — :func:`diff_traces`, :func:`check_trace`,
  :func:`stream_events`, :func:`cache_events` over any ledger's events —
  for bespoke harnesses.

With no ledger installed every spawn pays one ``ContextVar.get``
returning ``None``.  See ``docs/static_analysis.md`` ("Determinism
sanitizer") for the design and the companion RPL1xx lint rules.
"""

from .diff import (
    DeterminismError,
    Divergence,
    cache_events,
    check_trace,
    diff_traces,
    format_divergence,
    stream_events,
)
from .runtime import SanitizedCall, replay_generator, sanitized, sanitized_rerun

__all__ = [
    "DeterminismError",
    "Divergence",
    "SanitizedCall",
    "cache_events",
    "check_trace",
    "diff_traces",
    "format_divergence",
    "replay_generator",
    "sanitized",
    "sanitized_rerun",
    "stream_events",
]
