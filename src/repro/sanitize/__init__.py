"""``repro.sanitize`` — runtime determinism sanitizer.

The repository's determinism contract — bit-identical results across
``workers``, cache states, and shard/merge/replay runs at a fixed
seed — is enforced at runtime by *stream tracing*: every
RNG fan-out (:func:`repro.utils.rng.spawn_seeds`) and
every probe-cache key is reported to an installed observer, recorded as
a canonical trace, and diffed between a reference serial execution and a
candidate configuration.  The first divergent draw is reported with its
spawn-tree path, stack provenance, and the configuration axis that broke
— and double-consumed child streams or draw-count drift are hard errors
even when the final bytes happen to agree.

Three entry points:

* ``sanitized(failure_estimate, ...)`` — wraps
  :func:`repro.core.tester.failure_estimate` / ``distortion_samples`` /
  ``minimal_m``: the probe re-executes as a serial cache-off replay and
  both legs must agree (:func:`~repro.sanitize.runtime.sanitized_rerun`).
* ``python -m repro.sanitize run -- E1 --scale 0.05`` — the config-axis
  battery over whole experiments (:mod:`repro.sanitize.runner`), gated
  in CI as the sanitizer smoke.
* The pieces themselves — :class:`StreamTraceRecorder`,
  :func:`diff_traces`, :func:`check_trace` — for bespoke harnesses.

Recording is off by default; with no observer installed every
instrumented site pays one ``ContextVar.get`` returning ``None``.  See
``docs/static_analysis.md`` ("Determinism sanitizer") for the design and
the companion RPL1xx lint rules.
"""

from .diff import (
    DeterminismError,
    Divergence,
    cache_events,
    canonical_event,
    check_trace,
    diff_traces,
    format_divergence,
    stream_events,
)
from .recorder import StreamTraceRecorder
from .runtime import SanitizedCall, replay_generator, sanitized, sanitized_rerun

__all__ = [
    "DeterminismError",
    "Divergence",
    "SanitizedCall",
    "StreamTraceRecorder",
    "cache_events",
    "canonical_event",
    "check_trace",
    "diff_traces",
    "format_divergence",
    "replay_generator",
    "sanitized",
    "sanitized_rerun",
    "stream_events",
]
