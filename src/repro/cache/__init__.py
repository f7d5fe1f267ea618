"""Content-addressed probe cache and experiment checkpoint/resume.

Two layers, both keyed so that reuse is provably safe:

* :class:`ProbeCache` — caches individual Monte-Carlo probes
  (``failure_estimate`` results, ``distortion_samples`` arrays) by the
  SHA-256 of their canonical spec, which includes the caller's RNG seed
  fingerprint.  Threaded through :mod:`repro.core.tester` via the
  ``cache=`` parameter; ``minimal_m`` warm-starts its bracket from cached
  probes simply by replaying its deterministic search against the cache.
* :class:`ExperimentCheckpoint` — stores completed
  :class:`~repro.experiments.harness.ExperimentResult` JSON per
  ``(experiment, seed, scale)``; the CLI's ``--resume`` skips finished
  experiments and reuses their exact bytes.

The cardinal invariant, enforced by ``tests/test_cache.py``: cold-cache,
warm-cache, and cache-off runs at a fixed seed are **bit-identical** —
in returned values, in downstream RNG state, and in ``count_*`` metrics.
See :doc:`docs/caching` for the design.
"""

from .checkpoint import ExperimentCheckpoint
from .keys import cache_key, canonical_json
from .merge import MergeConflict, MergeReport, merge_stores
from .probes import CachedProbe, ProbeCache, ScopedProbeCache
from .store import JsonlStore

__all__ = [
    "CachedProbe",
    "ExperimentCheckpoint",
    "JsonlStore",
    "MergeConflict",
    "MergeReport",
    "ProbeCache",
    "ScopedProbeCache",
    "cache_key",
    "canonical_json",
    "merge_stores",
]
