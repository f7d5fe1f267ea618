"""Sanitized re-execution: run once as configured, replay serially, and
diff the two ledgers' deterministic views.

:func:`sanitized_rerun` is the engine behind :func:`sanitized`, the
wrapper for :func:`repro.core.tester.failure_estimate` /
``distortion_samples`` / ``minimal_m``: the probe runs *twice* — first
exactly as the caller configured it (workers, cache), then as a
cache-off serial replay from the same stream state — each leg recording
into an in-memory :class:`~repro.observe.ledger.RunLedger` of its own,
and the two legs' deterministic views must agree event for event, and
the two results bit for bit.  Any disagreement raises
:class:`~repro.sanitize.diff.DeterminismError` naming the first
divergent event.  Because each leg installs its own ledger, a ledger the
caller installed around a sanitized call does not receive that call's
events.

The serial replay is possible without perturbing the caller's generator
because those probes only ever *spawn* from it, never draw: the
:func:`~repro.utils.rng.seed_fingerprint` taken before the candidate run
fully determines every child stream, so :func:`replay_generator` can
rebuild an equivalent generator from the fingerprint alone.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..observe.ledger import RunLedger
from ..utils.rng import RngLike, as_generator, seed_fingerprint
from .diff import (
    DeterminismError,
    Divergence,
    check_trace,
    diff_traces,
    format_divergence,
)

__all__ = ["SanitizedCall", "replay_generator", "sanitized",
           "sanitized_rerun"]

#: The re-executable shape ``sanitized_rerun`` drives: a closure over
#: every probe parameter except ``(rng, workers, cache)``, which the
#: harness varies between the candidate and the reference leg.
SanitizedCall = Callable[[Any, Optional[int], Any], Any]


def replay_generator(fingerprint: Dict[str, Any]) -> np.random.Generator:
    """A generator whose spawn behaviour matches ``fingerprint`` exactly.

    Rebuilds the :class:`numpy.random.SeedSequence` a
    :func:`~repro.utils.rng.seed_fingerprint` describes — entropy, spawn
    key, pool size — and advances its spawn counter to
    ``children_spawned`` by deriving (and discarding) that many children,
    the only sanctioned way to move the counter.  The result spawns
    bit-identical child streams to the fingerprinted generator; its
    *drawn* stream is also identical, though ``sanitized`` probes never
    draw from the parent.
    """
    entropy = fingerprint.get("entropy")
    seq = np.random.SeedSequence(
        entropy=entropy,
        spawn_key=tuple(int(key) for key in fingerprint.get("spawn_key", [])),
        pool_size=int(fingerprint.get("pool_size", 4)),
    )
    children = int(fingerprint.get("children_spawned", 0))
    if children:
        seq.spawn(children)
    return np.random.default_rng(seq)


def _results_equal(a: Any, b: Any) -> bool:
    """Bit-level result equality (arrays compared by exact bytes)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    return bool(a == b)


def _raise_on_faults(label: str, faults: List[Divergence]) -> None:
    if faults:
        first = faults[0]
        raise DeterminismError(
            f"{label}: {len(faults)} double-consumed child stream(s)\n"
            + format_divergence(first),
            divergence=first,
        )


def sanitized_rerun(label: str, call: SanitizedCall, *,
                    rng: RngLike = None,
                    workers: Optional[int] = 1,
                    cache: Optional[Any] = None) -> Any:
    """Run ``call`` as configured, then as a serial cache-off replay,
    and require both legs to agree.

    ``call(rng, workers, cache)`` must execute the probe with exactly
    those three knobs and all other parameters closed over.  The
    candidate leg receives the caller's own generator (so the caller's
    stream advances exactly as an unsanitized call would), ``workers``
    and ``cache`` as given; the reference leg receives a
    :func:`replay_generator` of the pre-run fingerprint, ``workers=1``
    and ``cache=None``.  Returns the candidate result.

    Raises
    ------
    DeterminismError
        If either leg double-consumes a child stream, if the ledger
        views diverge (including draw-count drift, a hard error even
        when final bytes agree), or if the results differ bitwise.
    """
    gen = as_generator(rng)
    fingerprint = seed_fingerprint(gen)
    if fingerprint is None:
        raise DeterminismError(
            f"{label}: sanitized= needs a generator backed by a "
            f"SeedSequence; this one was restored from a raw bit-generator"
            f" state, so its stream cannot be replayed without perturbing"
            f" it"
        )
    with RunLedger() as candidate_ledger:
        candidate = call(gen, workers, cache)
    candidate_trace = candidate_ledger.events
    _raise_on_faults(
        f"{label} (candidate run)",
        check_trace(candidate_trace, axis=f"{label}:candidate"),
    )
    with RunLedger() as reference_ledger:
        reference = call(replay_generator(fingerprint), 1, None)
    reference_trace = reference_ledger.events
    _raise_on_faults(
        f"{label} (serial replay)",
        check_trace(reference_trace, axis=f"{label}:reference"),
    )
    divergence = diff_traces(
        reference_trace, candidate_trace,
        axis=f"{label}: workers={workers}"
             f"{' cached' if cache is not None else ''} vs serial replay",
    )
    if divergence is not None:
        raise DeterminismError(format_divergence(divergence),
                               divergence=divergence)
    if not _results_equal(reference, candidate):
        raise DeterminismError(
            f"{label}: ledger views agree but results differ between the"
            f" configured run and the serial cache-off replay — a cache"
            f" record, merge, or reduction produced wrong bytes"
            f" (candidate={candidate!r}, reference={reference!r})"
        )
    return candidate


def sanitized(probe: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Run ``probe(*args, **kwargs)`` under the determinism sanitizer.

    ``probe`` is :func:`~repro.core.tester.failure_estimate`,
    ``distortion_samples`` or ``minimal_m`` (or any probe taking the same
    ``rng``/``workers``/``cache`` keywords, which must be passed by
    keyword here).  The call executes twice through
    :func:`sanitized_rerun` — once as configured, once as a serial
    cache-off replay from the same stream state — and any divergence in
    deterministic ledger views or result bytes raises
    :class:`~repro.sanitize.diff.DeterminismError`.  Returns the
    configured run's result, leaving the caller's generator exactly where
    an unsanitized call would.

    Incompatible with ``shard=``: a shard pass is deliberately partial;
    sanitize the merged replay instead.
    """
    if kwargs.get("shard") is not None:
        raise ValueError(
            "sanitized= cannot be combined with shard=: a shard pass "
            "is a deliberately partial execution — sanitize the "
            "merged serial replay instead (see repro.sanitize)"
        )
    rng = kwargs.pop("rng", None)
    workers = kwargs.pop("workers", 1)
    cache = kwargs.pop("cache", None)
    return sanitized_rerun(
        probe.__name__,
        lambda rng_, workers_, cache_: probe(
            *args, rng=rng_, workers=workers_, cache=cache_, **kwargs,
        ),
        rng=rng, workers=workers, cache=cache,
    )
