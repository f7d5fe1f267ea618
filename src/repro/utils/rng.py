"""Random number generator plumbing.

Every stochastic object in this library accepts either a seed-like value or
a fully constructed :class:`numpy.random.Generator`.  No module touches the
global NumPy random state.  The helpers here normalize whatever a caller
passes into an independent generator, and derive statistically independent
child streams for parallel or repeated trials.

Child streams are derived with :meth:`numpy.random.SeedSequence.spawn`, the
mechanism NumPy designed for parallel fan-out: children depend only on the
parent's seed material and a spawn counter, never on values drawn from the
parent generator.  Consequences callers can rely on:

* spawning does **not** advance the parent's stream — the parent draws the
  same values whether or not children were spawned;
* child streams do **not** depend on how much was drawn from the parent
  before spawning, only on how many children were spawned before them;
* the :class:`~numpy.random.SeedSequence` objects from :func:`spawn_seeds`
  are cheap, picklable descriptions of streams, suitable for shipping to
  worker processes (see :mod:`repro.utils.parallel`).
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

__all__ = [
    "RngLike",
    "as_generator",
    "record_cache_event",
    "seed_fingerprint",
    "spawn",
    "spawn_many",
    "spawn_seeds",
    "spawn_slice",
    "stream",
    "use_stream_observer",
]

#: The installed stream observer (see :func:`use_stream_observer`), or
#: ``None``.  With none installed — the default — every fan-out site and
#: every probe-cache event pays exactly one ``ContextVar.get`` returning
#: ``None``; observation never consumes randomness, changes which children
#: are spawned, or changes which cache records are read or written.
_STREAM_OBSERVER: "contextvars.ContextVar[Optional[Any]]" = \
    contextvars.ContextVar("repro_stream_observer", default=None)


@contextlib.contextmanager
def use_stream_observer(observer: Any) -> Iterator[Any]:
    """Install ``observer`` as the current stream observer.

    The observer must expose ``record_stream_event(kind, **fields)``; it
    is called from :func:`spawn_seeds` / :func:`spawn_slice` with the
    spawn-tree position (parent entropy + spawn key), the parent's draw
    counter (``base`` = children already spawned), and the children being
    derived.  It must also expose ``record_cache_event(kind, **fields)``,
    called through :func:`record_cache_event` with every probe-cache
    lookup and write and its content-addressed key.
    :mod:`repro.sanitize` uses both to reconstruct the stream fan-out of a
    run and diff it against a reference execution.
    """
    token = _STREAM_OBSERVER.set(observer)
    try:
        yield observer
    finally:
        _STREAM_OBSERVER.reset(token)


def record_cache_event(kind: str, **fields: Any) -> None:
    """Report one probe-cache event to the installed observer, if any.

    Called from :mod:`repro.cache.probes` with every logical lookup
    (``cache_hit``/``cache_miss``) and every record write (``cache_put``),
    so a divergence report can say *which* probe key went wrong, not just
    which draw.
    """
    observer = _STREAM_OBSERVER.get()
    if observer is not None:
        observer.record_cache_event(kind, **fields)


#: Anything that can be turned into a :class:`numpy.random.Generator`.
RngLike = Union[None, int, Sequence[int], np.random.SeedSequence, np.random.Generator]


def as_generator(rng: RngLike = None) -> np.random.Generator:
    """Normalize ``rng`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh OS entropy), an integer or sequence of integers
    (used as a seed), a :class:`numpy.random.SeedSequence`, or an existing
    generator (returned unchanged, *not* copied — a shared generator means a
    shared stream, which is what callers threading one generator through a
    pipeline want).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    return np.random.default_rng(rng)


def _seed_sequence_of(rng: RngLike) -> Optional[np.random.SeedSequence]:
    """The live :class:`~numpy.random.SeedSequence` backing ``rng``.

    For a generator this is the sequence recorded on its bit generator
    (shared, so spawn counters accumulate across calls); for seed-like
    values a fresh sequence is built.  Returns ``None`` for generators
    whose bit generator does not carry a seed sequence (e.g. restored from
    a raw state), where order-robust spawning is impossible.
    """
    if isinstance(rng, np.random.SeedSequence):
        return rng
    if isinstance(rng, np.random.Generator):
        seq = getattr(rng.bit_generator, "seed_seq", None)
        if seq is None:
            seq = getattr(rng.bit_generator, "_seed_seq", None)
        return seq if isinstance(seq, np.random.SeedSequence) else None
    return np.random.SeedSequence(rng)


def spawn_seeds(rng: RngLike, count: int) -> List[np.random.SeedSequence]:
    """Derive ``count`` independent child :class:`~numpy.random.SeedSequence`\\ s.

    The children are produced by ``SeedSequence.spawn`` on the sequence
    backing ``rng``, so they are provably independent of each other and of
    the parent stream, and do not depend on what was previously *drawn*
    from the parent (only on how many children it has already spawned).
    Seed sequences are picklable, which makes this the right primitive for
    seeding process-pool workers.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    observer = _STREAM_OBSERVER.get()
    seq = _resolve_seed_sequence(rng, observer)
    if observer is not None:
        observer.record_stream_event(
            "spawn",
            entropy=_canonical_entropy(seq),
            spawn_key=[int(key) for key in seq.spawn_key],
            base=int(seq.n_children_spawned),
            count=int(count),
        )
    return seq.spawn(count)


def _resolve_seed_sequence(rng: RngLike,
                           observer: Optional[Any]
                           ) -> np.random.SeedSequence:
    """The sequence backing ``rng``, building a draw-derived fallback."""
    seq = _seed_sequence_of(rng)
    if seq is None:
        # Generator without a recorded SeedSequence: fall back to drawing
        # seed material from its stream (not order-robust, but functional).
        parent = as_generator(rng)
        entropy = [int(x) for x in parent.integers(0, 2**63 - 1, size=4)]
        if observer is not None:
            observer.record_stream_event("fallback_draw",
                                         words=len(entropy))
        # Deliberate draw-derived seeding: this generator carries no
        # SeedSequence, so spawn-based derivation is impossible by
        # construction.
        # repro-lint: disable-next-line=RPL002
        seq = np.random.SeedSequence(entropy)
    return seq


def _canonical_entropy(seq: np.random.SeedSequence) -> Any:
    """``seq.entropy`` coerced to JSON-able builtins (as in fingerprints)."""
    entropy: Any = seq.entropy
    if isinstance(entropy, (list, tuple)):
        return [int(item) for item in entropy]
    if entropy is not None:
        return int(entropy)
    return None


def spawn_slice(rng: RngLike, start: int, stop: int,
                total: Optional[int] = None) -> List[np.random.SeedSequence]:
    """Children ``[start, stop)`` of the next ``total`` spawn slots.

    The shard-slice primitive behind :mod:`repro.shard`: a serial trial
    loop consumes child streams ``0 .. total-1`` of the caller's seed
    sequence (via :func:`spawn_seeds`); a shard that owns the contiguous
    slice ``[start, stop)`` of those trials calls
    ``spawn_slice(rng, start, stop, total=total)`` and receives **the very
    same child sequences** the serial run would have handed to trials
    ``start .. stop-1`` — shard boundaries can never change which stream
    a trial consumes, because children depend only on the parent's seed
    material and the child's index.

    The parent's spawn counter is advanced by ``total`` (default
    ``stop``), exactly as if all ``total`` children had been spawned, so
    every shard leaves the parent stream in the serial run's end state
    and downstream draws stay aligned.
    """
    if not 0 <= start <= stop:
        raise ValueError(
            f"need 0 <= start <= stop, got start={start}, stop={stop}"
        )
    total = stop if total is None else total
    if total < stop:
        raise ValueError(
            f"total ({total}) must cover the slice end ({stop})"
        )
    observer = _STREAM_OBSERVER.get()
    seq = _resolve_seed_sequence(rng, observer)
    if observer is not None:
        observer.record_stream_event(
            "spawn_slice",
            entropy=_canonical_entropy(seq),
            spawn_key=[int(key) for key in seq.spawn_key],
            base=int(seq.n_children_spawned),
            start=int(start), stop=int(stop), total=int(total),
        )
    # SeedSequence.spawn is the only sanctioned way to advance the spawn
    # counter, so all `total` children are derived and the slice is cut
    # out; construction is cheap (entropy mixing only, no bit-generator).
    return seq.spawn(total)[start:stop]


def seed_fingerprint(rng: RngLike = None) -> Optional[Dict[str, Any]]:
    """A canonical, JSON-able description of the stream state behind ``rng``.

    The fingerprint captures exactly what determines every child stream
    :func:`spawn_seeds` will derive next: the backing seed sequence's
    entropy, spawn key, pool size, and how many children it has already
    spawned.  Two RNGs with equal fingerprints produce bit-identical
    spawned streams, which makes the fingerprint the right "seed entropy"
    component for content-addressed caching of Monte-Carlo computations
    (see :mod:`repro.cache`).

    Returns ``None`` for generators that carry no
    :class:`~numpy.random.SeedSequence` (e.g. restored from a raw bit
    generator state) — their spawn behaviour is draw-derived and cannot be
    described without perturbing the stream, so callers must treat them as
    uncacheable.
    """
    seq = _seed_sequence_of(rng)
    if seq is None:
        return None
    return {
        "entropy": _canonical_entropy(seq),
        "spawn_key": [int(key) for key in seq.spawn_key],
        "pool_size": int(seq.pool_size),
        "children_spawned": int(seq.n_children_spawned),
    }


def spawn(rng: RngLike = None) -> np.random.Generator:
    """Return a new generator independent of ``rng``.

    Unlike :func:`as_generator`, the result never aliases the input: passing
    the same generator twice yields two distinct child streams (the spawn
    counter lives on the generator's seed sequence).  Spawning leaves the
    parent's own stream untouched.
    """
    return np.random.default_rng(spawn_seeds(rng, 1)[0])


def spawn_many(rng: RngLike, count: int) -> List[np.random.Generator]:
    """Return ``count`` mutually independent child generators of ``rng``."""
    return [np.random.default_rng(seq) for seq in spawn_seeds(rng, count)]


def stream(rng: RngLike = None) -> Iterator[np.random.Generator]:
    """Yield an unbounded sequence of independent child generators."""
    parent = as_generator(rng)
    while True:
        yield spawn(parent)
