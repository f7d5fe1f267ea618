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

Counter-based streams
---------------------
Monte-Carlo trials do not spawn.  A probe spawns one child, draws one
uint64 probe key ``K`` from it (:func:`draw_key`), and trial ``t``'s
randomness is a pure function of ``(K, t)`` built from splitmix64's
output finalizer ``mix``::

    w_t           = mix(K + (t + 1)·φ)          (trial t's word)
    (k_Π, k_U)    = (mix(w_t + φ), mix(w_t + 2φ))

with ``φ = 0x9E3779B97F4A7C15`` (:func:`trial_keys`).  ``k_Π`` keys the
trial's sketch and ``k_U`` its hard-instance draw; both travel as a
:class:`KeyedStream`, which :func:`draw_key` reads back without drawing
and :func:`as_generator` expands into a full generator only for the
families and instances that ask for one.  Word ``mix(K)`` (index 0) keys
a probe's fixed sketch.  This is the same keyed hash that defines
CountSketch/OSNAP (:mod:`repro.sketch.hashing`): a word's lane ``l`` is
``mix(word + (l + 1)·φ)``, and :func:`keyed_sample` turns lanes into
uniform rows and Rademacher signs.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..observe.ledger import RunLedger, current_ledger

__all__ = [
    "KeyedStream",
    "RngLike",
    "as_generator",
    "draw_key",
    "keyed_sample",
    "keyed_words",
    "lane_words",
    "reduce_words",
    "seed_fingerprint",
    "spawn",
    "spawn_many",
    "spawn_seeds",
    "stream",
    "trial_keys",
]


class KeyedStream:
    """A counter-based stream: one uint64 key, nothing drawn yet.

    The stream of one Monte-Carlo trial's sketch or instance (see
    :func:`trial_keys`).  Keyed samplers (CountSketch, OSNAP, ``D_β``)
    read the key back with :func:`draw_key`; everything else gets a
    generator seeded by the key from :func:`as_generator`.  Immutable and
    picklable; handing one stream to two consumers gives both the same
    randomness, exactly like a :class:`~numpy.random.SeedSequence`.
    """

    __slots__ = ("key",)

    def __init__(self, key: Any) -> None:
        self.key = np.uint64(key)

    def __repr__(self) -> str:
        return f"KeyedStream({int(self.key):#018x})"


#: Anything that can be turned into a :class:`numpy.random.Generator`.
RngLike = Union[None, int, Sequence[int], np.random.SeedSequence,
                np.random.Generator, KeyedStream]


def as_generator(rng: RngLike = None) -> np.random.Generator:
    """Normalize ``rng`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh OS entropy), an integer or sequence of integers
    (used as a seed), a :class:`numpy.random.SeedSequence`, a
    :class:`KeyedStream` (its key is the seed), or an existing generator
    (returned unchanged, *not* copied — a shared generator means a shared
    stream, which is what callers threading one generator through a
    pipeline want).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    if isinstance(rng, KeyedStream):
        return np.random.default_rng(int(rng.key))
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
    if isinstance(rng, KeyedStream):
        return np.random.SeedSequence(int(rng.key))
    return np.random.SeedSequence(rng)


def spawn_seeds(rng: RngLike, count: int) -> List[np.random.SeedSequence]:
    """Derive ``count`` independent child :class:`~numpy.random.SeedSequence`\\ s.

    The children are produced by ``SeedSequence.spawn`` on the sequence
    backing ``rng``, so they are provably independent of each other and of
    the parent stream, and do not depend on what was previously *drawn*
    from the parent (only on how many children it has already spawned).
    Seed sequences are picklable, which makes this the right primitive for
    seeding process-pool workers.

    With a run ledger installed (:mod:`repro.observe.ledger`), each call
    emits one ``spawn`` event: the parent's spawn-tree position
    (``entropy``, ``spawn_key``), its spawn counter before the call
    (``base``), ``count`` and the caller's ``site``.  With none installed
    the cost is one ``ContextVar`` read; emission never consumes
    randomness or changes which children are spawned.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    ledger = current_ledger()
    seq = _resolve_seed_sequence(rng, ledger)
    if ledger is not None:
        ledger.emit(
            "spawn",
            entropy=_canonical_entropy(seq),
            spawn_key=[int(key) for key in seq.spawn_key],
            base=int(seq.n_children_spawned),
            count=int(count),
            site=_call_site(),
        )
    return seq.spawn(count)


def _resolve_seed_sequence(rng: RngLike,
                           ledger: Optional[RunLedger]
                           ) -> np.random.SeedSequence:
    """The sequence backing ``rng``, building a draw-derived fallback."""
    seq = _seed_sequence_of(rng)
    if seq is None:
        # Generator without a recorded SeedSequence: fall back to drawing
        # seed material from its stream (not order-robust, but functional).
        parent = as_generator(rng)
        entropy = [int(x) for x in parent.integers(0, 2**63 - 1, size=4)]
        if ledger is not None:
            ledger.emit("fallback_draw", words=len(entropy),
                        site=_call_site())
        # Deliberate draw-derived seeding: this generator carries no
        # SeedSequence, so spawn-based derivation is impossible by
        # construction.
        # repro-lint: disable-next-line=RPL002
        seq = np.random.SeedSequence(entropy)
    return seq


def _call_site() -> str:
    """``module:line:function`` of the nearest caller outside this module."""
    frame = sys._getframe(1)
    while frame.f_back is not None \
            and frame.f_globals.get("__name__") == __name__:
        frame = frame.f_back
    return (f"{frame.f_globals.get('__name__')}:{frame.f_lineno}:"
            f"{frame.f_code.co_name}")


def _canonical_entropy(seq: np.random.SeedSequence) -> Any:
    """``seq.entropy`` coerced to JSON-able builtins (as in fingerprints)."""
    entropy: Any = seq.entropy
    if isinstance(entropy, (list, tuple)):
        return [int(item) for item in entropy]
    if entropy is not None:
        return int(entropy)
    return None


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


_PHI = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_LOW32 = np.uint64(0xFFFFFFFF)

# Every function below does uint64 arithmetic on arrays only: numpy-scalar
# uint64 arithmetic warns on wraparound and is slower.


def draw_key(rng: RngLike = None) -> np.uint64:
    """One uniform uint64 key from ``rng``.

    A :class:`KeyedStream` hands back its key; any other ``rng`` yields
    the next 64-bit output of its bit generator (the value
    ``integers(2**64, dtype=np.uint64)`` would draw, without its bounds
    handling).
    """
    if isinstance(rng, KeyedStream):
        return rng.key
    return np.uint64(as_generator(rng).bit_generator.random_raw())


def keyed_words(keys: Any, index: Any) -> np.ndarray:
    """``mix(keys + index·φ)``, broadcasting the two uint64 arrays, where
    ``mix`` is splitmix64's output finalizer."""
    z = np.asarray(keys, dtype=np.uint64) \
        + np.asarray(index, dtype=np.uint64) * _PHI
    # In place on the fresh sum: one temporary per step instead of two.
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def lane_words(base: np.ndarray, lanes: np.ndarray) -> np.ndarray:
    """Lane words ``mix(base + (lane + 1)·φ)``, shape ``(K, L)`` for
    words ``base`` ``(K,)`` and lane indices ``lanes`` ``(L,)``."""
    return keyed_words(base[:, None], lanes[None, :] + 1)


def reduce_words(words: np.ndarray, m: int) -> np.ndarray:
    """``⌊words·m / 2⁶⁴⌋`` exactly, for ``m < 2³²`` (int64 result)."""
    m64 = np.uint64(m)
    high = (words >> np.uint64(32)) * m64
    low = ((words & _LOW32) * m64) >> np.uint64(32)
    return ((high + low) >> np.uint64(32)).astype(np.int64)


def _first_occurrences(values: np.ndarray, m: int) -> np.ndarray:
    """Mask of the entries of ``values`` ``(K, T)`` (each in ``[0, m)``)
    that do not repeat an earlier entry of their row."""
    tagged = (values + m * np.arange(values.shape[0])[:, None]).ravel()
    order = np.argsort(tagged, kind="stable")
    ordered = tagged[order]
    fresh = np.ones(tagged.size, dtype=bool)
    fresh[1:] = ordered[1:] != ordered[:-1]
    first = np.empty(tagged.size, dtype=bool)
    first[order] = fresh
    return first.reshape(values.shape)


def _distinct_rows(base: np.ndarray, s: int, m: int) -> np.ndarray:
    """The first ``s`` distinct reduced even-lane words of every word.

    Lanes ``0, 2, …, 2s-2`` settle every word whose first ``s`` rows are
    already distinct; the rest are re-evaluated with twice the lanes until
    they show ``s`` distinct rows.  A lane's value never depends on how
    many lanes are evaluated, so the result is the sequence definition
    exactly.
    """
    rows = reduce_words(lane_words(base, 2 * np.arange(s)), m)
    todo = np.flatnonzero(~_first_occurrences(rows, m).all(axis=1))
    lanes = s
    while todo.size:
        lanes *= 2
        values = reduce_words(lane_words(base[todo], 2 * np.arange(lanes)),
                              m)
        first = _first_occurrences(values, m)
        rank = np.cumsum(first, axis=1)
        done = rank[:, -1] >= s
        keep = first[done] & (rank[done] <= s)
        rows[todo[done]] = values[done][keep].reshape(-1, s)
        todo = todo[~done]
    return rows


def keyed_sample(base: np.ndarray, s: int, m: int,
                 distinct: bool = True) -> Tuple[np.ndarray, np.ndarray]:
    """``s`` rows in ``[0, m)`` and ``s`` Rademacher signs per word.

    Word ``base[k]``'s even lanes ``0, 2, 4, …`` reduced to ``[0, m)``
    give its rows: the first ``s`` of them (``distinct=False``), or the
    first ``s`` distinct ones (:func:`_distinct_rows`) — a uniform ordered
    sample without replacement.  In the dense regime ``2s > m`` that
    sequence would need a coupon-collector's number of lanes, so the word
    instead keeps the ``s`` rows whose lane words ``lane 2r``, ``r < m``,
    are smallest — a uniform ``s``-subset in uniform order.  The top bit
    of odd lane ``2i + 1`` is the sign of entry ``i``.  Returns ``rows``
    (int64) and ``signs`` (float64 ±1), each ``(K, s)``.
    """
    even = 2 * np.arange(s)
    if not distinct:
        rows = reduce_words(lane_words(base, even), m)
    elif 2 * s > m:
        words = lane_words(base, 2 * np.arange(m))
        rows = np.argsort(words, axis=1, kind="stable")[:, :s]
    else:
        rows = _distinct_rows(base, s, m)
    signs = 1.0 - 2.0 * (lane_words(base, even + 1) >> np.uint64(63))
    return rows, signs


def trial_keys(key: Any, start: int, stop: int) -> np.ndarray:
    """Sketch and instance sub-keys of trials ``[start, stop)`` of probe
    key ``key``: a ``(stop - start, 2)`` uint64 array whose row ``i`` is
    lanes 0 and 1 of trial ``start + i``'s word ``mix(key + (t + 1)·φ)``.

    Index ``-1`` (word ``mix(key)``) is the probe's fixed-sketch word.
    Every row is a pure function of ``(key, t)``, so any split of the
    trial range derives the same keys.
    """
    words = keyed_words([key], np.arange(start + 1, stop + 1))
    return lane_words(words, np.arange(2))
