"""Monte-Carlo testing of the subspace-embedding property.

Implements the empirical side of Definition 1: estimate, for a sketch
family and a (hard) instance distribution, the probability that a sampled
sketch fails to ε-embed a sampled subspace — and search for the minimal
target dimension ``m*`` at which the failure rate drops to ``δ``.  The
measured ``m*`` curves are what the experiments compare against the
paper's lower-bound formulas.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..hardinstances.dbeta import HardInstance
from ..linalg.distortion import distortion_of_product
from ..observe.counters import add_count, counters
from ..observe.ledger import emit_event
from ..sketch.base import Sketch, SketchFamily, sample_sketch
from ..sketch.batched import BatchedColumnScatter
from ..utils.parallel import (
    ShardSpec,
    TrialExecutor,
    normalize_shard,
    shard_spans,
)
from ..utils.rng import (
    KeyedStream,
    RngLike,
    as_generator,
    draw_key,
    seed_fingerprint,
    spawn,
    spawn_seeds,
    trial_keys,
)
from ..utils.stats import BernoulliEstimate
from ..utils.validation import check_epsilon, check_positive_int, check_probability

__all__ = [
    "ShardPending",
    "failure_estimate",
    "distortion_samples",
    "MinimalMResult",
    "minimal_m",
]


class ShardPending(Exception):
    """A sharded probe stored its trial slice but cannot resolve yet.

    Raised by :func:`failure_estimate` / :func:`distortion_samples` when
    called with ``shard=`` and the probe is absent from the (merged)
    cache: this shard's slice is now on disk as a shard-partial record,
    and the full value exists only after ``python -m repro.cache merge``
    folds all slices.  :func:`minimal_m` catches it internally (returning
    ``pending=True``); the shard driver (:mod:`repro.shard`) catches it
    at the top level and schedules another merge round.
    """


#: Trials one block derives and reduces at most.  A chunk is derived and
#: reduced block by block, so its temporaries stay bounded however many
#: trials it holds; block edges sit at multiples of this size, and a
#: trial's value never depends on them.
_DERIVE_BLOCK = 32


def _trial_chunk(family: SketchFamily, instance: HardInstance,
                 fixed: Union[None, Sketch, BatchedColumnScatter],
                 key: np.uint64, trials: range) -> List[float]:
    """The distortions of trials ``trials`` of the probe keyed by ``key``.

    Module-level (not a closure) so :class:`TrialExecutor` can pickle it
    for process-pool workers.  Trial ``t``'s sketch and instance keys are
    lanes of its counter-based word (:func:`~repro.utils.rng.trial_keys`),
    and its value depends only on them — never on the chunk, the block,
    the worker or the shard that runs it.  The instance draws of a block
    come from one vectorized :meth:`~repro.hardinstances.dbeta.\
HardInstance.sample_supports` call, so a structured trial never
    allocates the dense ``n × d`` matrix.

    A hashed family (CountSketch, OSNAP) samples the block's sketches
    with ``sample_trial_batch`` and reduces them from their hashed
    entries, each trial by its own route
    (:func:`~repro.linalg.distortion.distortions_of_products`).  Every
    other family (``sample_trial_batch`` returns ``None``) reduces each
    trial's dense product on its own.  ``fixed`` is the probe's fixed
    sketch when it has one: a hashed family's single key, repeated for
    every trial of the block, or else a :class:`Sketch`.  A fixed sketch
    leaves the instance keys untouched, so both draw the same subspaces.
    """
    edges = range(trials.start - trials.start % _DERIVE_BLOCK
                  + _DERIVE_BLOCK, trials.stop, _DERIVE_BLOCK)
    bounds = [trials.start, *edges, trials.stop]
    values: List[float] = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        keys = trial_keys(key, start, stop)
        draws = instance.sample_supports(keys[:, 1])
        streams = [KeyedStream(sketch_key) for sketch_key in keys[:, 0]]
        if fixed is None:
            kernel = family.sample_trial_batch(streams)
        elif isinstance(fixed, BatchedColumnScatter):
            kernel = fixed.repeated(stop - start)
        else:
            kernel = None
        if kernel is not None:
            values.extend(float(value) for value in kernel.distortions(draws))
            continue
        for stream, draw in zip(streams, draws):
            sketch = fixed if fixed is not None \
                else sample_sketch(family, stream)
            values.append(float(distortion_of_product(
                sketch.basis_image(draw)
            )))
    return values


#: Version of the trial arithmetic behind every cached probe value; part
#: of each probe spec, so a store written by an engine whose values differ
#: (2: the row-compacted per-trial reduction; 3: the batched reducer's
#: isolated-column and Gram-eigenvalue routes; 4: counter-based trial
#: streams keyed by one probe key; 5: only CountSketch/OSNAP batched,
#: every other family on the per-trial path under ``batch > 1``; 6: tall
#: batched chunks' Gram matrices built from their hashed entries; 7: every
#: batched chunk reduced from its hashed entries, near-square ones too;
#: 8: CountSketch and OSNAP reduced from their hashed entries on every
#: path, each trial by its own route and coupled-block shape)
#: recomputes instead of replaying them.
ENGINE_VERSION = 8


def _probe_spec(family: SketchFamily, instance: HardInstance,
                fingerprint: Dict[str, Any], trials: int,
                **params: Any) -> Dict[str, Any]:
    """Content-address spec for one probe: *what* is computed, and from
    which stream state — never *how* (``workers`` and the chunking excluded,
    since results are bit-identical across execution strategies)."""
    return {
        "family": family.spec(),
        "instance": instance.spec(),
        "m": family.m,
        "trials": trials,
        "seed": fingerprint,
        "engine": ENGINE_VERSION,
        **params,
    }


def _shard_spec_of(spec: Dict[str, Any], shard: ShardSpec,
                   span: Tuple[int, int]) -> Dict[str, Any]:
    """The shard-partial content address: the parent spec plus the slice.

    The merge CLI (:func:`repro.cache.merge.merge_stores`) recovers the
    parent key by removing the ``"shard"`` field, so a folded group lands
    on exactly the key a serial run would look up.
    """
    tagged = dict(spec)
    tagged["shard"] = {
        "count": shard.count, "index": shard.index,
        "span": [int(span[0]), int(span[1])],
    }
    return tagged


def _shard_pending(probe: str, spec: Dict[str, Any], shard: ShardSpec,
                   span: Tuple[int, int], computed: bool) -> ShardPending:
    """Mark one probe as awaiting a merge round; returns the exception.

    The ``shard_pending`` counter is how drivers (:mod:`repro.shard`)
    detect that a round left unresolved probes; it is bookkeeping, never
    stored into cached deltas (see ``NON_RESULT_COUNTER_PREFIXES``).
    """
    add_count("shard_pending")
    emit_event(
        "shard_partial" if computed else "shard_pending",
        probe=probe, m=spec.get("m"), trials=spec.get("trials"),
        shard=shard.label, span=[int(span[0]), int(span[1])],
    )
    return ShardPending(
        f"{probe} (m={spec.get('m')}, trials={spec.get('trials')}): shard "
        f"{shard.label} slice {list(span)} stored, awaiting merge"
    )


def _run_probe(kind: str, family: SketchFamily, instance: HardInstance,
               trials: int, rng: RngLike, params: Dict[str, Any],
               reduce: Callable[[List[float]], Dict[str, Any]], *,
               fresh_sketch: bool, workers: Optional[int],
               cache: Optional[Any], batch: Optional[int],
               shard: Optional[Any]) -> Dict[str, Any]:
    """The one probe engine behind :func:`failure_estimate` and
    :func:`distortion_samples`; returns the probe's record.

    ``reduce`` turns a list of trial distortions into the record a cache
    stores (``params`` are the extra spec fields it depends on).  Every
    execution mode spawns exactly one child of the caller's stream; a
    computing mode draws the probe key from it, and trial ``t`` runs on
    the counter-based streams of ``(key, t)`` (see :func:`_trial_chunk`):

    * **hit replay** — with ``cache`` and a seed-backed ``rng``, a cached
      record is returned after the one spawn and merging the stored
      counter delta, leaving the caller's stream where a miss would;
    * **shard slice** — with ``shard``, only this shard's contiguous slice
      of trial indices runs, its record is stored under the shard-partial
      spec, and :class:`ShardPending` is raised until a merge resolves
      the probe;
    * **full compute** — all trials run and the record is stored.
    """
    trials = check_positive_int(trials, "trials")
    if batch is not None:
        batch = check_positive_int(batch, "batch")
    shard = normalize_shard(shard)
    gen = as_generator(rng)
    spec = None
    if cache is not None:
        fingerprint = seed_fingerprint(gen)
        if fingerprint is not None:
            spec = _probe_spec(family, instance, fingerprint, trials,
                               **params)
    # The probe's one spawn, taken after the fingerprint (which names the
    # stream state before it) and before the lookup, so a hit and a miss
    # leave the caller's stream in the same state.
    child = spawn_seeds(gen, 1)[0]
    if spec is not None:
        hit = cache.get(kind, spec)
        if hit is not None:
            counters().merge(hit.counters)
            return hit.value
    span, record_spec = (0, trials), spec
    if shard is not None:
        if spec is None:
            raise ValueError(
                "shard= requires cache= and a seed-backed rng: shard "
                "partials are exchanged through the probe cache, keyed by "
                "the seed fingerprint"
            )
        span = shard_spans(trials, shard.count)[shard.index]
        record_spec = _shard_spec_of(spec, shard, span)
        if cache.peek(kind, record_spec) is not None:
            # This shard's slice is already on disk (resume after a crash
            # or a later round); only the merge is still outstanding.
            raise _shard_pending(kind, spec, shard, span, computed=False)
    key = draw_key(child)

    def sample_fixed() -> Union[None, Sketch, BatchedColumnScatter]:
        # The fixed sketch is keyed by the probe's word 0 (trial "-1"); a
        # hashed family samples it as a batch of one key.
        if fresh_sketch:
            return None
        stream = KeyedStream(trial_keys(key, -1, 0)[0, 0])
        kernel = family.sample_trial_batch([stream])
        return sample_sketch(family, stream) if kernel is None else kernel

    if shard is not None and shard.index > 0:
        # Every shard must sample the fixed sketch, but only shard 0's
        # delta may carry its cost or the folded counters would overcount
        # it (count - 1) times.
        fixed = sample_fixed()
        before = counters().snapshot()
    else:
        before = counters().snapshot()
        fixed = sample_fixed()
    executor = TrialExecutor(workers=workers, chunk_size=batch)
    run = partial(executor.run_chunked,
                  partial(_trial_chunk, family, instance, fixed, key),
                  range(*span))
    # Empty slices (more shards than work units) run nothing.
    values = run() if span[0] < span[1] else []
    record = reduce(values)
    if record_spec is not None:
        cache.put(kind, record_spec, record, counters().diff(before))
    if shard is not None:
        raise _shard_pending(kind, spec, shard, span, computed=True)
    return record


def failure_estimate(family: SketchFamily, instance: HardInstance,
                     epsilon: float, trials: int,
                     rng: RngLike = None,
                     fresh_sketch: bool = True,
                     workers: Optional[int] = 1,
                     cache: Optional[Any] = None,
                     batch: Optional[int] = None,
                     shard: Optional[Any] = None) -> BernoulliEstimate:
    """Estimate ``P[Π is NOT an ε-embedding for U]``.

    Each trial draws ``U`` from ``instance`` and (by default) a fresh
    sketch from ``family``, then checks the exact embedding condition via
    the singular values of ``ΠU``.  With ``fresh_sketch=False`` a single
    sketch is drawn up front and reused — the deterministic-Π view of
    Yao's principle, appropriate when certifying one concrete matrix.

    Randomness: the call spawns one child of ``rng`` and draws a 64-bit
    probe key from it; trial ``t``'s sketch and subspace are keyed by
    splitmix64 lanes of ``(probe key, t)`` (see
    :func:`~repro.utils.rng.trial_keys`), and a fixed sketch by the probe
    key's word 0, so toggling ``fresh_sketch`` never changes the
    subspaces drawn.

    ``workers`` distributes the trials over a process pool (``None``/``0``
    = all CPUs).  Results are bit-identical across ``workers`` settings at
    a fixed seed: each trial's streams depend only on its index.

    ``cache`` (a :class:`repro.cache.ProbeCache` or scoped view, duck-typed
    so this module never imports the cache package) reuses results across
    runs: the probe is keyed by family/instance spec, parameters, and the
    RNG's :func:`~repro.utils.rng.seed_fingerprint`, so a hit is by
    construction the value this call would compute.  On a hit the call
    still spawns its one child of ``rng``, exactly as the computation
    does, and merges the stored operation-counter delta, keeping warm
    runs bit-identical to cold and cache-off runs — downstream draws and
    ``count_*`` metrics included.  RNGs without a recorded seed sequence
    are uncacheable and silently bypass the cache.

    ``batch`` is the number of trials dispatched as one chunk, like
    ``workers`` an execution knob only: a trial's value depends only on
    its own streams, so every ``batch`` gives the same bits and shares one
    cache entry.  ``None`` lets the executor choose (one chunk in-process,
    about four per worker on a pool).  Either way a chunk is sampled and
    reduced in blocks of at most 32 trials; CountSketch and OSNAP reduce
    a block from its hashed entries (:mod:`repro.sketch.batched`), a fixed
    sketch included.

    ``shard`` (a :class:`~repro.utils.parallel.ShardSpec` or an
    ``(index, count)`` pair) runs this call as one worker of an N-way
    fan-out: when the probe cannot be resolved from ``cache``, only this
    shard's contiguous slice of trial indices is executed — on the
    **same** streams the serial run hands those trials, since a trial's
    streams depend only on the probe key and its index — and the outcome
    is stored as a
    shard-partial cache record for ``python -m repro.cache merge`` to
    fold.  The call then raises :class:`ShardPending` (counted as
    ``shard_pending``); once a merged store resolves the probe, the same
    call returns the full estimate bit-identically to a serial run.
    Requires ``cache=`` and a seed-backed ``rng``; see :mod:`repro.shard`
    for the driver.
    """
    epsilon = check_epsilon(epsilon)
    if family.n != instance.n:
        raise ValueError(
            f"family ambient dimension ({family.n}) must match instance "
            f"({instance.n})"
        )

    def reduce(values: List[float]) -> Dict[str, Any]:
        return {
            "successes": sum(1 for value in values if value > epsilon),
            "trials": len(values),
            "confidence": BernoulliEstimate(0, 1).confidence,
        }

    record = _run_probe(
        "failure_estimate", family, instance, trials, rng,
        dict(epsilon=epsilon, fresh_sketch=fresh_sketch), reduce,
        fresh_sketch=fresh_sketch, workers=workers, cache=cache,
        batch=batch, shard=shard,
    )
    return BernoulliEstimate(int(record["successes"]), int(record["trials"]),
                             float(record["confidence"]))


def distortion_samples(family: SketchFamily, instance: HardInstance,
                       trials: int, rng: RngLike = None,
                       workers: Optional[int] = 1,
                       cache: Optional[Any] = None,
                       batch: Optional[int] = None,
                       shard: Optional[Any] = None) -> np.ndarray:
    """Sampled distortions (one per trial) — the full failure CDF.

    Shares :func:`failure_estimate`'s trial engine and determinism
    guarantee: the returned array is bit-identical for any ``workers``
    setting at a fixed seed — and, with ``cache`` given, for cold, warm,
    and cache-off runs (the cached array is stored exactly and a hit
    spawns the same one child a miss does; see :func:`failure_estimate`).
    ``batch`` is the chunk size, an execution knob only, exactly as in
    :func:`failure_estimate`.  ``shard``
    runs one slice of an N-way fan-out and raises :class:`ShardPending`
    until a merged cache resolves the probe, exactly as in
    :func:`failure_estimate` (the folded record concatenates slice
    values in span order — the serial sample order).
    """
    record = _run_probe(
        "distortion_samples", family, instance, trials, rng, {},
        lambda values: {"values": values},
        fresh_sketch=True, workers=workers, cache=cache, batch=batch,
        shard=shard,
    )
    return np.asarray(record["values"], dtype=float)


@dataclass
class MinimalMResult:
    """Outcome of the minimal-``m`` search.

    Attributes
    ----------
    m_star:
        Smallest probed ``m`` whose measured failure rate is ≤ δ, or
        ``None`` when even ``m_max`` failed.
    evaluations:
        Every probed point as ``(m, estimate)``, in probe order.
    delta:
        The target failure rate.
    pending:
        ``True`` when a sharded search (``shard=``) stopped at a probe
        whose trials are not yet resolvable from the merged cache — the
        shard computed and stored its slice of that probe; ``m_star`` is
        meaningless until a merge round folds the partials and the search
        is replayed.  Always ``False`` for unsharded searches.
    """

    m_star: Optional[int]
    evaluations: List[Tuple[int, BernoulliEstimate]] = field(
        default_factory=list
    )
    delta: float = 0.1
    pending: bool = False

    @property
    def found(self) -> bool:
        return self.m_star is not None

    def estimate_at(self, m: int) -> Optional[BernoulliEstimate]:
        """The (pooled) estimate recorded for target dimension ``m``."""
        pooled = None
        for probed_m, est in self.evaluations:
            if probed_m == m:
                pooled = est if pooled is None else pooled.merge(est)
        return pooled


#: Decision rules for :func:`minimal_m` probes.
_DECISIONS = ("point", "confident_pass", "confident_fail")


def minimal_m(family: SketchFamily, instance: HardInstance, epsilon: float,
              delta: float, trials: int = 200, m_min: int = 1,
              m_max: int = 1_000_000, growth: float = 2.0,
              decision: str = "point",
              rng: RngLike = None,
              workers: Optional[int] = 1,
              cache: Optional[Any] = None,
              shard: Optional[Any] = None) -> MinimalMResult:
    """Search for the minimal ``m`` with failure rate ≤ ``δ``.

    Exponential search upward from ``m_min`` (factor ``growth``) until a
    passing ``m`` is found, then bisection between the last failing and
    first passing ``m``.  The exponential phase clamps its final probe to
    ``m_max``, so ``m_max`` itself is always probed before the search
    gives up — an instance that only passes at ``m_max`` returns
    ``found=True`` rather than being skipped over by the geometric
    schedule.  The bisection stops once the bracket width
    ``hi - lo`` drops to ``max(1, lo // 20)`` — i.e. it resolves ``m*`` to
    about 5% relative tolerance rather than exactly, since Monte-Carlo
    probe noise at practical ``trials`` swamps finer resolution anyway.
    All probes are recorded for post-hoc inspection.

    Block-structured families round a requested dimension up —
    ``family.with_m(m).m`` can exceed ``m`` (OSNAP's block variant rounds
    to a multiple of ``s``; SRHT-style families to a multiple of the block
    order).  The search therefore records the **effective** dimension
    everywhere (``evaluations``, ``m_star``, ``probe`` events), probes
    each effective dimension at most once (distinct requested values that
    alias to one sketch reuse the recorded estimate without consuming
    trials or RNG state), and clamps the schedule so no probe's effective
    dimension exceeds ``m_max``.  When even ``m_min`` rounds past
    ``m_max`` the search returns ``found=False`` without probing.

    ``workers`` parallelizes each probe's trials over a process pool (see
    :func:`failure_estimate`); the probe sequence itself is adaptive and
    stays serial.

    ``decision`` selects how a probe passes:

    * ``"point"`` (default) — point estimate ≤ δ.  Unbiased around the
      transition, noisy at small ``trials``; the scaling experiments use
      this with ``trials`` around ``50/δ``.
    * ``"confident_pass"`` — Wilson upper limit ≤ δ: a conservative
      (upper-bound) estimate of ``m*``; use when an ``m`` that certainly
      works is needed.
    * ``"confident_fail"`` — Wilson lower limit ≤ δ: an optimistic
      (lower-bound) estimate; use when quoting the measured value as an
      empirical *lower* bound on the threshold.

    ``cache`` threads a probe cache (see :func:`failure_estimate`) into
    every probe, scoped by ``search="minimal_m"`` and the ``decision``
    rule — the rule shapes *which* ``m`` values get probed, so probes
    under different rules must not alias.  Warm-starting the bracket
    falls out of content addressing: the adaptive schedule is a
    deterministic function of probe outcomes, so a warm re-run replays
    the exact cold-run probe sequence against the cache and re-derives
    the bracket (and ``m_star``) with zero new trials executed.

    ``shard`` runs the search as one worker of an N-way fan-out (see
    :func:`failure_estimate` and :mod:`repro.shard`): the adaptive probe
    sequence is replayed against the merged cache; at the first probe the
    cache cannot resolve, this shard computes and stores its trial slice
    and the search returns early with ``pending=True``.  Because the
    schedule is a deterministic function of full probe outcomes, each
    shard advances one probe per merge round and the final replay against
    the fully merged store reproduces the serial search bit for bit —
    requires ``cache=`` and a seed-backed ``rng``.

    """
    epsilon = check_epsilon(epsilon)
    delta = check_probability(delta, "delta")
    m_min = check_positive_int(m_min, "m_min")
    m_max = check_positive_int(m_max, "m_max")
    if m_min > m_max:
        raise ValueError(f"m_min ({m_min}) must not exceed m_max ({m_max})")
    if growth <= 1.0:
        raise ValueError(f"growth must exceed 1, got {growth}")
    if decision not in _DECISIONS:
        raise ValueError(
            f"decision must be one of {_DECISIONS}, got {decision!r}"
        )
    shard = normalize_shard(shard)
    if shard is not None and cache is None:
        raise ValueError(
            "shard= requires cache=: a sharded search exchanges probe "
            "partials through the probe cache"
        )
    gen = as_generator(rng)
    result = MinimalMResult(m_star=None, delta=delta)
    probe_cache = None if cache is None \
        else cache.scoped(search="minimal_m", decision=decision)

    def passes(est: BernoulliEstimate) -> bool:
        if decision == "confident_pass":
            return est.high <= delta
        if decision == "confident_fail":
            return est.low <= delta
        return est.point <= delta

    def effective(m: int) -> int:
        """The dimension actually probed: ``with_m`` may round up."""
        return family.with_m(m).m

    probed: Dict[int, BernoulliEstimate] = {}

    def probe(m: int, phase: str) -> Optional[bool]:
        started = time.perf_counter()
        fam = family.with_m(m)
        # An aliased probe (this requested m rounds to an effective
        # dimension already measured) reuses the estimate — no trials, no
        # RNG consumption — and records only a ledger event.
        est = probed.get(fam.m)
        aliased = est is not None
        if est is None:
            try:
                est = failure_estimate(
                    fam, instance, epsilon, trials, spawn(gen),
                    workers=workers, cache=probe_cache, shard=shard,
                )
            except ShardPending:
                # Sharded search: this probe is not resolvable yet — our
                # slice is stored, the search stops until the next merge.
                result.pending = True
                return None
            probed[fam.m] = est
            result.evaluations.append((fam.m, est))
        ok = passes(est)
        emit_event(
            "probe", m=fam.m, requested=m, successes=est.successes,
            trials=est.trials, decision=decision, passed=ok, phase=phase,
            aliased=aliased, elapsed=time.perf_counter() - started,
        )
        return ok

    search_started = time.perf_counter()
    emit_event(
        "minimal_m_start", m_min=m_min, m_max=m_max, growth=growth,
        decision=decision, epsilon=epsilon, delta=delta, trials=trials,
    )
    try:
        # Clamp the schedule so rounding can never push a probe's
        # effective dimension past m_max: m_cap is the largest requested
        # value whose rounded dimension still fits (with_m is monotone
        # nondecreasing).
        if effective(m_min) > m_max:
            return result
        lo_cap, hi_cap = m_min, m_max
        while lo_cap < hi_cap:
            mid_cap = (lo_cap + hi_cap + 1) // 2
            if effective(mid_cap) <= m_max:
                lo_cap = mid_cap
            else:
                hi_cap = mid_cap - 1
        m_cap = lo_cap

        # Exponential phase; the final probe is clamped to m_cap so the
        # geometric schedule can never skip past it unprobed, nor round
        # past m_max.
        m = m_min
        last_fail = None
        first_pass = None
        while True:
            verdict = probe(m, "exponential")
            if verdict is None:
                return result
            if verdict:
                first_pass = m
                break
            last_fail = m
            if m >= m_cap:
                break
            m = min(max(int(np.ceil(m * growth)), m + 1), m_cap)
        if first_pass is None:
            return result
        if last_fail is None:
            # Passed already at m_min — it is the minimum within search range.
            result.m_star = effective(first_pass)
            return result

        # Bisection phase between last_fail (fails) and first_pass (passes).
        lo, hi = last_fail, first_pass
        while hi - lo > max(1, lo // 20):
            mid = (lo + hi) // 2
            verdict = probe(mid, "bisection")
            if verdict is None:
                return result
            if verdict:
                hi = mid
            else:
                lo = mid
        result.m_star = effective(hi)
        return result
    finally:
        emit_event(
            "minimal_m_end", m_star=result.m_star, found=result.found,
            probes=len(result.evaluations),
            elapsed=time.perf_counter() - search_started,
        )
