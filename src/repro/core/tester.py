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
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hardinstances.dbeta import HardInstance
from ..linalg.distortion import distortion_of_product
from ..observe.counters import add_count, counters
from ..observe.ledger import emit_event
from ..observe.trace import trace
from ..sketch.base import Sketch, SketchFamily, sample_sketch
from ..utils.parallel import (
    ShardSpec,
    TrialExecutor,
    normalize_shard,
    shard_spans,
)
from ..utils.rng import (
    RngLike,
    as_generator,
    seed_fingerprint,
    spawn,
    spawn_seeds,
    spawn_slice,
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


def _distortion_trial(family: SketchFamily, instance: HardInstance,
                      fixed: Optional[Sketch],
                      seed: np.random.SeedSequence) -> float:
    """One Monte-Carlo trial: the distortion of ``ΠU`` for fresh draws.

    Module-level (not a closure) so :class:`TrialExecutor` can pickle it
    for process-pool workers.  All randomness comes from ``seed``, making
    the trial independent of execution order.

    Seed-stream contract (pinned by ``tests/test_core_tester.py``): the
    trial *always* splits its seed into exactly two children,
    ``(sketch_seed, draw_seed) = seed.spawn(2)``, and draws the subspace
    from ``draw_seed`` — also when ``fixed`` is given and ``sketch_seed``
    goes unused.  The fixed-sketch path therefore consumes the same
    per-trial child-seed layout as the fresh path, so toggling
    ``fresh_sketch`` never shifts which stream feeds the instance draws.

    Fresh sketches are drawn ``lazy=True`` so kernel-backed families skip
    scipy matrix assembly entirely; ``basis_image`` then runs on the
    matrix-free kernel (bit-identical to the materialized path).  The
    subspace is drawn with ``sample_support`` (stream-identical to
    ``sample_draw``), so a structured trial never allocates the dense
    ``n × d`` matrix and its cost does not grow with ``n``.
    """
    sketch_seed, draw_seed = seed.spawn(2)
    sketch = fixed if fixed is not None \
        else sample_sketch(family, sketch_seed, lazy=True)
    draw = instance.sample_support(draw_seed)
    return distortion_of_product(sketch.basis_image(draw))


def _batched_trial_chunk(family: SketchFamily, instance: HardInstance,
                         seeds: Sequence[np.random.SeedSequence]
                         ) -> List[float]:
    """One batched chunk: ``len(seeds)`` Monte-Carlo trials in one
    vectorized call (see :mod:`repro.sketch.batched`).

    Module-level so :class:`TrialExecutor` can pickle it for process-pool
    workers.  The per-trial seed-stream contract is identical to
    :func:`_distortion_trial` — each trial's seed splits into exactly
    ``(sketch_seed, draw_seed) = seed.spawn(2)`` — so the batch engine
    consumes the same sub-streams the serial loop would.  Families without
    a batched sampler (``sample_trial_batch`` returns ``None``) fall back
    to the serial per-trial arithmetic *inside the chunk*, bit-identical
    to the unbatched path; re-using the already-spawned child seeds is
    safe because a ``SeedSequence`` yields the same stream every time a
    generator is built from it.
    """
    pairs = [seed.spawn(2) for seed in seeds]
    batch_kernel = family.sample_trial_batch([pair[0] for pair in pairs])
    if batch_kernel is None:
        return [
            float(distortion_of_product(
                sample_sketch(family, sketch_seed, lazy=True).basis_image(
                    instance.sample_support(draw_seed)
                )
            ))
            for sketch_seed, draw_seed in pairs
        ]
    draws = [instance.sample_support(pair[1]) for pair in pairs]
    return [float(value) for value in batch_kernel.distortions(draws)]


def _check_batch(batch: Optional[int], fresh_sketch: bool) -> Optional[int]:
    """Validate the ``batch`` knob shared by the trial-loop entry points."""
    if batch is None:
        return None
    batch = check_positive_int(batch, "batch")
    if batch > 1 and not fresh_sketch:
        raise ValueError(
            "batch > 1 requires fresh_sketch=True: the batched engine "
            "samples one sketch per trial"
        )
    return batch


def _probe_spec(family: SketchFamily, instance: HardInstance,
                fingerprint: Dict[str, Any], trials: int,
                **params: Any) -> Dict[str, Any]:
    """Content-address spec for one probe: *what* is computed, and from
    which stream state — never *how* (``workers``/``chunk_size`` excluded,
    since results are bit-identical across execution strategies)."""
    return {
        "family": family.spec(),
        "instance": instance.spec(),
        "m": family.m,
        "trials": trials,
        "seed": fingerprint,
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


def _slice_distortions(family: SketchFamily, instance: HardInstance,
                       fixed: Optional[Sketch],
                       seeds: Sequence[np.random.SeedSequence],
                       workers: Optional[int], chunk_size: Optional[int],
                       batch: Optional[int], batched: bool) -> List[float]:
    """Run one shard's contiguous slice of trials over pre-derived seeds.

    Empty slices (more shards than work units) run nothing; the batched
    engine keeps ``chunk_size=batch``, and since :func:`shard_spans`
    aligns slice boundaries to ``batch`` multiples, the chunk
    decomposition — and hence the batched arithmetic — matches the
    serial run's exactly.
    """
    if not seeds:
        return []
    if batched:
        executor = TrialExecutor(workers=workers, chunk_size=batch)
        return [float(v) for v in executor.run_chunked(
            partial(_batched_trial_chunk, family, instance), seeds,
        )]
    executor = TrialExecutor(workers=workers, chunk_size=chunk_size)
    return [float(v) for v in executor.run_seeded(
        partial(_distortion_trial, family, instance, fixed), seeds,
    )]


def _shard_pending(probe: str, spec: Dict[str, Any], shard: ShardSpec,
                   span: Tuple[int, int], computed: bool) -> ShardPending:
    """Mark one probe as awaiting a merge round; returns the exception.

    The ``shard_pending`` counter is how drivers (:mod:`repro.shard`)
    detect that a round left unresolved probes; it is bookkeeping, never
    stored into cached deltas (see ``_BOOKKEEPING_PREFIXES``).
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


def failure_estimate(family: SketchFamily, instance: HardInstance,
                     epsilon: float, trials: int,
                     rng: RngLike = None,
                     fresh_sketch: bool = True,
                     workers: Optional[int] = 1,
                     chunk_size: Optional[int] = None,
                     cache: Optional[Any] = None,
                     batch: Optional[int] = None,
                     shard: Optional[Any] = None,
                     sanitized: bool = False) -> BernoulliEstimate:
    """Estimate ``P[Π is NOT an ε-embedding for U]``.

    Each trial draws ``U`` from ``instance`` and (by default) a fresh
    sketch from ``family``, then checks the exact embedding condition via
    the singular values of ``ΠU``.  With ``fresh_sketch=False`` a single
    sketch is drawn up front and reused — the deterministic-Π view of
    Yao's principle, appropriate when certifying one concrete matrix.

    ``workers`` distributes the trials over a process pool (``None``/``0``
    = all CPUs).  Results are bit-identical across ``workers`` settings at
    a fixed seed: each trial consumes only its own pre-derived child seed.

    ``cache`` (a :class:`repro.cache.ProbeCache` or scoped view, duck-typed
    so this module never imports the cache package) reuses results across
    runs: the probe is keyed by family/instance spec, parameters, and the
    RNG's :func:`~repro.utils.rng.seed_fingerprint`, so a hit is by
    construction the value this call would compute.  On a hit the call
    still advances ``rng``'s spawn counter exactly as the computation
    would and merges the stored operation-counter delta, keeping warm
    runs bit-identical to cold and cache-off runs — downstream draws and
    ``count_*`` metrics included.  RNGs without a recorded seed sequence
    are uncacheable and silently bypass the cache.

    ``batch`` switches the trials onto the batched kernel engine
    (:mod:`repro.sketch.batched`): chunks of ``batch`` trials are sampled,
    applied, and SVD-reduced in one vectorized call each.  ``None`` or
    ``1`` keeps the serial per-trial path exactly (so ``batch=1`` is
    bit-identical to the default).  ``batch > 1`` uses the engine's own
    canonical accumulation order — deterministic, and bit-identical across
    serial/parallel and cold/warm-cache runs at a fixed seed, but distinct
    from the serial stream at the ULP level, which is why the batch size
    enters the cache key.  Requires ``fresh_sketch=True``; the chunk
    decomposition is pinned to ``batch`` (``chunk_size`` is ignored).

    ``shard`` (a :class:`~repro.utils.parallel.ShardSpec` or an
    ``(index, count)`` pair) runs this call as one worker of an N-way
    fan-out: when the probe cannot be resolved from ``cache``, only this
    shard's contiguous trial slice is executed — on the **same** child
    seed streams the serial run hands those trials, via
    :func:`~repro.utils.rng.spawn_slice` — and the outcome is stored as a
    shard-partial cache record for ``python -m repro.cache merge`` to
    fold.  The call then raises :class:`ShardPending` (counted as
    ``shard_pending``); once a merged store resolves the probe, the same
    call returns the full estimate bit-identically to a serial run.
    Requires ``cache=`` and a seed-backed ``rng``; see :mod:`repro.shard`
    for the driver.

    ``sanitized=True`` runs the estimate under the determinism sanitizer
    (:func:`repro.sanitize.sanitized_rerun`): the probe executes twice —
    once as configured, once as a serial cache-off replay from the same
    stream state — and any divergence in RNG stream traces or result
    bytes raises :class:`repro.sanitize.DeterminismError`.  Incompatible
    with ``shard=`` (a shard pass is deliberately partial; sanitize the
    merged replay instead).
    """
    if sanitized:
        if shard is not None:
            raise ValueError(
                "sanitized= cannot be combined with shard=: a shard pass "
                "is a deliberately partial execution — sanitize the "
                "merged serial replay instead (see repro.sanitize)"
            )
        from ..sanitize.runtime import sanitized_rerun

        return sanitized_rerun(
            "failure_estimate",
            lambda rng_, workers_, cache_: failure_estimate(
                family, instance, epsilon, trials, rng_,
                fresh_sketch=fresh_sketch, workers=workers_,
                chunk_size=chunk_size, cache=cache_, batch=batch,
            ),
            rng=rng, workers=workers, cache=cache,
        )
    epsilon = check_epsilon(epsilon)
    trials = check_positive_int(trials, "trials")
    batch = _check_batch(batch, fresh_sketch)
    batched = batch is not None and batch > 1
    shard = normalize_shard(shard)
    if family.n != instance.n:
        raise ValueError(
            f"family ambient dimension ({family.n}) must match instance "
            f"({instance.n})"
        )
    gen = as_generator(rng)
    spec = None
    if cache is not None:
        fingerprint = seed_fingerprint(gen)
        if fingerprint is not None:
            params: Dict[str, Any] = dict(
                epsilon=epsilon, fresh_sketch=fresh_sketch,
            )
            if batched:
                # The batched engine owns a different (canonical)
                # accumulation order, so its results must not alias the
                # serial path's; batch=1 delegates to the serial path and
                # shares its entries.
                params["batch"] = batch
            spec = _probe_spec(family, instance, fingerprint, trials,
                               **params)
            hit = cache.get("failure_estimate", spec)
            if hit is not None:
                # Replay the computation's spawn consumption (one child
                # for the fixed sketch, one per trial) and its counter
                # delta, so the parent stream and metrics end up exactly
                # where a cache miss would leave them.
                spawn_seeds(gen, trials + (0 if fresh_sketch else 1))
                counters().merge(hit.counters)
                return BernoulliEstimate(
                    int(hit.value["successes"]), int(hit.value["trials"]),
                    float(hit.value["confidence"]),
                )
    if shard is not None:
        if spec is None:
            raise ValueError(
                "shard= requires cache= and a seed-backed rng: shard "
                "partials are exchanged through the probe cache, keyed by "
                "the seed fingerprint"
            )
        span = shard_spans(trials, shard.count,
                           step=batch if batched else 1)[shard.index]
        shard_spec = _shard_spec_of(spec, shard, span)
        if cache.peek("failure_estimate", shard_spec) is not None:
            # This shard's slice is already on disk (resume after a crash
            # or a later round); only the merge is still outstanding.
            raise _shard_pending("failure_estimate", spec, shard, span,
                                 computed=False)
        lo, hi = span
        if fresh_sketch:
            fixed = None
            before = counters().snapshot()
        elif shard.index == 0:
            # Every shard must sample the fixed sketch (trial seeds start
            # at child 1), but exactly one delta may carry its cost or the
            # folded counters would overcount it (count - 1) times.
            before = counters().snapshot()
            fixed = sample_sketch(family, spawn(gen), lazy=True)
        else:
            fixed = sample_sketch(family, spawn(gen), lazy=True)
            before = counters().snapshot()
        seeds = spawn_slice(gen, lo, hi, total=trials)
        distortions = _slice_distortions(
            family, instance, fixed, seeds, workers, chunk_size,
            batch, batched,
        )
        cache.put(
            "failure_estimate", shard_spec,
            {
                "successes": sum(1 for v in distortions if v > epsilon),
                "trials": hi - lo,
                "confidence": BernoulliEstimate(0, 1).confidence,
            },
            counters().diff(before),
        )
        raise _shard_pending("failure_estimate", spec, shard, span,
                             computed=True)
    before = counters().snapshot() if spec is not None else {}
    if batched:
        executor = TrialExecutor(workers=workers, chunk_size=batch)
        with trace("failure_estimate", m=family.m, trials=trials,
                   batch=batch):
            distortions = executor.run_chunked(
                partial(_batched_trial_chunk, family, instance),
                spawn_seeds(gen, trials),
            )
    else:
        fixed = None if fresh_sketch \
            else sample_sketch(family, spawn(gen), lazy=True)
        executor = TrialExecutor(workers=workers, chunk_size=chunk_size)
        with trace("failure_estimate", m=family.m, trials=trials):
            distortions = executor.run(
                partial(_distortion_trial, family, instance, fixed),
                trials, gen,
            )
    failures = sum(1 for value in distortions if value > epsilon)
    estimate = BernoulliEstimate(failures, trials)
    if spec is not None:
        cache.put(
            "failure_estimate", spec,
            {
                "successes": estimate.successes,
                "trials": estimate.trials,
                "confidence": estimate.confidence,
            },
            counters().diff(before),
        )
    return estimate


def distortion_samples(family: SketchFamily, instance: HardInstance,
                       trials: int, rng: RngLike = None,
                       workers: Optional[int] = 1,
                       chunk_size: Optional[int] = None,
                       cache: Optional[Any] = None,
                       batch: Optional[int] = None,
                       shard: Optional[Any] = None,
                       sanitized: bool = False) -> np.ndarray:
    """Sampled distortions (one per trial) — the full failure CDF.

    Shares :func:`failure_estimate`'s trial engine and determinism
    guarantee: the returned array is bit-identical for any ``workers``
    setting at a fixed seed — and, with ``cache`` given, for cold, warm,
    and cache-off runs (the cached array is stored exactly and the RNG
    spawn counter replayed on hits; see :func:`failure_estimate`).
    ``batch`` selects the batched kernel engine exactly as in
    :func:`failure_estimate` (``None``/``1`` = serial path, ``> 1`` =
    vectorized chunks with the batch size in the cache key).  ``shard``
    runs one slice of an N-way fan-out and raises :class:`ShardPending`
    until a merged cache resolves the probe, exactly as in
    :func:`failure_estimate` (the folded record concatenates slice
    values in span order — the serial sample order).  ``sanitized``
    re-executes under the determinism sanitizer exactly as in
    :func:`failure_estimate` (incompatible with ``shard=``).
    """
    if sanitized:
        if shard is not None:
            raise ValueError(
                "sanitized= cannot be combined with shard=: a shard pass "
                "is a deliberately partial execution — sanitize the "
                "merged serial replay instead (see repro.sanitize)"
            )
        from ..sanitize.runtime import sanitized_rerun

        return sanitized_rerun(
            "distortion_samples",
            lambda rng_, workers_, cache_: distortion_samples(
                family, instance, trials, rng_, workers=workers_,
                chunk_size=chunk_size, cache=cache_, batch=batch,
            ),
            rng=rng, workers=workers, cache=cache,
        )
    trials = check_positive_int(trials, "trials")
    batch = _check_batch(batch, fresh_sketch=True)
    batched = batch is not None and batch > 1
    shard = normalize_shard(shard)
    gen = as_generator(rng)
    spec = None
    if cache is not None:
        fingerprint = seed_fingerprint(gen)
        if fingerprint is not None:
            params = {"batch": batch} if batched else {}
            spec = _probe_spec(family, instance, fingerprint, trials,
                               **params)
            hit = cache.get("distortion_samples", spec)
            if hit is not None:
                spawn_seeds(gen, trials)
                counters().merge(hit.counters)
                return np.asarray(hit.value["values"], dtype=float)
    if shard is not None:
        if spec is None:
            raise ValueError(
                "shard= requires cache= and a seed-backed rng: shard "
                "partials are exchanged through the probe cache, keyed by "
                "the seed fingerprint"
            )
        span = shard_spans(trials, shard.count,
                           step=batch if batched else 1)[shard.index]
        shard_spec = _shard_spec_of(spec, shard, span)
        if cache.peek("distortion_samples", shard_spec) is not None:
            raise _shard_pending("distortion_samples", spec, shard, span,
                                 computed=False)
        lo, hi = span
        before = counters().snapshot()
        seeds = spawn_slice(gen, lo, hi, total=trials)
        values = _slice_distortions(
            family, instance, None, seeds, workers, chunk_size,
            batch, batched,
        )
        cache.put(
            "distortion_samples", shard_spec,
            {"values": values},
            counters().diff(before),
        )
        raise _shard_pending("distortion_samples", spec, shard, span,
                             computed=True)
    before = counters().snapshot() if spec is not None else {}
    if batched:
        executor = TrialExecutor(workers=workers, chunk_size=batch)
        with trace("distortion_samples", m=family.m, trials=trials,
                   batch=batch):
            values = executor.run_chunked(
                partial(_batched_trial_chunk, family, instance),
                spawn_seeds(gen, trials),
            )
    else:
        executor = TrialExecutor(workers=workers, chunk_size=chunk_size)
        with trace("distortion_samples", m=family.m, trials=trials):
            values = executor.run(
                partial(_distortion_trial, family, instance, None),
                trials, gen,
            )
    samples = np.asarray(values, dtype=float)
    if spec is not None:
        cache.put(
            "distortion_samples", spec,
            {"values": [float(value) for value in samples]},
            counters().diff(before),
        )
    return samples


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
              chunk_size: Optional[int] = None,
              cache: Optional[Any] = None,
              batch: Optional[int] = None,
              shard: Optional[Any] = None,
              sanitized: bool = False) -> MinimalMResult:
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
    stays serial.  ``batch`` switches each probe onto the batched kernel
    engine, forwarded to :func:`failure_estimate` (and into the probe
    cache key) only when set.

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

    ``sanitized`` re-executes the whole search under the determinism
    sanitizer exactly as in :func:`failure_estimate` (incompatible with
    ``shard=``): the adaptive probe schedule, being a deterministic
    function of probe outcomes, must replay identically serial and
    cache-off.
    """
    if sanitized:
        if shard is not None:
            raise ValueError(
                "sanitized= cannot be combined with shard=: a shard pass "
                "is a deliberately partial execution — sanitize the "
                "merged serial replay instead (see repro.sanitize)"
            )
        from ..sanitize.runtime import sanitized_rerun

        return sanitized_rerun(
            "minimal_m",
            lambda rng_, workers_, cache_: minimal_m(
                family, instance, epsilon, delta, trials=trials,
                m_min=m_min, m_max=m_max, growth=growth,
                decision=decision, rng=rng_, workers=workers_,
                chunk_size=chunk_size, cache=cache_, batch=batch,
            ),
            rng=rng, workers=workers, cache=cache,
        )
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
    batch = _check_batch(batch, fresh_sketch=True)
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
    # Only forward `batch`/`shard` when set: probes must keep calling any
    # monkeypatched/stubbed failure_estimate with its historical signature.
    probe_kwargs: Dict[str, Any] = {} if batch is None else {"batch": batch}
    if shard is not None:
        probe_kwargs["shard"] = shard

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
        known = probed.get(fam.m)
        if known is not None:
            # Aliased probe: this requested m rounds to an effective
            # dimension already measured.  Reuse the estimate — no trials,
            # no RNG consumption — and record only a ledger event.
            ok = passes(known)
            emit_event(
                "probe", m=fam.m, requested=m, successes=known.successes,
                trials=known.trials, decision=decision, passed=ok,
                phase=phase, aliased=True,
                elapsed=time.perf_counter() - started,
            )
            return ok
        try:
            est = failure_estimate(
                fam, instance, epsilon, trials, spawn(gen),
                workers=workers, chunk_size=chunk_size, cache=probe_cache,
                **probe_kwargs,
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
            aliased=False, elapsed=time.perf_counter() - started,
        )
        return ok

    # Clamp the schedule so rounding can never push a probe's effective
    # dimension past m_max: m_cap is the largest requested value whose
    # rounded dimension still fits (with_m is monotone nondecreasing).
    if effective(m_min) > m_max:
        emit_event(
            "minimal_m_start", m_min=m_min, m_max=m_max, growth=growth,
            decision=decision, epsilon=epsilon, delta=delta, trials=trials,
        )
        emit_event(
            "minimal_m_end", m_star=None, found=False, probes=0, elapsed=0.0,
        )
        return result
    lo_cap, hi_cap = m_min, m_max
    while lo_cap < hi_cap:
        mid_cap = (lo_cap + hi_cap + 1) // 2
        if effective(mid_cap) <= m_max:
            lo_cap = mid_cap
        else:
            hi_cap = mid_cap - 1
    m_cap = lo_cap

    search_started = time.perf_counter()
    emit_event(
        "minimal_m_start", m_min=m_min, m_max=m_max, growth=growth,
        decision=decision, epsilon=epsilon, delta=delta, trials=trials,
    )
    try:
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
