"""Kernel-vs-materialized throughput for the matrix-free apply path.

Unlike the other benchmark modules this one uses manual
``time.perf_counter`` timing instead of the ``pytest-benchmark`` fixture,
so it can double as a CI smoke test (CI installs only numpy/scipy/pytest/
hypothesis).  Scale via the ``REPRO_BENCH_SCALE`` environment variable:
``1.0`` (default) reproduces the reference numbers below; CI runs at
``0.05`` where only the bit-identity assertions are load-bearing and the
speedup assertions relax to sanity thresholds.

Two measurements:

* the Monte-Carlo *trial path* — per trial, turn ``Π`` into ``ΠU`` for a
  structured ``D_β`` draw.  The materialized route builds the scipy matrix
  (COO sort) from the full ``(s, n)`` (hash-row, sign) representation and
  slices/combines its columns; the kernel route constructs the kernel from
  its hash key, hashes only the draw's support columns and scatters
  straight into the ``(m, d)`` output.  Key and draw sampling are
  identical on both routes, so they are pre-computed outside the timer.
  Reference grid (n=16384, d=64, s=1, m=1024): the kernel route is ≥5×
  faster.
* the dense *apply grid* — ``ΠA`` for tall dense ``A`` across
  ``(n, d, m, s)``, kernel dispatch vs. a pre-built sparse matmul,
  printed as a table.
"""

import os
import time

import numpy as np
import pytest

from repro.hardinstances.dbeta import DBeta, HardDraw
from repro.linalg.sparse_ops import from_triplets
from repro.sketch import CountSketch, OSNAP, sample_sketch
from repro.sketch.base import Sketch
from repro.sketch.kernels import ColumnScatterKernel

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
FULL_FIDELITY = SCALE >= 1.0

#: Reference grid of the acceptance measurement (full scale).
REF_N = max(256, int(16384 * SCALE))
REF_D = max(4, int(64 * min(1.0, 4 * SCALE)))
REF_M = max(REF_D + 1, int(1024 * min(1.0, 4 * SCALE)))
TRIALS = max(3, int(30 * min(1.0, 2 * SCALE)))


def _best_of(repeats, fn, *args):
    """Minimum wall-clock over ``repeats`` runs (noise-robust timing)."""
    best = np.inf
    out = None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, out


def _sample_representations(family, count):
    """Per-trial kernel parameters and full (rows, values) arrays of ``Π``.

    Sampled once, outside the timed regions: the key draw is identical on
    both routes, so timing it would only dilute the comparison.
    """
    variant = getattr(family, "variant", "uniform")
    reprs = []
    for seed in np.random.SeedSequence(77).spawn(count):
        kernel = sample_sketch(family, seed).kernel
        arrays = kernel.representation()
        reprs.append(((kernel.key, kernel.s, kernel.shape, variant),
                      arrays["rows"], arrays["values"], kernel.shape))
    return reprs


def _materialized_trials(reprs, draws):
    """Per trial: build the scipy matrix, then slice-and-combine ``ΠU``."""
    out = []
    for (_, rows, values, shape), draw in zip(reprs, draws):
        s, n = rows.shape
        cols = np.broadcast_to(np.arange(n), (s, n))
        matrix = from_triplets(
            rows.ravel(), np.ascontiguousarray(cols).ravel(),
            values.ravel(), shape,
        )
        out.append(draw.sketched_basis(matrix))
    return out


def _kernel_trials(reprs, draws):
    """Per trial: construct the kernel, then scatter ``ΠU`` directly."""
    out = []
    for (params, _, _, _), draw in zip(reprs, draws):
        kernel = ColumnScatterKernel(*params)
        out.append(kernel.sketched_basis(draw))
    return out


class TestTrialPathSpeedup:
    """The acceptance measurement: trial loop, kernel vs. materialized."""

    @pytest.mark.parametrize(
        "make_family,reps",
        [
            pytest.param(lambda: CountSketch(REF_M, REF_N), 1,
                         id="countsketch-s1"),
            pytest.param(lambda: OSNAP(REF_M, REF_N, s=4), 2,
                         id="osnap-s4"),
        ],
    )
    def test_kernel_trials_faster_and_bit_identical(self, make_family, reps):
        family = make_family()
        instance = DBeta(REF_N, REF_D, reps=reps)
        # Neither timed route reads ``draw.u`` (the structured path works
        # from rows/signs alone), so swap each 8 MB ``U`` for a
        # zero-stride broadcast — keeping 30 of them alive would thrash
        # the cache and time memory pressure instead of the kernels.
        draws = [
            HardDraw(
                u=np.broadcast_to(0.0, (REF_N, REF_D)),
                rows=drawn.rows, signs=drawn.signs, reps=drawn.reps,
            )
            for drawn in (
                instance.sample_draw(seed)
                for seed in np.random.SeedSequence(99).spawn(TRIALS)
            )
        ]
        reprs = _sample_representations(family, TRIALS)

        # Warm-up outside the timed region (allocator, caches).
        _kernel_trials(reprs[:2], draws[:2])
        _materialized_trials(reprs[:2], draws[:2])

        t_lazy, lazy_out = _best_of(10, _kernel_trials, reprs, draws)
        t_eager, eager_out = _best_of(10, _materialized_trials, reprs, draws)

        for got, want in zip(lazy_out, eager_out):
            assert np.array_equal(got, want)

        speedup = t_eager / t_lazy
        print(
            f"\n[{family.name}] n={REF_N} d={REF_D} m={REF_M} "
            f"trials={TRIALS}: eager {1e3 * t_eager:.2f} ms, "
            f"kernel {1e3 * t_lazy:.2f} ms, speedup {speedup:.1f}x"
        )
        if FULL_FIDELITY:
            assert speedup >= 5.0, (
                f"kernel trial path only {speedup:.2f}x faster "
                f"(acceptance floor is 5x at full scale)"
            )
        else:
            # Smoke scale: timings are noise-dominated; only require that
            # the kernel path is not pathologically slower.
            assert speedup >= 0.5

    def test_failure_estimate_unchanged_by_kernel_path(self):
        """End-to-end: estimates identical with and without the kernels."""
        import repro.core.tester as tester
        from repro.core.tester import failure_estimate

        family = CountSketch(REF_M, REF_N)
        instance = DBeta(REF_N, REF_D, reps=1)
        new = failure_estimate(
            family, instance, epsilon=0.5, trials=TRIALS,
            rng=np.random.SeedSequence(5),
        )

        def matrix_only(fam, rng=None):
            sketch = fam.sample(rng)
            return Sketch(sketch.matrix, family=fam)

        original = tester.sample_sketch
        tester.sample_sketch = matrix_only
        # One trial at a time, on the materialized matrix.
        family.sample_trial_batch = lambda streams: None
        try:
            old = failure_estimate(
                family, instance, epsilon=0.5, trials=TRIALS,
                rng=np.random.SeedSequence(5),
            )
        finally:
            tester.sample_sketch = original
            del family.sample_trial_batch
        assert new.successes == old.successes
        assert new.trials == old.trials


class TestDenseApplyGrid:
    """Kernel dispatch vs. sample-then-matmul across (n, d, m, s)."""

    def test_apply_grid_table(self):
        grid = [
            (4096, 1, 512, 1),
            (4096, 4, 512, 1),
            (4096, 64, 512, 1),
            (8192, 1, 1024, 4),
            (8192, 4, 1024, 4),
            (8192, 64, 1024, 4),
        ]
        rows = []
        for n, d, m, s in grid:
            n = max(128, int(n * SCALE))
            m = max(8, int(m * min(1.0, 4 * SCALE)))
            family = CountSketch(m, n) if s == 1 else OSNAP(m, n, s=s)
            sketch = sample_sketch(family, np.random.SeedSequence(1))
            a = np.random.default_rng(2).standard_normal((n, d))
            t_kernel, out_kernel = _best_of(20, sketch.kernel.apply, a)
            t_matmul, out_matmul = _best_of(20, sketch.matrix.__matmul__, a)
            assert np.array_equal(out_kernel, np.asarray(out_matmul))
            rows.append((n, d, m, s, 1e3 * t_kernel, 1e3 * t_matmul))

        header = f"{'n':>6} {'d':>3} {'m':>5} {'s':>2} " \
                 f"{'kernel ms':>10} {'matmul ms':>10}"
        print("\n" + header)
        for n, d, m, s, tk, tm in rows:
            print(f"{n:>6} {d:>3} {m:>5} {s:>2} {tk:>10.3f} {tm:>10.3f}")
        # Regression guard, not a victory condition: the scatter competes
        # with a *pre-built* compiled matmul here (the build cost it saves
        # is measured by the trial benchmark above), so only catch the
        # pathological case of the narrow path falling far behind.
        narrow = [r for r in rows if r[1] == 1]
        if FULL_FIDELITY:
            for n, d, m, s, tk, tm in narrow:
                assert tk <= 10.0 * tm
