"""Seam-attribution guard for the benchmark's per-layer breakdown.

``perfbench/tracing.py`` times each layer by wrapping the names listed in
its ``SEAMS``: methods on their classes, and functions at the module where
the caller looks them up.  A refactor that reaches a layer some other way
(binds the reducer under another name, calls a sampler around its class)
would not fail any functional test; it would only move that layer's time
into another layer of the breakdown.  These tests install the benchmark's
own tracer around small probes and fail instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core import tester
from repro.hardinstances.dbeta import DBeta
from repro.observe import counters
from repro.shard import sharded_call
from repro.sketch import CountSketch, GaussianSketch

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
TRIALS = 16
BATCH = 8


@pytest.fixture(scope="module")
def tracing():
    """``perfbench/tracing.py``, loaded without writing next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _spans_per_layer(tracing, call):
    """Run ``call`` under an installed tracer; span count per layer."""
    tracer = tracing.Tracer()
    try:
        tracer.install()
        call()
    finally:
        tracer.uninstall()
    counts = dict.fromkeys(tracing.LAYERS, 0)
    for index in tracer.spans()["layer"]:
        counts[tracing.LAYERS[int(index)]] += 1
    return counts


def _probe(batch):
    # Through the module attribute, as the benchmark calls it.
    return tester.distortion_samples(
        CountSketch(64, 512), DBeta(512, 8, reps=1), TRIALS, rng=3,
        batch=batch,
    )


def test_every_seam_resolves(tracing):
    for layer, module_name, owner_name, attribute in tracing.SEAMS:
        module = importlib.import_module(module_name)
        if owner_name is None:
            target = getattr(module, attribute, None)
        else:
            target = getattr(module, owner_name).__dict__.get(attribute)
        assert callable(target), f"{layer}: {module_name}.{owner_name}." \
                                 f"{attribute} does not resolve"


def test_serial_probe_lands_in_the_per_trial_layers(tracing):
    # A dense family's default probe reduces each trial on its own.
    calls = _spans_per_layer(tracing, lambda: tester.distortion_samples(
        GaussianSketch(16, 512), DBeta(512, 8, reps=1), TRIALS, rng=3,
    ))
    assert calls["linalg.distortion_of_product"] == TRIALS
    assert calls["sketch.basis_image"] == TRIALS
    # The per-trial reduction's SVD is timed as distortion_of_product,
    # not a second time under the batched reducer's layer.
    assert calls["linalg.distortions_of_products"] == 0


def test_default_probe_of_a_hashed_family_lands_in_the_batched_reducer(
        tracing):
    # One block of TRIALS trials, reduced from its hashed entries.
    calls = _spans_per_layer(tracing, lambda: _probe(None))
    assert calls["linalg.distortions_of_products"] == 1
    assert calls["sketch.sample_trial_batch"] == 1
    assert calls["linalg.distortion_of_product"] == 0
    assert calls["sketch.basis_image"] == 0


def test_batched_probe_lands_in_the_batched_reducer(tracing):
    calls = _spans_per_layer(tracing, lambda: _probe(BATCH))
    assert calls["linalg.distortions_of_products"] == TRIALS // BATCH
    assert calls["linalg.distortion_of_product"] == 0


def test_shard_pass_lookups_land_in_the_cache_layers(tracing, tmp_path):
    # Every lookup of a shard pass, its merges and its final replay is a
    # ProbeCache.get (one per cache_hit/cache_miss) or a ProbeCache.peek
    # (whether a shard's slice is already stored).
    def search(cache, shard):
        return tester.minimal_m(
            CountSketch(4, 64), DBeta(64, 4, reps=1), 0.5, 0.3, trials=15,
            m_min=4, m_max=256, rng=3, cache=cache, shard=shard,
        )

    before = counters().snapshot()
    calls = _spans_per_layer(
        tracing, lambda: sharded_call(search, 3, tmp_path))
    delta = counters().diff(before)
    lookups = delta.get("cache_hit", 0) + delta.get("cache_miss", 0)
    assert lookups > 0
    assert calls["cache.get"] == lookups
    assert calls["cache.peek"] > 0
