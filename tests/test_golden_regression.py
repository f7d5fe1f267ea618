"""Golden regression pins on the Monte-Carlo trial stream.

``tests/golden/distortion_streams.json`` records, for each sketch family,
the exact distortion sequence produced by :func:`distortion_samples` at a
fixed ``SeedSequence``.  Any change to RNG consumption, trial seeding, the
kernel dispatch, or the distortion arithmetic shows up here as a diff.
The same pins hold at any ``batch`` chunk size, bit for bit.

``tests/golden/shard_streams.json`` additionally pins a ``minimal_m``
search per sketch family as recorded through a 3-shard
:func:`repro.shard.sharded_call` — and the tests here require the same
bytes from 1-, 2-, and 3-shard fan-outs *and* from the plain serial
search, the shard layer's core invariance.

Comparison uses a tight relative tolerance (1e-9) rather than exact
equality only to absorb BLAS/LAPACK differences across platforms in the
SVD (or the Gram eigenvalues) of the reduction; everything upstream of it
is required to be bit-identical (see tests/test_apply_kernels.py).

To regenerate after an *intentional* change to the trial stream::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

import json

import numpy as np
import pytest

from repro.core.tester import distortion_samples

from golden.regenerate import (
    GOLDEN_BATCH,
    GOLDEN_PATH,
    GOLDEN_SEED,
    GOLDEN_TRIALS,
    SHARD_COUNT,
    SHARD_PATH,
    SHARD_TRIALS,
    cases,
    search_payload,
    shard_cases,
    shard_search,
)

pytestmark = pytest.mark.kernels


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_file_covers_every_case(golden):
    assert sorted(golden["streams"]) == sorted(name for name, _, _ in cases())


@pytest.mark.parametrize(
    "name,family,instance",
    [pytest.param(*case, id=case[0]) for case in cases()],
)
def test_distortion_stream_unchanged(name, family, instance, golden):
    recorded = np.asarray(golden["streams"][name], dtype=float)
    current = distortion_samples(
        family, instance, trials=GOLDEN_TRIALS,
        rng=np.random.SeedSequence(GOLDEN_SEED),
    )
    assert current.shape == recorded.shape
    np.testing.assert_allclose(current, recorded, rtol=1e-9, atol=0.0)


def test_golden_metadata_matches_parameters(golden):
    assert golden["seed"] == GOLDEN_SEED
    assert golden["trials"] == GOLDEN_TRIALS


@pytest.mark.parametrize(
    "name,family,instance",
    [pytest.param(*case, id=case[0]) for case in cases()],
)
def test_batched_stream_unchanged(name, family, instance, golden):
    """The pins hold at a chunk size with a partial tail, bit for bit
    equal to the default run: ``batch`` changes no value."""
    recorded = np.asarray(golden["streams"][name], dtype=float)
    current = distortion_samples(
        family, instance, trials=GOLDEN_TRIALS,
        rng=np.random.SeedSequence(GOLDEN_SEED), batch=GOLDEN_BATCH,
    )
    assert current.shape == recorded.shape
    np.testing.assert_allclose(current, recorded, rtol=1e-9, atol=0.0)
    np.testing.assert_array_equal(current, distortion_samples(
        family, instance, trials=GOLDEN_TRIALS,
        rng=np.random.SeedSequence(GOLDEN_SEED),
    ))


@pytest.fixture(scope="module")
def golden_shard():
    with open(SHARD_PATH) as handle:
        return json.load(handle)


def test_shard_golden_file_covers_every_case(golden_shard):
    assert sorted(golden_shard["searches"]) == sorted(
        name for name, _, _ in shard_cases()
    )
    assert golden_shard["seed"] == GOLDEN_SEED
    assert golden_shard["trials"] == SHARD_TRIALS
    assert golden_shard["shards"] == SHARD_COUNT


@pytest.mark.parametrize(
    "name,family,instance",
    [pytest.param(*case, id=case[0]) for case in shard_cases()],
)
def test_serial_search_matches_shard_pins(name, family, instance,
                                          golden_shard):
    """The pins, though recorded through a 3-shard merge, are the *serial*
    search outcome — a plain cache-less run reproduces them exactly."""
    payload = search_payload(shard_search(family, instance))
    assert payload == golden_shard["searches"][name]


@pytest.mark.parametrize("shards", [1, 2, 3])
@pytest.mark.parametrize(
    "name,family,instance",
    [pytest.param(*case, id=case[0]) for case in shard_cases()],
)
def test_shard_count_invariance(name, family, instance, shards,
                                golden_shard, tmp_path):
    """Shard-count invariance: any fan-out reproduces the pinned search.

    The probe schedule, successes, and m* must not depend on how the
    trial budget was partitioned — the canonical-JSON bytes of the
    payload are identical for 1, 2, and 3 shards.
    """
    from repro.shard import sharded_call

    result = sharded_call(
        lambda cache, shard: shard_search(family, instance,
                                          cache=cache, shard=shard),
        shards, tmp_path,
    )
    payload = search_payload(result)
    pinned = golden_shard["searches"][name]
    assert json.dumps(payload, sort_keys=True) \
        == json.dumps(pinned, sort_keys=True)
