"""Golden-data generator for the distortion-stream regression pins.

Run from the repository root after an *intentional* change to the trial
stream (new RNG consumption order, different trial seeding, changed
distortion arithmetic)::

    PYTHONPATH=src python tests/golden/regenerate.py

Keep the diff in review: a regenerated file means every previously
recorded experiment number is potentially stale.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from repro.hardinstances.dbeta import DBeta
from repro.sketch import (
    OSNAP,
    CountSketch,
    GaussianSketch,
    LeverageSampling,
    RowSampling,
    SparseJL,
)

GOLDEN_PATH = Path(__file__).with_name("distortion_streams.json")
SHARD_PATH = Path(__file__).with_name("shard_streams.json")
GOLDEN_SEED = 20220620  # PODS'22 vintage
GOLDEN_TRIALS = 24
#: A chunk size the pins are also checked at; deliberately not a divisor
#: of GOLDEN_TRIALS so the trailing partial chunk stays covered.
GOLDEN_BATCH = 5
#: Per-probe trial budget of the sharded-search pins; deliberately not a
#: multiple of SHARD_COUNT so span boundaries land off the even split.
SHARD_TRIALS = 18
SHARD_COUNT = 3

_N = 192


def cases():
    """(name, family, instance) triples pinned by the golden file."""
    gen = np.random.default_rng(2024)
    p = gen.random(_N)
    p /= p.sum()
    return [
        ("countsketch", CountSketch(96, _N), DBeta(_N, 6, reps=1)),
        ("osnap-uniform", OSNAP(96, _N, s=4), DBeta(_N, 6, reps=2)),
        ("osnap-block", OSNAP(96, _N, s=4, variant="block"),
         DBeta(_N, 6, reps=2)),
        ("sparsejl", SparseJL(96, _N, q=0.05), DBeta(_N, 4, reps=8)),
        ("rowsampling", RowSampling(64, _N), DBeta(_N, 6, reps=1)),
        ("leverage", LeverageSampling(64, _N, probabilities=p),
         DBeta(_N, 6, reps=1)),
        ("gaussian", GaussianSketch(48, _N), DBeta(_N, 6, reps=2)),
        ("countsketch-iid-rows", CountSketch(96, _N),
         DBeta(_N, 6, reps=2, distinct_rows=False)),
    ]


def shard_cases():
    """(name, family, instance) pairs pinned by the sharded-search file.

    One scatter sketch at ``s=1`` and one at ``s=4``: the two kernel
    shapes the shard protocol has to keep stream-faithful.
    """
    return [
        ("countsketch", CountSketch(8, _N), DBeta(_N, 6, reps=1)),
        ("osnap", OSNAP(8, _N, s=4), DBeta(_N, 6, reps=2)),
    ]


def shard_search(family, instance, cache=None, shard=None):
    """The pinned ``minimal_m`` search, as a sharded workload."""
    from repro.core.tester import minimal_m

    return minimal_m(
        family, instance, 0.5, 0.25, trials=SHARD_TRIALS,
        m_min=8, m_max=_N, rng=np.random.SeedSequence(GOLDEN_SEED),
        cache=cache, shard=shard,
    )


def search_payload(result):
    """The JSON-stable view of a search result the pins record."""
    return {
        "m_star": result.m_star,
        "evaluations": [
            [int(m), int(est.successes), int(est.trials)]
            for m, est in result.evaluations
        ],
    }


def main():
    from repro.core.tester import distortion_samples
    from repro.shard import sharded_call

    streams = {}
    for name, family, instance in cases():
        values = distortion_samples(
            family, instance, trials=GOLDEN_TRIALS,
            rng=np.random.SeedSequence(GOLDEN_SEED),
        )
        streams[name] = [float(v) for v in values]
    payload = {
        "seed": GOLDEN_SEED,
        "trials": GOLDEN_TRIALS,
        "streams": streams,
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(streams)} streams)")
    searches = {}
    for name, family, instance in shard_cases():
        with tempfile.TemporaryDirectory() as workdir:
            result = sharded_call(
                lambda cache, shard, f=family, i=instance:
                    shard_search(f, i, cache=cache, shard=shard),
                SHARD_COUNT, workdir,
            )
        searches[name] = search_payload(result)
    payload = {
        "seed": GOLDEN_SEED,
        "trials": SHARD_TRIALS,
        "shards": SHARD_COUNT,
        "searches": searches,
    }
    SHARD_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {SHARD_PATH} ({len(searches)} searches)")


if __name__ == "__main__":
    main()
