"""Registry mapping experiment ids to their implementations."""

from __future__ import annotations

from typing import Dict, List, Type

from ..utils.rng import RngLike
from .e01_countsketch_threshold import CountSketchThresholdExperiment
from .e02_eps_delta_scaling import EpsDeltaScalingExperiment
from .e03_column_norms import ColumnNormExperiment
from .e04_birthday import BirthdayCollisionExperiment
from .e05_lemma3 import Lemma3Experiment
from .e06_lemma4_witness import Lemma4WitnessExperiment
from .e07_algorithm1 import Algorithm1Experiment
from .e08_hadamard_tightness import HadamardTightnessExperiment
from .e09_sparsity_tradeoff import SparsityTradeoffExperiment
from .e10_heavy_budget import HeavyBudgetExperiment
from .e11_applications import ApplicationsExperiment
from .e12_regime_map import RegimeMapExperiment
from .e13_expected_sparsity import ExpectedSparsityExperiment
from .e14_two_stage import TwoStageExperiment
from .harness import Experiment, ExperimentResult

__all__ = [
    "EXPERIMENTS",
    "experiment_ids",
    "get_experiment",
    "run_experiment",
    "run_all",
]

_CLASSES: List[Type[Experiment]] = [
    CountSketchThresholdExperiment,
    EpsDeltaScalingExperiment,
    ColumnNormExperiment,
    BirthdayCollisionExperiment,
    Lemma3Experiment,
    Lemma4WitnessExperiment,
    Algorithm1Experiment,
    HadamardTightnessExperiment,
    SparsityTradeoffExperiment,
    HeavyBudgetExperiment,
    ApplicationsExperiment,
    RegimeMapExperiment,
    ExpectedSparsityExperiment,
    TwoStageExperiment,
]

EXPERIMENTS: Dict[str, Type[Experiment]] = {
    cls.experiment_id: cls for cls in _CLASSES
}


def experiment_ids() -> List[str]:
    """All registered experiment ids in DESIGN.md order."""
    return [cls.experiment_id for cls in _CLASSES]


def get_experiment(experiment_id: str) -> Experiment:
    """Instantiate the experiment registered under ``experiment_id``."""
    try:
        cls = EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(experiment_ids())
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None
    return cls()


def run_experiment(experiment_id: str, scale: float = 1.0,
                   rng: RngLike = None,
                   workers: int = 1, cache=None,
                   shard=None) -> ExperimentResult:
    """Run one experiment by id.

    ``workers`` parallelizes its trial loops; ``cache`` (a
    :class:`repro.cache.ProbeCache`) reuses probe results across runs —
    neither changes any result at a fixed seed.  ``shard`` (a
    :class:`~repro.utils.parallel.ShardSpec` or ``(index, count)`` pair)
    runs one shard pass of an N-way fan-out; see :mod:`repro.shard`.
    """
    return get_experiment(experiment_id).run(
        scale=scale, rng=rng, workers=workers, cache=cache, shard=shard,
    )


def run_all(scale: float = 1.0, rng: RngLike = None,
            workers: int = 1, cache=None,
            shard=None) -> List[ExperimentResult]:
    """Run every experiment, returning results in order."""
    return [
        run_experiment(eid, scale=scale, rng=rng, workers=workers,
                       cache=cache, shard=shard)
        for eid in experiment_ids()
    ]
