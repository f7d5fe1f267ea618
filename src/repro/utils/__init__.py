"""Shared utilities: RNG plumbing, validation, statistics, grids, tables."""

from .grids import dyadic_grid, geometric_grid, log_int_grid
from .parallel import TrialExecutor, resolve_workers
from .rng import RngLike, as_generator, spawn, spawn_many, spawn_seeds, stream
from .serialization import json_default, to_builtin
from .stats import (
    BernoulliEstimate,
    fit_power_law,
    geometric_mean,
    wilson_interval,
)
from .tables import TextTable, format_value
from .validation import (
    check_epsilon,
    check_in_range,
    check_matrix,
    check_nonnegative_int,
    check_positive_int,
    check_power_of_two,
    check_probability,
)

__all__ = [
    "RngLike",
    "as_generator",
    "spawn",
    "spawn_many",
    "spawn_seeds",
    "stream",
    "TrialExecutor",
    "resolve_workers",
    "BernoulliEstimate",
    "fit_power_law",
    "geometric_mean",
    "wilson_interval",
    "TextTable",
    "format_value",
    "json_default",
    "to_builtin",
    "dyadic_grid",
    "geometric_grid",
    "log_int_grid",
    "check_epsilon",
    "check_in_range",
    "check_matrix",
    "check_nonnegative_int",
    "check_positive_int",
    "check_power_of_two",
    "check_probability",
]
