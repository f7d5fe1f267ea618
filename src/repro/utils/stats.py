"""Statistical primitives for Monte-Carlo experiments.

Every empirical probability produced by this library is reported as a
:class:`BernoulliEstimate` — the point estimate plus a Wilson score interval
and the trial count — rather than a bare float, so downstream code (and the
experiment tables) can distinguish "0.0 out of 20 trials" from "0.0 out of
20000 trials".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .validation import check_nonnegative_int, check_positive_int

__all__ = [
    "BernoulliEstimate",
    "wilson_interval",
    "fit_power_law",
    "geometric_mean",
]


def wilson_interval(successes: int, trials: int,
                    confidence: float = 0.95) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because it behaves sensibly at
    the boundaries (0 or ``trials`` successes), which is exactly where OSE
    failure-rate estimates live.
    """
    successes = check_nonnegative_int(successes, "successes")
    trials = check_positive_int(trials, "trials")
    if successes > trials:
        raise ValueError(
            f"successes ({successes}) cannot exceed trials ({trials})"
        )
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    # Two-sided normal quantile via the inverse error function.
    z = math.sqrt(2.0) * _erfinv(confidence)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(
        p * (1 - p) / trials + z * z / (4 * trials * trials)
    )
    return max(0.0, center - margin), min(1.0, center + margin)


def _erfinv(x: float) -> float:
    """Inverse error function (scipy-free; used only for z-scores)."""
    # Winitzki's approximation followed by one Newton step; accurate to ~1e-9
    # after refinement, far beyond what confidence intervals need.
    a = 0.147
    ln1mx2 = math.log1p(-x * x)
    term = 2.0 / (math.pi * a) + ln1mx2 / 2.0
    guess = math.copysign(
        math.sqrt(math.sqrt(term * term - ln1mx2 / a) - term), x
    )
    for _ in range(2):
        err = math.erf(guess) - x
        deriv = 2.0 / math.sqrt(math.pi) * math.exp(-guess * guess)
        guess -= err / deriv
    return guess


@dataclass(frozen=True)
class BernoulliEstimate:
    """An estimated Bernoulli success probability with uncertainty.

    Attributes
    ----------
    successes:
        Number of trials in which the event occurred.
    trials:
        Total number of independent trials.
    confidence:
        Confidence level of the Wilson interval (default 0.95).
    """

    successes: int
    trials: int
    confidence: float = 0.95

    def __post_init__(self):
        check_nonnegative_int(self.successes, "successes")
        check_positive_int(self.trials, "trials")
        if self.successes > self.trials:
            raise ValueError(
                f"successes ({self.successes}) cannot exceed trials "
                f"({self.trials})"
            )

    @property
    def point(self) -> float:
        """Maximum-likelihood point estimate ``successes / trials``."""
        return self.successes / self.trials

    @property
    def interval(self) -> Tuple[float, float]:
        """Wilson score confidence interval."""
        return wilson_interval(self.successes, self.trials, self.confidence)

    @property
    def low(self) -> float:
        return self.interval[0]

    @property
    def high(self) -> float:
        return self.interval[1]

    def likely_at_most(self, threshold: float) -> bool:
        """True when the upper confidence limit is ≤ ``threshold``."""
        return self.high <= threshold

    def likely_at_least(self, threshold: float) -> bool:
        """True when the lower confidence limit is ≥ ``threshold``."""
        return self.low >= threshold

    def merge(self, other: "BernoulliEstimate") -> "BernoulliEstimate":
        """Pool trials from two estimates of the same quantity.

        Both estimates must quote the same confidence level; pooling a
        0.95-interval estimate into a 0.99 one would silently relabel the
        merged interval (this guards ``MinimalMResult.estimate_at``, which
        pools repeated probes of one target dimension).
        """
        if not isinstance(other, BernoulliEstimate):
            raise TypeError("can only merge with another BernoulliEstimate")
        if other.confidence != self.confidence:
            raise ValueError(
                f"cannot pool estimates with different confidence levels "
                f"({self.confidence} vs {other.confidence})"
            )
        return BernoulliEstimate(
            self.successes + other.successes,
            self.trials + other.trials,
            self.confidence,
        )

    def __str__(self) -> str:
        lo, hi = self.interval
        return (
            f"{self.point:.4f} [{lo:.4f}, {hi:.4f}] "
            f"({self.successes}/{self.trials})"
        )


def fit_power_law(x: Sequence[float], y: Sequence[float]) -> Tuple[float, float]:
    """Fit ``y ≈ c * x**alpha`` by least squares in log-log space.

    Returns ``(alpha, c)``.  Used to extract empirical scaling exponents
    (e.g. the slope of the minimal sketching dimension against ``d``) and
    compare them with the paper's predicted exponents.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if x.size < 2:
        raise ValueError("need at least two points to fit a power law")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit requires strictly positive data")
    alpha, logc = np.polyfit(np.log(x), np.log(y), deg=1)
    return float(alpha), float(np.exp(logc))


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of strictly positive values."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("geometric_mean of empty sequence")
    if np.any(values <= 0):
        raise ValueError("geometric_mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(values))))
