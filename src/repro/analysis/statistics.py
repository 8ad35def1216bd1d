"""Statistical rigor for the measured quantities.

The paper reports point estimates (vendor shares, coverage fractions);
a scaled reproduction needs uncertainty estimates to distinguish signal
from small-sample noise.  This module adds:

* **Wilson score intervals** for the proportion claims (share of MAC
  engine IDs, responsive fraction, dominance level fractions);
* **bootstrap confidence intervals** (via numpy resampling, imported on
  first use) for arbitrary statistics over per-entity samples (mean
  alias-set size, median uptime);
* a **two-proportion z-test** for comparing fractions across scans or
  configurations (e.g. did a mitigation change responsiveness?).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Any, Callable

#: ``1/sqrt(2)`` as a multiplier, the way the Cephes ``ndtr`` scales the
#: argument of ``erfc``: far-tail p-values then match the reference
#: values to a few ulps, where dividing by ``sqrt(2)`` drifts by ~1e-13.
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class ProportionEstimate:
    """A fraction with its Wilson score interval."""

    successes: int
    trials: int
    low: float
    high: float

    @property
    def point(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    def __str__(self) -> str:
        return f"{self.point:.3f} [{self.low:.3f}, {self.high:.3f}]"


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> ProportionEstimate:
    """Wilson score interval — well-behaved for small n and extreme p."""
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError(f"invalid counts: {successes}/{trials}")
    if trials == 0:
        return ProportionEstimate(0, 0, 0.0, 1.0)
    z = NormalDist().inv_cdf(0.5 + confidence / 2)
    p = successes / trials
    denom = 1 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2))
    return ProportionEstimate(
        successes=successes,
        trials=trials,
        low=max(0.0, center - margin),
        high=min(1.0, center + margin),
    )


@dataclass(frozen=True)
class BootstrapEstimate:
    """A statistic with its bootstrap percentile interval."""

    point: float
    low: float
    high: float
    resamples: int

    def __str__(self) -> str:
        return f"{self.point:.3f} [{self.low:.3f}, {self.high:.3f}]"


def bootstrap_interval(
    values: "list[float]",
    statistic: "Callable[[Any], float] | None" = None,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 7,
) -> BootstrapEstimate:
    """Percentile bootstrap for an arbitrary statistic (default: the mean).

    ``statistic`` is called on numpy arrays of resampled values.
    """
    if not values:
        raise ValueError("bootstrap needs at least one value")
    import numpy as np

    if statistic is None:
        statistic = np.mean
    rng = np.random.default_rng(seed)
    data = np.asarray(values, dtype=float)
    estimates = np.empty(resamples)
    for i in range(resamples):
        estimates[i] = statistic(rng.choice(data, size=len(data), replace=True))
    alpha = (1 - confidence) / 2
    return BootstrapEstimate(
        point=float(statistic(data)),
        low=float(np.quantile(estimates, alpha)),
        high=float(np.quantile(estimates, 1 - alpha)),
        resamples=resamples,
    )


@dataclass(frozen=True)
class ProportionComparison:
    """Two-proportion z-test result."""

    p1: float
    p2: float
    z_score: float
    p_value: float

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


def compare_proportions(
    successes1: int, trials1: int, successes2: int, trials2: int
) -> ProportionComparison:
    """Two-sided two-proportion z-test (pooled standard error)."""
    if trials1 <= 0 or trials2 <= 0:
        raise ValueError("both samples need at least one trial")
    p1 = successes1 / trials1
    p2 = successes2 / trials2
    pooled = (successes1 + successes2) / (trials1 + trials2)
    se = math.sqrt(pooled * (1 - pooled) * (1 / trials1 + 1 / trials2))
    if se == 0.0:
        return ProportionComparison(p1=p1, p2=p2, z_score=0.0, p_value=1.0)
    z = (p1 - p2) / se
    # erfc, not 1 - cdf: the complement would round far-tail p-values to 0.
    p_value = math.erfc(abs(z) * _SQRT_HALF)
    return ProportionComparison(p1=p1, p2=p2, z_score=z, p_value=p_value)


def vendor_share_intervals(
    counts: "dict[str, int]", confidence: float = 0.95
) -> dict[str, ProportionEstimate]:
    """Wilson intervals for every vendor's share of a census."""
    total = sum(counts.values())
    return {
        vendor: wilson_interval(count, total, confidence)
        for vendor, count in counts.items()
    }
