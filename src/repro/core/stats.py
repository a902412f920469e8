"""Statistical uncertainty for routing-vector comparisons.

The paper reports Φ point estimates; an operator acting on "routing is
80% like last month" should also know how tight that number is given
the vantage sample. This module provides network-level bootstrap
confidence intervals for Φ and a permutation test for "did routing
change more at t than typical round-to-round churn?".

Both procedures resample *networks* (the measurement units), matching
the sampling structure of VP-based studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .compare import (
    UnknownPolicy,
    _check_pair,
    count_dtype,
    denominator,
    match_counts,
    phi,
)
from .vector import RoutingVector

__all__ = ["PhiEstimate", "bootstrap_phi", "permutation_change_test"]


@dataclass(frozen=True)
class PhiEstimate:
    """A Φ point estimate with a bootstrap confidence interval."""

    point: float
    low: float
    high: float
    confidence: float
    samples: int

    def __contains__(self, value: object) -> bool:
        return isinstance(value, (int, float)) and self.low <= value <= self.high

    @property
    def width(self) -> float:
        return self.high - self.low


def bootstrap_phi(
    a: RoutingVector,
    b: RoutingVector,
    weights: Optional[np.ndarray] = None,
    policy: UnknownPolicy = UnknownPolicy.PESSIMISTIC,
    confidence: float = 0.95,
    samples: int = 2000,
    seed: int = 0,
) -> PhiEstimate:
    """Bootstrap CI for Φ(a, b), resampling networks with replacement.

    Takes the inputs :func:`~repro.core.compare.phi` takes and rejects
    the same ones. A resample that draws network ``n`` ``c`` times
    weighs it ``c·w(n)``, so every resample is one column of weights
    for the shared paired-rows kernel.
    """
    w = _check_pair(a, b, weights)
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if samples < 10:
        raise ValueError("need at least 10 bootstrap samples")
    point = phi(a, b, w, policy)
    count = len(a)
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, count, size=(samples, count))
    draws = np.bincount(
        (indices + count * np.arange(samples)[:, np.newaxis]).ravel(),
        minlength=samples * count,
    ).reshape(samples, count)
    resampled = (draws * w).T  # N×samples: one weighting per resample
    resampled = resampled.astype(count_dtype(resampled), copy=False)
    values = match_counts(a.codes, b.codes, resampled) / denominator(
        a.codes, b.codes, resampled, resampled.sum(axis=0), policy
    )
    alpha = (1.0 - confidence) / 2
    low = float(np.nanquantile(values, alpha))
    high = float(np.nanquantile(values, 1.0 - alpha))
    return PhiEstimate(point, low, high, confidence, samples)


def permutation_change_test(
    changes: np.ndarray,
    index: int,
    samples: int = 5000,
    seed: int = 0,
) -> float:
    """P-value that the step change at ``index`` is ordinary churn.

    Under the null, the step changes are exchangeable: the p-value is
    the fraction of steps (resampled with replacement) at least as
    large as the observed one. Small values mean "this step is not
    routine churn" — the statistical cousin of the detector threshold.
    """
    changes = np.asarray(changes, dtype=np.float64)
    if not 0 <= index < len(changes):
        raise IndexError(f"index {index} outside 0..{len(changes) - 1}")
    observed = changes[index]
    others = np.delete(changes, index)
    if len(others) == 0:
        return 1.0
    rng = np.random.default_rng(seed)
    draws = rng.choice(others, size=samples, replace=True)
    return float((np.count_nonzero(draws >= observed) + 1) / (samples + 1))
