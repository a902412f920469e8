"""Pairwise vector comparison: weighted Gower similarity (§2.6.1).

The similarity of two routing vectors is the weighted fraction of
networks whose catchment is the same and known:

    Φ(t,t') = Σ_n M(t,t',n)·Dw(n) / Σ_n Dw(n)
    M(t,t',n) = 1  iff  D(t,n) == D(t',n) and D(t,n) != unknown

The paper's rule counts unknowns as *changed* (pessimistic); its stated
ongoing work excludes unknown networks from consideration instead. Both
policies are implemented; the pessimistic one is the default everywhere.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from .series import VectorSeries
from .vector import RoutingVector, UNKNOWN_CODE

__all__ = [
    "UnknownPolicy",
    "phi",
    "phi_one_to_many",
    "similarity_matrix",
    "similarity_to_reference",
    "distance_matrix",
]


class UnknownPolicy(enum.Enum):
    """How unknown catchments enter Φ."""

    PESSIMISTIC = "pessimistic"  # unknowns count as changed (paper default)
    EXCLUDE = "exclude"  # unknowns leave both numerator and denominator


def _check_weights(weights: Optional[np.ndarray], length: int) -> np.ndarray:
    if weights is None:
        return np.ones(length, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (length,):
        raise ValueError(f"weights shape {weights.shape} != ({length},)")
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    if (weights < 0).any():
        raise ValueError("weights must be non-negative")
    if length and not weights.any():
        raise ValueError(
            "weights are all zero: every Φ would be 0/0; "
            "drop the weighting instead of zeroing every network"
        )
    return weights


def phi(
    a: RoutingVector,
    b: RoutingVector,
    weights: Optional[np.ndarray] = None,
    policy: UnknownPolicy = UnknownPolicy.PESSIMISTIC,
) -> float:
    """Gower similarity Φ between two vectors over the same networks.

    Returns a value in [0, 1]; under :attr:`UnknownPolicy.EXCLUDE` with
    no jointly known network, returns ``nan``.
    """
    if a.networks != b.networks:
        raise ValueError("vectors cover different networks")
    if a.catalog is not b.catalog:
        raise ValueError("vectors use different state catalogs")
    w = _check_weights(weights, len(a))
    match = (a.codes == b.codes) & (a.codes != UNKNOWN_CODE)
    if policy is UnknownPolicy.PESSIMISTIC:
        denominator = w.sum()
    else:
        both_known = (a.codes != UNKNOWN_CODE) & (b.codes != UNKNOWN_CODE)
        denominator = w[both_known].sum()
        match = match & both_known
    if denominator == 0:
        return float("nan")
    return float(w[match].sum() / denominator)


def phi_one_to_many(
    codes: np.ndarray,
    exemplar_matrix: np.ndarray,
    weights: Optional[np.ndarray] = None,
    policy: UnknownPolicy = UnknownPolicy.PESSIMISTIC,
    *,
    weight_sum: Optional[float] = None,
) -> np.ndarray:
    """Φ of one code vector against M exemplar rows in one pass.

    The streaming hot path: ``exemplar_matrix`` is ``(M, N)`` int32 (one
    row per known mode exemplar), ``codes`` is the ``(N,)`` incoming
    vector, and the result is the ``(M,)`` vector of similarities — the
    vectorized equivalent of calling :func:`phi` once per exemplar.
    ``weight_sum`` lets callers that validated weights once (e.g.
    :class:`~repro.core.online.OnlineFenrir`) skip the per-call
    re-summation. Under :attr:`UnknownPolicy.EXCLUDE`, rows with no
    jointly known network come back NaN, exactly like the scalar form.
    """
    exemplars = np.asarray(exemplar_matrix)
    if exemplars.ndim != 2:
        raise ValueError(f"exemplar matrix must be 2-D, got shape {exemplars.shape}")
    codes = np.asarray(codes)
    if codes.shape != (exemplars.shape[1],):
        raise ValueError(
            f"codes shape {codes.shape} does not match exemplar row "
            f"length {exemplars.shape[1]}"
        )
    num_modes = exemplars.shape[0]
    w = _check_weights(weights, len(codes))
    known = codes != UNKNOWN_CODE
    match = (exemplars == codes) & known  # equal ⇒ both known or both unknown
    if policy is UnknownPolicy.PESSIMISTIC:
        total = float(w.sum()) if weight_sum is None else weight_sum
        if total == 0:
            return np.full(num_modes, np.nan)
        return (match @ w) / total
    both_known = known & (exemplars != UNKNOWN_CODE)
    denominator = both_known @ w
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denominator > 0, (match @ w) / denominator, np.nan)


def _merge_identical_columns(
    codes: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse networks with equal histories into one weighted column.

    Φ is a weighted sum over networks, so columns equal at every step
    add the same term to every pair; merging them and summing their
    weights leaves every Φ unchanged (exactly under integer weights).
    Returns the inputs themselves when every column is already distinct.
    """
    num_times, num_networks = codes.shape
    if num_times == 0:
        return codes, w
    columns = np.ascontiguousarray(codes.T)
    histories = columns.view(np.dtype((np.void, columns.itemsize * num_times)))
    _, first, inverse = np.unique(
        histories.ravel(), return_index=True, return_inverse=True
    )
    if len(first) == num_networks:
        return codes, w
    return codes[:, first], np.bincount(inverse, weights=w)


def _matches_by_state(
    codes: np.ndarray, w: np.ndarray, states: np.ndarray
) -> np.ndarray:
    """Weighted known-match counts via one matmul per state (few states)."""
    num_times = codes.shape[0]
    matches = np.zeros((num_times, num_times), dtype=np.float64)
    for code in states:
        if code == UNKNOWN_CODE:
            continue
        indicator = (codes == code).astype(np.float64)
        matches += (indicator * w) @ indicator.T
    return matches


def _matches_pairwise(codes: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted known-match counts, one row against the rest (many states).

    Row ``i`` of the upper triangle is the equality kernel of
    :func:`phi_one_to_many` against rows ``i..T-1``; the lower triangle
    is its mirror.
    """
    num_times = codes.shape[0]
    known = codes != UNKNOWN_CODE
    matches = np.zeros((num_times, num_times), dtype=np.float64)
    for i in range(num_times):
        row = ((codes[i:] == codes[i]) & known[i]) @ w
        matches[i, i:] = row
        matches[i:, i] = row
    return matches


def similarity_matrix(
    series: VectorSeries,
    weights: Optional[np.ndarray] = None,
    policy: UnknownPolicy = UnknownPolicy.PESSIMISTIC,
) -> np.ndarray:
    """All-pairs Φ over a series: the T×T matrix behind the heatmaps.

    Networks with identical histories are merged first (one column,
    summed weight), so the kernels run over distinct histories only.
    With few states, one weighted co-occurrence matmul per state keeps a
    300-step × 20k-network study in BLAS; studies with huge state spaces
    (Google's thousands of front ends) fall back to direct pairwise row
    comparison, which is O(T²·N) but state-count independent.
    """
    codes = series.matrix
    num_times, num_networks = codes.shape
    w = _check_weights(weights, num_networks)
    total = w.sum()
    codes, w = _merge_identical_columns(codes, w)
    states = np.flatnonzero(np.bincount(codes.ravel()))
    if len(states) <= max(32, 2 * num_times):
        matches = _matches_by_state(codes, w, states)
    else:
        matches = _matches_pairwise(codes, w)
    if policy is UnknownPolicy.PESSIMISTIC:
        if total == 0:
            return np.full((num_times, num_times), np.nan)
        return matches / total
    known = (codes != UNKNOWN_CODE).astype(np.float64)
    denominator = (known * w) @ known.T
    with np.errstate(invalid="ignore", divide="ignore"):
        result = np.where(denominator > 0, matches / denominator, np.nan)
    return result


def similarity_to_reference(
    series: VectorSeries,
    reference: RoutingVector,
    weights: Optional[np.ndarray] = None,
    policy: UnknownPolicy = UnknownPolicy.PESSIMISTIC,
) -> np.ndarray:
    """Φ of every observation against one reference vector.

    The 1-D profile operators actually watch: "how like mode (i)'s
    exemplar is each day?" — a single line instead of the full T×T
    heatmap. The reference must share the series' networks and catalog.
    Computed as one :func:`phi_one_to_many` pass over the series' code
    matrix rather than T scalar Φ calls.
    """
    if tuple(series.networks) != tuple(reference.networks):
        raise ValueError("vectors cover different networks")
    if series.catalog is not reference.catalog:
        raise ValueError("vectors use different state catalogs")
    return phi_one_to_many(
        reference.codes, series.matrix, weights=weights, policy=policy
    )


def distance_matrix(
    series: VectorSeries,
    weights: Optional[np.ndarray] = None,
    policy: UnknownPolicy = UnknownPolicy.PESSIMISTIC,
) -> np.ndarray:
    """``1 - Φ`` for all pairs; the input to clustering. NaN → 1.0."""
    similarity = similarity_matrix(series, weights, policy)
    distance = 1.0 - similarity
    return np.where(np.isnan(distance), 1.0, distance)
