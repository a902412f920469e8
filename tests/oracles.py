"""Reference oracles for mode discovery: the straightforward forms.

Production code in ``repro.core`` keeps one fast implementation of each
step; the slow, obviously-correct forms it replaced live here so the
property tests can hold the fast ones to them:

* :func:`global_argmin_linkage` — HAC by a global ``argmin`` over the
  whole T×T matrix for every merge, with Lance–Williams row updates.
  O(T³), and single linkage under it is trivially exact under ties.
* :func:`grid_sweep` — the adaptive threshold rule by one full
  :func:`~repro.core.cluster.cut_linkage` per grid threshold.
* :func:`pairwise_matches` — weighted known-match counts by one masked
  sum per pair of rows.
* :func:`dense_cooccurrence` — the all-pairs code co-occurrence counts
  by one dense one-hot matmul per code over every position, occurring
  or not.
* :func:`scalar_phi` — Φ of two vectors by masked sums, ``w[match].sum()``
  over the policy's denominator: the form every production Φ entry
  point (the count kernels in :mod:`repro.core.compare`) is held to.
* :func:`scalar_step_changes` — per-step change by one :func:`scalar_phi`
  per consecutive pair.
* :func:`scalar_similarity` — the all-pairs Φ matrix by one
  :func:`scalar_phi` per pair, over every network.
* :func:`match_mode_scalar` — an online tracker's mode match by one
  :func:`scalar_phi` per exemplar.
* :func:`scalar_interpolate` — gap filling by a per-cell scan outward
  for the nearest known neighbour.
"""

from __future__ import annotations

import numpy as np

from repro.core.cluster import Linkage, cut_linkage
from repro.core.compare import UnknownPolicy
from repro.core.online import OnlineFenrir
from repro.core.series import VectorSeries
from repro.core.vector import ERROR_CODE, UNKNOWN_CODE, RoutingVector


def global_argmin_linkage(distance: np.ndarray, method: str = "average") -> Linkage:
    """HAC merging the globally closest pair of clusters at every step."""
    distance = np.asarray(distance, dtype=np.float64)
    num_points = distance.shape[0]
    working = distance.copy()
    np.fill_diagonal(working, np.inf)
    sizes = np.ones(num_points * 2 - 1, dtype=np.int64)
    # Map matrix row index -> current cluster id.
    cluster_id = np.arange(num_points, dtype=np.int64)
    merges = np.zeros((max(num_points - 1, 0), 4), dtype=np.float64)
    # The matrix stays num_points wide; merged-away rows are disabled with inf.
    alive = np.ones(num_points, dtype=bool)

    for step in range(num_points - 1):
        i, j = divmod(int(np.argmin(working)), num_points)
        height = working[i, j]
        if i > j:
            i, j = j, i
        id_i, id_j = cluster_id[i], cluster_id[j]
        new_id = num_points + step
        size_i, size_j = sizes[id_i], sizes[id_j]
        merges[step] = (min(id_i, id_j), max(id_i, id_j), height, size_i + size_j)

        # Lance-Williams update into row/column i; retire row/column j.
        row_i, row_j = working[i].copy(), working[j].copy()
        if method == "single":
            updated = np.minimum(row_i, row_j)
        elif method == "complete":
            updated = np.maximum(row_i, row_j)
        else:
            updated = (size_i * row_i + size_j * row_j) / (size_i + size_j)
        updated[i] = np.inf
        updated[j] = np.inf
        updated[~alive] = np.inf
        working[i, :] = updated
        working[:, i] = updated
        working[j, :] = np.inf
        working[:, j] = np.inf
        alive[j] = False
        cluster_id[i] = new_id
        sizes[new_id] = size_i + size_j

    return Linkage(merges, num_points)


def grid_sweep(
    linkage: Linkage,
    max_clusters: int = 15,
    min_cluster_size: int = 2,
    step: float = 0.01,
) -> tuple[np.ndarray, float, int]:
    """(labels, threshold, num_clusters) of the first qualifying grid cut."""
    num_points = linkage.num_points
    for threshold in np.arange(0.0, 1.0 + step / 2, step):
        labels = cut_linkage(linkage, float(threshold))
        counts = np.bincount(labels)
        if len(counts) < max_clusters and (
            num_points < min_cluster_size or counts.min() >= min_cluster_size
        ):
            return labels, float(threshold), len(counts)
    return np.zeros(num_points, dtype=np.int64), 1.0, 1


def pairwise_matches(codes: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted known-match counts, one masked sum per pair of rows."""
    num_times = codes.shape[0]
    known = codes != UNKNOWN_CODE
    matches = np.zeros((num_times, num_times), dtype=np.float64)
    for i in range(num_times):
        row = codes[i]
        row_known = known[i]
        for j in range(i, num_times):
            value = float(w[(row == codes[j]) & row_known].sum())
            matches[i, j] = value
            matches[j, i] = value
    return matches


def dense_cooccurrence(
    rows: np.ndarray, codes, w: np.ndarray | None = None
) -> np.ndarray:
    """All-pairs co-occurrence counts, one T×N one-hot matmul per code.

    The same dtype rule as :func:`repro.core.compare.cooccurrence`:
    ``w``'s dtype, or float32 unweighted while a count is below 2**24.
    """
    if w is None:
        dtype = np.float32 if rows.shape[1] < 2**24 else np.float64
    else:
        dtype = w.dtype
    out = np.zeros((len(rows), len(rows)), dtype=dtype)
    for code in codes:
        indicator = (rows == code).astype(dtype)
        out += (indicator if w is None else indicator * w) @ indicator.T
    return out.astype(np.float64, copy=False)


def scalar_phi(
    a: RoutingVector,
    b: RoutingVector,
    weights: np.ndarray | None = None,
    policy: UnknownPolicy = UnknownPolicy.PESSIMISTIC,
) -> float:
    """Φ(a, b) as masked sums of the weights; NaN on a zero denominator."""
    w = np.ones(len(a)) if weights is None else np.asarray(weights, dtype=np.float64)
    a_known = a.codes != UNKNOWN_CODE
    match = (a.codes == b.codes) & a_known
    if policy is UnknownPolicy.PESSIMISTIC:
        denominator = w.sum()
    else:
        denominator = w[a_known & (b.codes != UNKNOWN_CODE)].sum()
    if denominator == 0:
        return float("nan")
    return float(w[match].sum() / denominator)


def scalar_step_changes(
    series: VectorSeries,
    weights: np.ndarray | None = None,
    policy: UnknownPolicy = UnknownPolicy.PESSIMISTIC,
) -> np.ndarray:
    """Per-step change ``1 - Φ(t_i, t_{i+1})``, one scalar Φ per step."""
    changes = np.empty(max(len(series) - 1, 0), dtype=np.float64)
    for index in range(len(series) - 1):
        changes[index] = 1.0 - scalar_phi(
            series[index], series[index + 1], weights, policy
        )
    return changes


def scalar_similarity(
    series: VectorSeries,
    weights: np.ndarray | None = None,
    policy: UnknownPolicy = UnknownPolicy.PESSIMISTIC,
) -> np.ndarray:
    """All-pairs Φ, one scalar :func:`phi` per pair of observations."""
    num_times = len(series)
    similarity = np.empty((num_times, num_times), dtype=np.float64)
    for i in range(num_times):
        for j in range(num_times):
            similarity[i, j] = scalar_phi(series[i], series[j], weights, policy)
    return similarity


def match_mode_scalar(
    tracker: OnlineFenrir, vector: RoutingVector
) -> tuple[int | None, float]:
    """``tracker``'s mode match for ``vector``, one Φ per exemplar.

    The first exemplar with the highest Φ wins (strict ``>``); it is a
    match only at or above the tracker's ``mode_threshold``.
    """
    best_mode: int | None = None
    best_similarity = -1.0
    for mode_id, exemplar in enumerate(tracker._exemplars):
        similarity = scalar_phi(exemplar, vector, tracker.weights, tracker.policy)
        if similarity > best_similarity:
            best_mode, best_similarity = mode_id, similarity
    if best_mode is not None and best_similarity >= tracker.mode_threshold:
        return best_mode, best_similarity
    return None, best_similarity


def scalar_interpolate(
    codes: np.ndarray, limit: int, repair_errors: bool = False
) -> np.ndarray:
    """Fill each gap cell from its nearest known neighbour within ``limit``.

    Scans outward one step at a time, earlier neighbour first, so a tie
    goes to the earlier observation.
    """
    gaps = {UNKNOWN_CODE, ERROR_CODE} if repair_errors else {UNKNOWN_CODE}
    num_times, num_networks = codes.shape
    filled = codes.copy()
    for t in range(num_times):
        for n in range(num_networks):
            if codes[t, n] not in gaps:
                continue
            for offset in range(1, limit + 1):
                before, after = t - offset, t + offset
                if before >= 0 and codes[before, n] not in gaps:
                    filled[t, n] = codes[before, n]
                    break
                if after < num_times and codes[after, n] not in gaps:
                    filled[t, n] = codes[after, n]
                    break
    return filled
