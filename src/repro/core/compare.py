"""Pairwise vector comparison: weighted Gower similarity (§2.6.1).

The similarity of two routing vectors is the weighted fraction of
networks whose catchment is the same and known:

    Φ(t,t') = Σ_n M(t,t',n)·Dw(n) / Σ_n Dw(n)
    M(t,t',n) = 1  iff  D(t,n) == D(t',n) and D(t,n) != unknown

The paper's rule counts unknowns as *changed* (pessimistic); its stated
ongoing work excludes unknown networks from consideration instead. Both
policies are implemented; the pessimistic one is the default everywhere.

Every Φ in the package — offline, online and the VP agreement counts —
goes through two count kernels here: :func:`match_counts` (paired rows)
and :func:`cooccurrence` (all pairs, one one-hot matmul per state), with
:func:`denominator` supplying the per-policy denominator. The scalar
reference forms they are tested against live in ``tests/oracles.py``.

The kernels sum in the dtype of the weights they are given and return
float64, so every Φ is divided in float64. Weights are cast to their
:func:`count_dtype` once, where they are validated: float32 when every
count is an integer below 2**24 (exact there, and faster), float64
otherwise.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from .series import VectorSeries
from .vector import RoutingVector, UNKNOWN_CODE

__all__ = [
    "UnknownPolicy",
    "count_dtype",
    "match_counts",
    "cooccurrence",
    "denominator",
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


#: float32 holds every integer below this exactly (24-bit significand).
_FLOAT32_EXACT_BELOW = 2**24


def count_dtype(w: np.ndarray) -> np.dtype:
    """The dtype the count kernels should sum ``w`` in.

    float32 when every weight is an integer and every column of ``w``
    (one for ``(N,)``, K for ``(N, K)``) sums below 2**24: each partial
    sum of a count is then an integer no larger than its column's
    total, which float32 holds exactly, so no summation order or FMA
    can change a bit. float64 otherwise. ``w`` must be finite and
    non-negative. This scans ``w``, so it runs once, where weights are
    validated, and never inside a kernel call.
    """
    w = np.asarray(w)
    totals = w.sum(axis=0, dtype=np.float64)
    if np.all(totals < _FLOAT32_EXACT_BELOW) and np.array_equal(w, np.trunc(w)):
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def _check_weights(weights: Optional[np.ndarray], length: int) -> np.ndarray:
    """Validated weights, in their :func:`count_dtype`."""
    if weights is None:
        weights = np.ones(length, dtype=np.float64)
    else:
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
    return weights.astype(count_dtype(weights), copy=False)


def match_counts(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted count of networks whose codes are equal and known.

    The paired-rows kernel, ``Σ_n M(t,t',n)·w(n)``: rows ``a`` and ``b``
    broadcast against each other, so one row against a stack of rows,
    or two aligned stacks row by row, is one pass. ``w`` is ``(N,)``, or
    ``(N, K)`` for K weightings of the same networks at once. The sum
    runs in ``w``'s dtype (see :func:`count_dtype`); the result is
    float64.
    """
    return np.asarray(((a == b) & (a != UNKNOWN_CODE)) @ w, dtype=np.float64)


def cooccurrence(
    rows: np.ndarray, codes: np.ndarray, w: Optional[np.ndarray] = None
) -> np.ndarray:
    """All-pairs weighted count of positions where two rows share a code.

    The all-pairs kernel: entry ``(i, j)`` sums ``w(n)`` over the
    positions ``n`` where ``rows[i, n] == rows[j, n]`` and that code is
    in ``codes``, as one one-hot matmul per code. Φ passes the known
    codes only. With ``w=None`` every position weighs 1 and the weight
    multiply is skipped, so the matmul is a plain ``X @ Xᵀ``.

    Each code's one-hot keeps only the positions where that code
    occurs: the others add zeros to every entry. The matmuls then cost
    T²·K for the K (position, code) pairs that occur, not T²·S·N for S
    codes over N positions. In Φ a position is a network, whose
    catchment visits few sites, so K is far below S·N.

    The counts sum in ``w``'s dtype (see :func:`count_dtype`), and
    unweighted in float32 while a count, at most ``rows.shape[1]``, is
    below 2**24. ``codes`` are distinct, so each position adds to one
    code's term at most. The result is float64.
    """
    if w is None:
        dtype = np.float32 if rows.shape[1] < _FLOAT32_EXACT_BELOW else np.float64
    else:
        dtype = w.dtype
    out = np.zeros((len(rows), len(rows)), dtype=dtype)
    for code in codes:
        hit = rows == code
        present = hit.any(axis=0)
        indicator = hit[:, present].astype(dtype)
        out += (indicator if w is None else indicator * w[present]) @ indicator.T
    return out.astype(np.float64, copy=False)


def denominator(
    a: np.ndarray,
    b: Optional[np.ndarray],
    w: np.ndarray,
    total: float | np.ndarray,
    policy: UnknownPolicy,
) -> np.ndarray:
    """Φ's denominator for the pairs :func:`match_counts` covers.

    ``total`` (the summed weights) under :attr:`UnknownPolicy.PESSIMISTIC`,
    the weight of networks known in both rows under
    :attr:`UnknownPolicy.EXCLUDE`; NaN where that is 0, so Φ comes back
    NaN there. ``b=None`` asks for every pair of ``a``'s rows, as
    :func:`cooccurrence` of the known mask.
    """
    if policy is UnknownPolicy.PESSIMISTIC:
        count = np.asarray(total, dtype=np.float64)
    elif b is None:
        count = cooccurrence(a != UNKNOWN_CODE, (True,), w)
    else:
        known = (a != UNKNOWN_CODE) & (b != UNKNOWN_CODE)
        count = np.asarray(known @ w, dtype=np.float64)
    return np.where(count > 0, count, np.nan)


def _check_pair(
    a: RoutingVector, b: RoutingVector, weights: Optional[np.ndarray]
) -> np.ndarray:
    """Check that ``a`` and ``b`` are comparable; return checked weights."""
    if a.networks != b.networks:
        raise ValueError("vectors cover different networks")
    if a.catalog is not b.catalog:
        raise ValueError("vectors use different state catalogs")
    return _check_weights(weights, len(a))


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
    w = _check_pair(a, b, weights)
    count = match_counts(a.codes, b.codes, w)
    return float(count / denominator(a.codes, b.codes, w, w.sum(), policy))


def phi_one_to_many(
    codes: np.ndarray,
    exemplar_matrix: np.ndarray,
    weights: Optional[np.ndarray] = None,
    policy: UnknownPolicy = UnknownPolicy.PESSIMISTIC,
) -> np.ndarray:
    """Φ of one code vector against M exemplar rows in one pass.

    ``exemplar_matrix`` is ``(M, N)`` int32 (one row per exemplar),
    ``codes`` is the ``(N,)`` incoming vector, and the result is the
    ``(M,)`` vector of similarities — the vectorized equivalent of
    calling :func:`phi` once per exemplar. Under
    :attr:`UnknownPolicy.EXCLUDE`, rows with no jointly known network
    come back NaN, exactly like the scalar form.
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
    w = _check_weights(weights, len(codes))
    count = match_counts(codes, exemplars, w)
    return count / denominator(codes, exemplars, w, w.sum(), policy)


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


def _matches_pairwise(codes: np.ndarray, w: np.ndarray) -> np.ndarray:
    """All-pairs :func:`match_counts`, one row against the rest.

    Row ``i`` of the upper triangle is row ``i`` against rows
    ``i..T-1``; the lower triangle is its mirror. O(T²·N) but state-count
    independent, unlike :func:`cooccurrence`.
    """
    num_times = codes.shape[0]
    matches = np.zeros((num_times, num_times), dtype=np.float64)
    for i in range(num_times):
        row = match_counts(codes[i], codes[i:], w)
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
    With few states, one weighted co-occurrence matmul per known state
    (:func:`cooccurrence`) keeps a 300-step × 20k-network study in BLAS;
    studies with huge state spaces (Google's thousands of front ends)
    fall back to direct pairwise row comparison, which is O(T²·N) but
    state-count independent.
    """
    codes = series.matrix
    num_times, num_networks = codes.shape
    w = _check_weights(weights, num_networks)
    total = w.sum()
    # Merged integer weights are integers with the same total, so they
    # keep the count dtype that ``bincount``'s float64 would lose.
    codes, merged = _merge_identical_columns(codes, w)
    w = merged.astype(w.dtype, copy=False)
    states = np.flatnonzero(np.bincount(codes.ravel()))
    if len(states) <= max(32, 2 * num_times):
        matches = cooccurrence(codes, states[states != UNKNOWN_CODE], w)
    else:
        matches = _matches_pairwise(codes, w)
    return matches / denominator(codes, None, w, total, policy)


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
