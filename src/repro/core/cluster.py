"""Hierarchical agglomerative clustering over routing vectors (§2.6.2).

Fenrir finds routing "modes" by clustering the vectors of a series
under the Gower distance. This module implements HAC from scratch on a
precomputed distance matrix. Single linkage, the paper's method, is
read off a minimum spanning tree built by Prim's algorithm (Gower and
Ross, 1969): O(T²) time and O(T) memory beyond the input. Complete and
average linkage, kept for the linkage ablation, run on a
nearest-neighbour chain with Lance–Williams updates, also O(T²). The
module also holds the paper's adaptive threshold rule: sweep thresholds
from 0 to 1 in steps of 0.01 and keep the first model with fewer than
15 clusters, each backed by at least 2 observations. The sweep walks
the merges once in height order and cuts the dendrogram only at the
threshold it keeps.

The linkage output matches :func:`scipy.cluster.hierarchy.linkage`
conventions, which the test suite uses as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

__all__ = ["Linkage", "hac_linkage", "cut_linkage", "AdaptiveResult", "adaptive_clusters"]

LinkageMethod = Literal["single", "complete", "average"]


@dataclass(frozen=True)
class Linkage:
    """A dendrogram: rows of (cluster_a, cluster_b, height, size)."""

    merges: np.ndarray  # (T-1, 4) float64, scipy linkage convention
    num_points: int


def hac_linkage(distance: np.ndarray, method: LinkageMethod = "average") -> Linkage:
    """Agglomerate a full distance matrix into a dendrogram.

    ``distance`` must be a square symmetric matrix with zero diagonal.
    Single linkage takes the edges of a minimum spanning tree
    (:func:`_prim_edges`); complete and average linkage take the merges
    of a nearest-neighbour chain (:func:`_chain_merges`). Either way the
    (pair, height) merges are stably sorted by height and then numbered
    in the scipy convention.
    """
    if method != "single" and method not in _UPDATES:
        raise ValueError(f"unknown linkage method: {method}")
    distance = np.asarray(distance, dtype=np.float64)
    if distance.ndim != 2 or distance.shape[0] != distance.shape[1]:
        raise ValueError(f"distance matrix must be square, got {distance.shape}")
    # Exact equality (the usual case, and a fifth of allclose's cost)
    # implies allclose, so the accepted matrices are the same.
    if not np.array_equal(distance, distance.T) and not np.allclose(
        distance, distance.T, atol=1e-12
    ):
        raise ValueError("distance matrix must be symmetric")
    num_points = distance.shape[0]
    if num_points == 0:
        raise ValueError("cannot cluster zero points")

    if method == "single":
        pairs, heights = _prim_edges(distance)
    else:
        pairs, heights = _chain_merges(distance, method)
    return Linkage(_number_merges(pairs, heights, num_points), num_points)


def _prim_edges(distance: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pairs, heights) of a minimum spanning tree, by Prim's algorithm.

    The single-linkage dendrogram is the minimum spanning tree's edges
    taken in height order (Gower and Ross, 1969). The tree grows from
    point 0. ``best`` holds each outside point's distance to the tree
    (inf inside it) and ``nearest`` the tree point at that distance; each
    step adds the lowest-indexed outside point at the minimum and lowers
    ``best`` from its row. Only O(T) arrays are allocated, and
    ``distance`` is only read.
    """
    num_points = distance.shape[0]
    best = np.full(num_points, np.inf)
    nearest = np.zeros(num_points, dtype=np.int64)
    outside = np.ones(num_points, dtype=bool)
    closer = np.empty(num_points, dtype=bool)
    pairs = np.empty((num_points - 1, 2), dtype=np.int64)
    heights = np.empty(num_points - 1, dtype=np.float64)
    x = 0
    for step in range(num_points - 1):
        outside[x] = False
        row = distance[x]
        np.less(row, best, out=closer)
        closer &= outside
        np.copyto(best, row, where=closer)
        np.copyto(nearest, x, where=closer)
        y = int(np.argmin(best))
        if not np.isfinite(best[y]):
            raise RuntimeError("ran out of finite distances before full merge")
        heights[step] = best[y]
        pairs[step] = (nearest[y], y)
        best[y] = np.inf
        x = y
    return pairs, heights


def _chain_merges(
    distance: np.ndarray, method: LinkageMethod
) -> tuple[np.ndarray, np.ndarray]:
    """(pairs, heights) of nearest-neighbour-chain HAC, in merge order.

    Nearest-neighbour-chain HAC (Müllner, arXiv:1109.2378): follow
    nearest neighbours from any cluster until two clusters are each
    other's nearest, merge them with a Lance–Williams row update, and
    continue from what is left of the chain. It is exact for the
    reducible linkages here and takes O(T²) time rather than the O(T³)
    of a global minimum search per merge. Merges come out of the chain
    out of height order.
    """
    update = _UPDATES[method]
    num_points = distance.shape[0]
    # Row/column r of ``working`` holds the cluster whose representative
    # is point r; retired rows and columns, and the diagonal, hold inf.
    working = distance.copy()
    np.fill_diagonal(working, np.inf)
    sizes = np.ones(num_points, dtype=np.int64)
    alive = np.ones(num_points, dtype=bool)
    pairs = np.empty((num_points - 1, 2), dtype=np.int64)
    heights = np.empty(num_points - 1, dtype=np.float64)
    chain: list[int] = []

    for step in range(num_points - 1):
        if not chain:
            chain.append(int(np.argmax(alive)))
        while True:
            x = chain[-1]
            row = working[x]
            y = int(np.argmin(row))
            if not np.isfinite(row[y]):
                raise RuntimeError("ran out of finite distances before full merge")
            # Prefer the previous link on a tie, so the chain always ends.
            if len(chain) > 1 and row[chain[-2]] <= row[y]:
                y = chain[-2]
                break
            chain.append(y)
        del chain[-2:]
        heights[step] = row[y]
        if x > y:
            x, y = y, x
        pairs[step] = (x, y)

        # Lance-Williams update into row/column x; retire row/column y.
        merged = update(working[x], working[y], sizes[x], sizes[y])
        merged[x] = np.inf
        merged[y] = np.inf
        working[x, :] = merged
        working[:, x] = merged
        working[y, :] = np.inf
        working[:, y] = np.inf
        alive[y] = False
        sizes[x] += sizes[y]

    return pairs, heights


def _complete(a: np.ndarray, b: np.ndarray, size_a: int, size_b: int) -> np.ndarray:
    return np.maximum(a, b)


def _average(a: np.ndarray, b: np.ndarray, size_a: int, size_b: int) -> np.ndarray:
    return (size_a * a + size_b * b) / (size_a + size_b)


# Lance–Williams updates of the nearest-neighbour chain; single linkage
# runs on the minimum spanning tree instead.
_UPDATES = {"complete": _complete, "average": _average}


def _find(parent: list[int], node: int) -> int:
    """Root of ``node`` in a union-find forest, compressing the path."""
    root = node
    while parent[root] != root:
        root = parent[root]
    while parent[node] != root:
        parent[node], node = root, parent[node]
    return root


def _number_merges(
    pairs: np.ndarray, heights: np.ndarray, num_points: int
) -> np.ndarray:
    """Scipy-convention merge rows from (point, point) merges in any order.

    The merges are stably sorted by height; a union-find then maps each
    merge's representative points to the ids of their current clusters,
    the merge at sorted position ``k`` creating cluster ``num_points + k``.
    """
    order = np.argsort(heights, kind="stable")
    parent = list(range(2 * num_points - 1))
    sizes = [1] * num_points + [0] * (num_points - 1)
    rows = []
    for position, (x, y) in enumerate(pairs[order].tolist()):
        a, b = _find(parent, x), _find(parent, y)
        new_id = num_points + position
        parent[a] = parent[b] = new_id
        sizes[new_id] = sizes[a] + sizes[b]
        rows.append((min(a, b), max(a, b), sizes[new_id]))
    merges = np.empty((len(order), 4), dtype=np.float64)
    merges[:, [0, 1, 3]] = np.reshape(rows, (-1, 3))
    merges[:, 2] = heights[order]
    return merges


def cut_linkage(linkage: Linkage, threshold: float) -> np.ndarray:
    """Flat cluster labels from merges with height <= threshold.

    Labels are renumbered 0..k-1 in order of first appearance, so label
    0 is always the cluster of the first observation.
    """
    num_points = linkage.num_points
    parent = list(range(num_points * 2 - 1))
    for step, (a, b, height, _size) in enumerate(linkage.merges):
        if height <= threshold:
            new_id = num_points + step
            parent[_find(parent, int(a))] = new_id
            parent[_find(parent, int(b))] = new_id

    raw = [_find(parent, i) for i in range(num_points)]
    labels = np.empty(num_points, dtype=np.int64)
    relabel: dict[int, int] = {}
    for index, root in enumerate(raw):
        if root not in relabel:
            relabel[root] = len(relabel)
        labels[index] = relabel[root]
    return labels


@dataclass(frozen=True)
class AdaptiveResult:
    """Outcome of the adaptive threshold sweep."""

    labels: np.ndarray
    threshold: float
    num_clusters: int
    linkage: Linkage


def adaptive_clusters(
    distance: np.ndarray,
    method: LinkageMethod = "single",
    max_clusters: int = 15,
    min_cluster_size: int = 2,
    step: float = 0.01,
    linkage: Optional[Linkage] = None,
) -> AdaptiveResult:
    """The paper's adaptive distance-threshold selection (§2.6.2).

    Sweeps thresholds ``0, step, 2*step, ... 1`` and returns the first
    clustering with fewer than ``max_clusters`` clusters where every
    cluster holds at least ``min_cluster_size`` observations. A single
    all-encompassing cluster always satisfies the rule, so the sweep
    terminates.
    """
    if linkage is None:
        linkage = hac_linkage(distance, method)
    num_points = linkage.num_points
    heights = linkage.merges[:, 2]
    order = np.argsort(heights, kind="stable")
    # One walk over the merges in height order. A merge joins the
    # components of its two children and of its own node, so a union-find
    # over all 2T-1 nodes gives the cut at any threshold; only points
    # count towards a component's size.
    parent = list(range(2 * num_points - 1))
    sizes = [1] * num_points + [0] * (num_points - 1)
    num_clusters = num_points
    num_small = num_points if min_cluster_size > 1 else 0

    def union(a: int, b: int) -> None:
        nonlocal num_clusters, num_small
        a, b = _find(parent, a), _find(parent, b)
        if a == b:
            return
        size_a, size_b = sizes[a], sizes[b]
        parent[a] = b
        sizes[b] = size_a + size_b
        if size_a and size_b:
            num_clusters -= 1
            num_small -= (size_a < min_cluster_size) + (size_b < min_cluster_size)
            num_small += size_a + size_b < min_cluster_size

    applied = 0
    for threshold in np.arange(0.0, 1.0 + step / 2, step):
        while applied < len(order) and heights[order[applied]] <= threshold:
            index = int(order[applied])
            a, b = int(linkage.merges[index, 0]), int(linkage.merges[index, 1])
            union(a, num_points + index)
            union(b, num_points + index)
            applied += 1
        if num_clusters < max_clusters and (
            num_points < min_cluster_size or num_small == 0
        ):
            labels = cut_linkage(linkage, float(threshold))
            return AdaptiveResult(labels, float(threshold), num_clusters, linkage)
    # Unreachable for threshold=1.0 with >=2 points, but keep a safe fallback.
    labels = np.zeros(num_points, dtype=np.int64)
    return AdaptiveResult(labels, 1.0, 1, linkage)
