"""Routing modes: recurring clusters of routing vectors.

A *mode* is one HAC cluster of a series — a set of times whose vectors
are mutually similar. Modes may recur: a cluster can cover several
disjoint time segments, which is exactly the "is today's routing like a
mode I saw before?" question the paper asks. :class:`ModeSet` carries
the per-mode membership, the contiguous segments, and Φ statistics
within and between modes (the ``Φ(Mi, Mj)`` ranges quoted throughout
the paper's evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Optional, Sequence

import numpy as np

from .cluster import AdaptiveResult, LinkageMethod, adaptive_clusters
from .compare import UnknownPolicy, phi as phi_fn, similarity_matrix
from .series import VectorSeries

__all__ = ["Mode", "ModeSet", "find_modes", "mode_exemplar", "match_across"]


@dataclass(frozen=True)
class Mode:
    """One routing mode: a cluster of observation times."""

    mode_id: int
    indices: tuple[int, ...]  # positions in the series, ascending
    times: tuple[datetime, ...]
    segments: tuple[tuple[int, int], ...]  # inclusive index ranges

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def recurring(self) -> bool:
        """True when the mode spans more than one contiguous segment."""
        return len(self.segments) > 1

    @property
    def start(self) -> datetime:
        return self.times[0]

    @property
    def end(self) -> datetime:
        return self.times[-1]


def _segments_of(indices: Sequence[int]) -> tuple[tuple[int, int], ...]:
    segments: list[tuple[int, int]] = []
    run_start = prev = indices[0]
    for index in indices[1:]:
        if index == prev + 1:
            prev = index
            continue
        segments.append((run_start, prev))
        run_start = prev = index
    segments.append((run_start, prev))
    return tuple(segments)


class ModeSet:
    """Modes of one series plus the similarity matrix they came from."""

    def __init__(
        self,
        series: VectorSeries,
        labels: np.ndarray,
        similarity: np.ndarray,
        threshold: float,
    ) -> None:
        if len(labels) != len(series):
            raise ValueError("labels length does not match series length")
        self.series = series
        self.labels = np.asarray(labels)
        self.similarity = similarity
        self.threshold = threshold
        self.modes: list[Mode] = []
        for mode_id in range(int(self.labels.max()) + 1 if len(labels) else 0):
            indices = tuple(int(i) for i in np.flatnonzero(self.labels == mode_id))
            times = tuple(series.times[i] for i in indices)
            self.modes.append(Mode(mode_id, indices, times, _segments_of(indices)))

    def __len__(self) -> int:
        return len(self.modes)

    def __getitem__(self, mode_id: int) -> Mode:
        return self.modes[mode_id]

    def mode_at(self, index: int) -> Mode:
        """The mode containing observation ``index``."""
        return self.modes[int(self.labels[index])]

    def phi_within(self, mode_id: int) -> tuple[float, float]:
        """(min, max) Φ over distinct pairs inside one mode.

        A singleton mode has no pairs; (1.0, 1.0) is returned since a
        vector is trivially identical to itself.
        """
        indices = list(self.modes[mode_id].indices)
        if len(indices) < 2:
            return (1.0, 1.0)
        block = self.similarity[np.ix_(indices, indices)]
        off_diagonal = block[~np.eye(len(indices), dtype=bool)]
        return (float(np.nanmin(off_diagonal)), float(np.nanmax(off_diagonal)))

    def phi_between(self, mode_a: int, mode_b: int) -> tuple[float, float]:
        """(min, max) Φ across two modes — the paper's Φ(Mi, Mj) range."""
        idx_a = list(self.modes[mode_a].indices)
        idx_b = list(self.modes[mode_b].indices)
        block = self.similarity[np.ix_(idx_a, idx_b)]
        return (float(np.nanmin(block)), float(np.nanmax(block)))

    def phi_between_mean(self, mode_a: int, mode_b: int) -> float:
        idx_a = list(self.modes[mode_a].indices)
        idx_b = list(self.modes[mode_b].indices)
        return float(np.nanmean(self.similarity[np.ix_(idx_a, idx_b)]))

    def recurring_modes(self) -> list[Mode]:
        """Modes that reappear after an interruption."""
        return [mode for mode in self.modes if mode.recurring]

    def timeline(self) -> list[tuple[int, datetime, datetime]]:
        """Chronological (mode_id, segment_start_time, segment_end_time)."""
        entries: list[tuple[int, int, int]] = []
        for mode in self.modes:
            for start, end in mode.segments:
                entries.append((start, end, mode.mode_id))
        entries.sort()
        return [
            (mode_id, self.series.times[start], self.series.times[end])
            for start, end, mode_id in entries
        ]

    def closest_prior_mode(self, mode_id: int) -> Optional[tuple[int, float]]:
        """The earlier mode most similar to ``mode_id`` (mean Φ), if any.

        This answers "is the current routing like a mode I saw before?":
        e.g. the paper's finding that B-Root mode (v) resembles the
        original mode (i) more than its immediate neighbours.
        """
        target_start = self.modes[mode_id].indices[0]
        best: Optional[tuple[int, float]] = None
        for other in self.modes:
            if other.mode_id == mode_id or other.indices[0] >= target_start:
                continue
            mean = self.phi_between_mean(mode_id, other.mode_id)
            if best is None or mean > best[1]:
                best = (other.mode_id, mean)
        return best


def mode_exemplar(modes: ModeSet, mode_id: int):
    """The mode's medoid: its member most similar to the other members.

    A mode's exemplar is the single vector an operator can keep around
    as "what routing looked like in that mode" — the object playbooks
    and cross-study comparisons match against.
    """
    mode = modes[mode_id]
    indices = list(mode.indices)
    if len(indices) == 1:
        return modes.series[indices[0]]
    block = modes.similarity[np.ix_(indices, indices)]
    mean_similarity = np.nanmean(block, axis=1)
    best = indices[int(np.argmax(mean_similarity))]
    return modes.series[best]


def match_across(
    ours: ModeSet,
    theirs: ModeSet,
    weights: Optional[np.ndarray] = None,
    policy: UnknownPolicy = UnknownPolicy.PESSIMISTIC,
) -> list[tuple[int, int, float]]:
    """Match modes between two studies over the same networks.

    For every mode in ``ours``, finds the most similar mode in
    ``theirs`` by exemplar Φ — the cross-study form of "is the current
    routing a mode I saw in last year's study?" (§4.2.1 compares the
    end of 2019 against the end of 2024 this way). Returns
    ``(our_mode, their_mode, phi)`` triples.
    """
    if ours.series.networks != theirs.series.networks:
        raise ValueError("studies cover different networks")
    # Separate studies carry separate state catalogs; re-encode every
    # exemplar onto one shared catalog before comparing.
    from .vector import RoutingVector, StateCatalog

    shared = StateCatalog()
    networks = ours.series.networks

    def reencode(modeset: ModeSet, mode_id: int) -> RoutingVector:
        exemplar = mode_exemplar(modeset, mode_id)
        return RoutingVector.from_mapping(
            exemplar.to_mapping(), catalog=shared, networks=networks
        )

    their_exemplars = [
        (mode.mode_id, reencode(theirs, mode.mode_id)) for mode in theirs.modes
    ]
    results = []
    for mode in ours.modes:
        exemplar = reencode(ours, mode.mode_id)
        best_id, best_phi = -1, -1.0
        for their_id, their_exemplar in their_exemplars:
            similarity = phi_fn(exemplar, their_exemplar, weights=weights, policy=policy)
            if similarity > best_phi:
                best_id, best_phi = their_id, similarity
        results.append((mode.mode_id, best_id, best_phi))
    return results


def find_modes(
    series: VectorSeries,
    weights: Optional[np.ndarray] = None,
    policy: UnknownPolicy = UnknownPolicy.PESSIMISTIC,
    method: LinkageMethod = "single",
    max_clusters: int = 15,
    min_cluster_size: int = 2,
    similarity: Optional[np.ndarray] = None,
) -> ModeSet:
    """Run the full mode-discovery pipeline on a series.

    Computes the all-pairs Φ matrix (unless one is supplied), clusters
    ``1 - Φ`` with HAC under the adaptive threshold rule, and wraps the
    result as a :class:`ModeSet`.
    """
    if similarity is None:
        similarity = similarity_matrix(series, weights, policy)
    # NaN → 1.0 in place on the one new T×T array: ``similarity`` must
    # stay untouched, since the ModeSet keeps it.
    distance = 1.0 - similarity
    np.copyto(distance, 1.0, where=np.isnan(distance))
    np.fill_diagonal(distance, 0.0)
    result: AdaptiveResult = adaptive_clusters(
        distance,
        method=method,
        max_clusters=max_clusters,
        min_cluster_size=min_cluster_size,
    )
    return ModeSet(series, result.labels, similarity, result.threshold)
