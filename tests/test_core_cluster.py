"""Tests for from-scratch HAC, validated against scipy as an oracle."""

from __future__ import annotations

import tracemalloc
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import fcluster, linkage as scipy_linkage
from scipy.spatial.distance import squareform

from repro.core.cluster import adaptive_clusters, cut_linkage, hac_linkage
from repro.core.compare import similarity_matrix
from repro.core.modes import find_modes
from repro.core.series import VectorSeries
from repro.core.vector import StateCatalog


def labels_to_partition(labels) -> set[frozenset[int]]:
    groups: dict[int, set[int]] = {}
    for index, label in enumerate(labels):
        groups.setdefault(int(label), set()).add(index)
    return {frozenset(members) for members in groups.values()}


class TestHacSmall:
    def test_two_points(self):
        distance = np.array([[0.0, 0.4], [0.4, 0.0]])
        result = hac_linkage(distance, "single")
        assert result.merges.shape == (1, 4)
        assert result.merges[0, 2] == pytest.approx(0.4)

    def test_three_points_chain(self):
        # 0-1 close, 2 far from both.
        distance = np.array(
            [
                [0.0, 0.1, 0.9],
                [0.1, 0.0, 0.8],
                [0.9, 0.8, 0.0],
            ]
        )
        result = hac_linkage(distance, "single")
        heights = result.merges[:, 2]
        assert heights[0] == pytest.approx(0.1)
        assert heights[1] == pytest.approx(0.8)  # single linkage: min

    def test_complete_linkage_uses_max(self):
        distance = np.array(
            [
                [0.0, 0.1, 0.9],
                [0.1, 0.0, 0.8],
                [0.9, 0.8, 0.0],
            ]
        )
        result = hac_linkage(distance, "complete")
        assert result.merges[1, 2] == pytest.approx(0.9)

    def test_average_linkage(self):
        distance = np.array(
            [
                [0.0, 0.1, 0.9],
                [0.1, 0.0, 0.8],
                [0.9, 0.8, 0.0],
            ]
        )
        result = hac_linkage(distance, "average")
        assert result.merges[1, 2] == pytest.approx(0.85)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hac_linkage(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            hac_linkage(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_accepts_asymmetry_within_tolerance(self):
        # Not exactly symmetric, so the exact check falls through to
        # allclose(atol=1e-12), which accepts it as before.
        distance = np.array([[0.0, 0.4], [0.4 + 1e-13, 0.0]])
        assert not np.array_equal(distance, distance.T)
        result = hac_linkage(distance, "single")
        assert result.merges[0, 2] == pytest.approx(0.4)

    @pytest.mark.parametrize("cell", [(0, 1), (1, 1)], ids=["off-diagonal", "diagonal"])
    def test_rejects_nan_even_when_mirrored(self, cell):
        distance = np.array([[0.0, 0.4], [0.4, 0.0]])
        distance[cell] = distance[cell[::-1]] = np.nan
        with pytest.raises(ValueError, match="symmetric"):
            hac_linkage(distance)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            hac_linkage(np.zeros((0, 0)))

    def test_single_point(self):
        result = hac_linkage(np.zeros((1, 1)))
        assert result.merges.shape == (0, 4)
        assert cut_linkage(result, 0.5).tolist() == [0]

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            hac_linkage(np.zeros((2, 2)), "ward")  # type: ignore[arg-type]

    def test_infinite_distance_between_groups_rejected(self):
        distance = np.array(
            [
                [0.0, 0.1, np.inf],
                [0.1, 0.0, np.inf],
                [np.inf, np.inf, 0.0],
            ]
        )
        with pytest.raises(RuntimeError, match="finite distances"):
            hac_linkage(distance, "single")

    def test_unknown_method_rejected_before_any_merge(self):
        # A single point needs no merge, so the method must be checked up front.
        with pytest.raises(ValueError, match="unknown linkage method"):
            hac_linkage(np.zeros((1, 1)), "ward")  # type: ignore[arg-type]


class TestCutLinkage:
    def test_cut_labels_by_first_appearance(self):
        distance = np.array(
            [
                [0.0, 0.9, 0.1],
                [0.9, 0.0, 0.9],
                [0.1, 0.9, 0.0],
            ]
        )
        result = hac_linkage(distance, "single")
        labels = cut_linkage(result, 0.5)
        # points 0 and 2 together; labels renumbered by first appearance.
        assert labels.tolist() == [0, 1, 0]

    def test_cut_zero_threshold_all_singletons(self):
        distance = 1 - np.eye(4)
        result = hac_linkage(distance, "single")
        assert len(set(cut_linkage(result, 0.0).tolist())) == 4

    def test_cut_high_threshold_single_cluster(self):
        distance = 1 - np.eye(4)
        result = hac_linkage(distance, "single")
        assert set(cut_linkage(result, 1.0).tolist()) == {0}


@st.composite
def random_distance_matrix(draw):
    size = draw(st.integers(min_value=2, max_value=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    condensed = rng.uniform(0.01, 1.0, size * (size - 1) // 2)
    # Distinct values avoid tie-ordering ambiguity vs scipy.
    condensed = np.unique(condensed)
    while len(condensed) < size * (size - 1) // 2:
        condensed = np.append(condensed, condensed[-1] * 1.01 + 0.001)
    return squareform(condensed[: size * (size - 1) // 2])


class TestAgainstScipy:
    @settings(max_examples=30, deadline=None)
    @given(random_distance_matrix(), st.sampled_from(["single", "complete", "average"]))
    def test_partitions_match_scipy(self, distance, method):
        ours = hac_linkage(distance, method)
        theirs = scipy_linkage(squareform(distance, checks=False), method=method)
        assert np.allclose(np.sort(ours.merges[:, 2]), np.sort(theirs[:, 2]), atol=1e-9)
        # Tie-free, so the whole linkage array matches: ids, order and sizes.
        assert np.array_equal(ours.merges[:, [0, 1, 3]], theirs[:, [0, 1, 3]])
        for threshold in [0.2, 0.5, 0.8]:
            ours_labels = cut_linkage(ours, threshold)
            theirs_labels = fcluster(theirs, threshold, criterion="distance")
            assert labels_to_partition(ours_labels) == labels_to_partition(theirs_labels)


class TestAdaptive:
    def test_selects_first_qualifying_threshold(self):
        # Two tight pairs far apart: at low threshold, 2 clusters of 2.
        distance = np.array(
            [
                [0.0, 0.05, 0.9, 0.9],
                [0.05, 0.0, 0.9, 0.9],
                [0.9, 0.9, 0.0, 0.05],
                [0.9, 0.9, 0.05, 0.0],
            ]
        )
        result = adaptive_clusters(distance)
        assert result.num_clusters == 2
        assert result.threshold == pytest.approx(0.05, abs=0.011)

    def test_singletons_push_threshold_up(self):
        # A lone outlier forces merging until min_cluster_size holds.
        distance = np.array(
            [
                [0.0, 0.05, 0.5],
                [0.05, 0.0, 0.5],
                [0.5, 0.5, 0.0],
            ]
        )
        result = adaptive_clusters(distance)
        assert result.num_clusters == 1
        assert result.threshold >= 0.5

    def test_max_clusters_bound(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 1, 40)
        distance = np.abs(points[:, None] - points[None, :])
        result = adaptive_clusters(distance, max_clusters=5)
        assert result.num_clusters < 5

    def test_single_observation(self):
        result = adaptive_clusters(np.zeros((1, 1)))
        assert result.num_clusters == 1

    def test_reuses_precomputed_linkage(self):
        distance = 1 - np.eye(3)
        precomputed = hac_linkage(distance, "single")
        result = adaptive_clusters(distance, linkage=precomputed)
        assert result.linkage is precomputed


class TestMemory:
    def test_single_linkage_extra_space_is_linear(self):
        points = np.random.default_rng(0).uniform(0, 1, 1000)
        distance = np.abs(points[:, None] - points[None, :])
        tracemalloc.start()
        try:
            hac_linkage(distance, "single")
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The symmetry check's T×T bool is an eighth of the input; a
        # T×T float64 working copy would be the whole of it.
        assert peak < 0.25 * distance.nbytes

    def test_find_modes_leaves_similarity_unchanged(self):
        rounds = ["xxyy", "xxyy", "xyyy", "yyxx", "yyxx", "yyxy"]
        series = VectorSeries(["a", "b", "c", "d"], StateCatalog())
        start = datetime(2024, 1, 1)
        for index, sites in enumerate(rounds):
            series.append_mapping(
                dict(zip("abcd", sites)), start + timedelta(days=index)
            )
        similarity = similarity_matrix(series)
        similarity[0, 5] = similarity[5, 0] = np.nan
        before = similarity.tobytes()
        modes = find_modes(series, similarity=similarity)
        assert modes.similarity is similarity
        assert similarity.tobytes() == before
        assert len(modes) == 2
