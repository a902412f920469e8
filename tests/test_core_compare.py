"""Tests for Gower similarity Φ and the all-pairs matrix."""

from __future__ import annotations

import math
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.compare import (
    UnknownPolicy,
    distance_matrix,
    phi,
    phi_one_to_many,
    similarity_matrix,
)
from repro.core.online import OnlineFenrir
from repro.core.pipeline import Fenrir
from repro.core.series import VectorSeries
from repro.core.vector import UNKNOWN, RoutingVector, StateCatalog


def vec(mapping, catalog=None):
    return RoutingVector.from_mapping(mapping, catalog=catalog or StateCatalog())


def pair(map_a, map_b):
    catalog = StateCatalog()
    networks = sorted(set(map_a) | set(map_b))
    a = RoutingVector.from_mapping(map_a, catalog=catalog, networks=networks)
    b = RoutingVector.from_mapping(map_b, catalog=catalog, networks=networks)
    return a, b


class TestPhi:
    def test_identical_vectors(self):
        a, b = pair({"x": "A", "y": "B"}, {"x": "A", "y": "B"})
        assert phi(a, b) == 1.0

    def test_completely_different(self):
        a, b = pair({"x": "A", "y": "B"}, {"x": "B", "y": "A"})
        assert phi(a, b) == 0.0

    def test_half_match(self):
        a, b = pair({"x": "A", "y": "B"}, {"x": "A", "y": "A"})
        assert phi(a, b) == 0.5

    def test_unknowns_count_as_changed_pessimistic(self):
        # Both unknown: per the paper's M, unknown never matches.
        a, b = pair({"x": "A", "y": UNKNOWN}, {"x": "A", "y": UNKNOWN})
        assert phi(a, b) == 0.5

    def test_exclude_policy_drops_unknowns(self):
        a, b = pair({"x": "A", "y": UNKNOWN}, {"x": "A", "y": UNKNOWN})
        assert phi(a, b, policy=UnknownPolicy.EXCLUDE) == 1.0

    def test_exclude_policy_one_sided_unknown(self):
        a, b = pair({"x": "A", "y": "B"}, {"x": "A", "y": UNKNOWN})
        assert phi(a, b, policy=UnknownPolicy.EXCLUDE) == 1.0
        assert phi(a, b) == 0.5

    def test_exclude_policy_all_unknown_is_nan(self):
        a, b = pair({"x": UNKNOWN}, {"x": UNKNOWN})
        assert math.isnan(phi(a, b, policy=UnknownPolicy.EXCLUDE))

    def test_error_state_can_match(self):
        a, b = pair({"x": "err"}, {"x": "err"})
        assert phi(a, b) == 1.0

    def test_weights(self):
        a, b = pair({"x": "A", "y": "B"}, {"x": "A", "y": "C"})
        assert phi(a, b, weights=np.array([3.0, 1.0])) == 0.75

    def test_weight_validation(self):
        a, b = pair({"x": "A"}, {"x": "A"})
        with pytest.raises(ValueError):
            phi(a, b, weights=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            phi(a, b, weights=np.array([-1.0]))

    def test_all_zero_weights_rejected(self):
        # Regression: all-zero weights used to fall through to a silent
        # NaN (0/0); they now raise so the misconfiguration is visible.
        a, b = pair({"x": "A", "y": "B"}, {"x": "A", "y": "B"})
        with pytest.raises(ValueError, match="all zero"):
            phi(a, b, weights=np.zeros(2))

    def test_all_zero_weights_rejected_in_matrix(self, make_series):
        series = make_series(seed=2, num_networks=6, num_rounds=4)
        with pytest.raises(ValueError, match="all zero"):
            similarity_matrix(series, weights=np.zeros(6))

    def test_network_mismatch_rejected(self):
        catalog = StateCatalog()
        a = RoutingVector.from_mapping({"x": "A"}, catalog=catalog)
        b = RoutingVector.from_mapping({"y": "A"}, catalog=catalog)
        with pytest.raises(ValueError):
            phi(a, b)

    def test_catalog_mismatch_rejected(self):
        a = vec({"x": "A"})
        b = vec({"x": "A"})
        with pytest.raises(ValueError):
            phi(a, b)


class TestNonFiniteWeights:
    """Regression: NaN and ±inf weights used to pass validation and turn
    every Φ into NaN (or one spurious mode) with only a RuntimeWarning."""

    BAD = [float("nan"), float("inf"), float("-inf")]

    @staticmethod
    def weights(bad: float) -> np.ndarray:
        return np.array([1.0, bad, 1.0])

    @staticmethod
    def series() -> VectorSeries:
        series = VectorSeries(["x", "y", "z"], StateCatalog())
        for day, states in enumerate(["AAB", "AAB", "BAB", "BBA"]):
            series.append_mapping(
                dict(zip("xyz", states)), datetime(2024, 1, 1) + timedelta(days=day)
            )
        return series

    @pytest.mark.parametrize("bad", BAD)
    def test_phi(self, bad):
        series = self.series()
        with pytest.raises(ValueError, match="finite"):
            phi(series[0], series[1], weights=self.weights(bad))

    @pytest.mark.parametrize("bad", BAD)
    def test_phi_one_to_many(self, bad):
        codes = self.series().matrix
        with pytest.raises(ValueError, match="finite"):
            phi_one_to_many(codes[0], codes, weights=self.weights(bad))

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("policy", list(UnknownPolicy), ids=lambda p: p.value)
    def test_similarity_matrix(self, bad, policy):
        with pytest.raises(ValueError, match="finite"):
            similarity_matrix(self.series(), weights=self.weights(bad), policy=policy)

    @pytest.mark.parametrize("bad", BAD)
    def test_online_fenrir(self, bad):
        with pytest.raises(ValueError, match="finite"):
            OnlineFenrir(networks=["x", "y", "z"], weights=self.weights(bad))

    @pytest.mark.parametrize("bad", BAD)
    def test_fenrir_run(self, bad):
        fenrir = Fenrir(weight_fn=lambda networks: self.weights(bad))
        with pytest.raises(ValueError, match="finite"):
            fenrir.run(self.series())


states = st.sampled_from(["A", "B", "C", UNKNOWN])


@st.composite
def vector_pairs(draw):
    count = draw(st.integers(min_value=1, max_value=12))
    networks = [f"n{i}" for i in range(count)]
    catalog = StateCatalog()
    map_a = {n: draw(states) for n in networks}
    map_b = {n: draw(states) for n in networks}
    a = RoutingVector.from_mapping(map_a, catalog=catalog, networks=networks)
    b = RoutingVector.from_mapping(map_b, catalog=catalog, networks=networks)
    return a, b


class TestPhiProperties:
    @given(vector_pairs())
    def test_bounds(self, vectors):
        a, b = vectors
        value = phi(a, b)
        assert 0.0 <= value <= 1.0

    @given(vector_pairs())
    def test_symmetry(self, vectors):
        a, b = vectors
        assert phi(a, b) == pytest.approx(phi(b, a))

    @given(vector_pairs())
    def test_self_similarity_is_fraction_known(self, vectors):
        a, _ = vectors
        known = float(np.count_nonzero(a.known_mask)) / len(a)
        assert phi(a, a) == pytest.approx(known)


class TestSimilarityMatrix:
    def make_series(self, maps, t0=datetime(2024, 1, 1)):
        networks = sorted(maps[0])
        series = VectorSeries(networks, StateCatalog())
        for index, mapping in enumerate(maps):
            series.append_mapping(mapping, t0 + timedelta(days=index))
        return series

    def test_matches_pairwise_phi(self):
        series = self.make_series(
            [
                {"x": "A", "y": "B", "z": UNKNOWN},
                {"x": "A", "y": "C", "z": "A"},
                {"x": "B", "y": "B", "z": "A"},
            ]
        )
        matrix = similarity_matrix(series)
        for i in range(3):
            for j in range(3):
                expected = phi(series[i], series[j])
                assert matrix[i, j] == pytest.approx(expected)

    def test_exclude_policy_matrix(self):
        series = self.make_series(
            [{"x": "A", "y": UNKNOWN}, {"x": "A", "y": UNKNOWN}]
        )
        matrix = similarity_matrix(series, policy=UnknownPolicy.EXCLUDE)
        assert matrix[0, 1] == pytest.approx(1.0)

    def test_exclude_policy_nan_without_jointly_known_network(self):
        series = self.make_series(
            [{"a": "X", "b": UNKNOWN}, {"a": UNKNOWN, "b": "Y"}, {"a": "X", "b": "Y"}]
        )
        matrix = similarity_matrix(series, policy=UnknownPolicy.EXCLUDE)
        assert np.isnan(matrix[0, 1]) and np.isnan(matrix[1, 0])
        assert matrix[0, 2] == 1.0 and matrix[1, 2] == 1.0

    def test_state_and_pairwise_paths_agree(self):
        # Force both code paths on the same data: with many distinct
        # states the pairwise path is used; compare against per-pair phi.
        t0 = datetime(2024, 1, 1)
        networks = [f"n{i}" for i in range(30)]
        series = VectorSeries(networks, StateCatalog())
        import random

        rng = random.Random(0)
        for day in range(5):
            mapping = {n: f"state{rng.randint(0, 200)}" for n in networks}
            series.append_mapping(mapping, t0 + timedelta(days=day))
        matrix = similarity_matrix(series)
        for i in range(5):
            for j in range(5):
                assert matrix[i, j] == pytest.approx(phi(series[i], series[j]))

    def test_weighted_matrix(self):
        series = self.make_series([{"x": "A", "y": "B"}, {"x": "A", "y": "C"}])
        weights = np.array([3.0, 1.0])
        matrix = similarity_matrix(series, weights=weights)
        assert matrix[0, 1] == pytest.approx(0.75)

    def test_distance_matrix_complements(self):
        series = self.make_series([{"x": "A"}, {"x": "B"}])
        distance = distance_matrix(series)
        assert distance[0, 0] == pytest.approx(0.0)
        assert distance[0, 1] == pytest.approx(1.0)

    def test_distance_matrix_nan_becomes_one(self):
        series = self.make_series([{"x": UNKNOWN}, {"x": UNKNOWN}])
        distance = distance_matrix(series, policy=UnknownPolicy.EXCLUDE)
        assert distance[0, 1] == 1.0
