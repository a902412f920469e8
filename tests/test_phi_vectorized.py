"""Oracle equivalence for the vectorized streaming hot path.

``phi``, ``phi_one_to_many``, ``similarity_to_reference`` and the
tracker's step change and ``_match_mode`` must agree with the
masked-sum scalar forms in ``tests/oracles.py``: bit for bit under
integer weights, within 1e-12 under float weights.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from oracles import match_mode_scalar, scalar_phi
from repro.core.compare import (
    UnknownPolicy,
    phi,
    phi_one_to_many,
    similarity_to_reference,
)
from repro.core.online import OnlineFenrir
from repro.core.series import VectorSeries
from repro.core.vector import UNKNOWN_CODE, RoutingVector, StateCatalog

POLICIES = [UnknownPolicy.PESSIMISTIC, UnknownPolicy.EXCLUDE]
WEIGHT_KINDS = ("none", "float", "integer")


def _weights(kind, rng, size):
    """No weights, float weights, or integer-valued float weights."""
    if kind == "none":
        return None
    if kind == "float":
        return rng.uniform(0.1, 5.0, size=size)
    return rng.integers(1, 9, size=size).astype(np.float64)


def assert_equals_oracle(ours, expected, weights):
    """Bit-equal under integer (or no) weights; within 1e-12 otherwise."""
    ours = np.asarray(ours, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if weights is None or np.array_equal(weights, np.round(weights)):
        assert ours.tobytes() == expected.tobytes()
    else:
        np.testing.assert_allclose(ours, expected, rtol=0, atol=1e-12)


def _random_setup(rng, num_modes, num_networks, num_states=5, unknown_rate=0.2):
    """A catalog, vectors for M exemplars, and one probe vector."""
    catalog = StateCatalog([f"site{i}" for i in range(num_states)])
    networks = tuple(f"n{i}" for i in range(num_networks))
    labels = list(catalog.labels)[3:]  # skip the special states

    def random_vector():
        codes = []
        for _ in range(num_networks):
            if rng.random() < unknown_rate:
                codes.append(UNKNOWN_CODE)
            else:
                codes.append(catalog.code(rng.choice(labels)))
        return RoutingVector(networks, np.asarray(codes, dtype=np.int32), catalog)

    exemplars = [random_vector() for _ in range(num_modes)]
    return catalog, networks, exemplars, random_vector()


class TestPhiOneToMany:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scalar_loop(self, policy, seed):
        rng = np.random.default_rng(seed)
        num_modes = int(rng.integers(1, 12))
        num_networks = int(rng.integers(1, 30))
        _, _, exemplars, probe = _random_setup(rng, num_modes, num_networks)
        weights = _weights(WEIGHT_KINDS[seed % 3], rng, num_networks)
        matrix = np.stack([e.codes for e in exemplars])
        expected = [scalar_phi(e, probe, weights, policy) for e in exemplars]
        assert_equals_oracle(
            phi_one_to_many(probe.codes, matrix, weights=weights, policy=policy),
            expected,
            weights,
        )
        assert_equals_oracle(
            [phi(e, probe, weights=weights, policy=policy) for e in exemplars],
            expected,
            weights,
        )

    def test_exclude_all_unknown_row_is_nan(self):
        rng = np.random.default_rng(7)
        catalog, networks, exemplars, probe = _random_setup(rng, 3, 6)
        matrix = np.stack([e.codes for e in exemplars])
        matrix[1, :] = UNKNOWN_CODE  # no jointly known network with anyone
        result = phi_one_to_many(
            probe.codes, matrix, policy=UnknownPolicy.EXCLUDE
        )
        assert np.isnan(result[1])

    def test_exclude_all_unknown_probe_is_all_nan(self):
        rng = np.random.default_rng(8)
        _, _, exemplars, probe = _random_setup(rng, 4, 5)
        matrix = np.stack([e.codes for e in exemplars])
        unknown_probe = np.full(5, UNKNOWN_CODE, dtype=np.int32)
        result = phi_one_to_many(
            unknown_probe, matrix, policy=UnknownPolicy.EXCLUDE
        )
        assert np.isnan(result).all()

    def test_pessimistic_never_nan_with_positive_weights(self):
        rng = np.random.default_rng(9)
        _, _, exemplars, probe = _random_setup(rng, 5, 8)
        matrix = np.stack([e.codes for e in exemplars])
        result = phi_one_to_many(probe.codes, matrix)
        assert not np.isnan(result).any()
        assert ((result >= 0) & (result <= 1)).all()

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="2-D"):
            phi_one_to_many(np.zeros(3, dtype=np.int32), np.zeros(3, dtype=np.int32))
        with pytest.raises(ValueError, match="does not match"):
            phi_one_to_many(
                np.zeros(3, dtype=np.int32), np.zeros((2, 4), dtype=np.int32)
            )

    def test_bad_weights_rejected(self):
        matrix = np.zeros((2, 3), dtype=np.int32)
        codes = np.zeros(3, dtype=np.int32)
        with pytest.raises(ValueError, match="shape"):
            phi_one_to_many(codes, matrix, weights=np.ones(4))
        with pytest.raises(ValueError, match="non-negative"):
            phi_one_to_many(codes, matrix, weights=np.array([1.0, -1.0, 1.0]))


class TestSimilarityToReferenceVectorized:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_per_row_phi(self, policy):
        rng = np.random.default_rng(11)
        catalog, networks, exemplars, reference = _random_setup(rng, 6, 10)
        now = datetime(2025, 1, 1)
        stamped = [
            RoutingVector(networks, e.codes, catalog, now + timedelta(hours=i))
            for i, e in enumerate(exemplars)
        ]
        series = VectorSeries.from_vectors(stamped)
        for kind in WEIGHT_KINDS:
            weights = _weights(kind, rng, len(networks))
            profile = similarity_to_reference(series, reference, weights, policy)
            expected = [scalar_phi(v, reference, weights, policy) for v in stamped]
            assert_equals_oracle(profile, expected, weights)


class TestMatchModeVectorized:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scalar_oracle_over_a_stream(self, policy, seed):
        """Every _match_mode during a random stream agrees with the
        scalar loop, including the (mode_id, similarity) tie-breaks, and
        every step change agrees with the scalar Φ of the two rounds."""
        rng = np.random.default_rng(seed)
        networks = [f"n{i}" for i in range(12)]
        weights = _weights(WEIGHT_KINDS[seed % 3], rng, len(networks))
        tracker = OnlineFenrir(
            networks=networks,
            mode_threshold=0.6,
            policy=policy,
            weights=weights,
        )
        sites = ["LAX", "MIA", "AMS", "unknown"]
        base = datetime(2025, 1, 1)
        previous = None
        for step in range(60):
            states = {
                n: sites[int(rng.integers(0, len(sites)))] for n in networks
            }
            vector = RoutingVector.from_mapping(
                dict(states), catalog=tracker.catalog, networks=tracker.networks
            )
            mode_id, similarity = tracker._match_mode(vector)
            oracle_id, oracle_similarity = match_mode_scalar(tracker, vector)
            assert mode_id == oracle_id
            assert_equals_oracle(similarity, oracle_similarity, weights)
            update = tracker.ingest(states, base + timedelta(hours=step))
            expected_step = (
                0.0
                if previous is None
                else 1.0 - scalar_phi(previous, vector, weights, policy)
            )
            assert_equals_oracle(update.step_change, expected_step, weights)
            previous = vector

    def test_match_with_no_modes(self):
        tracker = OnlineFenrir(networks=["a", "b"])
        assert tracker.match({"a": "X", "b": "Y"}) == (None, -1.0)

    def test_all_nan_similarities_open_new_mode(self):
        """EXCLUDE policy, probe with nothing jointly known: the scalar
        loop returns (None, nan-free -1.0 path) — vectorized must too."""
        tracker = OnlineFenrir(
            networks=["a", "b"], policy=UnknownPolicy.EXCLUDE
        )
        base = datetime(2025, 1, 1)
        tracker.ingest({"a": "X", "b": "Y"}, base)
        vector = RoutingVector.from_mapping(
            {}, catalog=tracker.catalog, networks=tracker.networks
        )
        assert tracker._match_mode(vector) == match_mode_scalar(tracker, vector)
        assert tracker._match_mode(vector) == (None, -1.0)


class TestWeightValidationAtConstruction:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            OnlineFenrir(networks=["a", "b"], weights=np.ones(3))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            OnlineFenrir(networks=["a", "b"], weights=np.array([1.0, -0.5]))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all zero"):
            OnlineFenrir(networks=["a", "b"], weights=np.zeros(2))

    def test_weights_accept_plain_lists(self):
        tracker = OnlineFenrir(networks=["a", "b"], weights=[2.0, 1.0])
        update = tracker.ingest({"a": "X", "b": "Y"}, datetime(2025, 1, 1))
        assert update.is_new_mode


class TestRunningCounters:
    def test_counters_track_scans(self):
        rng = np.random.default_rng(3)
        tracker = OnlineFenrir(networks=[f"n{i}" for i in range(6)])
        sites = ["LAX", "MIA"]
        base = datetime(2025, 1, 1)
        for step in range(40):
            states = {
                n: sites[int(rng.integers(0, 2))] for n in tracker.networks
            }
            tracker.ingest(states, base + timedelta(hours=step))
        assert tracker.num_events == len(tracker.events())
        assert tracker.num_recurrences == len(tracker.recurrences())

    def test_counters_survive_state_round_trip(self):
        rng = np.random.default_rng(4)
        tracker = OnlineFenrir(networks=[f"n{i}" for i in range(5)])
        base = datetime(2025, 1, 1)
        for step in range(25):
            states = {
                n: ["A", "B", "C"][int(rng.integers(0, 3))]
                for n in tracker.networks
            }
            tracker.ingest(states, base + timedelta(hours=step))
        restored = OnlineFenrir.from_state(tracker.to_state())
        assert restored.num_events == tracker.num_events
        assert restored.num_recurrences == tracker.num_recurrences
