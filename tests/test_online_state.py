"""Exact-round-trip tests for OnlineFenrir.to_state()/from_state().

The journal/snapshot layer of ``repro.serve`` relies on one property:
a tracker restored from a checkpoint must answer every subsequent
ingest *identically* to the original — same mode ids, same floats,
same event flags. These tests drive that property over seeded random
streams (the repo's property-test idiom, see conftest) and over the
hand-built corner cases.

``tests/golden/online_state.jsonl`` pins the unsorted ``json.dumps`` of
a seeded tracker's full state (line 1) and of a delta (line 2), since
``handoff`` ships the dict as built. Regenerate after an intentional
state-format change:
    PYTHONPATH=src python tests/test_online_state.py
"""

from __future__ import annotations

import json
import random
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from repro.core.compare import UnknownPolicy
from repro.core.online import OnlineFenrir
from repro.core.vector import UNKNOWN

T0 = datetime(2025, 1, 1)


def random_rounds(seed: int, num_networks: int = 12, num_rounds: int = 40):
    """A seeded stream with persistence, churn, and unknowns."""
    rng = random.Random(seed)
    networks = [f"n{i}" for i in range(num_networks)]
    sites = ["LAX", "AMS", "FRA", "NRT"]

    def draw() -> str:
        roll = rng.random()
        if roll < 0.08:
            return UNKNOWN
        return rng.choice(sites)

    assignment = {network: draw() for network in networks}
    rounds = []
    for index in range(num_rounds):
        if index and rng.random() < 0.4:  # occasional shifts, sometimes big
            for network in networks:
                if rng.random() < 0.5:
                    assignment[network] = draw()
        rounds.append((dict(assignment), T0 + timedelta(hours=index)))
    return networks, rounds


def drive(tracker: OnlineFenrir, rounds):
    return [tracker.ingest(states, when) for states, when in rounds]


STATE_GOLDEN = Path(__file__).parent / "golden" / "online_state.jsonl"
#: The delta line of the golden file covers the updates after this many.
GOLDEN_SPLIT = 17


def golden_tracker(num_rounds: int = 30) -> OnlineFenrir:
    """The fixture's tracker after the first ``num_rounds`` of its stream."""
    networks, rounds = random_rounds(7, num_rounds=30)
    tracker = OnlineFenrir(
        networks=networks,
        event_threshold=0.2,
        weights=np.arange(1.0, len(networks) + 1.0),
    )
    drive(tracker, rounds[:num_rounds])
    return tracker


def state_lines(tracker: OnlineFenrir) -> str:
    """``json.dumps`` (no ``sort_keys``) of the full state and a delta."""
    documents = (tracker.to_state(), tracker.to_state(updates_after=GOLDEN_SPLIT))
    return "".join(json.dumps(document) + "\n" for document in documents)


class TestStateRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("split", [0, 1, 13, 39])
    def test_restore_matches_uninterrupted_run(self, seed, split):
        """Serialize at ``split``, restore, finish: identical updates."""
        networks, rounds = random_rounds(seed)
        oracle = OnlineFenrir(networks=networks)
        oracle_updates = drive(oracle, rounds)

        tracker = OnlineFenrir(networks=networks)
        drive(tracker, rounds[:split])
        # Through JSON text, not just the dict: the on-disk snapshot
        # path must preserve float bits, which json does via repr.
        state = json.loads(json.dumps(tracker.to_state()))
        restored = OnlineFenrir.from_state(state)
        resumed_updates = drive(restored, rounds[split:])

        assert resumed_updates == oracle_updates[split:]
        assert restored.mode_timeline() == oracle.mode_timeline()
        assert restored.num_modes == oracle.num_modes

    def test_round_trip_preserves_config(self):
        weights = np.array([2.0, 1.0, 0.5])
        tracker = OnlineFenrir(
            networks=["a", "b", "c"],
            event_threshold=0.25,
            mode_threshold=0.6,
            policy=UnknownPolicy.EXCLUDE,
            weights=weights,
        )
        tracker.ingest({"a": "X", "b": "X", "c": "Y"}, T0)
        restored = OnlineFenrir.from_state(tracker.to_state())
        assert restored.event_threshold == 0.25
        assert restored.mode_threshold == 0.6
        assert restored.policy is UnknownPolicy.EXCLUDE
        assert np.array_equal(restored.weights, weights)
        assert restored.networks == ("a", "b", "c")

    def test_fresh_tracker_round_trips(self):
        tracker = OnlineFenrir(networks=["a", "b"])
        restored = OnlineFenrir.from_state(tracker.to_state())
        assert restored.num_modes == 0
        assert restored.updates == []
        update = restored.ingest({"a": "X", "b": "Y"}, T0)
        assert update.mode_id == 0 and update.is_new_mode

    def test_restored_tracker_still_enforces_time_order(self):
        tracker = OnlineFenrir(networks=["a"])
        tracker.ingest({"a": "X"}, T0)
        restored = OnlineFenrir.from_state(tracker.to_state())
        with pytest.raises(ValueError, match="forward in time"):
            restored.ingest({"a": "X"}, T0)

    def test_unknown_version_rejected(self):
        tracker = OnlineFenrir(networks=["a"])
        state = tracker.to_state()
        state["version"] = 99
        with pytest.raises(ValueError, match="state version"):
            OnlineFenrir.from_state(state)

    def test_state_is_json_serializable(self):
        networks, rounds = random_rounds(3, num_rounds=10)
        tracker = OnlineFenrir(networks=networks)
        drive(tracker, rounds)
        text = json.dumps(tracker.to_state())  # must not raise
        assert json.loads(text)["version"] == 1


class TestGoldenState:
    def test_to_state_bytes_match_the_fixture(self):
        assert state_lines(golden_tracker()) == STATE_GOLDEN.read_text()

    def test_restored_tracker_reproduces_the_fixture(self):
        full, delta = map(json.loads, STATE_GOLDEN.read_text().splitlines())
        assert state_lines(OnlineFenrir.from_state(full)) == STATE_GOLDEN.read_text()
        # Recovery's chain: restore the base state, then apply the delta.
        base = OnlineFenrir.from_state(golden_tracker(GOLDEN_SPLIT).to_state())
        base.apply_delta(delta)
        assert base.to_state() == full
        assert state_lines(base) == STATE_GOLDEN.read_text()

    def test_catalog_without_special_states_is_refused(self):
        full = golden_tracker().to_state()
        full["catalog"] = full["catalog"][3:]
        with pytest.raises(ValueError, match="does not extend the tracker's catalog"):
            OnlineFenrir.from_state(full)
        delta = golden_tracker().to_state(updates_after=0)
        delta["catalog"] = delta["catalog"][3:]
        with pytest.raises(ValueError, match="does not extend the tracker's catalog"):
            OnlineFenrir(networks=full["networks"]).apply_delta(delta)


class TestApplyDelta:
    def test_malformed_delta_leaves_the_mode_state_unchanged(self):
        networks, rounds = random_rounds(5, num_rounds=12)
        source = OnlineFenrir(networks=networks)
        drive(source, rounds[:4])
        follower = OnlineFenrir.from_state(source.to_state())
        drive(source, rounds[4:])
        delta = source.to_state(updates_after=4)
        assert len(delta["exemplars"]) >= 2  # a good one before the bad one
        before = follower.to_state()
        broken = json.loads(json.dumps(delta))
        broken["exemplars"][-1]["codes"] = [0]  # one code for 12 networks
        with pytest.raises(ValueError, match="codes shape"):
            follower.apply_delta(broken)
        after = follower.to_state()
        assert {**after, "catalog": None} == {**before, "catalog": None}
        follower.apply_delta(delta)  # still chains: nothing was half-applied
        assert follower.to_state() == source.to_state()


class TestMatch:
    def test_match_does_not_mutate_mode_state(self):
        tracker = OnlineFenrir(networks=["x", "y"])
        tracker.ingest({"x": "LAX", "y": "AMS"}, T0)
        before = tracker.to_state()
        mode_id, similarity = tracker.match({"x": "LAX", "y": "AMS"})
        assert mode_id == 0 and similarity == 1.0
        mode_id, _ = tracker.match({"x": "FRA", "y": "FRA"})
        assert mode_id is None
        after = tracker.to_state()
        # Mode bookkeeping untouched (catalog may grow: identifiers only).
        for key in ("exemplars", "previous", "previous_mode", "updates", "last_time"):
            assert before[key] == after[key]


if __name__ == "__main__":
    STATE_GOLDEN.write_text(state_lines(golden_tracker()))
    print(f"wrote {STATE_GOLDEN}")
