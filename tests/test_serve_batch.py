"""Batched ingest and incremental checkpoints on DurableMonitor.

Two contracts under test:

* ``ingest_batch`` ≡ a sequential tracker — same updates, same replay
  state, and journal bytes pinned by ``tests/golden/journal_v2.jsonl``
  — with the valid-prefix partial failure semantics on top;
* periodic checkpoints write O(delta) bytes (delta segments), not a
  full re-serialization of the history, and fold back losslessly on
  recovery and compaction.

``tests/golden/journal.jsonl`` is frozen: the same script recorded by
the version 1 writer, kept as the reader fixture for journals written
before positional lines. Never regenerate it. Regenerate the version 2
fixture after an intentional format change:
    PYTHONPATH=src python tests/test_serve_batch.py
"""

from __future__ import annotations

import errno
import json
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from repro.core import online as online_module
from repro.core.online import OnlineFenrir
from repro.core.vector import RoutingVector, StateCatalog
from repro.serve import journal as journal_module
from repro.serve.journal import (
    JOURNAL_FILE,
    SNAPSHOT_FILE,
    JournalWriter,
    read_snapshot,
)
from repro.serve import monitor as monitor_module
from repro.serve.monitor import DurableMonitor, MonitorError

BASE = datetime(2025, 1, 1)
NETWORKS = ["n0", "n1", "n2", "n3", "n4"]
SITES = ["LAX", "MIA", "AMS"]


def make_rounds(count, start=0, seed=0, networks=NETWORKS):
    rng = np.random.default_rng(seed)
    return [
        (
            {n: SITES[int(rng.integers(0, len(SITES)))] for n in networks},
            BASE + timedelta(hours=start + i),
        )
        for i in range(count)
    ]


JOURNAL_GOLDEN = Path(__file__).parent / "golden" / "journal.jsonl"  # version 1
JOURNAL_V2_GOLDEN = Path(__file__).parent / "golden" / "journal_v2.jsonl"


def scripted_monitor(data_dir):
    """Drive one monitor through every kind of journal line.

    Single ingests, a batch, a dedup stretch (reference lines, single
    and batched), a rejected single round of each kind and a batch cut
    short by an out-of-order round. Returns the closed monitor's
    directory and the rounds it accepted, in order.
    """
    rounds = make_rounds(12, seed=5)
    monitor = DurableMonitor.create(data_dir, "golden", networks=NETWORKS)
    for states, when in rounds[:4]:
        monitor.ingest(states, when)
    monitor.ingest_batch(rounds[4:])
    for states, when in (rounds[2], ({"n0": 7}, BASE + timedelta(hours=12))):
        with pytest.raises(MonitorError):
            monitor.ingest(states, when)  # journals nothing
    monitor.set_dedup(True)
    repeat = rounds[-1][0]
    later = [BASE + timedelta(hours=hour) for hour in range(12, 20)]
    dedup_rounds = [(repeat, later[0]), (repeat, later[1])]
    for states, when in dedup_rounds:
        monitor.ingest(states, when)
    cut = [(repeat, later[2]), (rounds[0][0], later[3]), (repeat, later[4])]
    result = monitor.ingest_batch([*cut, (repeat, later[0])])
    assert (result.accepted, result.error_kind) == (3, "out_of_order")
    monitor.set_dedup(False)
    monitor.ingest(repeat, later[5])
    monitor.close()
    accepted = [*rounds, *dedup_rounds, *cut, (repeat, later[5])]
    return monitor.directory, accepted


class TestBatchEquivalence:
    def test_batch_equals_sequential(self, tmp_path):
        rounds = make_rounds(40)
        oracle = OnlineFenrir(networks=NETWORKS)
        expected = [oracle.ingest(states, when) for states, when in rounds]
        batch_monitor = DurableMonitor.create(tmp_path, "bat", networks=NETWORKS)
        result = batch_monitor.ingest_batch(rounds)

        assert result.error_index is None
        assert result.accepted == len(rounds)
        assert list(result.updates) == expected
        assert batch_monitor.seq == len(rounds)
        assert batch_monitor.tracker.to_state() == oracle.to_state()
        batch_monitor.close()

        # The recorded journal of single ingests, batches and dedup
        # references replays to a tracker fed the same rounds one by one.
        directory, accepted = scripted_monitor(tmp_path / "scripted")
        replayed = DurableMonitor.create(tmp_path, "replayed", networks=NETWORKS)
        replayed.close()
        (tmp_path / "replayed" / JOURNAL_FILE).write_bytes(
            JOURNAL_GOLDEN.read_bytes()
        )
        reopened = DurableMonitor.open(tmp_path, "replayed")
        oracle = OnlineFenrir(networks=NETWORKS)
        for states, when in accepted:
            oracle.ingest(states, when)
        scripted = DurableMonitor.open(directory.parent, "golden")
        for monitor in (reopened, scripted):
            assert monitor.seq == len(accepted)
            assert monitor.tracker.to_state() == oracle.to_state()
            monitor.close()

    def test_journal_bytes_identical(self, tmp_path):
        directory, _ = scripted_monitor(tmp_path)
        journal = (directory / JOURNAL_FILE).read_bytes()
        assert journal == JOURNAL_V2_GOLDEN.read_bytes()

    def test_replay_state_identical(self, tmp_path):
        rounds = make_rounds(30)
        monitor = DurableMonitor.create(tmp_path, "m", networks=NETWORKS)
        monitor.ingest_batch(rounds)
        monitor.close()

        oracle = OnlineFenrir(networks=NETWORKS)
        for states, when in rounds:
            oracle.ingest(states, when)

        reopened = DurableMonitor.open(tmp_path, "m")
        assert reopened.tracker.to_state() == oracle.to_state()
        assert reopened.seq == len(rounds)
        reopened.close()

    def test_batches_compose_with_single_ingests(self, tmp_path):
        rounds = make_rounds(30)
        monitor = DurableMonitor.create(tmp_path, "m", networks=NETWORKS)
        monitor.ingest(*rounds[0])
        monitor.ingest_batch(rounds[1:20])
        monitor.ingest(*rounds[20])
        monitor.ingest_batch(rounds[21:])
        oracle = OnlineFenrir(networks=NETWORKS)
        for states, when in rounds:
            oracle.ingest(states, when)
        assert monitor.tracker.to_state() == oracle.to_state()
        assert monitor.seq == len(rounds)
        monitor.close()

    def test_empty_batch(self, tmp_path):
        monitor = DurableMonitor.create(tmp_path, "m", networks=NETWORKS)
        result = monitor.ingest_batch([])
        assert result.accepted == 0
        assert result.error_index is None
        assert monitor.seq == 0
        monitor.close()


def answers(monitor):
    """The ``query`` and ``timeline`` documents, as bytes.

    Without the name and the ``dedup`` counters, which describe this
    process's journal encoding rather than what was replayed.
    """
    timeline = [
        {"mode_id": mode, "start": start.isoformat(), "end": end.isoformat()}
        for mode, start, end in monitor.tracker.mode_timeline()
    ]
    query = {**monitor.describe(), "monitor": None, "dedup": None}
    return json.dumps([query, timeline], sort_keys=True)


def oracle_answers(data_dir, name, rounds):
    """``answers`` of a fresh monitor fed ``rounds`` one by one."""
    oracle = DurableMonitor.create(data_dir, name, networks=NETWORKS)
    for states, when in rounds:
        oracle.ingest(states, when)
    oracle.close()
    return answers(oracle)


class TestPositionalJournal:
    """Version 2 lines: the round as labels in network order."""

    def test_v1_lines_then_v2_lines_after_reopen(self, tmp_path):
        _, accepted = scripted_monitor(tmp_path / "scripted")
        monitor = DurableMonitor.create(tmp_path, "mixed", networks=NETWORKS)
        monitor.close()
        journal = tmp_path / "mixed" / JOURNAL_FILE
        journal.write_bytes(JOURNAL_GOLDEN.read_bytes())
        monitor = DurableMonitor.open(tmp_path, "mixed")
        assert monitor.replay.replayed_records == len(accepted)
        later = make_rounds(6, start=len(accepted) + 10, seed=9)
        later.insert(1, (later[0][0], later[0][1] + timedelta(minutes=1)))
        monitor.set_dedup(True)
        monitor.ingest_batch(later)
        live = answers(monitor)
        monitor.close()

        lines = journal.read_bytes().splitlines(keepends=True)
        v1 = JOURNAL_GOLDEN.read_bytes().splitlines(keepends=True)
        assert lines[: len(v1)] == v1
        assert lines[len(v1)].startswith(b'{"v":2,')
        assert any(line.startswith(b'{"ref":') for line in lines[len(v1) :])
        reopened = DurableMonitor.open(tmp_path, "mixed")
        assert reopened.replay.tail is None
        assert answers(reopened) == live
        assert live == oracle_answers(tmp_path, "oracle", [*accepted, *later])
        reopened.close()

    def fed(self, data_dir, count):
        """A closed monitor's directory holding ``count`` version 2 lines."""
        rounds = make_rounds(count, seed=4)
        monitor = DurableMonitor.create(data_dir, "m", networks=NETWORKS)
        monitor.ingest_batch(rounds)
        monitor.close()
        return data_dir / "m", rounds

    def reopen(self, directory, tmp_path, journal: bytes, copy: str):
        """Open a copy of ``directory`` whose journal is ``journal``."""
        target = tmp_path / copy / "m"
        target.mkdir(parents=True)
        for path in directory.iterdir():
            target.joinpath(path.name).write_bytes(path.read_bytes())
        (target / JOURNAL_FILE).write_bytes(journal)
        return DurableMonitor.open(target.parent, "m")

    def test_cut_final_v2_line_recovers_the_acked_prefix(self, tmp_path):
        directory, rounds = self.fed(tmp_path / "source", 6)
        journal = (directory / JOURNAL_FILE).read_bytes()
        start = journal.rstrip(b"\n").rfind(b"\n") + 1
        end = len(journal) - 1  # the final newline
        expected = oracle_answers(tmp_path, "oracle", rounds[:-1])
        for cut in sorted({start, start + 1, *range(start, end, 7), end - 1}):
            monitor = self.reopen(directory, tmp_path, journal[:cut], f"cut{cut}")
            assert monitor.seq == len(rounds) - 1, cut
            assert monitor.replay.dropped_lines == (cut > start), cut
            assert answers(monitor) == expected, cut
            monitor.close()
        # Cutting only the newline leaves a whole line: nothing is lost.
        monitor = self.reopen(directory, tmp_path, journal[:end], "whole")
        assert monitor.seq == len(rounds) and monitor.replay.tail is None
        monitor.close()

    def test_flipped_byte_drops_the_tail(self, tmp_path):
        directory, rounds = self.fed(tmp_path / "source", 6)
        journal = (directory / JOURNAL_FILE).read_bytes()
        lines = journal.splitlines(keepends=True)
        bad = 3  # 0-based: lines 0..2 hold the acked prefix that survives
        start = sum(len(line) for line in lines[:bad])
        expected = oracle_answers(tmp_path, "oracle", rounds[:bad])
        for offset in range(0, len(lines[bad]) - 1, 3):
            flipped = bytearray(journal)
            flipped[start + offset] ^= 0x01
            monitor = self.reopen(directory, tmp_path, bytes(flipped), f"f{offset}")
            assert monitor.seq == bad, offset
            assert monitor.replay.dropped_lines == len(lines) - bad, offset
            assert answers(monitor) == expected, offset
            monitor.close()

    def test_repeated_mapping_does_no_label_coding(self, tmp_path, monkeypatch):
        calls = []
        codes = StateCatalog.codes

        def counted(catalog, labels):
            calls.append(len(labels))
            return codes(catalog, labels)

        monkeypatch.setattr(StateCatalog, "codes", counted)
        states = make_rounds(1)[0][0]
        monitor = DurableMonitor.create(tmp_path, "m", networks=NETWORKS)
        monitor.ingest(states, BASE)
        monitor.ingest(dict(states), BASE + timedelta(hours=1))
        batch = [(dict(states), BASE + timedelta(hours=hour)) for hour in (2, 3, 4)]
        monitor.ingest_batch(batch)
        assert calls == [len(NETWORKS)]
        tracker = OnlineFenrir(networks=NETWORKS)
        for hour in range(3):
            tracker.ingest(dict(states), BASE + timedelta(hours=hour))
        assert calls == [len(NETWORKS)] * 2
        monitor.close()

    def test_v2_replay_never_rekeys_or_reencodes(self, tmp_path, monkeypatch):
        directory, rounds = self.fed(tmp_path, 20)
        monitor = DurableMonitor.open(tmp_path, "m")
        expected = answers(monitor)
        monitor.close()

        def refuse(*args, **kwargs):
            raise AssertionError("replay of version 2 lines re-keyed a round")

        monkeypatch.setattr(RoutingVector, "from_mapping", refuse)
        monkeypatch.setattr(online_module, "labels_of", refuse)
        monkeypatch.setattr(journal_module, "_canonical", refuse)
        reopened = DurableMonitor.open(tmp_path, "m")
        assert reopened.replay.replayed_records == len(rounds)
        assert answers(reopened) == expected
        reopened.close()


class TestBatchPartialFailure:
    def test_invalid_states_mid_batch(self, tmp_path):
        rounds = make_rounds(10)
        rounds[6] = ({"n0": 42}, rounds[6][1])  # non-string label
        monitor = DurableMonitor.create(tmp_path, "m", networks=NETWORKS)
        result = monitor.ingest_batch(rounds)
        assert result.accepted == 6
        assert result.error_index == 6
        assert result.error_kind == "invalid_states"
        assert monitor.seq == 6
        # the durable prefix is exactly the accepted records
        monitor.close()
        reopened = DurableMonitor.open(tmp_path, "m")
        assert len(reopened.tracker.updates) == 6
        reopened.close()

    def test_out_of_order_mid_batch(self, tmp_path):
        rounds = make_rounds(10)
        rounds[4] = (rounds[4][0], rounds[2][1])  # time goes backwards
        monitor = DurableMonitor.create(tmp_path, "m", networks=NETWORKS)
        result = monitor.ingest_batch(rounds)
        assert result.accepted == 4
        assert result.error_index == 4
        assert result.error_kind == "out_of_order"
        assert "move forward in time" in result.error
        monitor.close()

    def test_first_record_older_than_monitor(self, tmp_path):
        rounds = make_rounds(5)
        monitor = DurableMonitor.create(tmp_path, "m", networks=NETWORKS)
        monitor.ingest_batch(rounds)
        result = monitor.ingest_batch(rounds)  # same times again
        assert result.accepted == 0
        assert result.error_index == 0
        assert result.error_kind == "out_of_order"
        monitor.close()

    def test_prefix_before_failure_is_applied_and_durable(self, tmp_path):
        rounds = make_rounds(8)
        bad = rounds[:5] + [({"n0": None}, rounds[5][1])] + rounds[6:]
        monitor = DurableMonitor.create(tmp_path, "m", networks=NETWORKS)
        monitor.ingest_batch(bad)
        oracle = OnlineFenrir(networks=NETWORKS)
        for states, when in rounds[:5]:
            oracle.ingest(states, when)
        monitor.close()
        reopened = DurableMonitor.open(tmp_path, "m")
        assert reopened.tracker.to_state() == oracle.to_state()
        reopened.close()


class TestIncrementalCheckpoints:
    def test_cadence_writes_delta_segments(self, tmp_path):
        monitor = DurableMonitor.create(
            tmp_path, "m", networks=NETWORKS, snapshot_every=10
        )
        monitor.ingest_batch(make_rounds(35))
        deltas = sorted((tmp_path / "m").glob("delta-*.json"))
        assert len(deltas) == 1  # one batch crossing the cadence once
        monitor.ingest_batch(make_rounds(10, start=35))
        deltas = sorted((tmp_path / "m").glob("delta-*.json"))
        assert len(deltas) == 2
        monitor.close()

    def test_checkpoint_cost_does_not_grow_with_history(self, tmp_path):
        """The delta written after a long history is no bigger than one
        written early: checkpoint cost is O(rounds since checkpoint),
        not O(total rounds)."""
        monitor = DurableMonitor.create(
            tmp_path, "m", networks=NETWORKS, snapshot_every=100
        )
        for chunk_start in range(0, 3000, 100):
            monitor.ingest_batch(make_rounds(100, start=chunk_start))
        deltas = sorted((tmp_path / "m").glob("delta-*.json"))
        assert len(deltas) == 30
        sizes = [path.stat().st_size for path in deltas]
        # every delta covers 100 rounds; the last (written with 3000
        # rounds of history behind it) must not have absorbed that
        # history
        assert max(sizes) < 2 * min(sizes)
        full_size = len(
            json.dumps(monitor.tracker.to_state(), separators=(",", ":"))
        )
        assert max(sizes) < full_size / 5
        monitor.close()

    def test_recovery_folds_deltas(self, tmp_path):
        rounds = make_rounds(250)
        monitor = DurableMonitor.create(
            tmp_path, "m", networks=NETWORKS, snapshot_every=50
        )
        monitor.ingest_batch(rounds[:120])
        monitor.ingest_batch(rounds[120:])
        monitor.close()
        oracle = OnlineFenrir(networks=NETWORKS)
        for states, when in rounds:
            oracle.ingest(states, when)
        reopened = DurableMonitor.open(tmp_path, "m")
        assert reopened.tracker.to_state() == oracle.to_state()
        assert reopened.seq == len(rounds)
        reopened.close()

    def test_recovery_folds_deltas_plus_journal_tail(self, tmp_path):
        """Rounds after the last checkpoint live only in the journal;
        recovery must fold deltas *and* replay the journal tail."""
        rounds = make_rounds(130)
        monitor = DurableMonitor.create(
            tmp_path, "m", networks=NETWORKS, snapshot_every=50
        )
        monitor.ingest_batch(rounds[:100])  # crosses the cadence: checkpoint
        monitor.ingest_batch(rounds[100:])  # 30 rounds, journal only
        assert (tmp_path / "m" / JOURNAL_FILE).stat().st_size > 0
        monitor.close()
        oracle = OnlineFenrir(networks=NETWORKS)
        for states, when in rounds:
            oracle.ingest(states, when)
        reopened = DurableMonitor.open(tmp_path, "m")
        assert reopened.tracker.to_state() == oracle.to_state()
        reopened.close()

    def test_explicit_snapshot_compacts(self, tmp_path):
        monitor = DurableMonitor.create(
            tmp_path, "m", networks=NETWORKS, snapshot_every=20
        )
        monitor.ingest_batch(make_rounds(75))
        assert list((tmp_path / "m").glob("delta-*.json"))
        monitor.snapshot()
        assert not list((tmp_path / "m").glob("delta-*.json"))
        assert (tmp_path / "m" / JOURNAL_FILE).stat().st_size == 0
        seq, state = read_snapshot(tmp_path / "m")
        assert seq == 75
        assert state == monitor.tracker.to_state()
        monitor.close()

    def test_checkpoint_after_reopen_keeps_chain_consistent(self, tmp_path):
        """Replayed journal rounds are not yet in the checkpoint chain;
        the first checkpoint after a reopen must fold them in."""
        rounds = make_rounds(60)
        monitor = DurableMonitor.create(tmp_path, "m", networks=NETWORKS)
        monitor.ingest_batch(rounds)  # journal only, no checkpoints
        monitor.close()
        reopened = DurableMonitor.open(tmp_path, "m")
        reopened.checkpoint()
        reopened.close()
        recovered = DurableMonitor.open(tmp_path, "m")
        oracle = OnlineFenrir(networks=NETWORKS)
        for states, when in rounds:
            oracle.ingest(states, when)
        assert recovered.tracker.to_state() == oracle.to_state()
        recovered.close()

    @pytest.mark.parametrize("checkpoint", ["snapshot", "install_delta"])
    def test_checkpoint_whose_journal_reset_fails_still_heads_the_chain(
        self, tmp_path, monkeypatch, checkpoint
    ):
        """A failed reset after a snapshot or shipped delta landed must
        not leave the next cadence delta chaining from the counts
        before it."""
        rounds = make_rounds(8)
        monitor = DurableMonitor.create(
            tmp_path, "m", networks=NETWORKS, snapshot_every=3
        )
        primary = DurableMonitor.create(tmp_path / "p", "m", networks=NETWORKS)
        primary.ingest_batch(rounds[:2])
        primary.close()
        if checkpoint == "snapshot":
            monitor.ingest_batch(rounds[:2])
        real_reset = JournalWriter.reset

        def refuse(writer):
            monkeypatch.setattr(JournalWriter, "reset", real_reset)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(JournalWriter, "reset", refuse)
        with pytest.raises(OSError):  # explicit checkpoints still report it
            if checkpoint == "snapshot":
                monitor.snapshot()
            else:
                monitor.install_delta(2, primary.tracker.to_state(updates_after=0))
        monitor.ingest_batch(rounds[2:])  # crosses the cadence: a delta
        monitor.close()
        oracle = OnlineFenrir(networks=NETWORKS)
        for states, when in rounds:
            oracle.ingest(states, when)
        reopened = DurableMonitor.open(tmp_path, "m")
        assert reopened.tracker.to_state() == oracle.to_state()
        reopened.close()

    def test_shipped_delta_whose_write_fails_is_not_applied(
        self, tmp_path, monkeypatch
    ):
        """A follower whose delta segment write fails keeps the tracker
        where its disk chain is, so the next sync asks for the same
        rounds again and the reopened chain equals the primary's."""
        rounds = make_rounds(6)
        primary = DurableMonitor.create(tmp_path / "p", "m", networks=NETWORKS)
        follower = DurableMonitor.create(tmp_path, "m", networks=NETWORKS)

        def sync():
            after = len(follower.tracker.updates)
            follower.install_delta(
                primary.seq, primary.tracker.to_state(updates_after=after)
            )

        primary.ingest_batch(rounds[:3])
        real_write = monitor_module.write_delta

        def refuse(*args, **kwargs):
            monkeypatch.setattr(monitor_module, "write_delta", real_write)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(monitor_module, "write_delta", refuse)
        with pytest.raises(OSError):
            sync()
        assert len(follower.tracker.updates) == 0
        primary.ingest_batch(rounds[3:])
        sync()
        follower.close()
        primary.close()
        oracle = OnlineFenrir(networks=NETWORKS)
        for states, when in rounds:
            oracle.ingest(states, when)
        reopened = DurableMonitor.open(tmp_path, "m")
        assert reopened.tracker.to_state() == oracle.to_state()
        reopened.close()

    def test_snapshot_file_untouched_by_cadence(self, tmp_path):
        """Periodic checkpoints must not rewrite the base snapshot —
        that is the O(rounds²) behaviour being removed."""
        monitor = DurableMonitor.create(
            tmp_path, "m", networks=NETWORKS, snapshot_every=10
        )
        base_bytes = (tmp_path / "m" / SNAPSHOT_FILE).read_bytes()
        monitor.ingest_batch(make_rounds(50))
        assert (tmp_path / "m" / SNAPSHOT_FILE).read_bytes() == base_bytes
        monitor.close()


class TestCreateValidation:
    def test_bad_weights_fail_before_directory_exists(self, tmp_path):
        with pytest.raises(ValueError, match="shape"):
            DurableMonitor.create(
                tmp_path, "bad", networks=NETWORKS, weights=[1.0, 2.0]
            )
        assert not (tmp_path / "bad").exists()

    def test_negative_weights_fail_before_directory_exists(self, tmp_path):
        with pytest.raises(ValueError, match="non-negative"):
            DurableMonitor.create(
                tmp_path, "bad", networks=NETWORKS, weights=[-1.0] * len(NETWORKS)
            )
        assert not (tmp_path / "bad").exists()

    def test_bad_threshold_fails_before_directory_exists(self, tmp_path):
        with pytest.raises(ValueError):
            DurableMonitor.create(
                tmp_path, "bad", networks=NETWORKS, event_threshold=3.0
            )
        assert not (tmp_path / "bad").exists()

    def test_good_weights_round_trip(self, tmp_path):
        weights = [2.0, 1.0, 1.0, 0.5, 3.0]
        monitor = DurableMonitor.create(
            tmp_path, "m", networks=NETWORKS, weights=weights
        )
        monitor.ingest_batch(make_rounds(10))
        monitor.close()
        reopened = DurableMonitor.open(tmp_path, "m")
        assert list(reopened.tracker.weights) == weights
        assert reopened.tracker.to_state() == monitor.tracker.to_state()
        reopened.close()

    def test_duplicate_name_still_rejected(self, tmp_path):
        DurableMonitor.create(tmp_path, "m", networks=NETWORKS).close()
        with pytest.raises(MonitorError, match="exists"):
            DurableMonitor.create(tmp_path, "m", networks=NETWORKS)


class TestDescribeCounters:
    def test_describe_matches_rescan(self, tmp_path):
        monitor = DurableMonitor.create(tmp_path, "m", networks=NETWORKS)
        monitor.ingest_batch(make_rounds(50))
        description = monitor.describe()
        assert description["events"] == len(monitor.tracker.events())
        assert description["recurrences"] == len(monitor.tracker.recurrences())
        assert description["rounds"] == 50
        monitor.close()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        directory, _ = scripted_monitor(Path(scratch))
        JOURNAL_V2_GOLDEN.write_bytes((directory / JOURNAL_FILE).read_bytes())
    print(f"wrote {JOURNAL_V2_GOLDEN}")
