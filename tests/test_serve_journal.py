"""Journal, snapshot, and JSONL-recovery durability tests."""

from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import shutil
import stat
from datetime import datetime, timedelta
from pathlib import Path

import pytest

from repro.core.online import OnlineFenrir
from repro.io.formats import (
    read_series_jsonl,
    recover_series_jsonl,
    write_series_jsonl,
)
from repro.serve import journal as journal_module
from repro.serve.journal import (
    JOURNAL_FILE,
    JournalError,
    JournalRecord,
    JournalWriter,
    read_journal,
    read_snapshot,
    write_snapshot,
)
from repro.serve.monitor import DurableMonitor, MonitorError

T0 = datetime(2025, 1, 1)
GOLDEN = Path(__file__).parent / "golden"


def record(seq: int, site: str = "LAX") -> JournalRecord:
    return JournalRecord(
        seq=seq, time=T0 + timedelta(hours=seq), states={"n1": site}
    )


class TestJournal:
    def test_append_and_replay(self, tmp_path):
        path = tmp_path / JOURNAL_FILE
        writer = JournalWriter(path)
        for seq in range(1, 6):
            writer.append(record(seq))
        writer.close()
        records, tail = read_journal(path)
        assert [r.seq for r in records] == [1, 2, 3, 4, 5]
        assert tail is None
        assert records[0].states == {"n1": "LAX"}

    def test_truncated_final_line_dropped(self, tmp_path):
        path = tmp_path / JOURNAL_FILE
        writer = JournalWriter(path)
        for seq in (1, 2, 3):
            writer.append(record(seq))
        writer.close()
        full = path.read_text()
        path.write_text(full[: len(full) - 17])  # kill mid final record
        records, tail = read_journal(path)
        assert [r.seq for r in records] == [1, 2]
        assert tail is not None
        assert tail.dropped_lines == 1

    def test_corrupt_crc_stops_replay(self, tmp_path):
        path = tmp_path / JOURNAL_FILE
        writer = JournalWriter(path)
        for seq in (1, 2, 3):
            writer.append(record(seq))
        writer.close()
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("LAX", "AMS")  # payload no longer matches crc
        path.write_text("\n".join(lines) + "\n")
        records, tail = read_journal(path)
        assert [r.seq for r in records] == [1]
        assert tail is not None
        assert tail.first_bad_line == 2
        assert tail.dropped_lines == 2  # the bad line and everything after
        assert "crc" in tail.reason

    def test_sequence_gap_stops_replay(self, tmp_path):
        path = tmp_path / JOURNAL_FILE
        writer = JournalWriter(path)
        writer.append(record(1))
        writer.append(record(3))  # 2 went missing
        writer.close()
        records, tail = read_journal(path)
        assert [r.seq for r in records] == [1]
        assert "gap" in tail.reason

    def test_after_seq_skips_snapshotted_prefix(self, tmp_path):
        path = tmp_path / JOURNAL_FILE
        writer = JournalWriter(path)
        for seq in range(1, 6):
            writer.append(record(seq))
        writer.close()
        records, tail = read_journal(path, after_seq=3)
        assert [r.seq for r in records] == [4, 5]
        assert tail is None

    def test_missing_journal_is_empty(self, tmp_path):
        records, tail = read_journal(tmp_path / "absent.jsonl")
        assert records == [] and tail is None

    def test_garbage_line_reported(self, tmp_path):
        path = tmp_path / JOURNAL_FILE
        writer = JournalWriter(path)
        writer.append(record(1))
        writer.close()
        with path.open("a") as stream:
            stream.write("}}}} not json\n")
        records, tail = read_journal(path)
        assert [r.seq for r in records] == [1]
        assert tail is not None and tail.first_bad_line == 2

    def test_failed_reset_keeps_the_journal_appendable(self, tmp_path, monkeypatch):
        path = tmp_path / JOURNAL_FILE
        writer = JournalWriter(path)
        writer.append(record(1))

        def refuse(source, target):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            writer.reset()
        monkeypatch.undo()
        writer.append(record(2))  # the old journal and stream stay live
        assert [r.seq for r in read_journal(path)[0]] == [1, 2]
        writer.reset()
        writer.append(record(3))
        writer.close()
        assert [r.seq for r in read_journal(path, after_seq=2)[0]] == [3]
        assert path.read_text().count("\n") == 1


def write_legacy_snapshot(directory: Path, seq: int, state: dict) -> None:
    """A base as the writer before the CRC format left it: canonical
    JSON with no ``crc``, and its sha256 in ``MANIFEST.json``."""
    document = {"type": "fenrir-snapshot", "seq": seq, "state": state}
    body = json.dumps(document, sort_keys=True, separators=(",", ":"))
    (directory / "snapshot.json").write_text(body + "\n")
    sha256 = hashlib.sha256(body.encode("utf-8")).hexdigest()
    manifest = {"files": {"snapshot.json": sha256}, "seq": seq}
    (directory / "MANIFEST.json").write_text(json.dumps(manifest, indent=2) + "\n")


def one_round_state() -> dict:
    tracker = OnlineFenrir(networks=["a", "b"])
    tracker.ingest({"a": "X", "b": "Y"}, T0)
    return tracker.to_state()


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        tracker = OnlineFenrir(networks=["a", "b"])
        tracker.ingest({"a": "X", "b": "Y"}, T0)
        write_snapshot(tmp_path, 7, tracker.to_state())
        seq, state = read_snapshot(tmp_path)
        assert seq == 7
        restored = OnlineFenrir.from_state(state)
        assert restored.num_modes == 1

    def test_base_is_canonical_with_the_crc_spliced_last(self, tmp_path):
        """One file, in the delta segment's format: no manifest."""
        write_snapshot(tmp_path, 7, one_round_state())
        assert sorted(path.name for path in tmp_path.iterdir()) == ["snapshot.json"]
        line = (tmp_path / "snapshot.json").read_text(encoding="utf-8")
        assert line.endswith("}\n") and line.count("\n") == 1
        document = json.loads(line)
        assert list(document)[-1] == "crc"
        body = {key: value for key, value in document.items() if key != "crc"}
        assert body == {"seq": 7, "state": one_round_state(), "type": "fenrir-snapshot"}
        assert line[:-1] == journal_module._splice_crc(journal_module._canonical(body))

    def test_tampered_snapshot_detected(self, tmp_path):
        tracker = OnlineFenrir(networks=["a"])
        write_snapshot(tmp_path, 0, tracker.to_state())
        snapshot = tmp_path / "snapshot.json"
        snapshot.write_text(snapshot.read_text().replace('"a"', '"b"', 1))
        with pytest.raises(JournalError, match="corrupt snapshot"):
            read_snapshot(tmp_path)

    def test_cut_base_raises(self, tmp_path):
        write_snapshot(tmp_path, 7, one_round_state())
        snapshot = tmp_path / "snapshot.json"
        data = snapshot.read_bytes()
        # Every cut short of the trailing newline loses document bytes.
        offsets = [*range(0, len(data) - 1, 13), len(data) - 2]
        for offset in offsets:
            snapshot.write_bytes(data[:offset])
            with pytest.raises(JournalError):
                read_snapshot(tmp_path)

    def test_flipped_byte_raises(self, tmp_path):
        write_snapshot(tmp_path, 7, one_round_state())
        snapshot = tmp_path / "snapshot.json"
        data = snapshot.read_bytes()
        for offset in [*range(0, len(data), 5), len(data) - 1]:
            flipped = bytearray(data)
            flipped[offset] ^= 0x01
            snapshot.write_bytes(bytes(flipped))
            with pytest.raises(JournalError):
                read_snapshot(tmp_path)

    def test_missing_snapshot_raises(self, tmp_path):
        with pytest.raises(JournalError, match="no snapshot"):
            read_snapshot(tmp_path)

    def test_stale_manifest_from_interrupted_checkpoint(self, tmp_path):
        """A legacy base: the old writer replaced the snapshot, then the
        manifest, so a crash between them left a manifest for an older seq."""
        tracker = OnlineFenrir(networks=["a"])
        write_legacy_snapshot(tmp_path, 1, tracker.to_state())
        stale_manifest = (tmp_path / "MANIFEST.json").read_text()
        tracker.ingest({"a": "X"}, T0)
        write_legacy_snapshot(tmp_path, 2, tracker.to_state())
        (tmp_path / "MANIFEST.json").write_text(stale_manifest)
        seq, state = read_snapshot(tmp_path)
        assert seq == 2
        assert OnlineFenrir.from_state(state).last_time == T0

    def test_unreadable_manifest_raises(self, tmp_path):
        tracker = OnlineFenrir(networks=["a"])
        write_legacy_snapshot(tmp_path, 0, tracker.to_state())
        (tmp_path / "MANIFEST.json").write_text("{ not json")
        with pytest.raises(JournalError, match="manifest"):
            read_snapshot(tmp_path)

    def test_tampered_legacy_snapshot_detected(self, tmp_path):
        tracker = OnlineFenrir(networks=["a"])
        write_legacy_snapshot(tmp_path, 0, tracker.to_state())
        snapshot = tmp_path / "snapshot.json"
        snapshot.write_text(snapshot.read_text().replace('"a"', '"b"', 1))
        with pytest.raises(JournalError, match="checksum"):
            read_snapshot(tmp_path)

    def test_manifest_never_vouches_for_a_base_with_a_crc(self, tmp_path):
        """A same-seq manifest beside a damaged current base changes nothing."""
        write_snapshot(tmp_path, 7, one_round_state())
        snapshot = tmp_path / "snapshot.json"
        damaged = snapshot.read_bytes().replace(b'"crc"', b'"crd"')
        snapshot.write_bytes(damaged)
        body = damaged.rstrip(b"\n")
        sha256 = hashlib.sha256(body).hexdigest()
        manifest = {"files": {"snapshot.json": sha256}, "seq": 7}
        (tmp_path / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(JournalError, match="corrupt snapshot"):
            read_snapshot(tmp_path)


class TestLegacyMonitor:
    """A monitor directory recorded by the writer before the CRC base
    format, ``tests/golden/legacy_monitor/svc``: a base with its
    ``MANIFEST.json``, two delta segments, and a dedup journal tail of
    version 2 and ``ref`` lines. ``tests/golden/legacy_monitor.jsonl``
    holds what that writer's reader answered for it: ``describe()``
    (sorted keys), then ``to_state()``. Both are frozen; never
    regenerate them."""

    def copy(self, tmp_path) -> Path:
        shutil.copytree(GOLDEN / "legacy_monitor", tmp_path / "data")
        return tmp_path / "data"

    def answers(self, monitor: DurableMonitor) -> str:
        return (
            json.dumps(monitor.describe(), sort_keys=True)
            + "\n"
            + json.dumps(monitor.tracker.to_state())
            + "\n"
        )

    def test_fixture_holds_every_legacy_file(self):
        directory = GOLDEN / "legacy_monitor" / "svc"
        names = sorted(path.name for path in directory.iterdir())
        assert names == [
            "MANIFEST.json",
            "delta-000000000009.json",
            "delta-000000000013.json",
            JOURNAL_FILE,
            "options.json",
            "snapshot.json",
        ]
        journal = (directory / JOURNAL_FILE).read_bytes().splitlines()
        assert journal[0].startswith(b'{"v":2,') and journal[-1].startswith(b'{"ref":')

    def test_the_legacy_writer_oracle_matches_the_fixture(self, tmp_path):
        directory = GOLDEN / "legacy_monitor" / "svc"
        document = json.loads((directory / "snapshot.json").read_text())
        write_legacy_snapshot(tmp_path, document["seq"], document["state"])
        for name in ("snapshot.json", "MANIFEST.json"):
            assert (tmp_path / name).read_bytes() == (directory / name).read_bytes()

    def test_opens_to_the_recorded_answers(self, tmp_path):
        data_dir = self.copy(tmp_path)
        monitor = DurableMonitor.open(data_dir, "svc")
        assert monitor.replay.snapshot_seq == 13
        assert monitor.replay.replayed_records == 3
        assert self.answers(monitor) == (GOLDEN / "legacy_monitor.jsonl").read_text()
        monitor.close()

    def test_stale_manifest_copy_opens_to_the_recorded_answers(self, tmp_path):
        data_dir = self.copy(tmp_path)
        stale = {"files": {"snapshot.json": "0" * 64}, "seq": 4}
        (data_dir / "svc" / "MANIFEST.json").write_text(json.dumps(stale, indent=2))
        monitor = DurableMonitor.open(data_dir, "svc")
        assert self.answers(monitor) == (GOLDEN / "legacy_monitor.jsonl").read_text()
        monitor.close()

    def test_tampered_legacy_base_raises(self, tmp_path):
        data_dir = self.copy(tmp_path)
        snapshot = data_dir / "svc" / "snapshot.json"
        snapshot.write_bytes(snapshot.read_bytes().replace(b'"LAX"', b'"LAY"', 1))
        with pytest.raises(JournalError, match="checksum"):
            DurableMonitor.open(data_dir, "svc")

    def test_tampered_copy_without_its_manifest_raises(self, tmp_path):
        data_dir = self.copy(tmp_path)
        directory = data_dir / "svc"
        (directory / "MANIFEST.json").unlink()
        snapshot = directory / "snapshot.json"
        tampered = snapshot.read_bytes().replace(b"[3,4,5,3,4]", b"[3,4,5,3,3]", 1)
        assert tampered != snapshot.read_bytes()
        snapshot.write_bytes(tampered)
        with pytest.raises(JournalError, match="without its manifest"):
            DurableMonitor.open(data_dir, "svc")

    def test_empty_first_base_without_its_manifest_opens(self, tmp_path):
        # What the old writer left after a crash between its two
        # replaces in ``create``: the empty seq-0 base and no manifest.
        networks = ["n0", "n1"]
        monitor = DurableMonitor.create(tmp_path, "svc", networks=networks)
        monitor.close()
        directory = tmp_path / "svc"
        empty = OnlineFenrir(networks=networks).to_state()
        write_legacy_snapshot(directory, 0, empty)
        (directory / "MANIFEST.json").unlink()
        reopened = DurableMonitor.open(tmp_path, "svc")
        assert reopened.tracker.to_state() == empty
        reopened.close()

    def test_first_base_write_removes_the_manifest(self, tmp_path):
        data_dir = self.copy(tmp_path)
        monitor = DurableMonitor.open(data_dir, "svc")
        live = self.answers(monitor)
        monitor.snapshot()
        monitor.close()
        directory = data_dir / "svc"
        assert not (directory / "MANIFEST.json").exists()
        assert not list(directory.glob("delta-*.json"))
        base = (directory / "snapshot.json").read_text()
        assert base.endswith('"}\n') and base[-19:-11] == ',"crc":"'
        reopened = DurableMonitor.open(data_dir, "svc")
        assert self.answers(reopened) == live
        reopened.close()


class TestDurableMonitor:
    def feed(self, monitor: DurableMonitor, sites, start=0):
        for index, site in enumerate(sites, start=start):
            monitor.ingest({"n1": site, "n2": site}, T0 + timedelta(hours=index))

    def test_create_open_round_trip(self, tmp_path):
        monitor = DurableMonitor.create(tmp_path, "svc", ["n1", "n2"])
        self.feed(monitor, ["LAX", "LAX", "AMS", "LAX"])
        monitor.close()
        reopened = DurableMonitor.open(tmp_path, "svc")
        assert reopened.seq == 4
        assert reopened.replay.replayed_records == 4
        assert reopened.tracker.num_modes == 2
        oracle = OnlineFenrir(networks=["n1", "n2"])
        for index, site in enumerate(["LAX", "LAX", "AMS", "LAX"]):
            oracle.ingest({"n1": site, "n2": site}, T0 + timedelta(hours=index))
        assert reopened.tracker.mode_timeline() == oracle.mode_timeline()
        reopened.close()

    def test_snapshot_then_journal_replay(self, tmp_path):
        monitor = DurableMonitor.create(tmp_path, "svc", ["n1", "n2"])
        self.feed(monitor, ["LAX", "LAX"])
        monitor.snapshot()
        self.feed(monitor, ["AMS", "AMS"], start=2)
        monitor.close()
        reopened = DurableMonitor.open(tmp_path, "svc")
        assert reopened.replay.snapshot_seq == 2
        assert reopened.replay.replayed_records == 2
        assert len(reopened.tracker.updates) == 4
        reopened.close()

    def test_auto_snapshot_every(self, tmp_path):
        monitor = DurableMonitor.create(
            tmp_path, "svc", ["n1", "n2"], snapshot_every=2
        )
        self.feed(monitor, ["LAX", "LAX", "AMS"])
        monitor.close()
        reopened = DurableMonitor.open(tmp_path, "svc")
        assert reopened.replay.snapshot_seq == 2
        assert reopened.replay.replayed_records == 1
        reopened.close()

    def test_compaction_leftover_segments_are_skipped(self, tmp_path):
        monitor = DurableMonitor.create(
            tmp_path, "svc", ["n1", "n2"], snapshot_every=2
        )
        self.feed(monitor, ["LAX", "LAX", "AMS", "FRA"])
        segments = {
            path.name: path.read_bytes()
            for path in (tmp_path / "svc").glob("delta-*.json")
        }
        monitor.snapshot()
        self.feed(monitor, ["NRT"], start=4)
        expected = monitor.tracker.to_state()
        monitor.close()
        # A crash between the base rewrite and the discard leaves the old
        # segments behind; their seqs are at or below the base's.
        for name, body in segments.items():
            (tmp_path / "svc" / name).write_bytes(body)
        reopened = DurableMonitor.open(tmp_path, "svc")
        assert reopened.replay.snapshot_seq == 4
        assert reopened.tracker.to_state() == expected
        reopened.close()

    def test_broken_delta_chain_raises(self, tmp_path):
        monitor = DurableMonitor.create(
            tmp_path, "svc", ["n1", "n2"], snapshot_every=2
        )
        self.feed(monitor, ["LAX", "LAX", "AMS", "FRA", "LAX", "AMS"])
        monitor.close()
        segments = sorted((tmp_path / "svc").glob("delta-*.json"))
        segments[1].unlink()  # the third segment now chains across a gap
        with pytest.raises(JournalError, match="delta segment chain broken"):
            DurableMonitor.open(tmp_path, "svc")

    def test_keys_outside_the_networks_replay_unchanged(self, tmp_path):
        """Keys a monitor was not created with are dropped before the journal."""
        rounds = [
            {"n1": "LAX", "n2": "LAX", "x9": "AMS"},
            {"n1": "LAX", "n2": "LAX", "x9": "OUTSIDE"},
            {"n1": "AMS", "x9": "LAX", "zz": "FRA"},
            {"n1": "AMS", "n2": "AMS"},
            {"n1": "LAX", "n2": "LAX", "zz": "OUTSIDE"},
            {"n1": "FRA", "n2": "FRA", "x9": "FRA"},
            {"n1": "LAX", "n2": "LAX", "x9": "AMS"},
        ]

        def answers(monitor: DurableMonitor) -> str:
            """The ``query`` and ``timeline`` documents, as bytes."""
            timeline = [
                {"mode_id": mode, "start": start.isoformat(), "end": end.isoformat()}
                for mode, start, end in monitor.tracker.mode_timeline()
            ]
            return json.dumps([monitor.describe(), timeline], sort_keys=True)

        def feed(directory, keep_outside: bool) -> DurableMonitor:
            monitor = DurableMonitor.create(
                directory, "svc", ["n1", "n2"], snapshot_every=3
            )
            for index, states in enumerate(rounds):
                if not keep_outside:
                    states = {k: v for k, v in states.items() if k in ("n1", "n2")}
                monitor.ingest(states, T0 + timedelta(hours=index))
            return monitor

        monitor = feed(tmp_path / "outside", keep_outside=True)
        oracle = feed(tmp_path / "inside", keep_outside=False)
        live = answers(monitor)
        assert live == answers(oracle)
        assert "OUTSIDE" not in monitor.tracker.catalog.labels
        monitor.close()
        oracle.close()
        journal = (tmp_path / "outside" / "svc" / JOURNAL_FILE).read_text()
        inside = (tmp_path / "inside" / "svc" / JOURNAL_FILE).read_text()
        assert journal == inside  # the positional lines hold no outside key
        assert "x9" not in journal
        reopened = DurableMonitor.open(tmp_path / "outside", "svc")
        assert reopened.replay.replayed_records == 1
        assert answers(reopened) == live
        reopened.close()

    @pytest.mark.parametrize(
        "states",
        [
            {"n1": "LAX", "n2": "LAX", "x9": 5},
            {"n1": "LAX", "x9": ["AMS"]},  # as many keys as networks
            {"n1": "LAX", "n2": "LAX", 7: "AMS"},
            {"n1": "unknown", "n2": "LAX", "x9": None},
        ],
    )
    def test_non_string_outside_keys_still_rejected(self, tmp_path, states):
        monitor = DurableMonitor.create(tmp_path, "svc", ["n1", "n2"])
        with pytest.raises(MonitorError, match="state labels"):
            monitor.ingest(states, T0)
        monitor.ingest({"n1": "unknown", "n2": "LAX", "x9": "AMS"}, T0)
        assert monitor.seq == 1
        monitor.close()

    def test_truncated_journal_recovers_prefix(self, tmp_path):
        monitor = DurableMonitor.create(tmp_path, "svc", ["n1", "n2"])
        self.feed(monitor, ["LAX", "AMS", "FRA"])
        monitor.close()
        journal = tmp_path / "svc" / JOURNAL_FILE
        text = journal.read_text()
        journal.write_text(text[: len(text) - 25])
        reopened = DurableMonitor.open(tmp_path, "svc")
        assert reopened.seq == 2
        assert reopened.replay.dropped_lines == 1
        # Recovery rewrote the journal; the next ingest continues cleanly.
        reopened.ingest({"n1": "NRT", "n2": "NRT"}, T0 + timedelta(hours=9))
        reopened.close()
        final = DurableMonitor.open(tmp_path, "svc")
        assert final.seq == 3
        assert len(final.tracker.updates) == 3
        final.close()

    def test_duplicate_create_rejected(self, tmp_path):
        DurableMonitor.create(tmp_path, "svc", ["n1"]).close()
        with pytest.raises(MonitorError, match="exists"):
            DurableMonitor.create(tmp_path, "svc", ["n1"])

    @pytest.mark.parametrize("name", ["", "../evil", "a/b", ".hidden", "x" * 80])
    def test_unsafe_names_rejected(self, tmp_path, name):
        with pytest.raises(MonitorError, match="invalid monitor name"):
            DurableMonitor.create(tmp_path, name, ["n1"])

    def test_out_of_order_ingest_not_journaled(self, tmp_path):
        monitor = DurableMonitor.create(tmp_path, "svc", ["n1"])
        monitor.ingest({"n1": "LAX"}, T0)
        with pytest.raises(MonitorError, match="forward in time"):
            monitor.ingest({"n1": "AMS"}, T0)
        monitor.close()
        records, tail = read_journal(tmp_path / "svc" / JOURNAL_FILE)
        assert len(records) == 1 and tail is None

    def test_non_string_states_rejected_before_journal(self, tmp_path):
        monitor = DurableMonitor.create(tmp_path, "svc", ["n1"])
        with pytest.raises(MonitorError, match="state labels"):
            monitor.ingest({"n1": ["LAX", "AMS"]}, T0)
        assert monitor.seq == 0
        # The stream continues cleanly: no seq burned, nothing journaled.
        monitor.ingest({"n1": "LAX"}, T0)
        monitor.close()
        records, tail = read_journal(tmp_path / "svc" / JOURNAL_FILE)
        assert [r.seq for r in records] == [1] and tail is None
        reopened = DurableMonitor.open(tmp_path, "svc")
        assert reopened.seq == 1
        reopened.close()

    def test_unapplyable_record_skipped_on_open(self, tmp_path):
        monitor = DurableMonitor.create(tmp_path, "svc", ["n1"])
        monitor.ingest({"n1": "LAX"}, T0)
        monitor.close()
        # An old server could journal a record the tracker cannot apply
        # (non-string state label raised only inside the apply); recovery
        # must skip-and-report it, not crash open() forever.
        writer = JournalWriter(tmp_path / "svc" / JOURNAL_FILE)
        writer.append(
            JournalRecord(
                seq=2, time=T0 + timedelta(hours=1), states={"n1": ["A", "B"]}
            )
        )
        writer.close()
        reopened = DurableMonitor.open(tmp_path, "svc")
        assert reopened.replay.skipped_records == 1
        assert reopened.replay.replayed_records == 1
        assert len(reopened.tracker.updates) == 1
        assert reopened.seq == 2  # the poison record's seq stays burned
        reopened.ingest({"n1": "AMS"}, T0 + timedelta(hours=2))
        reopened.close()
        final = DurableMonitor.open(tmp_path, "svc")
        assert final.replay.skipped_records == 0
        assert len(final.tracker.updates) == 2
        final.close()


def feed_rounds(monitor: DurableMonitor, count: int) -> None:
    sites = ["LAX", "AMS", "FRA", "LAX", "NRT"]
    for index in range(count):
        site = sites[index % len(sites)]
        monitor.ingest({"n1": site, "n2": "LAX"}, T0 + timedelta(hours=index))


class TestDeltaSegments:
    """Delta segments are checked on their raw bytes, like version 2 lines."""

    def chain(self, tmp_path) -> dict:
        monitor = DurableMonitor.create(tmp_path, "svc", ["n1", "n2"], snapshot_every=4)
        feed_rounds(monitor, 14)  # three segments and two journal lines
        expected = monitor.tracker.to_state()
        monitor.close()
        return expected

    def test_chain_opens_without_reencoding(self, tmp_path, monkeypatch):
        expected = self.chain(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("opening a delta chain re-encoded JSON")

        monkeypatch.setattr(journal_module, "_canonical", refuse)
        reopened = DurableMonitor.open(tmp_path, "svc")
        assert reopened.replay.snapshot_seq == 12
        assert reopened.replay.replayed_records == 2
        assert reopened.tracker.to_state() == expected
        reopened.close()

    @pytest.mark.parametrize("where", ["start", "middle", "crc"])
    def test_flipped_byte_raises(self, tmp_path, where):
        self.chain(tmp_path)
        segment = sorted((tmp_path / "svc").glob("delta-*.json"))[1]
        body = bytearray(segment.read_bytes())
        index = {"start": 2, "middle": len(body) // 2, "crc": len(body) - 5}[where]
        body[index] ^= 0x01
        segment.write_bytes(bytes(body))
        with pytest.raises(JournalError, match="corrupt delta segment"):
            DurableMonitor.open(tmp_path, "svc")

    def test_segment_is_canonical_with_the_crc_spliced_last(self, tmp_path):
        """The writer's bytes satisfy the version 1 checker too: the raw
        check reads exactly what the canonical one would."""
        self.chain(tmp_path)
        for segment in sorted((tmp_path / "svc").glob("delta-*.json")):
            line = segment.read_text(encoding="utf-8").rstrip("\n")
            document = json.loads(line)
            assert list(document)[-1] == "crc"
            body = {key: value for key, value in document.items() if key != "crc"}
            assert line == journal_module._splice_crc(journal_module._canonical(body))
            journal_module._check_crc(document)


def record_durability_calls(monkeypatch, root: Path) -> list[tuple]:
    """Record every ``os.fsync`` and ``os.replace``, in order.

    An fsync is named by the file under ``root`` it was called on (its
    path relative to ``root``); a directory is ``"<dir>"`` for ``root``
    itself and ``"<dir NAME>"`` below it.
    """
    calls: list[tuple] = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(descriptor):
        inode = os.fstat(descriptor).st_ino
        path = next(p for p in (root, *root.rglob("*")) if p.stat().st_ino == inode)
        target = str(path.relative_to(root))
        if stat.S_ISDIR(path.stat().st_mode):
            target = "<dir>" if path == root else f"<dir {target}>"
        calls.append(("fsync", target))
        real_fsync(descriptor)

    def replace(source, destination):
        calls.append(("replace", Path(source).name, Path(destination).name))
        real_replace(source, destination)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return calls


def durable_checkpoint_calls(segment: str, fsync: bool) -> list[tuple]:
    """The calls a checkpoint writing ``segment`` makes, journal reset last."""
    calls = [
        ("fsync", f"{segment}.tmp"),
        ("replace", f"{segment}.tmp", segment),
        ("fsync", "<dir>"),
        ("replace", "journal.tmp", JOURNAL_FILE),
        ("fsync", "<dir>"),
    ]
    return calls if fsync else [call for call in calls if call[0] != "fsync"]


class TestFsyncCheckpoints:
    """With ``fsync``, a checkpoint is on stable storage before the
    journal reset; without it, no checkpoint path fsyncs."""

    @pytest.mark.parametrize("fsync", [True, False], ids=["fsync", "no-fsync"])
    def test_checkpoint(self, tmp_path, monkeypatch, fsync):
        monitor = DurableMonitor.create(tmp_path, "svc", ["n1", "n2"], fsync=fsync)
        feed_rounds(monitor, 3)
        calls = record_durability_calls(monkeypatch, tmp_path / "svc")
        monitor.checkpoint()
        monitor.close()
        assert calls == durable_checkpoint_calls("delta-000000000003.json", fsync)

    @pytest.mark.parametrize("fsync", [True, False], ids=["fsync", "no-fsync"])
    def test_snapshot(self, tmp_path, monkeypatch, fsync):
        monitor = DurableMonitor.create(tmp_path, "svc", ["n1", "n2"], fsync=fsync)
        feed_rounds(monitor, 3)
        calls = record_durability_calls(monkeypatch, tmp_path / "svc")
        monitor.snapshot()
        monitor.close()
        assert calls == durable_checkpoint_calls("snapshot.json", fsync)

    @staticmethod
    def new_base_calls(fsync: bool) -> list[tuple]:
        """A new monitor directory: the data directory's fsync, then the base."""
        calls = [
            ("fsync", "<dir>"),
            ("fsync", "svc/snapshot.json.tmp"),
            ("replace", "snapshot.json.tmp", "snapshot.json"),
            ("fsync", "<dir svc>"),
        ]
        return calls if fsync else [call for call in calls if call[0] != "fsync"]

    @pytest.mark.parametrize("fsync", [True, False], ids=["fsync", "no-fsync"])
    def test_create(self, tmp_path, monkeypatch, fsync):
        calls = record_durability_calls(monkeypatch, tmp_path)
        DurableMonitor.create(tmp_path, "svc", ["n1", "n2"], fsync=fsync).close()
        assert calls == self.new_base_calls(fsync)

    @pytest.mark.parametrize("fsync", [True, False], ids=["fsync", "no-fsync"])
    def test_install(self, tmp_path, monkeypatch, fsync):
        tracker = OnlineFenrir(networks=["n1", "n2"])
        tracker.ingest({"n1": "LAX", "n2": "AMS"}, T0)
        calls = record_durability_calls(monkeypatch, tmp_path)
        state = tracker.to_state()
        DurableMonitor.install(tmp_path, "svc", 1, state, fsync=fsync).close()
        assert calls == self.new_base_calls(fsync)

    def test_checkpoint_without_new_rounds_writes_nothing(self, tmp_path, monkeypatch):
        monitor = DurableMonitor.create(tmp_path, "svc", ["n1", "n2"], fsync=True)
        feed_rounds(monitor, 3)
        monitor.checkpoint()
        segment = tmp_path / "svc" / "delta-000000000003.json"
        written = segment.read_bytes()
        calls = record_durability_calls(monkeypatch, tmp_path / "svc")
        assert monitor.checkpoint() == 3
        monitor.close()
        assert calls == []
        assert segment.read_bytes() == written


class TestSeriesJsonlRecovery:
    def series_text(self) -> str:
        from repro.core.series import VectorSeries
        from repro.core.vector import StateCatalog

        series = VectorSeries(["n1", "n2"], StateCatalog())
        for index, site in enumerate(["LAX", "LAX", "AMS"]):
            series.append_mapping(
                {"n1": site, "n2": "LAX"}, T0 + timedelta(hours=index)
            )
        buffer = io.StringIO()
        write_series_jsonl(series, buffer)
        return buffer.getvalue()

    def test_clean_stream_has_no_dropped_tail(self):
        series, dropped = recover_series_jsonl(io.StringIO(self.series_text()))
        assert len(series) == 3
        assert dropped is None

    def test_truncated_tail_recovered_and_reported(self):
        text = self.series_text()
        truncated = text[: len(text) - 20]  # mid final record
        with pytest.raises(json.JSONDecodeError):
            read_series_jsonl(io.StringIO(truncated))
        series, dropped = recover_series_jsonl(io.StringIO(truncated))
        assert len(series) == 2
        assert dropped is not None
        assert dropped.first_bad_line == 4
        assert dropped.dropped_lines == 1
        assert "dropped 1 line" in str(dropped)

    def test_garbage_mid_file_drops_suffix(self):
        lines = self.series_text().splitlines()
        lines.insert(2, "!!! binary garbage !!!")
        series, dropped = recover_series_jsonl(io.StringIO("\n".join(lines)))
        assert len(series) == 1  # valid prefix only: later lines are suspect
        assert dropped.first_bad_line == 3
        assert dropped.dropped_lines == 3

    def test_errors_recover_mode_returns_prefix(self):
        text = self.series_text()[:-20]
        series = read_series_jsonl(io.StringIO(text), errors="recover")
        assert len(series) == 2

    def test_strict_mode_still_raises(self):
        lines = self.series_text().splitlines()
        lines.append('{"type":"mystery"}')
        with pytest.raises(ValueError, match="unknown line type"):
            read_series_jsonl(io.StringIO("\n".join(lines)))

    def test_bad_errors_argument(self):
        with pytest.raises(ValueError, match="strict"):
            read_series_jsonl(io.StringIO(""), errors="ignore")

    def test_unreadable_header_still_raises(self):
        with pytest.raises(ValueError):
            recover_series_jsonl(io.StringIO("not json at all\n"))

    def test_empty_stream_raises(self):
        with pytest.raises(ValueError, match="no header"):
            recover_series_jsonl(io.StringIO(""))
