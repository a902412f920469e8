"""Ingest dedup: reference records must be invisible to replay.

The contract under test (docs/serving.md, docs/vps.md): a monitor with
dedup on journals recurring identical rounds as compact reference
records, and a reader expands them so that recovery is *byte-for-byte*
identical — same tracker state document — to an undeduplicated
monitor fed the same stream. Properties:

* arbitrary recurring/novel interleavings replay equal to the
  non-dedup oracle (Hypothesis);
* refs never cross a journal reset (checkpoint/snapshot) and the mode
  survives reopen;
* toggling mid-stream is safe at any point;
* a SIGKILL mid-dedup-ingest recovers to the uninterrupted oracle on
  the acked prefix (dedup-mode);
* the ``vps``/``dedup`` wire commands create plan-backed monitors and
  report/toggle dedup.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.online import OnlineFenrir
from repro.serve import ServeClient, ServeClientError, ServeConfig
from repro.serve import journal as journal_module
from repro.serve.journal import JOURNAL_FILE, read_journal, ref_record_line
from repro.serve.monitor import OPTIONS_FILE, DurableMonitor
from repro.vps import VPPlan

from test_serve_server import ServerThread, connect

T0 = datetime(2025, 1, 1)
REPO_ROOT = Path(__file__).resolve().parent.parent
NETWORKS = ["n1", "n2", "n3"]
SITES = ["LAX", "AMS", "FRA"]


def rounds_from_choices(choices: list[int]) -> list[tuple[dict, datetime]]:
    """A stream where equal consecutive choices are recurring rounds."""
    return [
        (
            {network: SITES[(choice + i) % len(SITES)] for i, network in enumerate(NETWORKS)},
            T0 + timedelta(hours=index),
        )
        for index, choice in enumerate(choices)
    ]


def state_json(directory: Path, name: str) -> str:
    """Canonical tracker state after a fresh replay from disk."""
    monitor = DurableMonitor.open(directory, name)
    try:
        return json.dumps(monitor.tracker.to_state(), sort_keys=True)
    finally:
        monitor.close()


class TestReplayEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        choices=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=40),
        batched=st.booleans(),
    )
    def test_dedup_replay_matches_non_dedup_oracle(self, tmp_path_factory, choices, batched):
        tmp_path = tmp_path_factory.mktemp("dedup")
        stream = rounds_from_choices(choices)
        plain = DurableMonitor.create(tmp_path, "plain", NETWORKS)
        deduped = DurableMonitor.create(tmp_path, "deduped", NETWORKS, dedup=True)
        for monitor in (plain, deduped):
            if batched:
                result = monitor.ingest_batch(stream)
                assert result.error_index is None
            else:
                for states, when in stream:
                    monitor.ingest(states, when)
            monitor.close()

        assert state_json(tmp_path, "plain") == state_json(tmp_path, "deduped")

        # Dedup fired exactly on the recurring rounds, and the journal
        # reader expanded every ref to the full record it names.
        recurring = sum(1 for a, b in zip(choices, choices[1:]) if a == b)
        journal = (tmp_path / "deduped" / JOURNAL_FILE).read_text()
        refs = sum(1 for line in journal.splitlines() if '"ref":' in line)
        assert refs == recurring
        records, tail = read_journal(tmp_path / "deduped" / JOURNAL_FILE)
        assert tail is None
        # Version 2 records carry each round as its labels in network order.
        sent = [[states[network] for network in NETWORKS] for states, _ in stream]
        assert [r.labels for r in records] == sent

    def test_refs_shrink_the_journal(self, tmp_path):
        stream = rounds_from_choices([0] * 50)
        plain = DurableMonitor.create(tmp_path, "plain", NETWORKS)
        deduped = DurableMonitor.create(tmp_path, "deduped", NETWORKS, dedup=True)
        for monitor in (plain, deduped):
            for states, when in stream:
                monitor.ingest(states, when)
            saved = monitor.dedup_stats()["bytes_saved"]
            monitor.close()
        plain_bytes = (tmp_path / "plain" / JOURNAL_FILE).stat().st_size
        dedup_bytes = (tmp_path / "deduped" / JOURNAL_FILE).stat().st_size
        assert dedup_bytes < plain_bytes
        # bytes_saved is exact, not an estimate.
        assert plain_bytes - dedup_bytes == saved


class TestJournalResets:
    def feed(self, monitor: DurableMonitor, count: int, start: int = 0) -> None:
        for index in range(start, start + count):
            monitor.ingest({n: "LAX" for n in NETWORKS}, T0 + timedelta(hours=index))

    def test_first_record_after_checkpoint_is_full(self, tmp_path):
        monitor = DurableMonitor.create(tmp_path, "svc", NETWORKS, dedup=True)
        self.feed(monitor, 5)
        monitor.checkpoint()
        self.feed(monitor, 3, start=5)
        lines = (tmp_path / "svc" / JOURNAL_FILE).read_text().splitlines()
        # Post-checkpoint journal: one full record, then refs again.
        assert '"ref":' not in lines[0]
        assert all('"ref":' in line for line in lines[1:])
        monitor.close()
        reopened = DurableMonitor.open(tmp_path, "svc")
        assert len(reopened.tracker.updates) == 8
        reopened.close()

    def test_mode_persists_across_reopen_and_first_round_is_full(self, tmp_path):
        monitor = DurableMonitor.create(tmp_path, "svc", NETWORKS, dedup=True)
        self.feed(monitor, 3)
        monitor.close()
        reopened = DurableMonitor.open(tmp_path, "svc")
        assert reopened.dedup
        # No cross-process memory of the journal tail: the first round
        # after reopen is journaled in full even though it recurs.
        before = (tmp_path / "svc" / JOURNAL_FILE).read_text().count('"ref":')
        self.feed(reopened, 2, start=3)
        lines = (tmp_path / "svc" / JOURNAL_FILE).read_text().splitlines()
        assert '"ref":' not in lines[3]
        assert '"ref":' in lines[4]
        assert lines[3] and before == 2
        reopened.close()

    def test_toggle_mid_stream_replays_equal(self, tmp_path):
        stream = rounds_from_choices([0, 0, 1, 1, 1, 0, 0, 2, 2, 2])
        oracle = OnlineFenrir(networks=NETWORKS)
        for states, when in stream:
            oracle.ingest(states, when)

        monitor = DurableMonitor.create(tmp_path, "svc", NETWORKS)
        for index, (states, when) in enumerate(stream):
            if index == 3:
                monitor.set_dedup(True)
            if index == 7:
                monitor.set_dedup(False)
            monitor.ingest(states, when)
        monitor.close()
        replayed = DurableMonitor.open(tmp_path, "svc")
        assert json.dumps(replayed.tracker.to_state(), sort_keys=True) == json.dumps(
            oracle.to_state(), sort_keys=True
        )
        replayed.close()

    def test_options_file_round_trips_and_tolerates_corruption(self, tmp_path):
        DurableMonitor.create(tmp_path, "svc", NETWORKS, dedup=True).close()
        assert (tmp_path / "svc" / OPTIONS_FILE).exists()
        reopened = DurableMonitor.open(tmp_path, "svc")
        assert reopened.dedup
        reopened.close()
        (tmp_path / "svc" / OPTIONS_FILE).write_text("{corrupt")
        degraded = DurableMonitor.open(tmp_path, "svc")
        assert not degraded.dedup  # corrupt options degrade to off
        degraded.close()

    def test_dangling_ref_is_detected(self, tmp_path):
        monitor = DurableMonitor.create(tmp_path, "svc", NETWORKS, dedup=True)
        self.feed(monitor, 2)
        monitor.close()
        path = tmp_path / "svc" / JOURNAL_FILE
        lines = path.read_text().splitlines()
        # A ref whose target full record is gone must not resolve:
        # valid-prefix recovery drops the tail at that line.
        path.write_text(lines[1] + "\n")
        records, tail = read_journal(path)
        assert records == []
        assert tail is not None and "dangling dedup reference" in tail.reason

    def test_ref_record_line_is_crc_checked(self):
        line = ref_record_line(7, T0, ref=6)
        document = json.loads(line)
        assert document["ref"] == 6 and document["seq"] == 7
        assert len(document["crc"]) == 8

    def test_refs_are_checked_on_their_raw_bytes(self, tmp_path, monkeypatch):
        monitor = DurableMonitor.create(tmp_path, "svc", NETWORKS, dedup=True)
        self.feed(monitor, 6)
        monitor.close()

        def refuse(*args, **kwargs):
            raise AssertionError("replay of a ref line re-encoded JSON")

        monkeypatch.setattr(journal_module, "_canonical", refuse)
        path = tmp_path / "svc" / JOURNAL_FILE
        records, tail = read_journal(path)
        assert tail is None and [r.seq for r in records] == [1, 2, 3, 4, 5, 6]
        lines = path.read_bytes().splitlines(keepends=True)
        assert lines[-1].startswith(b'{"ref":')
        lines[-1] = lines[-1].replace(b'"seq":6', b'"seq":7')
        path.write_bytes(b"".join(lines))
        records, tail = read_journal(path)
        assert len(records) == 5 and "crc mismatch" in tail.reason


class TestWireCommands:
    def plan_document(self) -> dict:
        plan = VPPlan(
            kept=("n1", "n3"),
            weights={"n1": 2.0, "n3": 1.0},
            total_networks=3,
            provenance={"series_sha256": "0" * 64},
        )
        return plan.to_document()

    def test_vps_creates_plan_backed_monitor(self, tmp_path):
        config = ServeConfig(data_dir=tmp_path / "data", port=0)
        with ServerThread(config) as server, connect(server) as client:
            created = client.vps("svc", plan=self.plan_document())
            assert created["kept"] == 2
            assert created["total_networks"] == 3
            assert created["dedup"] is True

            summary = client.vps("svc")
            assert summary["plan"]["kept"] == 2
            assert summary["dedup"]["mode"] == "on"
            assert summary["plan"]["provenance"]["series_sha256"] == "0" * 64

            # Ingest over the kept VPs only; recurring rounds dedup.
            for hour in range(4):
                client.ingest("svc", {"n1": "LAX", "n3": "AMS"}, T0 + timedelta(hours=hour))
            stats = client.dedup("svc")
            assert stats["mode"] == "on"
            assert stats["deduped_records"] == 3

            toggled = client.dedup("svc", mode="off")
            assert toggled["mode"] == "off"
            with pytest.raises(ServeClientError) as exc_info:
                client.dedup("svc", mode="sideways")
            assert exc_info.value.code == "bad_request"

    def test_vps_rejects_bad_plans(self, tmp_path):
        config = ServeConfig(data_dir=tmp_path / "data", port=0)
        with ServerThread(config) as server, connect(server) as client:
            with pytest.raises(ServeClientError) as exc_info:
                client.vps("svc", plan={"type": "not-a-plan"})
            assert exc_info.value.code == "bad_request"
            with pytest.raises(ServeClientError) as exc_info:
                client.vps("missing")
            assert exc_info.value.code == "no_such_monitor"


def serve_subprocess(data_dir: Path, snapshot_every: int = 0) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--data-dir",
            str(data_dir),
            "--snapshot-every",
            str(snapshot_every),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
    )


class TestKillMidDedupIngest:
    """SIGKILL while dedup refs are being written, then exact recovery."""

    def rounds(self, count: int = 200):
        # Long recurring runs punctuated by real changes: most records
        # in the journal are refs when the kill lands.
        for index in range(count):
            site = SITES[(index // 23) % len(SITES)]
            yield {n: site for n in NETWORKS}, T0 + timedelta(hours=index)

    def test_sigkill_mid_dedup_matches_oracle(self, tmp_path):
        data_dir = tmp_path / "data"
        process = serve_subprocess(data_dir, snapshot_every=60)
        try:
            line = process.stdout.readline().decode()
            assert line.startswith("listening on "), f"unexpected readiness: {line!r}"
            host, _, port = line.split()[-1].rpartition(":")
            port = int(port)
            acked = []
            with ServeClient(host=host, port=port) as client:
                client.request("create", monitor="svc", networks=NETWORKS, dedup=True)
                for index, (states, when) in enumerate(self.rounds()):
                    if index == 120:
                        process.send_signal(signal.SIGKILL)
                        process.wait(timeout=10)
                    try:
                        client.ingest("svc", states, when)
                    except (ConnectionError, OSError, ValueError):
                        break
                    acked.append((states, when))
        finally:
            if process.poll() is None:
                process.kill()
            process.wait(timeout=10)
            process.stdout.close()

        assert len(acked) >= 100, "kill landed before enough rounds were acked"

        oracle = OnlineFenrir(networks=NETWORKS)
        for states, when in acked:
            oracle.ingest(states, when)

        restarted = serve_subprocess(data_dir)
        try:
            line = restarted.stdout.readline().decode()
            host, _, port = line.split()[-1].rpartition(":")
            with ServeClient(host=host, port=int(port)) as client:
                summary = client.query("svc")
                timeline = client.timeline("svc")["segments"]
                stats = client.dedup("svc")
        finally:
            restarted.send_signal(signal.SIGTERM)
            try:
                restarted.wait(timeout=10)
            except subprocess.TimeoutExpired:
                restarted.kill()
                restarted.wait(timeout=10)
            restarted.stdout.close()

        assert stats["mode"] == "on"  # dedup mode survived the crash
        assert summary["rounds"] >= len(acked)
        extra = summary["rounds"] - len(acked)
        if extra:
            for states, when in list(self.rounds())[len(acked) : len(acked) + extra]:
                oracle.ingest(states, when)
        expected = [
            {"mode_id": mode_id, "start": start.isoformat(), "end": end.isoformat()}
            for mode_id, start, end in oracle.mode_timeline()
        ]
        assert timeline == expected
