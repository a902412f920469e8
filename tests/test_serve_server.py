"""End-to-end tests for the ``repro serve`` server.

Covers the happy path and — per the durability story — the failure
paths: malformed frames, oversized frames, bounded-queue overload,
and kill-mid-write-then-replay, asserting the restored monitor's mode
timeline matches an uninterrupted oracle run.
"""

from __future__ import annotations

import asyncio
import errno
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from datetime import datetime, timedelta
from pathlib import Path

import pytest

from repro.core.online import OnlineFenrir
from repro.serve import (
    BatchRejectedError,
    FenrirServer,
    OverloadedError,
    ServeClient,
    ServeClientError,
    ServeConfig,
)
from repro.serve import monitor as monitor_module
from repro.serve.journal import JournalWriter
from repro.serve.monitor import DurableMonitor
from repro.serve.protocol import recv_frame, send_frame
from repro.serve.ring import HashRing
from repro.serve.router import ClusterState, ShardRouter

T0 = datetime(2025, 1, 1)
REPO_ROOT = Path(__file__).resolve().parent.parent


class ServerThread:
    """A FenrirServer on its own event loop thread, for blocking clients."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.address: tuple[str, int] | None = None
        self.server: FenrirServer | None = None
        #: Exception-handler reports from the loop: an exception no task
        #: retrieved, a failing callback. Any one fails the test at exit.
        self.unhandled: list[dict] = []
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _record(self, loop: asyncio.AbstractEventLoop, context: dict) -> None:
        if not isinstance(context.get("exception"), asyncio.CancelledError):
            self.unhandled.append(context)
        loop.default_exception_handler(context)

    def _run(self) -> None:
        async def main() -> None:
            asyncio.get_running_loop().set_exception_handler(self._record)
            self.server = FenrirServer(self.config)
            await self.server.start()
            self.address = self.server.address
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self._ready.set()
            await self._stop.wait()
            await self.server.stop()

        asyncio.run(main())

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        assert self._ready.wait(timeout=10), "server failed to start"
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._loop is not None and self._stop is not None
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)
        if self.unhandled and exc_info[0] is None:
            reports = [
                f"{context.get('message')}: {context.get('exception')!r}"
                for context in self.unhandled
            ]
            pytest.fail(f"unhandled asyncio errors: {reports}", pytrace=False)


@pytest.fixture
def server(request, tmp_path):
    """A running server; parametrize indirectly to override config fields."""
    overrides = getattr(request, "param", {})
    config = ServeConfig(data_dir=tmp_path / "data", port=0, **overrides)
    with ServerThread(config) as running:
        yield running


def connect(server: ServerThread, **kwargs) -> ServeClient:
    host, port = server.address
    return ServeClient(host=host, port=port, **kwargs)


class TestCommands:
    def test_create_ingest_query_timeline(self, server):
        with connect(server) as client:
            client.create("svc", ["x", "y", "z"])
            first = client.ingest("svc", {"x": "L", "y": "L", "z": "A"}, T0)
            assert first["update"]["mode_id"] == 0
            assert first["update"]["is_new_mode"]
            assert first["seq"] == 1
            second = client.ingest(
                "svc", {"x": "A", "y": "A", "z": "L"}, T0 + timedelta(days=1)
            )
            assert second["update"]["is_event"]
            assert second["update"]["mode_id"] == 1

            summary = client.query("svc")
            assert summary["rounds"] == 2
            assert summary["modes"] == 2
            assert summary["current_mode"] == 1

            match = client.query("svc", states={"x": "L", "y": "L", "z": "A"})
            assert match["match"]["mode_id"] == 0
            assert not match["match"]["would_open_new_mode"]

            timeline = client.timeline("svc")
            assert [seg["mode_id"] for seg in timeline["segments"]] == [0, 1]

    def test_multiplexed_monitors_are_independent(self, server):
        with connect(server) as client:
            client.create("alpha", ["x", "y"])
            client.create("beta", ["p", "q", "r"])
            client.ingest("alpha", {"x": "L", "y": "L"}, T0)
            client.ingest("beta", {"p": "A", "q": "A", "r": "B"}, T0)
            client.ingest("beta", {"p": "B", "q": "B", "r": "A"}, T0 + timedelta(1))
            assert client.query("alpha")["rounds"] == 1
            assert client.query("beta")["rounds"] == 2
            assert sorted(client.list_monitors()) == ["alpha", "beta"]

    def test_stats_counters_and_latency(self, server):
        with connect(server) as client:
            client.create("svc", ["x"])
            client.ingest("svc", {"x": "L"}, T0)
            stats = client.stats()
            assert stats["counters"]["rounds_ingested"] == 1
            assert stats["counters"]["monitors_created"] == 1
            assert stats["monitors"]["svc"]["queue_capacity"] == 256
            assert "ingest" in stats["latency"]
            assert stats["latency"]["ingest"]["count"] == 1
            assert stats["latency"]["ingest"]["p99_ms"] >= 0

    def test_snapshot_command(self, server):
        with connect(server) as client:
            client.create("svc", ["x"])
            client.ingest("svc", {"x": "L"}, T0)
            response = client.snapshot("svc")
            assert response["seq"] == 1
            stats = client.stats()
            assert stats["counters"]["snapshots_taken"] == 1

    def test_errors_have_codes(self, server):
        with connect(server) as client:
            with pytest.raises(ServeClientError) as exc_info:
                client.query("ghost")
            assert exc_info.value.code == "no_such_monitor"

            client.create("svc", ["x"])
            with pytest.raises(ServeClientError) as exc_info:
                client.create("svc", ["x"])
            assert exc_info.value.code == "monitor_exists"

            with pytest.raises(ServeClientError) as exc_info:
                client.request("create", monitor="bad/../name", networks=["x"])
            assert exc_info.value.code == "bad_request"

            with pytest.raises(ServeClientError) as exc_info:
                client.request("warp")
            assert exc_info.value.code == "bad_request"

    def test_out_of_order_ingest_rejected_but_connection_lives(self, server):
        with connect(server) as client:
            client.create("svc", ["x"])
            client.ingest("svc", {"x": "L"}, T0)
            with pytest.raises(ServeClientError) as exc_info:
                client.ingest("svc", {"x": "A"}, T0)
            assert exc_info.value.code == "out_of_order"
            # Same connection still serves requests.
            assert client.query("svc")["rounds"] == 1

    def test_server_restart_recovers_monitors(self, tmp_path):
        data_dir = tmp_path / "data"
        with ServerThread(ServeConfig(data_dir=data_dir, port=0)) as first:
            with connect(first) as client:
                client.create("svc", ["x", "y"])
                client.ingest("svc", {"x": "L", "y": "L"}, T0)
                client.ingest("svc", {"x": "A", "y": "A"}, T0 + timedelta(1))
                expected = client.timeline("svc")["segments"]
        with ServerThread(ServeConfig(data_dir=data_dir, port=0)) as second:
            with connect(second) as client:
                assert client.timeline("svc")["segments"] == expected
                stats = client.stats()
                assert stats["counters"]["monitors_recovered"] == 1
                replay = stats["monitors"]["svc"]["replay"]
                assert replay["replayed_records"] == 2
                # Stream continues exactly where it stopped.
                client.ingest("svc", {"x": "L", "y": "L"}, T0 + timedelta(2))
                assert client.query("svc")["rounds"] == 3


@pytest.fixture(params=["direct", "routed"])
def endpoint(request, server):
    """The server's address, or that of a one-shard router in front of it.

    The router gets the server's frame and in-flight caps.
    """
    if request.param == "direct":
        yield server.address
        return
    state = ClusterState(ring=HashRing.for_cluster(1))
    state.set_address(0, server.address)
    router = ShardRouter(
        state,
        port=0,
        max_frame=server.config.max_frame,
        max_inflight=server.config.max_inflight,
    )

    def on_server_loop(coroutine) -> None:
        asyncio.run_coroutine_threadsafe(coroutine, server._loop).result(timeout=10)

    on_server_loop(router.start())
    try:
        yield router.address
    finally:
        on_server_loop(router.stop())


@pytest.mark.parametrize("tier", ["server", "router"])
def test_stop_closes_open_client_connections(tmp_path, tier):
    """Stopping a server or a router ends each open connection while
    the event loop still runs: the client reads EOF, and no connection
    task is left for the loop's shutdown to cancel."""
    from repro.serve import protocol

    async def scenario() -> None:
        if tier == "server":
            listener = FenrirServer(ServeConfig(data_dir=tmp_path, port=0))
        else:
            listener = ShardRouter(ClusterState(ring=HashRing.for_cluster(1)), port=0)
        await listener.start()
        reader, writer = await asyncio.open_connection(*listener.address)
        await protocol.write_frame(writer, {"id": 1, "cmd": "list"})
        await asyncio.wait_for(protocol.read_frame(reader), 10.0)
        await asyncio.wait_for(listener.stop(), 10.0)
        assert await asyncio.wait_for(reader.read(), 10.0) == b""
        writer.close()
        assert asyncio.all_tasks() == {asyncio.current_task()}

    asyncio.run(scenario())


class TestFailurePaths:
    def raw_socket(self, server: ServerThread) -> socket.socket:
        return socket.create_connection(server.address, timeout=10)

    def test_malformed_frame_answered_then_closed(self, endpoint):
        with socket.create_connection(endpoint, timeout=10) as sock:
            payload = b"this is not json"
            sock.sendall(struct.pack(">I", len(payload)) + payload)
            response = recv_frame(sock)
            assert response["ok"] is False
            assert response["error"] == "bad_frame"
            assert sock.recv(1) == b""  # server hung up

    @pytest.mark.parametrize(
        "payload",
        [
            # Routed unparsed (its prefix routes it): the shard finds
            # the frame bad, and the client must still see bad_frame.
            b'{"cmd":"query","id":1,"monitor":"m",]',
            # Not JSON, but it would be once the router rewrote the id.
            b'{"cmd":"query","id":007,"monitor":"m"}',
        ],
        ids=["trailing-comma", "leading-zero-id"],
    )
    def test_malformed_payload_behind_canonical_prefix(self, endpoint, payload):
        with socket.create_connection(endpoint, timeout=10) as sock:
            sock.sendall(struct.pack(">I", len(payload)) + payload)
            response = recv_frame(sock)
            assert response["error"] == "bad_frame"
            assert response["id"] is None
            assert sock.recv(1) == b""

    def test_oversized_frame_rejected_before_read(self, endpoint):
        with socket.create_connection(endpoint, timeout=10) as sock:
            # Declare a 1 GiB frame; never send the body.
            sock.sendall(struct.pack(">I", 1 << 30))
            response = recv_frame(sock)
            assert response["ok"] is False
            assert response["error"] == "frame_too_large"
            assert sock.recv(1) == b""

    def test_non_object_payload_rejected(self, endpoint):
        with socket.create_connection(endpoint, timeout=10) as sock:
            send_frame(sock, {"cmd": "stats"})  # prove the socket works
            assert recv_frame(sock)["ok"]
            payload = json.dumps([1, 2, 3]).encode()
            sock.sendall(struct.pack(">I", len(payload)) + payload)
            assert recv_frame(sock)["error"] == "bad_frame"
            assert sock.recv(1) == b""

    def test_abrupt_disconnect_leaves_server_healthy(self, endpoint):
        sock = socket.create_connection(endpoint, timeout=10)
        sock.sendall(struct.pack(">I", 100))  # promise 100 bytes...
        sock.close()  # ...vanish instead
        time.sleep(0.05)
        with ServeClient(*endpoint) as client:
            assert client.stats()["ok"]

    @pytest.mark.parametrize(
        "server", [{"max_frame": 300}], indirect=True, ids=["max_frame=300"]
    )
    def test_oversized_response_answered_not_hung(self, endpoint):
        with socket.create_connection(endpoint, timeout=5) as sock:
            # Either tier's Prometheus text outgrows a 300-byte frame.
            send_frame(sock, {"cmd": "metrics", "id": 5})
            response = recv_frame(sock)
            assert response["id"] == 5
            assert response["error"] == "internal"
            assert "frame cap" in response["message"]
            send_frame(sock, {"cmd": "list", "id": 6})  # still open
            assert recv_frame(sock) == {"id": 6, "ok": True, "monitors": []}

    @pytest.mark.parametrize(
        "server", [{"max_inflight": 1}], indirect=True, ids=["max_inflight=1"]
    )
    def test_overload_answer_echoes_the_request_id(self, endpoint):
        frames = [
            json.dumps(request).encode()
            for request in ({"cmd": "list", "id": 1}, {"id": 7, "cmd": "list"})
        ]
        with socket.create_connection(endpoint, timeout=10) as sock:
            # One write: the second frame arrives with the first in flight.
            sock.sendall(b"".join(struct.pack(">I", len(f)) + f for f in frames))
            responses = {r["id"]: r for r in (recv_frame(sock), recv_frame(sock))}
        assert responses[1]["ok"]
        assert responses[7]["error"] == "overloaded"
        assert responses[7]["in_flight"] == 1

    def test_overload_response_when_queue_full(self, tmp_path):
        config = ServeConfig(data_dir=tmp_path / "data", port=0, queue_size=1)
        with ServerThread(config) as running:
            host, port = running.address
            with ServeClient(host=host, port=port) as setup:
                setup.create("svc", ["x"])
            # Stall the drain (as a wedged disk or hot monitor would):
            # cancel the writer task so the bounded queue can only fill.
            runtime = running.server._monitors["svc"]
            running._loop.call_soon_threadsafe(runtime.worker.cancel)

            stalled = socket.create_connection((host, port), timeout=10)
            try:
                send_frame(
                    stalled,
                    {
                        "cmd": "ingest",
                        "id": 1,
                        "monitor": "svc",
                        "time": T0.isoformat(),
                        "states": {"x": "L"},
                    },
                )  # never answered: its record sits in the full queue
                with ServeClient(host=host, port=port) as client:
                    deadline = time.time() + 5
                    while time.time() < deadline:
                        depth = client.stats()["monitors"]["svc"]["queue_depth"]
                        if depth >= 1:
                            break
                        time.sleep(0.01)
                    else:
                        pytest.fail("queued ingest never became visible")
                    with pytest.raises(OverloadedError) as exc_info:
                        client.ingest("svc", {"x": "A"}, T0 + timedelta(1))
                    assert exc_info.value.response["queue_depth"] >= 1
            finally:
                stalled.close()

    def test_non_string_state_value_rejected_before_journal(self, server):
        with connect(server) as client:
            client.create("svc", ["x"])
            with pytest.raises(ServeClientError) as exc_info:
                client.request(
                    "ingest",
                    monitor="svc",
                    states={"x": ["L", "A"]},
                    time=T0.isoformat(),
                )
            assert exc_info.value.code == "bad_request"
            # The bad round was never journaled or applied: the stream
            # continues at seq 1 and the connection stays usable.
            assert client.ingest("svc", {"x": "L"}, T0)["seq"] == 1

    def test_internal_apply_error_answered_not_hung(self, server):
        with connect(server) as client:
            client.create("svc", ["x"])
            runtime = server.server._monitors["svc"]

            def explode(rounds):
                raise RuntimeError("disk on fire")

            runtime.monitor.ingest_batch = explode
            with pytest.raises(ServeClientError) as exc_info:
                client.ingest("svc", {"x": "L"}, T0)
            assert exc_info.value.code == "internal"
            del runtime.monitor.ingest_batch  # restore the real method
            assert client.ingest("svc", {"x": "L"}, T0)["seq"] == 1
            assert client.stats()["counters"]["ingest_failures"] == 1
            # The broad handler's visible trace: a per-site labeled
            # counter in the Prometheus exposition (`repro client metrics`).
            assert (
                'serve_internal_errors_total{site="ingest"} 1'
                in client.metrics()
            )

    def test_internal_dispatch_error_answered_not_hung(self, server):
        with connect(server) as client:
            client.create("svc", ["x"])
            runtime = server.server._monitors["svc"]

            def explode():
                raise RuntimeError("describe broke")

            runtime.monitor.describe = explode
            with pytest.raises(ServeClientError) as exc_info:
                client.query("svc")
            assert exc_info.value.code == "internal"
            del runtime.monitor.describe
            assert client.query("svc")["rounds"] == 0
            assert client.stats()["counters"]["internal_errors"] == 1
            assert (
                'serve_internal_errors_total{site="dispatch"} 1'
                in client.metrics()
            )

    def test_corrupt_monitor_does_not_block_startup(self, tmp_path):
        data_dir = tmp_path / "data"
        with ServerThread(ServeConfig(data_dir=data_dir, port=0)) as first:
            with connect(first) as client:
                client.create("good", ["x"])
                client.create("bad", ["x"])
                client.ingest("good", {"x": "L"}, T0)
        (data_dir / "bad" / "snapshot.json").write_text("{ not json")
        with ServerThread(ServeConfig(data_dir=data_dir, port=0)) as second:
            with connect(second) as client:
                assert client.list_monitors() == ["good"]
                assert client.query("good")["rounds"] == 1
                stats = client.stats()
                assert stats["counters"]["monitors_failed"] == 1
                assert "bad" in stats["failed_monitors"]

    def test_slow_reader_backpressures_only_itself(self, server):
        """A client that never reads responses cannot wedge others."""
        with connect(server) as active:
            active.create("svc", ["x"])
        slow = self.raw_socket(server)
        try:
            # Pipeline many requests without reading a single response:
            # the server's drain() keeps per-connection order and bounds
            # buffering to this socket.
            for index in range(200):
                send_frame(slow, {"cmd": "query", "id": index, "monitor": "svc"})
            with connect(server) as other:
                for index in range(20):
                    other.ingest(
                        "svc", {"x": f"s{index}"}, T0 + timedelta(hours=index)
                    )
                assert other.query("svc")["rounds"] == 20
        finally:
            slow.close()


class TestQueuedOnReplacedMonitor:
    """Rounds queued on a monitor that ``install`` replaces."""

    @pytest.mark.parametrize("command", ["ingest", "ingest_batch"])
    def test_answered_no_such_monitor(self, server, command):
        with connect(server) as client:
            client.create("svc", ["x"])
            client.ingest("svc", {"x": "L"}, T0)
            shipped = client.handoff("svc")
            round_ = {"time": (T0 + timedelta(1)).isoformat(), "states": {"x": "A"}}
            ingest = (
                {"cmd": "ingest", "id": 1, "monitor": "svc", **round_}
                if command == "ingest"
                else {"cmd": command, "id": 1, "monitor": "svc", "rounds": [round_]}
            )
            install = {
                "cmd": "install",
                "id": 2,
                "monitor": "svc",
                "seq": shipped["seq"],
                "state": shipped["state"],
            }
            frames = [json.dumps(request).encode() for request in (ingest, install)]
            with socket.create_connection(server.address, timeout=10) as sock:
                # One write: the install lands while the round is queued.
                sock.sendall(b"".join(struct.pack(">I", len(f)) + f for f in frames))
                responses = {r["id"]: r for r in (recv_frame(sock), recv_frame(sock))}
            assert responses[2]["ok"]
            assert responses[1]["error"] == "no_such_monitor"
            assert "nothing was journaled" in responses[1]["message"]
            # Nothing was applied, so routing the round again succeeds.
            assert client.query("svc")["rounds"] == 1
            assert client.ingest("svc", round_["states"], round_["time"])["seq"] == 2
            counters = client.stats()["counters"]
            assert counters.get("ingest_failures", 0) == 0
            assert "serve_internal_errors_total" not in client.metrics()


def fail_once(function):
    """``function`` that raises ENOSPC on its first call only."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return function(*args, **kwargs)

    return wrapper


class TestCheckpointFaults:
    """A failed cadence checkpoint neither fails the ack nor the chain."""

    @pytest.mark.parametrize(
        "fault, deltas",
        [("write_delta", [3, 5]), ("journal_reset", [2, 4, 6])],
    )
    @pytest.mark.parametrize(
        "server", [{"snapshot_every": 2}], indirect=True, ids=["snapshot_every=2"]
    )
    def test_ack_ok_and_reopen_matches_oracle(
        self, server, monkeypatch, tmp_path, fault, deltas
    ):
        if fault == "write_delta":
            failing = fail_once(monitor_module.write_delta)
            monkeypatch.setattr(monitor_module, "write_delta", failing)
        else:
            monkeypatch.setattr(JournalWriter, "reset", fail_once(JournalWriter.reset))
        rounds = [
            ({"x": "L" if index % 3 else "A", "y": "L"}, T0 + timedelta(hours=index))
            for index in range(6)
        ]
        with connect(server) as client:
            client.create("svc", ["x", "y"])
            for seq, (states, when) in enumerate(rounds, start=1):
                assert client.ingest("svc", states, when)["seq"] == seq
            assert 'serve_checkpoint_failures_total{monitor="svc"} 1' in (
                client.metrics()
            )
        directory = server.config.data_dir / "svc"
        written = sorted(directory.glob("delta-*.json"))
        assert written == [directory / f"delta-{seq:012d}.json" for seq in deltas]

        oracle = DurableMonitor.create(tmp_path / "oracle", "svc", networks=["x", "y"])
        for states, when in rounds:
            oracle.ingest(states, when)
        reopened = DurableMonitor.open(server.config.data_dir, "svc")
        assert reopened.describe() == oracle.describe()
        assert reopened.tracker.mode_timeline() == oracle.tracker.mode_timeline()
        reopened.close()
        oracle.close()


class TestBatchCommands:
    """Wire-level ``ingest_batch``: one round trip, many rounds."""

    def rounds(self, count, start=0):
        return [
            (
                {"x": "LAX" if (start + i) % 3 else "AMS", "y": "LAX"},
                T0 + timedelta(hours=start + i),
            )
            for i in range(count)
        ]

    def test_batch_matches_sequential_ingest(self, tmp_path):
        rounds = self.rounds(50)
        with ServerThread(
            ServeConfig(data_dir=tmp_path / "data", port=0)
        ) as running:
            with connect(running) as client:
                client.create("one", ["x", "y"])
                client.create("bat", ["x", "y"])
                sequential = [
                    client.ingest("one", states, when)["update"]
                    for states, when in rounds
                ]
                response = client.ingest_batch("bat", rounds)
                assert response["accepted"] == 50
                assert response["failed"] is None
                assert response["seq"] == 50
                assert response["results"] == sequential
                one, bat = client.query("one"), client.query("bat")
                for document in (one, bat):
                    document.pop("id")
                    document.pop("monitor")
                assert one == bat

    def test_ingest_many_returns_all_updates(self, server):
        rounds = self.rounds(45)
        with connect(server) as client:
            client.create("svc", ["x", "y"])
            updates = client.ingest_many("svc", rounds, batch_size=16)
            assert len(updates) == 45
            assert client.query("svc")["rounds"] == 45
            stats = client.stats()
            assert stats["counters"]["rounds_ingested"] == 45
            assert stats["counters"]["batches_ingested"] == 3

    def test_partial_failure_reports_first_bad_record(self, server):
        rounds = self.rounds(10)
        rounds[6] = ({"x": 42, "y": "LAX"}, rounds[6][1])  # non-string label
        with connect(server) as client:
            client.create("svc", ["x", "y"])
            response = client.ingest_batch("svc", rounds)
            assert response["accepted"] == 6
            assert response["failed"]["index"] == 6
            assert response["failed"]["error"] == "bad_request"
            assert client.query("svc")["rounds"] == 6
            # the stream continues after the durable prefix
            assert client.ingest("svc", *self.rounds(1, start=20)[0])["seq"] == 7

    def test_out_of_order_round_mid_batch(self, server):
        rounds = self.rounds(10)
        rounds[4] = (rounds[4][0], rounds[2][1])
        with connect(server) as client:
            client.create("svc", ["x", "y"])
            response = client.ingest_batch("svc", rounds)
            assert response["accepted"] == 4
            assert response["failed"]["index"] == 4
            assert response["failed"]["error"] == "out_of_order"

    def test_malformed_round_shape_reported(self, server):
        with connect(server) as client:
            client.create("svc", ["x", "y"])
            response = client.request(
                "ingest_batch",
                monitor="svc",
                rounds=[
                    {"time": T0.isoformat(), "states": {"x": "L", "y": "L"}},
                    "not a round",
                ],
            )
            assert response["accepted"] == 1
            assert response["failed"]["index"] == 1
            assert response["failed"]["error"] == "bad_request"

    def test_rounds_must_be_a_list(self, server):
        with connect(server) as client:
            client.create("svc", ["x", "y"])
            with pytest.raises(ServeClientError) as exc_info:
                client.request("ingest_batch", monitor="svc", rounds="nope")
            assert exc_info.value.code == "bad_request"

    def test_ingest_many_raises_with_absolute_index(self, server):
        rounds = self.rounds(40)
        rounds[25] = ({"x": None, "y": "LAX"}, rounds[25][1])
        with connect(server) as client:
            client.create("svc", ["x", "y"])
            with pytest.raises(BatchRejectedError) as exc_info:
                client.ingest_many("svc", rounds, batch_size=10)
            assert exc_info.value.index == 25
            assert len(exc_info.value.applied) == 25
            assert client.query("svc")["rounds"] == 25

    def test_batch_replay_after_restart(self, tmp_path):
        data_dir = tmp_path / "data"
        rounds = self.rounds(60)
        with ServerThread(ServeConfig(data_dir=data_dir, port=0)) as first:
            with connect(first) as client:
                client.create("svc", ["x", "y"])
                client.ingest_many("svc", rounds, batch_size=16)
                expected = client.timeline("svc")["segments"]
        with ServerThread(ServeConfig(data_dir=data_dir, port=0)) as second:
            with connect(second) as client:
                assert client.timeline("svc")["segments"] == expected
                assert client.query("svc")["rounds"] == 60

    def test_create_with_weights_over_the_wire(self, server):
        with connect(server) as client:
            client.request(
                "create", monitor="svc", networks=["x", "y"], weights=[2.0, 1.0]
            )
            assert client.ingest("svc", {"x": "L", "y": "L"}, T0)["seq"] == 1
            with pytest.raises(ServeClientError) as exc_info:
                client.request(
                    "create", monitor="bad", networks=["x", "y"], weights=[1.0]
                )
            assert exc_info.value.code == "bad_request"
            with pytest.raises(ServeClientError) as exc_info:
                client.request(
                    "create", monitor="bad", networks=["x", "y"], weights="heavy"
                )
            assert exc_info.value.code == "bad_request"
            assert client.list_monitors() == ["svc"]


def test_serve_import_loads_no_simulator():
    """The serve path (every shard process) imports none of the
    simulators the offline workflows use."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.serve.server; print(*sorted(sys.modules))",
        ],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    ).stdout.split()
    packages = {name.split(".")[1] for name in loaded if name.startswith("repro.")}
    simulators = {
        "bgp",
        "anycast",
        "dns",
        "traceroute",
        "webmap",
        "datasets",
        "controlplane",
    }
    assert packages & simulators == set()


def test_supervisor_import_loads_no_numpy():
    """``repro serve --shards`` relays bytes: the CLI and the cluster
    module load neither numpy nor ``repro.core``, while every public
    name of ``repro.serve`` still imports (the state-holding ones on
    first use)."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    script = (
        "import json, sys, repro.cli, repro.serve.cluster\n"
        "before = sorted(sys.modules)\n"
        "import repro.serve as serve\n"
        "missing = [n for n in serve.__all__ if getattr(serve, n, None) is None]\n"
        "print(json.dumps({'before': before, 'missing': missing}))\n"
    )
    report = json.loads(
        subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        ).stdout
    )
    loaded = set(report["before"])
    assert "numpy" not in loaded
    assert not any(name.startswith("repro.core") for name in loaded)
    assert report["missing"] == []


def wait_for_port_line(process: subprocess.Popen) -> tuple[str, int]:
    line = process.stdout.readline().decode()
    assert line.startswith("listening on "), f"unexpected readiness line: {line!r}"
    host, _, port = line.split()[-1].rpartition(":")
    return host, int(port)


def serve_subprocess(
    data_dir: Path, snapshot_every: int = 0, extra: tuple[str, ...] = ()
) -> subprocess.Popen:
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
            *extra,
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
    )


class TestServeRunner:
    """`repro serve`'s run loop, on one server and on a cluster."""

    @pytest.mark.parametrize(
        "shards",
        [(), pytest.param(("--shards", "1"), marks=pytest.mark.slow)],
        ids=["server", "cluster"],
    )
    def test_stdin_close_exits_after_a_final_metrics_dump(self, tmp_path, shards):
        metrics = tmp_path / "metrics.prom"
        process = serve_subprocess(
            tmp_path / "data",
            extra=(
                "--metrics-file",
                str(metrics),
                "--metrics-interval",
                "3600",  # no periodic dump lands during the test
                "--exit-on-stdin-close",
                *shards,
            ),
        )
        try:
            for line in process.stdout:
                if line.startswith(b"listening on "):
                    break
            process.stdin.close()
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
        assert "_uptime_seconds" in metrics.read_text()

    @pytest.mark.parametrize(
        "shards",
        [(), pytest.param(("--shards", "2"), marks=pytest.mark.slow)],
        ids=["server", "cluster"],
    )
    def test_closed_stdout_before_readiness_exits_quietly(self, tmp_path, shards):
        """A server whose parent stopped reading before the readiness
        lines ends by itself, with status 0 and no traceback, even while
        its stdin stays open."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        try:
            process = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "serve",
                    "--port",
                    "0",
                    "--data-dir",
                    str(tmp_path / "data"),
                    "--exit-on-stdin-close",
                    *shards,
                ],
                stdin=subprocess.PIPE,
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
            )
        finally:
            os.close(write_end)
        try:
            assert process.wait(timeout=60) == 0
            stderr = process.stderr.read().decode()
            assert "Traceback" not in stderr
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
            process.stdin.close()
            process.stderr.close()


class TestKillAndReplay:
    """The acceptance scenario: SIGKILL mid-ingest, restart, compare."""

    SITES = ["LAX", "LAX", "AMS", "AMS", "LAX", "FRA", "LAX", "AMS"]

    def rounds(self, count: int = 200):
        for index in range(count):
            site = self.SITES[index % len(self.SITES)]
            flip = "AMS" if index % 17 == 0 else site
            yield (
                {"x": site, "y": flip, "z": "LAX"},
                T0 + timedelta(hours=index),
            )

    def test_sigkill_mid_ingest_then_replay_matches_oracle(self, tmp_path):
        data_dir = tmp_path / "data"
        process = serve_subprocess(data_dir, snapshot_every=25)
        try:
            host, port = wait_for_port_line(process)
            acked = []
            with ServeClient(host=host, port=port) as client:
                client.create("svc", ["x", "y", "z"])
                for index, (states, when) in enumerate(self.rounds()):
                    if index == 120:
                        # Kill while the stream is mid-flight: no
                        # shutdown hooks, no flush courtesy.
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

        assert len(acked) >= 100, "kill landed before enough rounds were acked"

        # Oracle: an uninterrupted in-memory run over the acked prefix.
        oracle = OnlineFenrir(networks=["x", "y", "z"])
        for states, when in acked:
            oracle.ingest(states, when)
        expected_segments = [
            {"mode_id": mode_id, "start": start.isoformat(), "end": end.isoformat()}
            for mode_id, start, end in oracle.mode_timeline()
        ]

        restarted = serve_subprocess(data_dir)
        try:
            host, port = wait_for_port_line(restarted)
            with ServeClient(host=host, port=port) as client:
                timeline = client.timeline("svc")["segments"]
                summary = client.query("svc")
        finally:
            restarted.send_signal(signal.SIGTERM)
            try:
                restarted.wait(timeout=10)
            except subprocess.TimeoutExpired:
                restarted.kill()
                restarted.wait(timeout=10)

        # Every acknowledged round survived; the server may additionally
        # have journaled rounds whose acks never reached the client.
        assert summary["rounds"] >= len(acked)
        if summary["rounds"] == len(acked):
            assert timeline == expected_segments
        else:
            # Identical on the acked prefix: replay extra tail rounds
            # into the oracle and then demand exact equality.
            extra = summary["rounds"] - len(acked)
            remaining = list(self.rounds())[len(acked): len(acked) + extra]
            for states, when in remaining:
                oracle.ingest(states, when)
            expected_segments = [
                {
                    "mode_id": mode_id,
                    "start": start.isoformat(),
                    "end": end.isoformat(),
                }
                for mode_id, start, end in oracle.mode_timeline()
            ]
            assert timeline == expected_segments

    def test_sigkill_mid_batch_then_replay_matches_oracle(self, tmp_path):
        """Same contract under batched ingest: acked batches survive
        exactly; an in-flight batch may be journaled wholly, partially
        (group commit cut mid-write), or not at all — whatever replays
        must match the oracle extended by the journaled tail."""
        data_dir = tmp_path / "data"
        batch_size = 16
        all_rounds = list(self.rounds(400))
        process = serve_subprocess(data_dir, snapshot_every=25)
        try:
            host, port = wait_for_port_line(process)
            acked = []
            with ServeClient(host=host, port=port) as client:
                client.create("svc", ["x", "y", "z"])
                for start in range(0, len(all_rounds), batch_size):
                    if start == 7 * batch_size:
                        # Kill with a batch about to be in flight.
                        process.send_signal(signal.SIGKILL)
                        process.wait(timeout=10)
                    chunk = all_rounds[start : start + batch_size]
                    try:
                        response = client.ingest_batch("svc", chunk)
                    except (ConnectionError, OSError, ValueError):
                        break
                    assert response["failed"] is None
                    acked.extend(chunk[: response["accepted"]])
        finally:
            if process.poll() is None:
                process.kill()
            process.wait(timeout=10)

        assert len(acked) >= 5 * batch_size, "kill landed too early"

        oracle = OnlineFenrir(networks=["x", "y", "z"])
        for states, when in acked:
            oracle.ingest(states, when)

        restarted = serve_subprocess(data_dir)
        try:
            host, port = wait_for_port_line(restarted)
            with ServeClient(host=host, port=port) as client:
                timeline = client.timeline("svc")["segments"]
                summary = client.query("svc")
        finally:
            restarted.send_signal(signal.SIGTERM)
            try:
                restarted.wait(timeout=10)
            except subprocess.TimeoutExpired:
                restarted.kill()
                restarted.wait(timeout=10)

        # Acked prefix applied; the journal may carry an unacked tail
        # (the killed batch's group commit landed but its ack did not).
        assert summary["rounds"] >= len(acked)
        extra = summary["rounds"] - len(acked)
        assert extra <= batch_size
        for states, when in all_rounds[len(acked): len(acked) + extra]:
            oracle.ingest(states, when)
        expected_segments = [
            {"mode_id": mode_id, "start": start.isoformat(), "end": end.isoformat()}
            for mode_id, start, end in oracle.mode_timeline()
        ]
        assert timeline == expected_segments
