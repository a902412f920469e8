"""Tests for ``repro.serve.aio`` and the pipelined wire protocol.

Three layers, matching the tentpole's risk surface:

* **correlation** — a Hypothesis property that *any* completion order
  of pipelined responses (a fake server answering in a shuffled
  permutation of arrival order) resolves every ``AsyncServeClient``
  future exactly once with the matching ``id``;
* **server pipelining** — deterministic out-of-order completion and
  the per-connection in-flight cap's explicit ``overloaded`` answer,
  driven through a gated ``_dispatch`` so nothing depends on timing;
* **client & retry** — the client-wide in-flight bound with FIFO
  admission, in-flight slots given back by timed-out requests,
  reconnect after a server restart, and the one safe resend of a frame
  that never left, driven through the blocking client; plus the slow-marked
  SIGKILL-under-concurrent-load chaos test asserting byte-equality
  with the oracle.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading
import time
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    AsyncServeClient,
    FenrirServer,
    OverloadedError,
    ServeClient,
    ServeConfig,
)
from repro.serve import protocol
from repro.serve.aio import AsyncConnection, RequestNotSent
from repro.serve.aio.client import CLIENT_INFLIGHT
from repro.serve.aio.connection import Dialer
from repro.serve.commands import CommandMethods
from repro.serve.protocol import MAX_INFLIGHT, ServeTimeout, check_response
from cluster_chaos import (
    ClusterHarness,
    canonical,
    generate_rounds,
    oracle_state,
)
from test_serve_server import ServerThread, recv_frame, send_frame

T0 = datetime(2025, 1, 1)
NETWORKS = [f"10.0.{i}.0/24" for i in range(6)]


def run(coroutine):
    return asyncio.run(coroutine)


async def start_server(tmp_path: Path, **overrides) -> FenrirServer:
    config = ServeConfig(data_dir=tmp_path / "data", port=0, **overrides)
    server = FenrirServer(config)
    await server.start()
    return server


# -- correlation under arbitrary completion order ----------------------------


class ShuffledResponder:
    """A wire-protocol server answering in a chosen permutation.

    Collects ``expect`` requests, then writes their responses in
    ``order`` (indices into arrival order), echoing each request's
    ``id`` and ``marker``.
    """

    def __init__(self, expect: int, order: list[int]) -> None:
        self.expect = expect
        self.order = order
        self._server: asyncio.AbstractServer | None = None

    async def __aenter__(self) -> "ShuffledResponder":
        self._server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None
        host, port = self._server.sockets[0].getsockname()[:2]
        return str(host), int(port)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        held: list[dict] = []
        try:
            while len(held) < self.expect:
                request = await protocol.read_frame(reader)
                if request is None:
                    return
                held.append(request)
            for index in self.order:
                request = held[index]
                await protocol.write_frame(
                    writer,
                    {
                        "id": request.get("id"),
                        "ok": True,
                        "marker": request.get("marker"),
                    },
                )
            while True:  # keep the connection open until the client leaves
                if await protocol.read_frame(reader) is None:
                    return
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()


class TestCorrelationProperty:
    @given(order=st.permutations(tuple(range(12))))
    @settings(max_examples=25, deadline=None)
    def test_any_completion_order_resolves_every_future_once(self, order):
        async def main() -> None:
            async with ShuffledResponder(expect=12, order=list(order)) as fake:
                host, port = fake.address
                async with AsyncServeClient(host, port, timeout=10.0) as client:
                    responses = await asyncio.gather(
                        *(
                            client.request("query", monitor="m", marker=i)
                            for i in range(12)
                        )
                    )
            # Exactly once, each with its own answer: marker i came back
            # to the caller that sent marker i, whatever the order.
            assert [r["marker"] for r in responses] == list(range(12))
            assert len({r["id"] for r in responses}) == 12

        run(main())


# -- server pipelining -------------------------------------------------------


def gate_dispatch(server: FenrirServer, seen: list | None = None) -> asyncio.Event:
    """Replace ``_dispatch`` so ``cmd=wait`` blocks on the returned event.

    Everything else passes through, which lets a test hold one request
    in flight for as long as it needs — deterministically — while
    later frames on the same connection are read and answered. Each
    ``wait`` request's ``marker`` is appended to ``seen`` on arrival.
    """
    release = asyncio.Event()
    original = server._dispatch

    async def gated(request: dict) -> dict:
        if request.get("cmd") == "wait":
            if seen is not None:
                seen.append(request.get("marker"))
            await release.wait()
            return {"id": request.get("id"), "ok": True, "waited": True}
        return await original(request)

    server._dispatch = gated  # type: ignore[method-assign]
    return release


class TestServerPipelining:
    def test_out_of_order_completion_and_inflight_cap(self, tmp_path):
        async def main() -> None:
            server = await start_server(tmp_path)
            release = gate_dispatch(server)
            try:
                # Raw frames: an AsyncConnection refuses to send past
                # the cap itself.
                reader, writer = await asyncio.open_connection(*server.address)
                try:
                    # Fill the connection's window with held requests,
                    # then one more frame, which exceeds the cap.
                    held = [
                        protocol.encode_frame({"cmd": "wait", "id": request_id})
                        for request_id in range(1, MAX_INFLIGHT + 1)
                    ]
                    rejected = {"cmd": "stats", "id": MAX_INFLIGHT + 1}
                    writer.write(b"".join(held) + protocol.encode_frame(rejected))
                    await writer.drain()
                    overloaded = await asyncio.wait_for(
                        protocol.read_frame(reader), 5.0
                    )
                    # The capped frame is answered immediately — out of
                    # order, before any held request has completed —
                    # with the explicit backpressure error and depth.
                    assert overloaded["id"] == MAX_INFLIGHT + 1
                    assert overloaded["ok"] is False
                    assert overloaded["error"] == "overloaded"
                    assert overloaded["in_flight"] == MAX_INFLIGHT
                    with pytest.raises(OverloadedError):
                        check_response(overloaded)
                    release.set()
                    answered = [
                        await asyncio.wait_for(protocol.read_frame(reader), 5.0)
                        for _request in held
                    ]
                    assert all(first["waited"] is True for first in answered)
                    assert sorted(r["id"] for r in answered) == list(
                        range(1, MAX_INFLIGHT + 1)
                    )
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                await server.stop()

        run(main())

    def test_timeout_does_not_poison_the_connection(self, tmp_path):
        async def main() -> None:
            server = await start_server(tmp_path)
            release = gate_dispatch(server)
            try:
                host, port = server.address
                connection = await AsyncConnection.open(host, port)
                try:
                    with pytest.raises(ServeTimeout):
                        await connection.request("wait", timeout=0.05)
                    # Unlike the blocking client, the connection stays
                    # usable: correlation ids keep later pairings intact
                    # and the late response is dropped by id.
                    response = await connection.request("stats", timeout=5.0)
                    assert response["ok"] is True
                    assert connection.healthy
                    release.set()
                finally:
                    await connection.close()
            finally:
                await server.stop()

        run(main())

    def test_pipelined_same_monitor_ingest_applies_in_send_order(self, tmp_path):
        async def main() -> None:
            server = await start_server(tmp_path)
            try:
                host, port = server.address
                connection = await AsyncConnection.open(host, port)
                try:
                    await connection.request(
                        "create", monitor="mon", networks=NETWORKS
                    )
                    futures = []
                    for index in range(40):
                        states = {
                            name: ("up" if (index + i) % 3 else "down")
                            for i, name in enumerate(NETWORKS)
                        }
                        futures.append(
                            connection.submit(
                                "ingest",
                                monitor="mon",
                                states=states,
                                time=(T0 + timedelta(minutes=index)).isoformat(),
                            )
                        )
                    await connection.drain()
                    responses = [
                        check_response(await future) for future in futures
                    ]
                    # Strictly-increasing timestamps survived 40 rounds
                    # in flight at once: frame order == apply order.
                    assert len(responses) == 40
                    query = await connection.request("query", monitor="mon")
                    assert query["rounds"] == 40
                finally:
                    await connection.close()
            finally:
                await server.stop()

        run(main())


# -- connection and client behaviour ----------------------------------------


class TestAsyncConnection:
    def test_request_not_sent_when_connection_already_dead(self, tmp_path):
        async def main() -> None:
            server = await start_server(tmp_path)
            try:
                host, port = server.address
                connection = await AsyncConnection.open(host, port)
                await connection.close()
                with pytest.raises(RequestNotSent):
                    connection.submit("stats")
            finally:
                await server.stop()

        run(main())


class TestDialer:
    def test_callers_get_the_connection_in_call_order(self):
        # Caller 3 arrives just as the dial completes, before callers 1
        # and 2 have resumed from it; it must still queue behind them,
        # or its frame would overtake theirs on the wire.
        class Live:
            healthy = True

        async def main() -> list[int]:
            gate = asyncio.Event()
            order: list[int] = []

            async def dial(host: str, port: int) -> Live:
                await gate.wait()
                return Live()

            dialer = Dialer(dial)

            async def caller(n: int) -> None:
                await dialer.connect(("127.0.0.1", 1))
                order.append(n)  # stands for the write that follows

            tasks = [asyncio.create_task(caller(n)) for n in (1, 2)]
            await asyncio.sleep(0)
            gate.set()
            tasks.append(asyncio.create_task(caller(3)))
            await asyncio.gather(*tasks)
            return order

        assert run(main()) == [1, 2, 3]


class TestAsyncServeClient:
    def test_bounded_inflight_and_fifo_completion(self, tmp_path):
        async def main() -> None:
            server = await start_server(tmp_path)
            seen: list[int] = []
            release = gate_dispatch(server, seen)
            try:
                host, port = server.address
                async with AsyncServeClient(host, port, timeout=10.0) as client:
                    tasks = [
                        asyncio.ensure_future(client.request("wait", marker=i))
                        for i in range(CLIENT_INFLIGHT + 2)
                    ]
                    deadline = time.monotonic() + 10.0
                    while len(seen) < CLIENT_INFLIGHT and time.monotonic() < deadline:
                        await asyncio.sleep(0.01)
                    await asyncio.sleep(0.1)
                    # CLIENT_INFLIGHT hold slots and reached the server;
                    # two wait FIFO in the client.
                    assert seen == list(range(CLIENT_INFLIGHT))
                    assert not any(task.done() for task in tasks)
                    release.set()
                    responses = await asyncio.gather(*tasks)
                    assert all(r["waited"] for r in responses)
                    assert seen == list(range(CLIENT_INFLIGHT + 2))
            finally:
                await server.stop()

        run(main())

    def test_reconnects_after_server_restart(self, tmp_path):
        async def main() -> None:
            server = await start_server(tmp_path)
            host, port = server.address
            client = AsyncServeClient(host, port, timeout=5.0)
            try:
                first = await client.stats()
                assert first["ok"] is True
                await server.stop()
                server = FenrirServer(
                    ServeConfig(data_dir=tmp_path / "data", host=host, port=port)
                )
                await server.start()
                # The connection died with the old server; the next
                # request re-dials transparently.
                second = await client.stats()
                assert second["ok"] is True
            finally:
                await client.close()
                await server.stop()

        run(main())

    def test_a_server_that_is_down_fails_the_dial_at_once(self, tmp_path):
        async def main() -> None:
            server = await start_server(tmp_path)
            host, port = server.address
            await server.stop()
            async with AsyncServeClient(host, port, timeout=5.0) as client:
                started = time.monotonic()
                with pytest.raises(ConnectionError):
                    await client.stats()
                # One refused connect, no retry loop with backoff.
                assert time.monotonic() - started < 0.3

        run(main())

    def test_timed_out_requests_give_back_their_slots(self):
        # A listener that accepts (in its backlog) but never answers.
        listener = socket.create_server(("127.0.0.1", 0))

        async def main() -> None:
            host, port = listener.getsockname()[:2]
            async with AsyncServeClient(host, port, timeout=0.02) as client:
                # One more timeout than there are slots: each must be a
                # response wait, never a wait for a slot still held.
                for _attempt in range(CLIENT_INFLIGHT + 1):
                    with pytest.raises(ServeTimeout, match="no response"):
                        await client.stats()
                connection = client._router._connection
                assert connection is not None and connection.healthy
                assert connection.in_flight == 0

        try:
            run(main())
        finally:
            listener.close()

    def test_ingest_many_resends_an_overloaded_batch(self):
        # An overloaded batch was rejected before anything was enqueued,
        # so ingest_many sends it again after a short backoff.
        class OverloadedOnce(CommandMethods):
            def __init__(self) -> None:
                self.sent: list[str] = []

            async def request(self, command: str, **fields: object) -> dict:
                self.sent.append(command)
                if len(self.sent) == 1:
                    raise OverloadedError("overloaded", "queue full", {})
                return {"results": [{"seq": 1}], "failed": None}

        client = OverloadedOnce()
        updates = run(client.ingest_many("mon", [({"n": "up"}, T0)]))
        assert updates == [{"seq": 1}]
        assert client.sent == ["ingest_batch", "ingest_batch"]

    def test_only_one_connection_per_server(self):
        AsyncServeClient(max_connections=1)
        with pytest.raises(ValueError):
            AsyncServeClient(max_connections=2)


# -- ring-aware client -------------------------------------------------------


class TestRingAware:
    def test_single_server_topology_falls_back_to_routed(self, tmp_path):
        async def main() -> None:
            server = await start_server(tmp_path)
            try:
                host, port = server.address
                async with AsyncServeClient(
                    host, port, timeout=5.0, ring_aware=True
                ) as client:
                    topology = await client.topology()
                    assert topology["router"] is False
                    assert list(topology["shards"]) == ["0"]
                    await client.create("mon", NETWORKS)
                    await client.ingest(
                        "mon",
                        {name: "up" for name in NETWORKS},
                        T0,
                    )
                    assert (await client.query("mon"))["rounds"] == 1
                    # A non-router topology means the server's own
                    # connection *is* the direct path: nothing else was
                    # dialed.
                    stats = await client.stats()
                    assert stats["counters"]["connections_accepted"] == 1
            finally:
                await server.stop()

        run(main())


# -- the blocking client ------------------------------------------------------


class FrameCounter:
    """A listener that answers each frame ``ok`` and counts frames.

    ``frames[i]`` is the number of frames read on the i-th accepted
    connection. It never hangs up on its own (a client's half-close
    goes unanswered), unless ``reset`` is set: then it resets each
    connection right after reading its first frame.
    """

    def __init__(self, reset: bool = False) -> None:
        self.reset = reset
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()[:2]
        self.frames: list[int] = []
        self._connections: list[socket.socket] = []
        self._threads = [threading.Thread(target=self._accept, daemon=True)]
        self._threads[0].start()

    def _accept(self) -> None:
        while True:
            try:
                connection, _ = self.listener.accept()
            except OSError:
                return
            self._connections.append(connection)
            self.frames.append(0)
            serve = threading.Thread(
                target=self._serve, args=(connection, len(self.frames) - 1)
            )
            serve.start()
            self._threads.append(serve)

    def _serve(self, connection: socket.socket, index: int) -> None:
        try:
            while True:
                request = recv_frame(connection)
                self.frames[index] += 1
                if self.reset:
                    linger = struct.pack("ii", 1, 0)
                    connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, linger)
                    connection.close()
                    return
                send_frame(connection, {"id": request["id"], "ok": True})
        except OSError:
            pass

    def __enter__(self) -> "FrameCounter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.listener.shutdown(socket.SHUT_RDWR)
        self.listener.close()
        for connection in self._connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            connection.close()
        for thread in self._threads:
            thread.join(timeout=10)


def live_socket(client: ServeClient) -> socket.socket:
    """The socket under a blocking client's open connection."""
    connection = client._client._router._connection
    assert connection is not None and connection.healthy
    return connection._writer.get_extra_info("socket")


class TestBlockingClientRetry:
    def test_send_phase_reset_reconnects_and_resends(self):
        with FrameCounter() as server:
            with ServeClient(*server.address, timeout=5.0) as client:
                assert client.stats()["ok"] is True
                # Kill the live connection between requests: its socket
                # can no longer send, so the next frame provably never
                # leaves, and the client must re-dial and resend it
                # rather than surface the failure.
                live_socket(client).shutdown(socket.SHUT_WR)
                assert client.stats()["ok"] is True
            assert server.frames == [1, 1]

    def test_recv_phase_reset_is_not_retried(self):
        with FrameCounter(reset=True) as server:
            with ServeClient(*server.address, timeout=5.0) as client:
                # After a successful send the request's fate is unknown:
                # a transparent retry could double-apply, so the error
                # surfaces.
                with pytest.raises(ConnectionError):
                    client.stats()
            assert server.frames == [1]


class TestBlockingClient:
    def test_threads_each_with_their_own_client(self, tmp_path):
        rounds = 20
        start = threading.Barrier(2)
        failures: list[BaseException] = []

        def feed(host: str, port: int, monitor: str) -> None:
            try:
                with ServeClient(host, port, timeout=10.0) as client:
                    client.create(monitor, NETWORKS)
                    start.wait(timeout=10)
                    for index in range(rounds):
                        states = {name: ("up", "down")[index % 2] for name in NETWORKS}
                        client.ingest(monitor, states, T0 + timedelta(minutes=index))
            except BaseException as exc:  # surfaced on the main thread
                failures.append(exc)

        with ServerThread(ServeConfig(data_dir=tmp_path / "data", port=0)) as running:
            host, port = running.address
            threads = [
                threading.Thread(target=feed, args=(host, port, f"mon-{n}"))
                for n in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert failures == []
            with ServeClient(host, port, timeout=10.0) as client:
                for n in range(2):
                    assert client.query(f"mon-{n}")["rounds"] == rounds

    def test_a_call_inside_a_running_loop_raises(self):
        with FrameCounter() as server:
            with ServeClient(*server.address, timeout=5.0) as client:

                async def inside() -> None:
                    with pytest.raises(RuntimeError, match="AsyncServeClient"):
                        client.stats()

                run(inside())
                assert client.stats()["ok"] is True
            assert server.frames == [1]


# -- chaos: SIGKILL a shard under concurrent async load ----------------------


@pytest.mark.slow
class TestKillAShardUnderAsyncLoad:
    def test_pool_fallback_matches_oracle(self, tmp_path):
        """SIGKILL the victim's owning shard while four monitor streams
        are being fed concurrently through one async client; the client's
        reconnect plus resume-from-applied-count must land every
        monitor byte-equal to its uninterrupted oracle.
        """
        monitors = [f"victim-{i}" for i in range(4)]
        per_monitor = {
            name: generate_rounds(NETWORKS, 100, seed=11 + i)
            for i, name in enumerate(monitors)
        }
        chunk = 10
        kill_at = 40
        with ClusterHarness(tmp_path / "cluster", shards=2) as harness:
            owner = harness.owner_of(monitors[0])
            host, port = harness.address
            killed: list[int] = []

            async def applied_rounds(
                client: AsyncServeClient, name: str
            ) -> int:
                from repro.serve import ServeClientError

                deadline = time.monotonic() + 60.0
                while True:
                    try:
                        return int((await client.query(name))["rounds"])
                    except ServeClientError as exc:
                        if exc.code == "no_such_monitor":
                            return 0
                        if time.monotonic() > deadline:
                            raise
                    except Exception:
                        if time.monotonic() > deadline:
                            raise
                    await asyncio.sleep(0.2)

            async def feed_stream(client: AsyncServeClient, name: str) -> int:
                rounds = per_monitor[name]
                applied = 0
                created = False
                deadline = time.monotonic() + 180.0
                while applied < len(rounds):
                    if time.monotonic() > deadline:
                        raise TimeoutError(f"{name}: fed {applied} rounds")
                    if (
                        name == monitors[0]
                        and not killed
                        and applied >= kill_at
                    ):
                        killed.append(applied)
                        threading.Timer(
                            0.005, harness.kill_child, args=(owner, "primary")
                        ).start()
                    try:
                        if not created:
                            if name not in await client.list_monitors():
                                await client.create(name, NETWORKS)
                            created = True
                        await client.ingest_many(
                            name,
                            rounds[applied : applied + chunk],
                            batch_size=chunk,
                        )
                        applied += len(rounds[applied : applied + chunk])
                    except Exception:
                        await asyncio.sleep(0.2)
                        applied = await applied_rounds(client, name)
                        created = applied > 0 or created
                return applied

            async def feed_all() -> list[int]:
                async with AsyncServeClient(host, port, timeout=10.0) as client:
                    return await asyncio.gather(
                        *(feed_stream(client, name) for name in monitors)
                    )

            fed = asyncio.run(feed_all())
            assert fed == [100, 100, 100, 100]
            assert killed, "chaos hook never fired"
            harness.wait_shard_up(owner)
            finals = {name: harness.monitor_state(name) for name in monitors}
        for name in monitors:
            assert canonical(finals[name]) == canonical(
                oracle_state(NETWORKS, per_monitor[name])
            ), f"{name} diverged from its oracle"
