"""Tests for the sharded serve tier: handoff, router, chaos, failover.

Fast tests run everything in-process (real servers and a real router
on an event-loop thread, real sockets, no subprocesses) and cover the
state-shipping commands, routing behavior, and the client timeout
contract. The ``slow``-marked classes spawn genuine multi-process
clusters through :mod:`tests.cluster_chaos` and SIGKILL pieces of them
mid-stream, asserting the surviving tier's final state byte-equals an
uninterrupted single-process oracle.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import socket
import struct
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from cluster_chaos import (
    ClusterHarness,
    canonical,
    feed_rounds,
    generate_rounds,
    oracle_state,
)
from repro.serve import (
    AsyncServeClient,
    FenrirServer,
    ServeClient,
    ServeClientError,
    ServeConfig,
    ServeTimeout,
)
from repro.serve.aio import AsyncConnection
from repro.serve.cluster import ClusterConfig, ClusterSupervisor, _ShardProcess
from repro.serve.ring import HashRing
from repro.serve.router import ClusterState, ShardRouter
from test_serve_aio import ShuffledResponder
from test_serve_server import ServerThread, T0, connect

NETWORKS = ["n1", "n2", "n3", "n4"]


@pytest.fixture
def server(tmp_path):
    with ServerThread(ServeConfig(data_dir=tmp_path / "data", port=0)) as running:
        yield running


def feed(client: ServeClient, monitor: str, rounds) -> None:
    for states, when in rounds:
        client.ingest(monitor, states, when)


class TestHandoffInstallRetire:
    def test_full_handoff_installs_identically(self, server, tmp_path):
        rounds = generate_rounds(NETWORKS, 25, seed=3)
        with connect(server) as client:
            client.create("svc", NETWORKS)
            feed(client, "svc", rounds)
            export = client.handoff("svc")
        assert export["kind"] == "full"
        assert export["rounds"] == 25
        with ServerThread(
            ServeConfig(data_dir=tmp_path / "other", port=0)
        ) as other:
            with connect(other) as client:
                installed = client.install("svc", export["seq"], export["state"])
                assert installed["rounds"] == 25
                copy = client.handoff("svc")
                assert canonical(copy["state"]) == canonical(export["state"])
                # The installed monitor serves reads and writes.
                assert client.query("svc")["rounds"] == 25
                more = generate_rounds(NETWORKS, 30, seed=3)[25:]
                feed(client, "svc", more)
                assert client.query("svc")["rounds"] == 30

    def test_delta_handoff_chains_onto_installed_copy(self, server, tmp_path):
        rounds = generate_rounds(NETWORKS, 40, seed=5)
        with ServerThread(
            ServeConfig(data_dir=tmp_path / "other", port=0)
        ) as other:
            with connect(server) as source, connect(other) as target:
                source.create("svc", NETWORKS)
                feed(source, "svc", rounds[:25])
                export = source.handoff("svc")
                target.install("svc", export["seq"], export["state"])

                feed(source, "svc", rounds[25:])
                delta = source.handoff("svc", after_rounds=25)
                assert delta["kind"] == "delta"
                target.install("svc", delta["seq"], delta["state"])

                final = target.handoff("svc")
                assert final["rounds"] == 40
                assert canonical(final["state"]) == canonical(
                    source.handoff("svc")["state"]
                )
                # Byte-equality with the in-process oracle, too.
                assert canonical(final["state"]) == canonical(
                    oracle_state(NETWORKS, rounds)
                )

    def test_handoff_unchanged_and_ahead(self, server):
        with connect(server) as client:
            client.create("svc", NETWORKS)
            feed(client, "svc", generate_rounds(NETWORKS, 10, seed=1))
            unchanged = client.handoff("svc", after_rounds=10)
            assert unchanged["kind"] == "unchanged"
            assert "state" not in unchanged
            with pytest.raises(ServeClientError) as caught:
                client.handoff("svc", after_rounds=11)
            assert caught.value.code == "bad_request"
            with pytest.raises(ServeClientError) as caught:
                client.handoff("svc", after_rounds=-1)
            assert caught.value.code == "bad_request"

    def test_delta_install_without_base_is_rejected(self, server):
        with connect(server) as client:
            client.create("src", NETWORKS)
            feed(client, "src", generate_rounds(NETWORKS, 8, seed=2))
            delta = client.handoff("src", after_rounds=4)
            with pytest.raises(ServeClientError) as caught:
                client.install("fresh", delta["seq"], delta["state"])
            assert caught.value.code == "bad_request"

    def test_install_replaces_existing_monitor(self, server, tmp_path):
        rounds = generate_rounds(NETWORKS, 20, seed=9)
        with connect(server) as client:
            client.create("svc", NETWORKS)
            feed(client, "svc", rounds)
            export = client.handoff("svc")
        with ServerThread(
            ServeConfig(data_dir=tmp_path / "other", port=0)
        ) as other:
            with connect(other) as client:
                client.create("svc", NETWORKS)  # diverged local copy
                feed(client, "svc", generate_rounds(NETWORKS, 3, seed=42))
                client.install("svc", export["seq"], export["state"])
                assert client.query("svc")["rounds"] == 20

    def test_retire_removes_and_survives_restart(self, tmp_path):
        config = ServeConfig(data_dir=tmp_path / "data", port=0)
        with ServerThread(config) as running:
            with connect(running) as client:
                client.create("svc", NETWORKS)
                feed(client, "svc", generate_rounds(NETWORKS, 5, seed=4))
                retired = client.retire("svc")
                assert retired["seq"] == 5
                assert client.list_monitors() == []
                with pytest.raises(ServeClientError) as caught:
                    client.query("svc")
                assert caught.value.code == "no_such_monitor"
                # The name is immediately reusable.
                client.create("svc", NETWORKS)
        moved = list((tmp_path / "data").glob("_retired-svc-*"))
        assert len(moved) == 1
        # Recovery skips the retired directory on restart.
        with ServerThread(config) as running:
            with connect(running) as client:
                assert client.list_monitors() == ["svc"]
                assert client.query("svc")["rounds"] == 0

    def test_promote_is_an_idempotent_noop_without_follower(self, server):
        with connect(server) as client:
            first = client.promote()
            assert first["was_following"] is False
            assert client.promote()["was_following"] is False


class RouterTier:
    """N in-process FenrirServers behind a real ShardRouter, one loop."""

    def __init__(self, data_dir: Path, shards: int = 2) -> None:
        self.data_dir = data_dir
        self.num_shards = shards
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self.servers: dict[int, FenrirServer] = {}
        self.state: ClusterState | None = None
        self.router: ShardRouter | None = None
        self.address: tuple[str, int] | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self.state = ClusterState(ring=HashRing.for_cluster(self.num_shards))
            for shard in range(self.num_shards):
                await self._start_shard_inner(shard)
            self.router = ShardRouter(self.state, port=0)
            await self.router.start()
            self.address = self.router.address
            self._stop = asyncio.Event()
            self._ready.set()
            await self._stop.wait()
            await self.router.stop()
            for server in self.servers.values():
                await server.stop()

        asyncio.run(main())

    async def _start_shard_inner(self, shard: int) -> None:
        server = FenrirServer(
            ServeConfig(data_dir=self.data_dir / f"shard-{shard:02d}", port=0)
        )
        await server.start()
        self.servers[shard] = server
        assert self.state is not None
        self.state.set_address(shard, server.address)

    def _call(self, coroutine) -> None:
        assert self._loop is not None
        asyncio.run_coroutine_threadsafe(coroutine, self._loop).result(timeout=10)

    def stop_shard(self, shard: int) -> None:
        """Take one shard down (the router starts failing it over).

        Mirrors what a real shard death looks like to the router: the
        supervisor clears the address (generation bump), so cached
        upstream connections are dropped rather than reused.
        """
        server = self.servers.pop(shard)

        async def inner() -> None:
            assert self.state is not None
            self.state.set_address(shard, None)
            await server.stop()

        self._call(inner())

    def start_shard(self, shard: int) -> None:
        """Bring a shard back over its journal dir; bumps the generation."""
        self._call(self._start_shard_inner(shard))

    def shard_address(self, shard: int) -> tuple[str, int]:
        return self.servers[shard].address

    def __enter__(self) -> "RouterTier":
        self._thread.start()
        assert self._ready.wait(timeout=10), "router tier failed to start"
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._loop is not None and self._stop is not None
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)


@pytest.fixture
def tier(tmp_path):
    with RouterTier(tmp_path / "cluster", shards=2) as running:
        yield running


def tier_client(tier: RouterTier, **kwargs) -> ServeClient:
    host, port = tier.address
    return ServeClient(host, port, **kwargs)


class TestShardRouter:
    def test_routes_to_ring_owner(self, tier):
        ring = HashRing.for_cluster(2)
        names = [f"svc-{i}" for i in range(6)]
        with tier_client(tier) as client:
            for name in names:
                client.create(name, NETWORKS)
                client.ingest(name, {n: "a" for n in NETWORKS}, T0)
            assert client.list_monitors() == sorted(names)
        # Each monitor physically lives on (only) its ring owner.
        for shard in (0, 1):
            host, port = tier.shard_address(shard)
            with ServeClient(host, port) as direct:
                assert direct.list_monitors() == sorted(
                    n for n in names if ring.owner(n) == shard
                )

    def test_concurrent_streams_are_counted_and_recovered(self, tmp_path):
        """Pipelined streams through the router: every acked round is
        counted once in the merged ``rounds_ingested``, and a restarted
        tier recovers every one of them with the same timelines."""
        monitors = {
            f"load{index}": generate_rounds(NETWORKS, 40, seed=index)
            for index in range(8)
        }
        total = sum(len(rounds) for rounds in monitors.values())

        async def drive(address) -> tuple[int, dict, dict]:
            async with AsyncServeClient(*address, max_connections=1) as client:
                for name in monitors:
                    await client.create(name, NETWORKS)
                acked = await asyncio.gather(
                    *(
                        client.ingest_many(name, rounds, batch_size=8)
                        for name, rounds in monitors.items()
                    )
                )
                stats = await client.stats()
                timelines = {
                    name: (await client.timeline(name))["segments"]
                    for name in monitors
                }
            return sum(map(len, acked)), stats, timelines

        async def reread(address) -> tuple[dict, dict]:
            async with AsyncServeClient(*address, max_connections=1) as client:
                rounds = {
                    name: (await client.query(name))["rounds"] for name in monitors
                }
                timelines = {
                    name: (await client.timeline(name))["segments"]
                    for name in monitors
                }
            return rounds, timelines

        data_dir = tmp_path / "cluster"
        with RouterTier(data_dir, shards=2) as first:
            acked, stats, timelines = asyncio.run(drive(first.address))
        assert acked == total
        assert {stats["monitors"][name]["shard"] for name in monitors} == {0, 1}
        assert stats["counters"]["rounds_ingested"] == total
        with RouterTier(data_dir, shards=2) as second:
            rounds, recovered = asyncio.run(reread(second.address))
        assert rounds == {name: len(stream) for name, stream in monitors.items()}
        assert recovered == timelines

    def test_stats_merges_and_reports_cluster_health(self, tier):
        with tier_client(tier) as client:
            client.create("alpha", NETWORKS)
            client.ingest("alpha", {n: "a" for n in NETWORKS}, T0)
            stats = client.stats()
            assert stats["counters"]["rounds_ingested"] == 1
            assert stats["cluster"]["shards"] == 2
            assert stats["cluster"]["shard_status"]["0"]["up"]
            assert stats["cluster"]["shard_status"]["1"]["up"]
            assert stats["monitors"]["alpha"]["shard"] == HashRing.for_cluster(
                2
            ).owner("alpha")

    def test_metrics_router_and_per_shard(self, tier):
        with tier_client(tier) as client:
            text = client.metrics()
            assert "cluster_requests_total" in text
            shard_text = client.request("metrics", shard=0)["text"]
            assert "serve_uptime_seconds" in shard_text
            with pytest.raises(ServeClientError) as caught:
                client.request("metrics", shard=99)
            assert caught.value.code == "bad_request"

    def test_promote_and_unknown_commands_are_rejected(self, tier):
        with tier_client(tier) as client:
            with pytest.raises(ServeClientError) as caught:
                client.promote()
            assert caught.value.code == "bad_request"
            with pytest.raises(ServeClientError) as caught:
                client.request("frobnicate")
            assert caught.value.code == "bad_request"
            with pytest.raises(ServeClientError) as caught:
                client.request("query")  # monitor command without a monitor
            assert caught.value.code == "bad_request"

    def test_non_canonical_key_order_still_routes(self, tier):
        # Hand-rolled clients may order JSON keys arbitrarily; the fast
        # regex will not match and the parse fallback must route it.
        host, port = tier.address
        with socket.create_connection((host, port), timeout=10) as sock:
            from repro.serve.protocol import recv_frame, send_frame

            send_frame(
                sock,
                {"networks": NETWORKS, "monitor": "odd", "id": 1, "cmd": "create"},
            )
            response = recv_frame(sock)
            assert response["ok"], response
            assert response["id"] == 1

    def test_dead_shard_answers_shard_unavailable_then_recovers(self, tier):
        ring = HashRing.for_cluster(2)
        name = next(f"svc-{i}" for i in range(100) if ring.owner(f"svc-{i}") == 1)
        rounds = generate_rounds(NETWORKS, 6, seed=11)
        with tier_client(tier) as client:
            client.create(name, NETWORKS)
            feed(client, name, rounds[:3])
            tier.stop_shard(1)
            with pytest.raises(ServeClientError) as caught:
                client.query(name)
            assert caught.value.code == "shard_unavailable"
            assert caught.value.response["shard"] == 1
            assert caught.value.response["id"] is not None
            # Fan-outs degrade instead of failing.
            listed = client.request("list")
            assert listed["shards_down"] == [1]
            assert client.stats()["cluster"]["shard_status"]["1"] == {"up": False}
            # Restart over the same journal dir: the generation bump
            # makes the router re-dial and the replayed monitor answers.
            tier.start_shard(1)
            recovered = client.query(name)
            assert recovered["rounds"] == 3
            feed(client, name, rounds[3:])
            assert client.query(name)["rounds"] == 6


def exchange(address: tuple[str, int], payloads: list[bytes]) -> list[bytes]:
    """Send every payload pipelined on one connection; the raw answers."""
    answers = []
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(b"".join(struct.pack(">I", len(p)) + p for p in payloads))
        with sock.makefile("rb") as stream:
            for _ in payloads:
                (length,) = struct.unpack(">I", stream.read(4))
                answers.append(stream.read(length))
    return answers


class TestRouterPipelining:
    def test_same_shard_requests_are_in_flight_together(self):
        # The fake shard answers only once all eight requests arrived, in
        # reverse: a router holding one request per shard would deadlock.
        async def main() -> list[dict]:
            async with ShuffledResponder(expect=8, order=list(range(8))[::-1]) as fake:
                state = ClusterState(ring=HashRing.for_cluster(1))
                state.set_address(0, fake.address)
                router = ShardRouter(state, port=0)
                await router.start()
                try:
                    async with await AsyncConnection.open(*router.address) as conn:
                        futures = [
                            conn.submit("query", monitor="m", marker=i)
                            for i in range(8)
                        ]
                        return await asyncio.wait_for(asyncio.gather(*futures), 10)
                finally:
                    await router.stop()

        responses = asyncio.run(main())
        assert [r["marker"] for r in responses] == list(range(8))
        assert [r["id"] for r in responses] == list(range(1, 9))

    def test_client_ids_come_back_verbatim(self, tier):
        with tier_client(tier) as client:
            client.create("svc", NETWORKS)
        payloads = [
            b'{"cmd":"query","id":7,"monitor":"svc"}',
            b'{"cmd":"query","id":7,"monitor":"svc"}',
            b'{"monitor":"svc","id":"seven","cmd":"query"}',
            b'{"cmd":"query","id":null,"monitor":"svc"}',
            b'{"cmd":"query","monitor":"svc"}',
        ]
        routed = exchange(tier.address, payloads)
        owner = tier.shard_address(HashRing.for_cluster(2).owner("svc"))
        assert sorted(routed) == sorted(exchange(owner, payloads))
        ids = sorted(str(json.loads(answer)["id"]) for answer in routed)
        assert ids == ["7", "7", "None", "None", "seven"]

    def test_pipelined_ingests_on_a_cold_connection_apply_in_order(self, tier):
        with tier_client(tier) as client:
            client.create("svc", NETWORKS)
        rounds = generate_rounds(NETWORKS, 64, seed=5)

        async def main() -> list[dict]:
            async with await AsyncConnection.open(*tier.address) as conn:
                futures = [
                    conn.submit(
                        "ingest", monitor="svc", states=states, time=when.isoformat()
                    )
                    for states, when in rounds
                ]
                return await asyncio.wait_for(asyncio.gather(*futures), 30)

        responses = asyncio.run(main())
        assert all(response["ok"] for response in responses), responses
        assert [response["seq"] for response in responses] == list(range(1, 65))


class TestServeTimeout:
    def test_stalled_server_raises_serve_timeout(self):
        # A listener that accepts and reads but never answers: the
        # pathological hang a dead shard used to inflict on clients.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        hold: list[socket.socket] = []

        def stall() -> None:
            conn, _peer = listener.accept()
            hold.append(conn)  # keep it open, never respond

        accepter = threading.Thread(target=stall, daemon=True)
        accepter.start()
        try:
            client = ServeClient(host, port, timeout=0.3)
            started = time.monotonic()
            with pytest.raises(ServeTimeout):
                client.request("stats")
            assert time.monotonic() - started < 5.0
            # The connection is closed after a timeout — the stream
            # position is unknowable, so further use must fail fast
            # rather than desynchronize request/response pairing.
            with pytest.raises(OSError):
                client.request("stats")
        finally:
            accepter.join(timeout=5)
            for conn in hold:
                conn.close()
            listener.close()

    def test_timeout_is_configurable_and_error_is_distinct(self):
        assert issubclass(ServeTimeout, OSError)
        assert not issubclass(ServeTimeout, ServeClientError)
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        try:
            client = ServeClient(host, port, timeout=0.2, connect_timeout=5.0)
            assert client.timeout == 0.2
            with pytest.raises(ServeTimeout) as caught:
                client.request("stats")
            assert "0.2" in str(caught.value)
        finally:
            listener.close()


class TestSupervisorStart:
    def test_every_spawn_of_a_role_is_in_flight_together(self, tmp_path):
        """No spawn may return until all of its role have begun: a
        supervisor that spawned one child after another would wait on
        the first one forever (the guard timeout fails it instead)."""
        shards = 3
        events: list[tuple[str, str, int]] = []
        everyone = {role: asyncio.Event() for role in ("primary", "follower")}

        async def spawn(shard_id, role, directory, follow=None):
            events.append(("begin", role, shard_id))
            if sum(1 for _, r, _ in events if r == role) == shards:
                everyone[role].set()
            await asyncio.wait_for(everyone[role].wait(), 10.0)
            if role == "follower":
                assert follow == ("127.0.0.1", 7000 + shard_id)
            events.append(("ready", role, shard_id))
            return _ShardProcess(
                shard_id=shard_id,
                role=role,
                directory=directory,
                process=SimpleNamespace(returncode=0, pid=0),
                address=("127.0.0.1", (7000 if role == "primary" else 8000) + shard_id),
            )

        async def no_rebalance() -> None:
            pass

        async def scenario() -> list[str]:
            supervisor = ClusterSupervisor(
                ClusterConfig(data_dir=tmp_path, shards=shards, port=0, replicate=True)
            )
            supervisor._spawn = spawn
            supervisor._rebalance_on_start = no_rebalance
            await supervisor.start()
            try:
                return supervisor.describe_processes()
            finally:
                await supervisor.stop()

        lines = asyncio.run(scenario())
        phases = [(kind, role) for kind, role, _ in events]
        assert phases == (
            [("begin", "primary")] * shards
            + [("ready", "primary")] * shards
            + [("begin", "follower")] * shards
            + [("ready", "follower")] * shards
        )
        assert len(lines) == 2 * shards

    def test_failed_spawn_stops_every_started_child(self, tmp_path, monkeypatch):
        """Shard 1's directory is a regular file, so that child dies
        before readiness: start() names it, and neither of the shards
        that did start outlives the failure."""
        data = tmp_path / "cluster"
        data.mkdir()
        (data / "shard-01").write_text("not a directory")
        pids: list[int] = []
        real_exec = asyncio.create_subprocess_exec

        async def recording_exec(*argv, **kwargs):
            process = await real_exec(*argv, **kwargs)
            pids.append(process.pid)
            return process

        monkeypatch.setattr(asyncio, "create_subprocess_exec", recording_exec)

        async def scenario() -> None:
            supervisor = ClusterSupervisor(ClusterConfig(data_dir=data, shards=3, port=0))
            with pytest.raises(RuntimeError, match="^shard 1 primary "):
                await supervisor.start()

        asyncio.run(scenario())
        assert len(pids) == 3
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


@pytest.mark.slow
class TestKillAShard:
    def test_sigkill_owner_mid_stream_matches_oracle(self, tmp_path):
        rounds = generate_rounds(NETWORKS, 80, seed=7)
        with ClusterHarness(tmp_path / "cluster", shards=2) as harness:
            owner = harness.owner_of("victim")
            import random

            kill_at = random.Random(7).randrange(20, 60)
            killed = []

            def chaos(applied: int) -> None:
                if not killed and applied >= kill_at:
                    killed.append(applied)
                    # Fire shortly after so the SIGKILL lands while the
                    # next batch is in flight, not between requests.
                    threading.Timer(
                        0.005, harness.kill_child, args=(owner, "primary")
                    ).start()

            fed = feed_rounds(
                harness,
                "victim",
                NETWORKS,
                rounds,
                batch_size=8,
                before_round=chaos,
            )
            assert fed == 80
            assert killed, "chaos hook never fired"
            harness.wait_shard_up(owner)
            final = harness.monitor_state("victim")
        assert canonical(final) == canonical(oracle_state(NETWORKS, rounds))

    def test_unowned_monitors_keep_serving_through_the_kill(self, tmp_path):
        with ClusterHarness(tmp_path / "cluster", shards=2) as harness:
            ring = harness.ring
            survivor = next(
                f"s-{i}" for i in range(100) if ring.owner(f"s-{i}") == 0
            )
            victim_shard = 1
            rounds = generate_rounds(NETWORKS, 10, seed=13)
            with harness.client() as client:
                client.create(survivor, NETWORKS)
                feed(client, survivor, rounds[:5])
                harness.kill_child(victim_shard, "primary")
                # The other shard's monitors never notice.
                feed(client, survivor, rounds[5:])
                assert client.query(survivor)["rounds"] == 10
            harness.wait_shard_up(victim_shard)


@pytest.mark.slow
class TestKillTheRouter:
    def test_router_death_retires_children_and_restart_recovers(self, tmp_path):
        rounds_a = generate_rounds(NETWORKS, 40, seed=21)
        rounds_b = generate_rounds(NETWORKS, 30, seed=22)
        harness = ClusterHarness(tmp_path / "cluster", shards=2)
        try:
            harness.start()
            feed_rounds(harness, "alpha", NETWORKS, rounds_a[:20], batch_size=4)
            feed_rounds(harness, "beta", NETWORKS, rounds_b[:15])
            # SIGKILL the supervisor; --exit-on-stdin-close must take
            # every shard down with it (no orphans squatting journals).
            harness.kill_router()
            harness.restart()
            # Journals replayed; resume feeding to completion.
            assert feed_rounds(harness, "alpha", NETWORKS, rounds_a) == 40
            assert feed_rounds(harness, "beta", NETWORKS, rounds_b) == 30
            state_a = harness.monitor_state("alpha")
            state_b = harness.monitor_state("beta")
        finally:
            harness.stop()
        assert canonical(state_a) == canonical(oracle_state(NETWORKS, rounds_a))
        assert canonical(state_b) == canonical(oracle_state(NETWORKS, rounds_b))


@pytest.mark.slow
class TestRebalance:
    def test_regrow_cluster_moves_monitors_to_ring_owners(self, tmp_path):
        data = tmp_path / "cluster"
        names = [f"svc-{i}" for i in range(4)]
        rounds = {name: generate_rounds(NETWORKS, 30, seed=i) for i, name in
                  enumerate(names)}
        with ClusterHarness(data, shards=1) as harness:
            for name in names:
                feed_rounds(harness, name, NETWORKS, rounds[name], batch_size=8)
        ring = HashRing.for_cluster(2)
        moved = [name for name in names if ring.owner(name) == 1]
        assert moved, "expected at least one monitor to change owner"
        with ClusterHarness(data, shards=2) as harness:
            with harness.client() as client:
                assert client.list_monitors() == sorted(names)
            for name in names:
                assert canonical(harness.monitor_state(name)) == canonical(
                    oracle_state(NETWORKS, rounds[name])
                )
                # And each lives only on its ring owner now.
                with harness.child_client(ring.owner(name), "primary") as direct:
                    assert name in direct.list_monitors()
        # The moved monitors' old directories were renamed, not deleted.
        for name in moved:
            assert list((data / "shard-00").glob(f"_retired-{name}-*"))

    def test_crash_between_install_and_retire_converges(self, tmp_path):
        """A rebalance interrupted after install but before retire.

        Simulated deterministically: both shards hold the monitor at the
        same seq (exactly the on-disk picture a kill at that point
        leaves). The next start must keep the target copy (seq guard,
        no clobber), retire the stale source, and serve bytes equal to
        the oracle.
        """
        data = tmp_path / "cluster"
        ring = HashRing.for_cluster(2)
        name = next(f"mv-{i}" for i in range(100) if ring.owner(f"mv-{i}") == 1)
        rounds = generate_rounds(NETWORKS, 25, seed=31)
        with ClusterHarness(data, shards=1) as harness:
            feed_rounds(harness, name, NETWORKS, rounds)
        # Crash-point: the install onto shard 1 completed, the retire on
        # shard 0 never happened.
        shutil.copytree(data / "shard-00" / name, data / "shard-01" / name)
        with ClusterHarness(data, shards=2) as harness:
            with harness.client() as client:
                listed = client.list_monitors()
            assert listed == [name]
            assert canonical(harness.monitor_state(name)) == canonical(
                oracle_state(NETWORKS, rounds)
            )
            # Still writable on the surviving copy.
            more = generate_rounds(NETWORKS, 30, seed=31)
            assert feed_rounds(harness, name, NETWORKS, more) == 30
        assert list((data / "shard-00").glob(f"_retired-{name}-*"))


@pytest.mark.slow
class TestReplicationFailover:
    def test_promoted_follower_serves_identically(self, tmp_path):
        rounds = generate_rounds(NETWORKS, 50, seed=17)
        with ClusterHarness(
            tmp_path / "cluster", shards=2, replicate=True, sync_interval=0.05
        ) as harness:
            name = "replicated"
            owner = harness.owner_of(name)
            fed = feed_rounds(harness, name, NETWORKS, rounds[:40], batch_size=4)
            assert fed == 40
            harness.wait_follower_rounds(owner, name, 40)
            oracle_40 = oracle_state(NETWORKS, rounds[:40])

            harness.kill_child(owner, "primary")
            harness.wait_shard_up(owner)

            # The promoted follower answers query/timeline/handoff with
            # exactly the oracle's state — nothing lost, nothing skipped.
            assert canonical(harness.monitor_state(name)) == canonical(oracle_40)
            with harness.client() as client:
                stats = client.stats()
                document = stats["monitors"][name]
                replay = document.get("replay")
                assert replay is None or replay["skipped_records"] == 0
                timeline = client.timeline(name)["segments"]
            expected = [
                (mode_id, start.isoformat(), end.isoformat())
                for mode_id, start, end in _oracle_timeline(rounds[:40])
            ]
            assert [
                (seg["mode_id"], seg["start"], seg["end"]) for seg in timeline
            ] == expected

            # The promoted primary takes writes; the tier converges on
            # the full 50-round oracle.
            assert feed_rounds(harness, name, NETWORKS, rounds) == 50
            assert canonical(harness.monitor_state(name)) == canonical(
                oracle_state(NETWORKS, rounds)
            )


def _oracle_timeline(rounds):
    from repro.core.online import OnlineFenrir

    oracle = OnlineFenrir(networks=list(NETWORKS))
    for states, when in rounds:
        oracle.ingest(states, when)
    return oracle.mode_timeline()
