"""Load benchmark for the ``repro.serve`` monitoring service.

Not a paper table — this documents the serving envelope of the durable
streaming subsystem (docs/serving.md, docs/performance.md) on one
laptop-class machine:

* **Ingest throughput sweep** over wire batch sizes {1, 16, 128}: N
  concurrent clients, each feeding its own monitor (a monitor's stream
  is totally ordered in time, so it has exactly one writer) over real
  TCP. Batch 1 is the PR 2 single-record baseline (~2.5k acked
  rounds/s); batch 128 must beat it ≥10× (full mode) and must stay
  above a generous absolute floor (quick mode, CI smoke).
* **Mode-matching micro-benchmark** at {1, 16, 256} known modes:
  the vectorized ``_match_mode`` (one ``phi_one_to_many`` pass over
  the exemplar matrix) vs the retained scalar per-exemplar loop, with
  oracle equivalence asserted on every probe. ≥5× at 256 modes.
* **Cold-start replay**: wall time for a restarted server to rebuild
  every monitor's exact mode state from snapshot + deltas + journal.
* **Shard sweep** (``--shards N``): the same batch-128 fleet against
  ``repro serve --shards {1,2,N}`` clusters vs the single-process
  server. On a box with >= 4 cores the 4-shard tier must ingest >= 3x
  the single process (each shard is its own process and GIL); on
  fewer cores that is physically impossible — everything timeshares
  one core — so the assertion degrades to an overhead floor: the
  sharded tier must retain a documented fraction of single-process
  throughput. The JSON records ``cpus`` and which gate applied.
* **Concurrency sweep** (the async-client load generator): C
  concurrent monitor streams from ONE process through
  :class:`~repro.serve.AsyncServeClient` — each stream serial within
  itself (a monitor's timestamps are ordered), so C single-record
  requests are in flight at any instant over a handful of pipelined
  sockets — vs the blocking :class:`~repro.serve.ServeClient` feeding
  the same rounds one request-response at a time. Records p50/p99
  request latency under load. Loopback is compute-bound (the server's
  per-request work dwarfs a ~30 us RTT), so here the sweep asserts
  only a bounded-overhead floor; the **WAN profile** re-runs blocking
  vs async (C=256) through an in-process delay relay adding a fixed
  2 ms round trip — the regime the async client exists for — where
  pipelining must clear >= 3x the blocking loop.
* **Router vs direct** (with ``--shards N``): the same async load with
  ``ring_aware=True`` (topology fetched once, monitor commands sent
  straight to the owning shard) vs routed through the proxy hop. The
  direct path must not lose to the routed one.

Human-readable results go to ``benchmarks/out/serve.txt``; the
machine-readable trajectory goes to ``BENCH_serve.json`` at the repo
root (uploaded as a CI artifact).

Run directly: ``PYTHONPATH=src python benchmarks/bench_serve.py``
(``--quick`` for the CI smoke variant, ``--shards 4`` to add the
cluster sweep).
"""

from __future__ import annotations

import argparse
import asyncio
import multiprocessing
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from datetime import datetime, timedelta

import numpy as np

from repro.core.online import OnlineFenrir
from repro.core.vector import RoutingVector
from repro.serve import AsyncServeClient, ServeClient, protocol

from common import REPO_ROOT, emit, write_bench_json

sys.path.insert(0, str(REPO_ROOT / "tests"))
from oracles import match_mode_scalar  # noqa: E402  (the tests' scalar oracle)

NUM_CLIENTS = 4  # one monitor each
ROUNDS_PER_CLIENT = 500
SWEEP_REPEATS = 3  # best-of; the box is shared, single runs are noisy
NUM_NETWORKS = 50
BATCH_SIZES = (1, 16, 128)
MODE_COUNTS = (1, 16, 256)
MATCH_PROBES = 200

# Full-mode targets (the tentpole's acceptance criteria).
PR2_BASELINE = 2500.0  # acked rounds/s, single-record path before this PR
MIN_BATCH128_SPEEDUP = 10.0  # vs PR2_BASELINE
MIN_MATCH_SPEEDUP_256 = 5.0  # vectorized vs scalar loop at 256 modes
MAX_OBS_OVERHEAD = 0.03  # span-enabled ingest may cost at most 3%

# Quick-mode (CI smoke) floor: generous and flake-proof. The PR 2
# single-record path already sustained ~2.5k rounds/s on laptop-class
# hardware; batched ingest on a CI runner must clear that baseline.
QUICK_MIN_THROUGHPUT_128 = 2500.0

# Shard-sweep targets. The >= 3x claim needs real parallel hardware:
# each shard is its own process, so with >= 4 cores four shards ingest
# on four GILs. On a 1-core box the same processes timeshare one core
# and the only honest assertion is bounded overhead: the tier (router
# hop + supervisor + consistent-hash fan-out) must keep at least this
# fraction of single-process throughput.
MIN_SHARD4_SPEEDUP = 3.0
SINGLE_CORE_RETENTION = 0.35

# Concurrency-sweep targets, split by regime. On loopback the RTT is
# tens of microseconds and the server's per-request compute is the
# cap; a pipelined client cannot multiply a compute-bound server, so
# the loopback sweep records throughput and tail latency and asserts
# only that multiplexing overhead stays bounded (the async generator
# must keep a documented fraction of the blocking loop's rate). The
# multiplexing claim itself — >= 3x the blocking client at C >= 256 —
# is about *hiding request latency*, so it is asserted where latency
# exists: the WAN profile replays the same workload through an
# in-process delay relay adding a fixed round trip, which pins the
# blocking client to ~1/RTT while the pipelined client keeps the
# server busy. Being latency-bound, that gate is cpu-count-independent
# and flake-proof.
CONCURRENCY_LEVELS = (1, 64, 256)
FULL_CONCURRENCY_LEVELS = (1, 64, 256, 1024)
MIN_ASYNC_SPEEDUP = 3.0  # async at C >= 256 vs blocking, WAN profile
LOOPBACK_ASYNC_FLOOR = 0.75  # async at C >= 256 vs blocking, loopback
WAN_RTT_MS = 2.0  # LAN-adjacent; real vantage points see far worse
BLOCKING_STREAMS = 4  # monitors in the blocking baseline fleet

# Router-vs-direct target: skipping the proxy hop must never lose.
# "Beats" on quiet hardware reads as >= 1.1x; the asserted floor is
# parity so one noisy CI run cannot flake the gate.
MIN_DIRECT_SPEEDUP = 1.0
DIRECT_STREAMS = 16

T0 = datetime(2025, 1, 1)
SITES = ["LAX", "AMS", "FRA", "NRT", "GRU"]


def start_server(data_dir: str, snapshot_every: int = 1000, obs: bool = False):
    """The server under test, in its own process (its own GIL)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # ``obs`` turns tracing spans on in the server process; the metrics
    # registry itself is always live. The overhead check below compares
    # the two, holding everything else constant.
    env["REPRO_OBS"] = "1" if obs else "0"
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--data-dir",
            data_dir,
            "--snapshot-every",
            str(snapshot_every),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    line = process.stdout.readline().decode()
    assert line.startswith("listening on "), f"unexpected readiness: {line!r}"
    host, _, port = line.split()[-1].rpartition(":")
    return process, host, int(port)


def stop_server(process: subprocess.Popen) -> None:
    process.terminate()
    process.wait(timeout=30)


def start_cluster(data_dir: str, num_shards: int):
    """A sharded tier under test: supervisor + N shards + router."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_OBS"] = "0"
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--shards",
            str(num_shards),
            "--port",
            "0",
            "--data-dir",
            data_dir,
            "--exit-on-stdin-close",
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    while True:
        line = process.stdout.readline().decode()
        assert line, "cluster exited during startup"
        if line.startswith("listening on "):
            break
    host, _, port = line.split()[-1].rpartition(":")
    return process, host, int(port)


def stop_cluster(process: subprocess.Popen) -> None:
    # Closing stdin retires the supervisor and, through the stdin-EOF
    # pipes it holds, every shard — even if it were SIGKILLed instead.
    process.stdin.close()
    process.wait(timeout=30)


def run_cluster_throughput(
    num_shards: int, rounds_per_client: int, num_clients: int, batch_size: int = 128
) -> dict:
    """One fresh cluster + fleet run at a given shard count.

    ``num_shards == 0`` measures the single-process server with the
    identical workload — the sweep's baseline.
    """
    data_dir = tempfile.mkdtemp(prefix=f"bench_serve_s{num_shards}_")
    if num_shards == 0:
        server, host, port = start_server(data_dir)
    else:
        server, host, port = start_cluster(data_dir, num_shards)
    networks = [f"n{i}" for i in range(NUM_NETWORKS)]
    with ServeClient(host=host, port=port) as admin:
        for client_index in range(num_clients):
            admin.create(f"svc{client_index}", networks)

    barrier = multiprocessing.Barrier(num_clients + 1)
    workers = [
        multiprocessing.Process(
            target=feeder,
            args=(host, port, index, rounds_per_client, batch_size, barrier),
        )
        for index in range(num_clients)
    ]
    for worker in workers:
        worker.start()
    barrier.wait()
    started = time.perf_counter()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - started

    with ServeClient(host=host, port=port) as admin:
        stats = admin.stats()
    if num_shards == 0:
        stop_server(server)
        shard_load = None
    else:
        stop_cluster(server)
        shard_load = {
            shard: status.get("monitors")
            for shard, status in stats["cluster"]["shard_status"].items()
        }
    failed = [worker.exitcode for worker in workers if worker.exitcode != 0]
    assert not failed, f"feeders failed at {num_shards} shards: {failed}"
    total_rounds = num_clients * rounds_per_client
    # The router sums shard counters; acked == applied across the tier.
    assert stats["counters"]["rounds_ingested"] == total_rounds

    return {
        "shards": num_shards,
        "rounds": total_rounds,
        "wall_seconds": round(elapsed, 4),
        "throughput": round(total_rounds / elapsed, 1),
        "monitors_per_shard": shard_load,
    }


def monitor_rounds(monitor_index: int, count: int):
    """One monitor's deterministic stream: stable with periodic shifts."""
    networks = [f"n{i}" for i in range(NUM_NETWORKS)]
    for round_index in range(count):
        epoch = round_index // 97  # a routing shift every ~97 rounds
        states = {
            network: SITES[(monitor_index + epoch + (i % 7)) % len(SITES)]
            for i, network in enumerate(networks)
        }
        yield states, T0 + timedelta(seconds=round_index)


def feeder(
    host: str,
    port: int,
    client_index: int,
    rounds_per_client: int,
    batch_size: int,
    barrier,
) -> None:
    """One monitor's full stream, as a thin load generator.

    Runs in its own process and pre-encodes every request frame (the
    exact bytes :class:`ServeClient` would send) before the stream
    starts, so the measurement is the server's ingest capacity, not
    the generator's JSON serialization speed — this whole benchmark
    shares one machine with the server.
    """
    monitor = f"svc{client_index}"
    stream = list(monitor_rounds(client_index, rounds_per_client))
    frames = []
    if batch_size == 1:
        # The PR 2 baseline: one `ingest` request per round.
        for request_id, (states, when) in enumerate(stream):
            frames.append(
                protocol.encode_frame(
                    {
                        "cmd": "ingest",
                        "id": request_id,
                        "monitor": monitor,
                        "states": states,
                        "time": when.isoformat(),
                    }
                )
            )
    else:
        for request_id, start in enumerate(range(0, len(stream), batch_size)):
            rounds = [
                {"time": when.isoformat(), "states": states}
                for states, when in stream[start : start + batch_size]
            ]
            frames.append(
                protocol.encode_frame(
                    {
                        "cmd": "ingest_batch",
                        "id": request_id,
                        "monitor": monitor,
                        "rounds": rounds,
                    }
                )
            )
    with socket.create_connection((host, port)) as sock:
        barrier.wait()  # every feeder encoded its frames; start the clock
        for frame in frames:
            sock.sendall(frame)
            response = protocol.recv_frame(sock)
            assert response["ok"], response


def run_throughput(
    batch_size: int, rounds_per_client: int, num_clients: int, obs: bool = False
) -> dict:
    """One fresh server + fleet run; returns throughput and replay data."""
    data_dir = tempfile.mkdtemp(prefix=f"bench_serve_b{batch_size}_")
    server, host, port = start_server(data_dir, obs=obs)
    networks = [f"n{i}" for i in range(NUM_NETWORKS)]
    with ServeClient(host=host, port=port) as admin:
        for client_index in range(num_clients):
            admin.create(f"svc{client_index}", networks)

    barrier = multiprocessing.Barrier(num_clients + 1)
    workers = [
        multiprocessing.Process(
            target=feeder,
            args=(host, port, index, rounds_per_client, batch_size, barrier),
        )
        for index in range(num_clients)
    ]
    for worker in workers:
        worker.start()
    barrier.wait()  # released once every feeder has its frames encoded
    started = time.perf_counter()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - started

    with ServeClient(host=host, port=port) as admin:
        stats = admin.stats()
    stop_server(server)
    failed = [worker.exitcode for worker in workers if worker.exitcode != 0]
    assert not failed, f"feeder processes failed at batch {batch_size}: {failed}"

    total_rounds = num_clients * rounds_per_client
    assert stats["counters"]["rounds_ingested"] == total_rounds

    # Cold start: a fresh process reopens the same data dir.
    restart_started = time.perf_counter()
    restarted, host2, port2 = start_server(data_dir, obs=obs)
    cold_start = time.perf_counter() - restart_started
    with ServeClient(host=host2, port=port2) as admin:
        after = admin.stats()
        recovered_rounds = sum(
            doc["rounds"] for doc in after["monitors"].values()
        )
        replay_seconds = sum(
            doc["replay"]["elapsed_seconds"]
            for doc in after["monitors"].values()
            if doc["replay"]
        )
    stop_server(restarted)
    assert recovered_rounds == total_rounds, "replay lost acknowledged rounds"

    return {
        "batch_size": batch_size,
        "rounds": total_rounds,
        "wall_seconds": round(elapsed, 4),
        "throughput": round(total_rounds / elapsed, 1),
        "server_ingest_p50_ms": stats["latency"]
        .get("ingest", {})
        .get("p50_ms"),
        "server_batch_p50_ms": stats["latency"]
        .get("ingest_batch", {})
        .get("p50_ms"),
        "cold_start_seconds": round(cold_start, 4),
        "replay_seconds": round(replay_seconds, 4),
    }


def drive_async_load(
    host: str,
    port: int,
    concurrency: int,
    rounds_per_stream: int,
    ring_aware: bool = False,
) -> dict:
    """C concurrent monitor streams through one :class:`AsyncServeClient`.

    Each stream is serial within itself — a monitor's timestamps must
    arrive in order — so exactly ``concurrency`` single-record ingests
    are in flight at any moment, multiplexed by correlation id over a
    handful of pipelined sockets. Monitor creation happens before the
    clock starts; every request's send-to-response latency is recorded
    for the percentile columns.
    """
    networks = [f"n{i}" for i in range(NUM_NETWORKS)]
    connections = min(8, max(2, concurrency // 64))
    inflight = max(32, -(-concurrency // connections))
    latencies: list[float] = []

    async def drive() -> float:
        async with AsyncServeClient(
            host,
            port,
            timeout=120.0,
            max_connections=connections,
            max_inflight=inflight,
            ring_aware=ring_aware,
        ) as client:
            await asyncio.gather(
                *(
                    client.create(f"load{index}", networks)
                    for index in range(concurrency)
                )
            )

            async def stream(index: int) -> None:
                monitor = f"load{index}"
                for states, when in monitor_rounds(index, rounds_per_stream):
                    started = time.perf_counter()
                    await client.ingest(monitor, states, when)
                    latencies.append(time.perf_counter() - started)

            started = time.perf_counter()
            await asyncio.gather(
                *(stream(index) for index in range(concurrency))
            )
            return time.perf_counter() - started

    elapsed = asyncio.run(drive())
    total_rounds = concurrency * rounds_per_stream
    samples = np.asarray(latencies) * 1000.0
    return {
        "concurrency": concurrency,
        "rounds": total_rounds,
        "wall_seconds": round(elapsed, 4),
        "throughput": round(total_rounds / elapsed, 1),
        "p50_ms": round(float(np.percentile(samples, 50)), 3),
        "p99_ms": round(float(np.percentile(samples, 99)), 3),
    }


def run_async_level(concurrency: int, rounds_per_stream: int) -> dict:
    """One fresh single-process server under the async load generator."""
    data_dir = tempfile.mkdtemp(prefix=f"bench_serve_c{concurrency}_")
    server, host, port = start_server(data_dir)
    try:
        entry = drive_async_load(host, port, concurrency, rounds_per_stream)
        with ServeClient(host=host, port=port) as admin:
            stats = admin.stats()
    finally:
        stop_server(server)
    assert stats["counters"]["rounds_ingested"] == entry["rounds"]
    return entry


def run_blocking_load(rounds_total: int) -> dict:
    """The baseline the sweep is measured against: one blocking client.

    Same single-record ``ingest`` command, same monitor streams — but
    one request in flight, ever. Every round pays a full round trip
    (send, server turnaround, receive) before the next may start, which
    is exactly the stall the pipelined client exists to remove.
    """
    networks = [f"n{i}" for i in range(NUM_NETWORKS)]
    rounds_per_stream = rounds_total // BLOCKING_STREAMS
    data_dir = tempfile.mkdtemp(prefix="bench_serve_blocking_")
    server, host, port = start_server(data_dir)
    latencies: list[float] = []
    try:
        with ServeClient(host=host, port=port, timeout=120.0) as client:
            for index in range(BLOCKING_STREAMS):
                client.create(f"load{index}", networks)
            started = time.perf_counter()
            for index in range(BLOCKING_STREAMS):
                monitor = f"load{index}"
                for states, when in monitor_rounds(index, rounds_per_stream):
                    sent = time.perf_counter()
                    client.ingest(monitor, states, when)
                    latencies.append(time.perf_counter() - sent)
            elapsed = time.perf_counter() - started
            stats = client.stats()
    finally:
        stop_server(server)
    total_rounds = BLOCKING_STREAMS * rounds_per_stream
    assert stats["counters"]["rounds_ingested"] == total_rounds
    samples = np.asarray(latencies) * 1000.0
    return {
        "concurrency": 1,
        "rounds": total_rounds,
        "wall_seconds": round(elapsed, 4),
        "throughput": round(total_rounds / elapsed, 1),
        "p50_ms": round(float(np.percentile(samples, 50)), 3),
        "p99_ms": round(float(np.percentile(samples, 99)), 3),
    }


class DelayProxy:
    """A TCP relay adding a fixed one-way delay: a WAN in a thread.

    Each chunk is delivered in arrival order at ``arrival + delay``;
    the delays *overlap* (a queue per direction, one deliverer), so the
    relay adds latency without throttling throughput — exactly what a
    long pipe does, and exactly the asymmetry the benchmark needs: the
    blocking client pays the full round trip per request, the
    pipelined client keeps frames in the pipe.
    """

    def __init__(self, target_host: str, target_port: int, delay: float) -> None:
        self.target = (target_host, target_port)
        self.delay = delay
        self.port = 0
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        self._ready.wait(timeout=10)
        assert self.port, "delay proxy failed to bind"

    def _serve(self) -> None:
        asyncio.set_event_loop(self._loop)
        server = self._loop.run_until_complete(
            asyncio.start_server(self._handle, "127.0.0.1", 0)
        )
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            server.close()
            self._loop.run_until_complete(server.wait_closed())
            # Relay tasks for connections still open at shutdown: cancel
            # and reap them before closing the loop, or their teardown
            # callbacks fire into a closed loop and spray tracebacks.
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
            self._loop.close()

    async def _pipe(self, reader, writer) -> None:
        queue: asyncio.Queue = asyncio.Queue()

        async def deliver() -> None:
            while True:
                item = await queue.get()
                if item is None:
                    return
                deliver_at, chunk = item
                remaining = deliver_at - self._loop.time()
                if remaining > 0:
                    await asyncio.sleep(remaining)
                writer.write(chunk)
                await writer.drain()

        delivery = asyncio.ensure_future(deliver())
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                queue.put_nowait((self._loop.time() + self.delay, chunk))
        except (ConnectionError, OSError):
            pass
        finally:
            queue.put_nowait(None)
            try:
                await delivery
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass
            writer.close()

    async def _handle(self, client_reader, client_writer) -> None:
        try:
            upstream_reader, upstream_writer = await asyncio.open_connection(
                *self.target
            )
        except OSError:
            client_writer.close()
            return
        try:
            await asyncio.gather(
                self._pipe(client_reader, upstream_writer),
                self._pipe(upstream_reader, client_writer),
            )
        except asyncio.CancelledError:
            # Shutdown reaps handler tasks; asyncio's own done-callback
            # then calls task.exception(), which re-raises a propagated
            # cancellation as a spurious "Exception in callback". The
            # relay has nothing to clean up, so absorb it.
            pass

    def close(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)


def run_wan_profile(
    concurrency: int, rounds_total: int, blocking_rounds: int
) -> dict:
    """Blocking vs pipelined through a fixed simulated round trip.

    One server, one :class:`DelayProxy` in front of it. The blocking
    client's ceiling is ~1/RTT regardless of hardware; the pipelined
    client's is the server itself. The resulting ratio is what the
    async client buys operators feeding monitors from real vantage
    points, where RTTs are milliseconds, not loopback microseconds.
    """
    networks = [f"n{i}" for i in range(NUM_NETWORKS)]
    data_dir = tempfile.mkdtemp(prefix="bench_serve_wan_")
    server, host, port = start_server(data_dir)
    proxy = DelayProxy(host, port, WAN_RTT_MS / 2000.0)
    try:
        blocking_latencies: list[float] = []
        per_stream = blocking_rounds // 2
        with ServeClient(
            host="127.0.0.1", port=proxy.port, timeout=120.0
        ) as client:
            for index in range(2):
                client.create(f"wan{index}", networks)
            started = time.perf_counter()
            for index in range(2):
                for states, when in monitor_rounds(index, per_stream):
                    sent = time.perf_counter()
                    client.ingest(f"wan{index}", states, when)
                    blocking_latencies.append(time.perf_counter() - sent)
            blocking_elapsed = time.perf_counter() - started
        async_entry = drive_async_load(
            "127.0.0.1",
            proxy.port,
            concurrency,
            max(2, rounds_total // concurrency),
        )
    finally:
        proxy.close()
        stop_server(server)
    blocking_total = 2 * per_stream
    samples = np.asarray(blocking_latencies) * 1000.0
    blocking_entry = {
        "concurrency": 1,
        "rounds": blocking_total,
        "wall_seconds": round(blocking_elapsed, 4),
        "throughput": round(blocking_total / blocking_elapsed, 1),
        "p50_ms": round(float(np.percentile(samples, 50)), 3),
        "p99_ms": round(float(np.percentile(samples, 99)), 3),
    }
    return {
        "rtt_ms": WAN_RTT_MS,
        "blocking": blocking_entry,
        "async": async_entry,
        "speedup": round(
            async_entry["throughput"] / blocking_entry["throughput"], 2
        ),
    }


def run_router_vs_direct(
    num_shards: int, rounds_per_stream: int, repeats: int
) -> dict:
    """The same async load, routed through the proxy vs ring-aware.

    Fresh cluster per run; best-of-``repeats`` per mode. The direct
    client fetches ``topology`` once, computes ownership locally, and
    dials each shard itself — the delta is the router's read-parse-
    forward-reply hop on every request.
    """
    results: dict = {}
    for label, ring_aware in (("routed", False), ("direct", True)):
        best = None
        for _ in range(repeats):
            data_dir = tempfile.mkdtemp(prefix=f"bench_serve_{label}_")
            cluster, host, port = start_cluster(data_dir, num_shards)
            try:
                entry = drive_async_load(
                    host,
                    port,
                    DIRECT_STREAMS,
                    rounds_per_stream,
                    ring_aware=ring_aware,
                )
                with ServeClient(host=host, port=port) as admin:
                    stats = admin.stats()
            finally:
                stop_cluster(cluster)
            assert stats["counters"]["rounds_ingested"] == entry["rounds"]
            if best is None or entry["throughput"] > best["throughput"]:
                best = entry
        results[label] = best
    results["direct_speedup"] = round(
        results["direct"]["throughput"] / results["routed"]["throughput"], 2
    )
    return results


def run_match_bench(num_modes: int, probes: int = MATCH_PROBES) -> dict:
    """Vectorized vs scalar ``_match_mode`` at a given mode count."""
    rng = np.random.default_rng(num_modes)
    networks = [f"n{i}" for i in range(NUM_NETWORKS)]
    tracker = OnlineFenrir(networks=networks, mode_threshold=0.99)
    # Plant num_modes distinct exemplars directly (ingesting would
    # deduplicate them through matching).
    for mode in range(num_modes):
        states = {
            n: f"site{(mode + i) % (num_modes + 3)}"
            for i, n in enumerate(networks)
        }
        tracker._append_exemplar(
            RoutingVector.from_mapping(
                states, catalog=tracker.catalog, networks=tracker.networks
            )
        )
    vectors = [
        RoutingVector.from_mapping(
            {
                n: f"site{int(rng.integers(0, num_modes + 3))}"
                for n in networks
            },
            catalog=tracker.catalog,
            networks=tracker.networks,
        )
        for _ in range(probes)
    ]

    started = time.perf_counter()
    vectorized = [tracker._match_mode(v) for v in vectors]
    t_vec = time.perf_counter() - started
    started = time.perf_counter()
    scalar = [match_mode_scalar(tracker, v) for v in vectors]
    t_scalar = time.perf_counter() - started
    # Oracle equivalence on every probe: unweighted sums are
    # integer-valued, so vectorized and scalar agree bit-for-bit.
    assert vectorized == scalar, f"oracle mismatch at {num_modes} modes"
    return {
        "modes": num_modes,
        "probes": probes,
        "vectorized_us_per_match": round(t_vec / probes * 1e6, 2),
        "scalar_us_per_match": round(t_scalar / probes * 1e6, 2),
        "speedup": round(t_scalar / t_vec, 2),
    }


def run_shard_sweep(
    max_shards: int, rounds_per_client: int, num_clients: int, repeats: int
) -> list:
    """Best-of-N batch-128 runs at 0 (single-process), 1, 2, N shards."""
    shard_counts = sorted({0, 1, 2, max_shards})
    return [
        max(
            (
                run_cluster_throughput(
                    num_shards, rounds_per_client, num_clients
                )
                for _ in range(repeats)
            ),
            key=lambda entry: entry["throughput"],
        )
        for num_shards in shard_counts
    ]


def run(quick: bool = False, shards: int | None = None) -> dict:
    if quick:
        batch_sizes = (1, 128)
        rounds_per_client, num_clients, repeats = 250, 4, 1
    else:
        batch_sizes = BATCH_SIZES
        rounds_per_client, num_clients, repeats = (
            ROUNDS_PER_CLIENT,
            NUM_CLIENTS,
            SWEEP_REPEATS,
        )

    # Best-of-N per batch size: throughput benchmarks on a shared box
    # are noise-prone, and the *capacity* (what the acceptance target
    # is about) is the best sustained rate, not the noisiest one.
    sweep = [
        max(
            (
                run_throughput(batch_size, rounds_per_client, num_clients)
                for _ in range(repeats)
            ),
            key=lambda entry: entry["throughput"],
        )
        for batch_size in batch_sizes
    ]
    matches = [run_match_bench(num_modes) for num_modes in MODE_COUNTS]

    by_size = {entry["batch_size"]: entry for entry in sweep}
    baseline = by_size[1]["throughput"]
    batched = by_size[128]["throughput"]
    speedup_128 = batched / baseline

    # Observability overhead: the same batch-128 fleet run with tracing
    # spans enabled in the server (REPRO_OBS=1). The registry counters
    # and histograms are always on, so this isolates the cost of the
    # span machinery on the hot ingest path.
    obs_entry = max(
        (
            run_throughput(128, rounds_per_client, num_clients, obs=True)
            for _ in range(repeats)
        ),
        key=lambda entry: entry["throughput"],
    )
    obs_throughput = obs_entry["throughput"]
    obs_overhead = 1.0 - obs_throughput / batched

    shard_sweep = (
        run_shard_sweep(shards, rounds_per_client, num_clients, repeats)
        if shards is not None
        else None
    )
    cpus = os.cpu_count() or 1

    # The async-client load generator vs the blocking round-trip loop,
    # same single-record command, same streams, one process each way.
    concurrency_levels = CONCURRENCY_LEVELS if quick else FULL_CONCURRENCY_LEVELS
    load_rounds = 2048 if quick else 4096
    blocking_entry = max(
        (run_blocking_load(load_rounds) for _ in range(repeats)),
        key=lambda entry: entry["throughput"],
    )
    async_sweep = [
        max(
            (
                run_async_level(
                    concurrency, max(2, load_rounds // concurrency)
                )
                for _ in range(repeats)
            ),
            key=lambda entry: entry["throughput"],
        )
        for concurrency in concurrency_levels
    ]
    peak = max(
        (entry for entry in async_sweep if entry["concurrency"] >= 256),
        key=lambda entry: entry["throughput"],
    )
    loopback_ratio = peak["throughput"] / blocking_entry["throughput"]
    wan = run_wan_profile(
        256, load_rounds, blocking_rounds=192 if quick else 384
    )

    router_vs_direct = (
        run_router_vs_direct(shards, 128 if not quick else 64, repeats)
        if shards is not None and shards >= 2
        else None
    )

    lines = [
        f"mode={'quick' if quick else 'full'} clients={num_clients} "
        f"monitors={num_clients} networks={NUM_NETWORKS} "
        f"rounds/client={rounds_per_client}",
        "",
        "ingest throughput (acked rounds/s, fleet total):",
    ]
    for entry in sweep:
        lines.append(
            f"  batch {entry['batch_size']:>3}: {entry['throughput']:10.0f}/s  "
            f"wall {entry['wall_seconds']:7.2f} s   "
            f"replay {entry['replay_seconds']:6.3f} s "
            f"(cold start {entry['cold_start_seconds']:.2f} s)"
        )
    lines += [
        f"  batch-128 vs in-run batch-1: {speedup_128:.1f}x; "
        f"vs PR 2 baseline ({PR2_BASELINE:.0f}/s): "
        f"{batched / PR2_BASELINE:.1f}x",
        "",
        "observability overhead (batch 128, REPRO_OBS=1 in the server):",
        f"  {obs_throughput:10.0f}/s with spans vs {batched:10.0f}/s without "
        f"({obs_overhead:+.1%} overhead)",
        "",
        f"mode matching, vectorized vs scalar loop ({MATCH_PROBES} probes):",
    ]
    for entry in matches:
        lines.append(
            f"  modes {entry['modes']:>3}: "
            f"{entry['vectorized_us_per_match']:8.1f} us/match vectorized, "
            f"{entry['scalar_us_per_match']:8.1f} us scalar "
            f"({entry['speedup']:.1f}x)"
        )
    if shard_sweep is not None:
        single = shard_sweep[0]["throughput"]  # shards == 0 entry
        lines += [
            "",
            f"shard sweep (batch 128, {cpus} cpu(s)):",
        ]
        for entry in shard_sweep:
            label = (
                "single-process"
                if entry["shards"] == 0
                else f"{entry['shards']} shard(s)"
            )
            lines.append(
                f"  {label:>15}: {entry['throughput']:10.0f}/s  "
                f"({entry['throughput'] / single:.2f}x single-process)"
            )
    lines += [
        "",
        "async load generator (single-record ingest, one client process):",
        f"  {'blocking':>12}: {blocking_entry['throughput']:10.0f}/s  "
        f"p50 {blocking_entry['p50_ms']:7.2f} ms  "
        f"p99 {blocking_entry['p99_ms']:7.2f} ms",
    ]
    for entry in async_sweep:
        lines.append(
            f"  async C={entry['concurrency']:>4}: "
            f"{entry['throughput']:10.0f}/s  "
            f"p50 {entry['p50_ms']:7.2f} ms  p99 {entry['p99_ms']:7.2f} ms"
        )
    lines += [
        f"  async (C={peak['concurrency']}) vs blocking on loopback: "
        f"{loopback_ratio:.2f}x (compute-bound; floor "
        f"{LOOPBACK_ASYNC_FLOOR:.2f}x)",
        "",
        f"WAN profile ({WAN_RTT_MS:.0f} ms simulated RTT):",
        f"  {'blocking':>12}: {wan['blocking']['throughput']:10.0f}/s  "
        f"p50 {wan['blocking']['p50_ms']:7.2f} ms  "
        f"p99 {wan['blocking']['p99_ms']:7.2f} ms",
        f"  async C= 256: {wan['async']['throughput']:10.0f}/s  "
        f"p50 {wan['async']['p50_ms']:7.2f} ms  "
        f"p99 {wan['async']['p99_ms']:7.2f} ms  "
        f"({wan['speedup']:.1f}x blocking)",
    ]
    if router_vs_direct is not None:
        routed = router_vs_direct["routed"]
        direct = router_vs_direct["direct"]
        lines += [
            "",
            f"router vs ring-aware direct ({DIRECT_STREAMS} streams, "
            f"{shards} shards):",
            f"  {'routed':>12}: {routed['throughput']:10.0f}/s  "
            f"p99 {routed['p99_ms']:7.2f} ms",
            f"  {'direct':>12}: {direct['throughput']:10.0f}/s  "
            f"p99 {direct['p99_ms']:7.2f} ms  "
            f"({router_vs_direct['direct_speedup']:.2f}x routed)",
        ]
    emit("serve", "\n".join(lines))

    metrics = {
        "mode": "quick" if quick else "full",
        "clients": num_clients,
        "networks": NUM_NETWORKS,
        "rounds_per_client": rounds_per_client,
        "throughput_by_batch": {
            str(entry["batch_size"]): entry["throughput"] for entry in sweep
        },
        "batch128_speedup": round(speedup_128, 2),
        "batch128_vs_pr2_baseline": round(batched / PR2_BASELINE, 2),
        "obs_throughput_128": obs_throughput,
        "obs_overhead_fraction": round(obs_overhead, 4),
        "sweep": sweep,
        "match_bench": matches,
        "cpus": cpus,
        "blocking_load": blocking_entry,
        "async_load": async_sweep,
        "throughput_by_concurrency": {
            "blocking": blocking_entry["throughput"],
            **{
                f"async_{entry['concurrency']}": entry["throughput"]
                for entry in async_sweep
            },
        },
        "latency_p99_ms_by_concurrency": {
            "blocking": blocking_entry["p99_ms"],
            **{
                f"async_{entry['concurrency']}": entry["p99_ms"]
                for entry in async_sweep
            },
        },
        "async_loopback_ratio": round(loopback_ratio, 2),
        "wan_profile": wan,
        "async_speedup": wan["speedup"],
    }
    if router_vs_direct is not None:
        metrics["router_vs_direct"] = router_vs_direct
        metrics["throughput_router_vs_direct"] = {
            "routed": router_vs_direct["routed"]["throughput"],
            "direct": router_vs_direct["direct"]["throughput"],
        }
    if shard_sweep is not None:
        single = shard_sweep[0]["throughput"]
        clustered = next(
            entry["throughput"]
            for entry in shard_sweep
            if entry["shards"] == shards
        )
        shard_speedup = clustered / single
        gate = (
            "min_shard4_speedup"
            if cpus >= 4
            else "single_core_retention"
        )
        metrics.update(
            {
                "cpus": cpus,
                "shard_sweep": shard_sweep,
                "throughput_by_shards": {
                    str(entry["shards"]): entry["throughput"]
                    for entry in shard_sweep
                },
                "shard_speedup": round(shard_speedup, 2),
                "shard_gate": gate,
            }
        )
    write_bench_json("serve", metrics)

    match_256 = next(m for m in matches if m["modes"] == 256)
    if quick:
        # CI smoke: a single generous absolute floor, immune to runner
        # noise in the batch-1 baseline.
        assert batched >= QUICK_MIN_THROUGHPUT_128, (
            f"batch-128 throughput {batched:.0f}/s below the "
            f"{QUICK_MIN_THROUGHPUT_128:.0f}/s floor"
        )
        # Obs-enabled ingest must clear the same absolute floor. The
        # strict <3% relative bound is asserted in full mode only: a
        # single quick run on a shared CI box cannot resolve 3%.
        assert obs_throughput >= QUICK_MIN_THROUGHPUT_128, (
            f"obs-enabled batch-128 throughput {obs_throughput:.0f}/s "
            f"below the {QUICK_MIN_THROUGHPUT_128:.0f}/s floor"
        )
    else:
        # The acceptance target compares against the PR 2 single-record
        # baseline (~2.5k acked rounds/s); the in-run batch-1 number is
        # reported too, but it also benefits from this PR's kernel and
        # fast-path work, so it is not the "before" figure.
        assert batched >= MIN_BATCH128_SPEEDUP * PR2_BASELINE, (
            f"batch-128 throughput {batched:.0f}/s < "
            f"{MIN_BATCH128_SPEEDUP:.0f}x the PR 2 baseline "
            f"({PR2_BASELINE:.0f}/s)"
        )
        assert match_256["speedup"] >= MIN_MATCH_SPEEDUP_256, (
            f"match speedup at 256 modes {match_256['speedup']:.1f}x < "
            f"{MIN_MATCH_SPEEDUP_256:.0f}x"
        )
        assert obs_overhead <= MAX_OBS_OVERHEAD, (
            f"observability overhead {obs_overhead:.1%} exceeds the "
            f"{MAX_OBS_OVERHEAD:.0%} budget at batch 128"
        )
    if shard_sweep is not None:
        if cpus >= 4:
            assert shard_speedup >= MIN_SHARD4_SPEEDUP, (
                f"{shards}-shard throughput {clustered:.0f}/s is only "
                f"{shard_speedup:.2f}x single-process ({single:.0f}/s); "
                f"target {MIN_SHARD4_SPEEDUP:.0f}x on {cpus} cores"
            )
        else:
            # One core: no parallelism to win, so assert the tier's
            # overhead stays bounded instead (see module docstring).
            assert shard_speedup >= SINGLE_CORE_RETENTION, (
                f"{shards}-shard throughput {clustered:.0f}/s retains "
                f"only {shard_speedup:.2f}x of single-process "
                f"({single:.0f}/s); floor {SINGLE_CORE_RETENTION:.2f}x "
                f"on {cpus} cpu(s)"
            )
    # Loopback is compute-bound: the pipelined client cannot multiply
    # a server whose per-request work dwarfs the RTT, so the honest
    # loopback assertion is that multiplexing overhead stays bounded.
    assert loopback_ratio >= LOOPBACK_ASYNC_FLOOR, (
        f"async load at C={peak['concurrency']} "
        f"({peak['throughput']:.0f}/s) fell to {loopback_ratio:.2f}x the "
        f"blocking loop ({blocking_entry['throughput']:.0f}/s) on "
        f"loopback; floor {LOOPBACK_ASYNC_FLOOR:.2f}x"
    )
    # The multiplexing claim proper, asserted in the regime it is
    # about: with a real round trip in the pipe the blocking client is
    # RTT-bound and pipelining must win big. Latency-bound, so the
    # gate holds on any cpu count.
    assert wan["speedup"] >= MIN_ASYNC_SPEEDUP, (
        f"WAN-profile async throughput ({wan['async']['throughput']:.0f}/s) "
        f"is only {wan['speedup']:.2f}x the blocking client "
        f"({wan['blocking']['throughput']:.0f}/s) at "
        f"{WAN_RTT_MS:.0f} ms RTT; target {MIN_ASYNC_SPEEDUP:.0f}x"
    )
    if router_vs_direct is not None:
        assert router_vs_direct["direct_speedup"] >= MIN_DIRECT_SPEEDUP, (
            f"ring-aware direct ingest "
            f"({router_vs_direct['direct']['throughput']:.0f}/s) lost to "
            f"the routed path "
            f"({router_vs_direct['routed']['throughput']:.0f}/s); "
            f"floor {MIN_DIRECT_SPEEDUP:.2f}x"
        )
    return metrics


def test_serve_load() -> None:
    run(quick=False)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke variant: smaller fleet, absolute floor only",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="add the cluster shard sweep up to N shards",
    )
    arguments = parser.parse_args()
    run(quick=arguments.quick, shards=arguments.shards)
