"""Serve workload: a ``repro serve --shards 2`` tier under a closed-loop generator.

``mixed-routed`` runs a router and 2 shards. Each of 32 monitor streams
over 200 networks sends ``ingest_batch`` of 32 rounds that all differ
(a round is one of 100 anchor configurations with 4 networks flipped,
so every stream holds ~100 modes after its first 100 rounds) and one
``query`` or ``timeline`` read after every 4 writes, waiting for each
answer before its next request.

The generator is this process: one asyncio loop, at most ``nproc``
(and at most 2) connections, one request in flight per stream, so 32
in flight. State JSON is encoded before the clock starts; a request is
then only a byte join of pre-encoded parts. Control traffic (create,
stats, final queries, the restart check, the router-hop probe) goes
through :class:`repro.serve.aio.AsyncServeClient`.

A run starts the server three times (``setup_s`` is the median), sends
a fixed seeded warm-up, restarts the server on its data dir three times
(``cold_start_s`` is the median, always over the same data), and runs
the timed window on the last restarted server. It checks that the restart recovered every
acked round, that the server's ``rounds_ingested`` equals the rounds
acked since, and that each monitor's final ``query`` equals an
in-process ``OnlineFenrir`` fed the same stream.

The window is the same in the traced run: nothing on the live path is
traced. The per-layer figures come from ``stats``, a router-hop probe
and in-process calls into each layer, all after the window.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import random
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.compare import phi_one_to_many
from repro.core.online import OnlineFenrir
from repro.core.vector import RoutingVector, StateCatalog
from repro.serve import protocol
from repro.serve.aio import AsyncServeClient
from repro.serve.journal import JournalRecord, JournalWriter, record_line
from repro.serve.monitor import DurableMonitor

from measure import Outcome, percentile, summary

STREAMS = 32
NETWORKS = tuple(f"n{index:03d}" for index in range(200))
SITES = tuple(f"site{index:02d}" for index in range(10))
UNKNOWN_SHARE = 0.05
BASE_TIME = datetime(2024, 1, 1)
ANCHORS = 100
FLIPS = 4
SWITCH_CHANCE = 1 / 8
BATCH = 32
WRITES_PER_READ = 4
SHARDS = 2

SERVER_STARTS = 3  # setup_s is the median of this many
RESTARTS = 3  # and cold_start_s of this many, each on the same data
# Requests per stream before the timed restart: 12 batches (384
# rounds) and 3 reads.
WARMUP_REQUESTS = 15
SPAWN_TIMEOUT = 60.0
REQUEST_TIMEOUT = 30.0
HOP_PROBES = 1024
PROBE_ROUNDS = 2048


def _configuration(rng: random.Random) -> Dict[str, str]:
    return {
        network: rng.choice(SITES)
        for network in NETWORKS
        if rng.random() >= UNKNOWN_SHARE
    }


def _fragments(states: Dict[str, str]) -> Dict[str, bytes]:
    return {
        network: b'"%s":"%s"' % (network.encode(), site.encode())
        for network, site in states.items()
    }


class Stream:
    """One monitor's seeded round sequence, with pre-encoded state JSON.

    ``rounds[i]`` records what round ``i`` was (an anchor index plus
    flipped networks) so the oracle can rebuild its states after the
    run without keeping every dict.
    """

    def __init__(self, index: int, seed: int) -> None:
        self.name = f"m{index:02d}"
        self.rng = random.Random(f"{seed}/mixed-routed/{index}")
        self.configurations = [_configuration(self.rng) for _ in range(ANCHORS)]
        self.fragments = [_fragments(states) for states in self.configurations]
        self.known = [tuple(fragments) for fragments in self.fragments]
        self.rounds: List[Tuple[int, Tuple[Tuple[str, str], ...]]] = []
        self.acked = 0
        self.anchor = 0
        self.requests = 0
        self.read_kind = itertools.cycle((b"query", b"timeline"))

    def _head(self, command: bytes, request_id: int) -> bytes:
        return b'{"cmd":"%s","id":%d,"monitor":"%s"' % (
            command, request_id, self.name.encode()
        )

    def _time(self, number: int) -> bytes:
        return (BASE_TIME + timedelta(minutes=number)).isoformat().encode()

    def _next_novel(self) -> bytes:
        number = len(self.rounds)
        if number < ANCHORS:
            self.anchor = number
        elif self.rng.random() < SWITCH_CHANCE:
            self.anchor = self.rng.randrange(ANCHORS)
        fragments = self.fragments[self.anchor]
        flipped = tuple(
            (network, self.rng.choice(SITES))
            for network in self.rng.sample(self.known[self.anchor], FLIPS)
        )
        parts = dict(fragments)
        for network, site in flipped:
            parts[network] = b'"%s":"%s"' % (network.encode(), site.encode())
        self.rounds.append((self.anchor, flipped))
        return b"{" + b",".join(parts.values()) + b"}"

    def next_request(self, request_id: int) -> Tuple[str, bytes, int]:
        """``(kind, frame, rounds)`` for this stream's next request."""
        self.requests += 1
        if self.requests % (WRITES_PER_READ + 1) == 0:
            return "read", _frame(self._head(next(self.read_kind), request_id) + b"}"), 0
        documents = []
        for _ in range(BATCH):
            number = len(self.rounds)
            states = self._next_novel()
            documents.append(
                b'{"time":"%s","states":%s}' % (self._time(number), states)
            )
        payload = self._head(b"ingest_batch", request_id) + b',"rounds":[' + b",".join(documents) + b"]}"
        return "write", _frame(payload), BATCH

    def states(self, number: int) -> Dict[str, str]:
        """The states mapping of round ``number``, rebuilt."""
        configuration, flipped = self.rounds[number]
        states = dict(self.configurations[configuration])
        states.update(flipped)
        return states

    def when(self, number: int) -> datetime:
        return BASE_TIME + timedelta(minutes=number)

    def forget_unacked(self) -> None:
        del self.rounds[self.acked :]


def _frame(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "big") + payload


class FramePipe:
    """Pipelined pre-encoded frames over one connection, ids correlated."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: Dict[int, Tuple[asyncio.Future, float]] = {}
        self.task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def open(cls, host: str, port: int) -> "FramePipe":
        reader, writer = await asyncio.open_connection(host, port)
        writer.get_extra_info("socket").setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )
        return cls(reader, writer)

    async def request(self, request_id: int, frame: bytes) -> Tuple[dict, float]:
        """Send one frame; return its response and the time to it."""
        future = asyncio.get_running_loop().create_future()
        self.pending[request_id] = (future, perf_counter())
        self.writer.write(frame)
        await self.writer.drain()
        return await asyncio.wait_for(future, REQUEST_TIMEOUT)

    async def _read_loop(self) -> None:
        try:
            while True:
                response = await protocol.read_frame(self.reader)
                if response is None:
                    raise ConnectionError("server closed the connection")
                arrived = perf_counter()
                future, sent = self.pending.pop(response.get("id"), (None, 0.0))
                if future is not None and not future.done():
                    future.set_result((response, arrived - sent))
        except (ConnectionError, OSError, protocol.FrameError) as exc:
            for future, _ in self.pending.values():
                if not future.done():
                    future.set_exception(ConnectionError(str(exc)))
            self.pending.clear()

    async def close(self) -> None:
        self.task.cancel()
        await asyncio.gather(self.task, return_exceptions=True)
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@dataclass
class ServerProcess:
    """One ``repro serve --shards`` process tree: the supervisor-router and its shards."""

    process: subprocess.Popen
    host: str
    port: int
    shard_pids: List[int] = field(default_factory=list)
    shard_addresses: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def pids(self) -> List[int]:
        return [self.process.pid, *self.shard_pids]

    def peak_rss_mb(self) -> float:
        """Summed VmHWM of the server processes, read while they live."""
        total_kb = 0
        for pid in self.pids:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024

    def stop(self) -> None:
        """Close stdin (the server exits on EOF) and wait; kill if stuck."""
        if self.process.stdin is not None:
            self.process.stdin.close()
        try:
            self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=20)
        for pid in self.shard_pids:
            _wait_gone(pid)
        if self.process.stdout is not None:
            self.process.stdout.close()


def _wait_gone(pid: int) -> None:
    """Shards exit on their own stdin EOF; kill one that lingers."""
    for _ in range(200):
        if not Path(f"/proc/{pid}").exists():
            return
        status = Path(f"/proc/{pid}/status")
        try:
            if "State:\tZ" in status.read_text():
                return
        except OSError:
            return
        time.sleep(0.05)
    try:
        os.kill(pid, 9)
    except ProcessLookupError:
        pass


def start_server(root: Path, data_dir: Path, log: Path) -> ServerProcess:
    argv = [
        sys.executable, "-m", "repro", "serve", "--port", "0",
        "--data-dir", str(data_dir), "--exit-on-stdin-close",
        "--shards", str(SHARDS),
    ]
    # Span tracing off, whatever the caller's environment says.
    env = dict(os.environ, PYTHONPATH=str(root / "src"), REPRO_OBS="0")
    with log.open("ab") as stderr:
        process = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr,
            env=env, cwd=root, bufsize=0,  # unbuffered: select() sees every line
        )
    server = ServerProcess(process, "", 0)
    selector = selectors.DefaultSelector()
    selector.register(process.stdout, selectors.EVENT_READ)
    deadline = perf_counter() + SPAWN_TIMEOUT
    try:
        while True:
            if perf_counter() > deadline or not selector.select(deadline - perf_counter()):
                raise RuntimeError("server did not report readiness")
            line = process.stdout.readline().decode().strip()
            if not line:
                tail = log.read_text(errors="replace")[-2000:]
                raise RuntimeError(f"server exited before listening:\n{tail}")
            if "listening on " not in line:
                continue
            address = line.rsplit("listening on ", 1)[1].split()[0]
            host, _, port = address.rpartition(":")
            if line.startswith("shard "):
                server.shard_pids.append(int(line.rsplit("pid=", 1)[1]))
                server.shard_addresses.append((host, int(port)))
            elif line.startswith("listening on "):
                server.host, server.port = host, int(port)
                return server
    except BaseException:
        process.kill()
        process.wait(timeout=20)
        for pid in server.shard_pids:
            _wait_gone(pid)
        raise
    finally:
        selector.close()


def _data_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


@dataclass
class Load:
    """What the closed loop saw."""

    write_ms: List[float] = field(default_factory=list)
    read_ms: List[float] = field(default_factory=list)
    acks: List[Tuple[float, int, float]] = field(default_factory=list)
    requests: int = 0
    failures: List[str] = field(default_factory=list)


async def _drive(
    streams: List[Stream], pipes: List[FramePipe], requests: Optional[int],
    seconds: float, load: Load, timed: bool,
) -> None:
    """Run every stream's closed loop: a request count, or a time window."""
    ids = itertools.count(1)
    started = perf_counter()
    deadline = started + seconds

    async def loop(stream: Stream, pipe: FramePipe) -> None:
        sent = 0
        while (requests is None and perf_counter() < deadline) or (
            requests is not None and sent < requests
        ):
            sent += 1
            request_id = next(ids)
            kind, frame, rounds = stream.next_request(request_id)
            load.requests += 1
            try:
                response, latency = await pipe.request(request_id, frame)
            except (ConnectionError, asyncio.TimeoutError) as exc:
                load.failures.append(f"{stream.name}: {type(exc).__name__} {exc}")
                stream.forget_unacked()
                return
            if not response.get("ok"):
                load.failures.append(f"{stream.name}: {response.get('error')}")
                stream.forget_unacked()
                return
            if kind == "write" and response.get("accepted", 0) != rounds:
                load.failures.append(
                    f"{stream.name}: {response.get('accepted')} of {rounds} applied"
                )
                stream.forget_unacked()
                return
            stream.acked += rounds
            if not timed:
                continue
            if kind == "write":
                load.acks.append((perf_counter() - started, rounds, latency))
                load.write_ms.append(latency * 1000)
            else:
                load.read_ms.append(latency * 1000)

    await asyncio.gather(
        *(loop(stream, pipes[index % len(pipes)]) for index, stream in enumerate(streams))
    )


async def _create_monitors(host: str, port: int, streams: List[Stream]) -> None:
    async with AsyncServeClient(host, port, max_connections=1) as client:
        for stream in streams:
            await client.create(stream.name, NETWORKS)


async def _final_queries(host: str, port: int, streams: List[Stream]) -> Dict[str, dict]:
    async with AsyncServeClient(host, port, max_connections=1) as client:
        return {stream.name: await client.query(stream.name) for stream in streams}


async def _stats(host: str, port: int) -> dict:
    async with AsyncServeClient(host, port, max_connections=1) as client:
        return await client.stats()


async def _hop_probe(server: ServerProcess, streams: List[Stream]) -> Tuple[List[float], List[float]]:
    """The same ``query`` requests through the router and direct to the owner."""
    routed: List[float] = []
    direct: List[float] = []
    async with AsyncServeClient(server.host, server.port, max_connections=1) as via_router, \
            AsyncServeClient(server.host, server.port, max_connections=1,
                             ring_aware=True, topology_ttl=3600) as ring_aware:
        for number in range(HOP_PROBES):
            name = streams[number % len(streams)].name
            for client, samples in ((via_router, routed), (ring_aware, direct)):
                begun = perf_counter()
                await client.query(name)
                samples.append((perf_counter() - begun) * 1000)
    return routed, direct


def _oracles(streams: List[Stream]) -> Tuple[Dict[str, OnlineFenrir], float, int]:
    trackers = {}
    busy = 0.0
    rounds = 0
    for stream in streams:
        tracker = OnlineFenrir(networks=NETWORKS)
        for number in range(stream.acked):
            states, when = stream.states(number), stream.when(number)
            begun = perf_counter()
            tracker.ingest(states, when)
            busy += perf_counter() - begun
        rounds += stream.acked
        trackers[stream.name] = tracker
    return trackers, busy, rounds


def _expected(tracker: OnlineFenrir) -> dict:
    last = tracker.last_time
    return {
        "rounds": len(tracker.updates),
        "modes": tracker.num_modes,
        "events": tracker.num_events,
        "recurrences": tracker.num_recurrences,
        "current_mode": tracker.updates[-1].mode_id if tracker.updates else None,
        "last_time": last.isoformat() if last else None,
    }


def _match_us(stream: Stream, tracker: OnlineFenrir) -> float:
    """phi_one_to_many of the last round against the exemplar matrix."""
    catalog = StateCatalog()
    exemplars = [
        RoutingVector.from_mapping(stream.states(number), catalog, NETWORKS).codes
        for number, update in enumerate(tracker.updates)
        if update.is_new_mode
    ]
    matrix = np.vstack(exemplars)
    last = RoutingVector.from_mapping(stream.states(stream.acked - 1), catalog, NETWORKS)
    repeats = 200
    begun = perf_counter()
    for _ in range(repeats):
        phi_one_to_many(last.codes, matrix)
    return (perf_counter() - begun) / repeats * 1e6


def _layer_probes(stream: Stream, probe_dir: Path) -> dict:
    """In-process per-layer costs on this workload's own rounds."""
    messages = [
        {
            "cmd": "ingest_batch", "id": start, "monitor": stream.name,
            "rounds": [
                {"time": stream.when(n).isoformat(), "states": stream.states(n)}
                for n in range(start, start + BATCH)
            ],
        }
        for start in range(0, min(PROBE_ROUNDS, stream.acked) - BATCH + 1, BATCH)
    ]
    rounds = len(messages) * BATCH
    begun = perf_counter()
    frames = [protocol.encode_frame(message) for message in messages]
    encode = (perf_counter() - begun) / len(frames)
    begun = perf_counter()
    for frame in frames:
        protocol.decode_payload(frame[4:])
    decode = (perf_counter() - begun) / len(frames)

    monitor = DurableMonitor.create(probe_dir, "probe", networks=NETWORKS, snapshot_every=1000)
    begun = perf_counter()
    for start in range(0, rounds, BATCH):
        monitor.ingest_batch(
            [(stream.states(n), stream.when(n)) for n in range(start, start + BATCH)]
        )
    monitor_us = (perf_counter() - begun) / rounds * 1e6
    monitor.close()

    lines = [
        record_line(JournalRecord(seq=n + 1, time=stream.when(n), states=stream.states(n)))
        for n in range(rounds)
    ]
    writer = JournalWriter(probe_dir / "probe.jsonl")
    begun = perf_counter()
    for start in range(0, rounds, BATCH):
        writer.append_lines(lines[start : start + BATCH])
    commit_us = (perf_counter() - begun) / len(messages) * 1e6
    writer.close()
    return {
        "protocol.encode_us": encode * 1e6,
        "protocol.decode_us": decode * 1e6,
        "protocol.bytes_per_round": sum(len(frame) for frame in frames) / rounds,
        "monitor.ingest_us": monitor_us,
        "journal.commit_us": commit_us,
    }


def _command_latency(stats_documents: List[dict], command: str) -> Tuple[float, float]:
    """Count-weighted p50/p99 of one command over the servers' stats."""
    entries = [
        document["latency"][command]
        for document in stats_documents
        if command in document.get("latency", {})
    ]
    total = sum(entry["count"] for entry in entries) or 1
    return (
        sum(entry["p50_ms"] * entry["count"] for entry in entries) / total,
        sum(entry["p99_ms"] * entry["count"] for entry in entries) / total,
    )


async def _restart(root: Path, data_dir: Path, log: Path,
                   streams: List[Stream]) -> Tuple[ServerProcess, float, float, List[str]]:
    """Restart on the data dir; time until every monitor has answered.

    A server recovers every monitor before it listens, so one ``query``
    per monitor shows whether it came back with all its rounds.
    """
    begun = perf_counter()
    server = start_server(root, data_dir, log)
    problems = []
    try:
        async with AsyncServeClient(server.host, server.port, max_connections=1) as client:
            for stream in streams:
                answer = await client.query(stream.name)
                if answer["rounds"] != stream.acked:
                    problems.append(
                        f"restart recovered {answer['rounds']} of {stream.acked} "
                        f"rounds of {stream.name}"
                    )
            elapsed = perf_counter() - begun
            stats = await client.stats()
    except BaseException:
        server.stop()
        raise
    replay = sum(
        (document.get("replay") or {}).get("elapsed_seconds", 0.0)
        for document in stats.get("monitors", {}).values()
    )
    return server, elapsed, replay, problems


def run(workload: str, seed: int, seconds: float, trace: bool, started: float,
        root: Path, work: Path) -> Outcome:
    return asyncio.run(_run(seed, seconds, trace, started, root, work))


async def _load(server: ServerProcess, streams: List[Stream], connections: int,
                requests: Optional[int], seconds: float, load: Load, timed: bool) -> None:
    pipes = [await FramePipe.open(server.host, server.port) for _ in range(connections)]
    try:
        await _drive(streams, pipes, requests, seconds, load, timed)
    finally:
        for pipe in pipes:
            await pipe.close()


def _iqm(values: List[float]) -> float:
    """Interquartile mean: the mean of the middle half (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.mean(ordered[quarter : len(ordered) - quarter])


def _slices(load: Load, seconds: float) -> Tuple[List[int], List[List[float]]]:
    """Acked rounds and write latencies (ms) per whole one-second slice."""
    rounds = [0] * int(seconds)
    latencies: List[List[float]] = [[] for _ in rounds]
    for at, count, latency in load.acks:
        if int(at) < len(rounds):
            rounds[int(at)] += count
            latencies[int(at)].append(latency * 1000)
    return rounds, latencies


async def _run(seed: int, seconds: float, trace: bool, started: float,
               root: Path, work: Path) -> Outcome:
    connections = min(2, len(os.sched_getaffinity(0)))
    streams = [Stream(index, seed) for index in range(STREAMS)]
    inputs_s = perf_counter() - started
    outcome = Outcome()
    outcome.notes["sizes"] = {
        "streams": STREAMS, "networks": len(NETWORKS), "sites": len(SITES),
        "batch": BATCH, "shards": SHARDS,
        "warmup_requests_per_stream": WARMUP_REQUESTS,
    }
    outcome.notes["load"] = {
        "loop": "closed", "connections": connections,
        "in_flight": STREAMS, "per_stream_window": 1,
    }
    log = work / "server.log"
    data_dir = work / "data"
    starts = []
    load = Load()
    server: Optional[ServerProcess] = None
    try:
        for _ in range(SERVER_STARTS):
            if server is not None:
                server.stop()
                shutil.rmtree(data_dir)
            begun = perf_counter()
            server = start_server(root, data_dir, log)
            await _create_monitors(server.host, server.port, streams)
            starts.append(perf_counter() - begun)
        setup_s = inputs_s + statistics.median(starts)
        outcome.samples["setup_s"] = summary([inputs_s + s for s in starts])

        # A fixed, seeded warm-up gives the restart the same data on
        # every run; the timed window then runs on the restarted server.
        await _load(server, streams, connections, WARMUP_REQUESTS, 0.0, load, False)
        restarts = []
        for _ in range(RESTARTS):
            server.stop()
            server = None
            outcome.attempted += 1
            server, elapsed, replay_s, problems = await _restart(root, data_dir, log, streams)
            restarts.append(elapsed)
            for problem in problems:
                outcome.fail(problem)
        cold_start_s = statistics.median(restarts)
        outcome.samples["cold_start_s"] = summary(restarts)
        recovered = sum(stream.acked for stream in streams)
        await _load(server, streams, connections, None, seconds, load, True)
        outcome.attempted += load.requests
        for failure in load.failures:
            outcome.fail(failure)

        stats = await _stats(server.host, server.port)
        acked = sum(stream.acked for stream in streams)
        outcome.attempted += 1
        # The restarted server counts only what it ingested itself.
        ingested = stats["counters"].get("rounds_ingested", 0)
        if ingested != acked - recovered:
            outcome.fail(
                f"server rounds_ingested {ingested} != acked since restart "
                f"{acked - recovered}"
            )
        finals = await _final_queries(server.host, server.port, streams)
        if trace:
            shard_stats = [await _stats(*address) for address in server.shard_addresses]
            hop = await _hop_probe(server, streams)
        peak_rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    journal_bytes = _data_bytes(data_dir)

    begun = perf_counter()
    trackers, oracle_busy, oracle_rounds = _oracles(streams)
    outcome.notes["phase_s"] = {
        "starts": sum(starts), "restarts": sum(restarts),
        "oracle": perf_counter() - begun, "total": perf_counter() - started,
    }
    for stream in streams:
        outcome.attempted += 1
        expected = _expected(trackers[stream.name])
        served = {key: finals[stream.name].get(key) for key in expected}
        if served != expected:
            outcome.fail(f"{stream.name}: served {served} != oracle {expected}")
    outcome.notes["acked_rounds"] = acked
    outcome.notes["modes_per_monitor"] = statistics.mean(
        tracker.num_modes for tracker in trackers.values()
    )
    outcome.samples["write_ms"] = summary(load.write_ms)
    outcome.samples["read_ms"] = summary(load.read_ms)
    # Rate, median and tail are interquartile means over one-second
    # slices, so a stall of a second or two on a shared host moves them
    # little.
    slice_rounds, slice_latencies = _slices(load, seconds)
    slice_p50 = [statistics.median(values) for values in slice_latencies if values]
    slice_p99 = [percentile(values, 0.99) for values in slice_latencies if values]
    outcome.samples["slice_rounds"] = summary(slice_rounds)
    outcome.samples["slice_p50_ms"] = summary(slice_p50)
    outcome.samples["slice_p99_ms"] = summary(slice_p99)

    if not trace:
        outcome.metrics = {
            "setup_s": setup_s,
            "rounds_per_s": _iqm(slice_rounds),
            "op_p50_ms": _iqm(slice_p50),
            "op_p99_ms": _iqm(slice_p99),
            "cold_start_s": cold_start_s,
            "peak_rss_mb": peak_rss_mb,
        }
        return outcome

    command_p50, command_p99 = _command_latency(shard_stats, "ingest_batch")
    probe_dir = work / "probe"
    probe_dir.mkdir()
    metrics = _layer_probes(streams[0], probe_dir)
    routed, direct = hop
    metrics.update({
        "trace.overhead_pct": 0.0,  # the window is not traced
        "online.ingest_us": oracle_busy / oracle_rounds * 1e6,
        "online.match_us": statistics.median(
            _match_us(stream, trackers[stream.name]) for stream in streams[:4]
        ),
        "online.modes": sum(tracker.num_modes for tracker in trackers.values()),
        "journal.bytes_per_round": journal_bytes / acked,
        "server.command_p50_ms": command_p50,
        "server.command_p99_ms": command_p99,
        "server.overload_rejections": stats["counters"].get("overload_rejections", 0),
        "wire.residual_ms": statistics.median(load.write_ms) - command_p50,
        "replay.s": replay_s,
        "router.hop_p50_ms": statistics.median(routed) - statistics.median(direct),
        "router.hop_p99_ms": percentile(routed, 0.99) - percentile(direct, 0.99),
        "read.p50_ms": statistics.median(load.read_ms),
        "read.p99_ms": percentile(load.read_ms, 0.99),
    })
    outcome.metrics = metrics
    return outcome
