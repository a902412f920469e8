"""Reusable fault-injection harness for the sharded serve tier.

Not a test module (no ``test_`` prefix): ``tests/test_serve_cluster.py``
imports these pieces to build the kill-a-shard, kill-the-router,
kill-during-handoff, and replication-failover scenarios. The harness
owns exactly three concerns:

* **process control** — spawn a real ``repro serve --shards N`` cluster
  as subprocesses, parse the readiness lines for every child's address
  and pid, SIGKILL chosen victims, restart the whole tier, and fail a
  clean stop if any process of the tier wrote a ``Traceback`` to its
  stderr (a log next to the data directory);
* **resilient feeding** — push a deterministic round sequence through
  the router, surviving failovers by re-querying how many rounds the
  cluster actually applied and resuming from there (the durability
  contract makes the applied count authoritative);
* **oracle comparison** — replay the same rounds through an
  uninterrupted in-process :class:`~repro.core.online.OnlineFenrir`
  and compare *canonical state bytes*, not summaries, so any divergence
  anywhere in the state document fails loudly.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from datetime import datetime, timedelta
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.online import OnlineFenrir
from repro.serve import (
    FrameError,
    ServeClient,
    ServeClientError,
    ServeTimeout,
)
from repro.serve.ring import HashRing

REPO_ROOT = Path(__file__).resolve().parent.parent
T0 = datetime(2025, 1, 1)

Round = Tuple[Dict[str, str], datetime]

_RETRYABLE = (ServeClientError, ServeTimeout, FrameError, OSError)


def generate_rounds(
    networks: Sequence[str], count: int, seed: int = 0, states: int = 4
) -> List[Round]:
    """A deterministic, timestamp-ordered round sequence.

    Seeded ``random.Random`` keeps every scenario reproducible from its
    seed; strictly increasing timestamps keep replays idempotent under
    the monitor's out-of-order rejection.
    """
    import random

    rng = random.Random(seed)
    assignment = {network: f"s{rng.randrange(states)}" for network in networks}
    rounds: List[Round] = []
    for index in range(count):
        if index and rng.random() < 0.4:
            for network in networks:
                if rng.random() < 0.3:
                    assignment[network] = f"s{rng.randrange(states)}"
        rounds.append((dict(assignment), T0 + timedelta(minutes=index)))
    return rounds


def oracle_state(networks: Sequence[str], rounds: Sequence[Round]) -> dict:
    """The uninterrupted single-process run's exact state document."""
    oracle = OnlineFenrir(networks=list(networks))
    for states, when in rounds:
        oracle.ingest(states, when)
    return oracle.to_state()


def canonical(state: dict) -> bytes:
    """Canonical bytes of a state document, for exact equality asserts."""
    return json.dumps(state, sort_keys=True, separators=(",", ":")).encode()


class ClusterHarness:
    """A real ``repro serve --shards N`` cluster under test control."""

    def __init__(
        self,
        data_dir: Path,
        shards: int = 2,
        replicate: bool = False,
        sync_interval: float = 0.1,
        snapshot_every: int = 1000,
        queue_size: int = 256,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.shards = shards
        self.replicate = replicate
        self.sync_interval = sync_interval
        self.snapshot_every = snapshot_every
        self.queue_size = queue_size
        self.ring = HashRing.for_cluster(shards)
        #: The supervisor's stderr, which every child inherits, across restarts.
        self.stderr_path = self.data_dir.with_name(self.data_dir.name + "-stderr.log")
        self.process: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None
        #: (shard, role) -> (address, pid), parsed from readiness lines.
        self.children: Dict[Tuple[int, str], Tuple[Tuple[str, int], int]] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self, timeout: float = 90.0) -> "ClusterHarness":
        assert self.process is None, "cluster already running"
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--shards",
            str(self.shards),
            "--port",
            "0",
            "--data-dir",
            str(self.data_dir),
            "--queue-size",
            str(self.queue_size),
            "--snapshot-every",
            str(self.snapshot_every),
            "--sync-interval",
            str(self.sync_interval),
            "--exit-on-stdin-close",
        ]
        if self.replicate:
            argv.append("--replicate")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        with self.stderr_path.open("ab") as stderr:
            self.process = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=stderr,
                env=env,
            )
        self.children = {}
        deadline = time.monotonic() + timeout
        assert self.process.stdout is not None
        while True:
            if time.monotonic() > deadline:
                self.stop()
                raise TimeoutError("cluster did not become ready in time")
            line = self.process.stdout.readline().decode("utf-8", "replace")
            if not line:
                raise RuntimeError("cluster exited during startup")
            text = line.strip()
            if text.startswith("shard "):
                # "shard N ROLE listening on H:P pid=M"
                parts = text.split()
                shard, role = int(parts[1]), parts[2]
                host, _, port = parts[5].rpartition(":")
                pid = int(parts[6].split("=", 1)[1])
                self.children[(shard, role)] = ((host, int(port)), pid)
            elif text.startswith("listening on "):
                host, _, port = text.split()[-1].rpartition(":")
                self.address = (host, int(port))
                return self

    def stop(self, check_stderr: bool = True) -> None:
        """Stop the tier; then, with ``check_stderr``, assert that no
        process of it (this run or an earlier one over the same data
        directory) wrote a traceback."""
        if self.process is None:
            return
        process, self.process = self.process, None
        if process.poll() is None:
            assert process.stdin is not None
            process.stdin.close()
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=15)
        if process.stdout is not None:
            process.stdout.close()
        if check_stderr:
            self.assert_no_traceback()

    def assert_no_traceback(self) -> None:
        text = self.stderr_path.read_text(errors="replace")
        assert "Traceback" not in text, f"the cluster wrote a traceback:\n{text}"

    def __enter__(self) -> "ClusterHarness":
        return self.start()

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        # A failing scenario's own error is the one to report.
        self.stop(check_stderr=exc_type is None)

    def restart(self, timeout: float = 90.0) -> "ClusterHarness":
        """Stop (if running) and start again over the same data dir."""
        self.stop()
        self.address = None
        return self.start(timeout=timeout)

    # -- fault injection -----------------------------------------------------

    def kill_child(self, shard: int, role: str = "primary") -> int:
        """SIGKILL one shard process; returns the killed pid."""
        _address, pid = self.children[(shard, role)]
        os.kill(pid, signal.SIGKILL)
        return pid

    def kill_router(self) -> None:
        """SIGKILL the supervisor/router and wait for the children to die.

        The children hold the read end of the supervisor's stdin pipes;
        its death closes the write ends, and ``--exit-on-stdin-close``
        retires every shard. Waiting for that here means ``restart()``
        never races a dying shard for the journal directories.
        """
        assert self.process is not None
        self.process.kill()
        self.process.wait(timeout=15)
        if self.process.stdout is not None:
            self.process.stdout.close()
        self.process = None
        deadline = time.monotonic() + 30.0
        pids = [pid for _address, pid in self.children.values()]
        while time.monotonic() < deadline:
            alive = []
            for pid in pids:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    continue
                alive.append(pid)
            pids = alive
            if not pids:
                return
            time.sleep(0.1)
        raise TimeoutError(f"shard processes {pids} survived router death")

    def owner_of(self, monitor: str) -> int:
        return self.ring.owner(monitor)

    # -- clients and polling -------------------------------------------------

    def client(self, timeout: float = 10.0) -> ServeClient:
        assert self.address is not None
        return ServeClient(self.address[0], self.address[1], timeout=timeout)

    def child_client(
        self, shard: int, role: str, timeout: float = 10.0
    ) -> ServeClient:
        """A client talking to one shard process directly (not the router)."""
        (host, port), _pid = self.children[(shard, role)]
        return ServeClient(host, port, timeout=timeout)

    def monitor_rounds(self, monitor: str, timeout: float = 30.0) -> int:
        """The cluster's applied round count; retries across failover."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                with self.client(timeout=5.0) as client:
                    return int(client.query(monitor)["rounds"])
            except ServeClientError as exc:
                if exc.code == "no_such_monitor":
                    return 0
                if time.monotonic() > deadline:
                    raise
            except _RETRYABLE:
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.2)

    def monitor_state(self, monitor: str, timeout: float = 30.0) -> dict:
        """The owning shard's full state document, via the router."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                with self.client(timeout=10.0) as client:
                    return client.handoff(monitor)["state"]
            except _RETRYABLE:
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.2)

    def wait_shard_up(self, shard: int, timeout: float = 30.0) -> None:
        """Block until the router reports the shard healthy again."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                with self.client(timeout=5.0) as client:
                    status = client.stats()["cluster"]["shard_status"]
                if status.get(str(shard), {}).get("up"):
                    return
            except _RETRYABLE:
                pass
            time.sleep(0.2)
        raise TimeoutError(f"shard {shard} did not come back up")

    def wait_follower_rounds(
        self, shard: int, monitor: str, rounds: int, timeout: float = 30.0
    ) -> None:
        """Block until the shard's follower has synced ``rounds`` rounds."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                with self.child_client(shard, "follower", timeout=5.0) as client:
                    if int(client.query(monitor)["rounds"]) >= rounds:
                        return
            except _RETRYABLE:
                pass
            time.sleep(0.2)
        raise TimeoutError(
            f"shard {shard} follower never reached {rounds} rounds of {monitor!r}"
        )


def feed_rounds(
    harness: ClusterHarness,
    monitor: str,
    networks: Sequence[str],
    rounds: Sequence[Round],
    batch_size: int = 1,
    before_round: Optional[Callable[[int], None]] = None,
    timeout: float = 10.0,
    overall_timeout: float = 120.0,
) -> int:
    """Feed ``rounds`` through the router until all are applied.

    Survives shard deaths mid-stream: any error (refused connection,
    ``shard_unavailable``, timeout, torn connection) drops the client,
    re-queries the cluster's applied round count — which the durability
    contract makes authoritative — and resumes from exactly there, so
    nothing is skipped or double-applied. ``before_round(index)`` runs
    before the round at ``index`` is sent; chaos tests use it to place
    a SIGKILL at a seeded position mid-stream.
    """
    deadline = time.monotonic() + overall_timeout
    applied = harness.monitor_rounds(monitor)
    client: Optional[ServeClient] = None

    def drop() -> None:
        nonlocal client
        if client is not None:
            try:
                client.close()
            except OSError:
                pass
            client = None

    try:
        while applied < len(rounds):
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"fed {applied}/{len(rounds)} rounds before the deadline"
                )
            if before_round is not None:
                before_round(applied)
            try:
                if client is None:
                    client = harness.client(timeout=timeout)
                    if monitor not in client.list_monitors():
                        client.create(monitor, networks)
                if batch_size <= 1:
                    states, when = rounds[applied]
                    client.ingest(monitor, states, when)
                    applied += 1
                else:
                    chunk = list(rounds[applied : applied + batch_size])
                    response = client.ingest_batch(monitor, chunk)
                    if response.get("failed") is not None:
                        # Partial overlap after a lost ack: re-sync from
                        # the cluster's own count rather than guessing.
                        applied = harness.monitor_rounds(monitor)
                    else:
                        applied += len(chunk)
            except ServeClientError as exc:
                if exc.code == "monitor_exists":
                    continue  # lost the create's ack; it landed
                drop()
                time.sleep(0.2)
                applied = harness.monitor_rounds(monitor)
            except (ServeTimeout, FrameError, OSError):
                drop()
                time.sleep(0.2)
                applied = harness.monitor_rounds(monitor)
    finally:
        drop()
    return applied
