"""The sharded serve tier: supervisor, shard processes, replication.

``repro serve --shards N`` runs one :class:`ClusterSupervisor`, which

* spawns N worker shards as child ``repro serve`` processes (each a
  stock single-process server over its own ``shard-NN`` journal
  directory — :class:`~repro.serve.monitor.DurableMonitor` is reused
  unchanged),
* starts a :class:`~repro.serve.router.ShardRouter` front-end that
  speaks the ordinary wire protocol and routes by consistent hash,
* watches the children: a dead shard is restarted on its own journal
  directory (recovery replays it), or — with ``--replicate`` — its
  follower is *promoted* in place and a fresh follower is respawned
  over the dead primary's directory,
* rebalances on start: when the shard count changed between runs,
  monitors sitting on the wrong shard are moved with
  ``handoff`` → ``install`` → ``retire``.

Replication is asynchronous snapshot shipping, not synchronous
quorum: each follower runs a :class:`ReplicationFollower` loop inside
its own server process, pulling ``handoff`` deltas from its primary
every ``sync_interval`` seconds and applying them in O(delta) via
:meth:`~repro.core.online.OnlineFenrir.apply_delta`. A promoted
follower therefore serves every round it had synced; rounds acked by
the primary after the last sync are recovered when the primary's
journal directory is replayed (they are never lost, only failed over
late). See ``docs/cluster.md`` for the full semantics and runbook.

Child processes are spawned with ``--exit-on-stdin-close`` and their
stdin held by the supervisor, so a SIGKILLed supervisor cannot leak
orphan shards holding journal locks — the pipe's EOF retires them.
"""

from __future__ import annotations

import asyncio
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ..obs import MetricsRegistry
from .aio.client import AsyncServeClient
from .protocol import ERR_BAD_REQUEST, FrameError, ServeClientError
from .ring import HashRing, misplaced
from .router import ClusterState, ShardRouter

if TYPE_CHECKING:
    from .server import FenrirServer

__all__ = [
    "ClusterConfig",
    "ClusterSupervisor",
    "ReplicationFollower",
]

_READY_PREFIX = "listening on "
_SPAWN_TIMEOUT = 60.0
#: Seconds between the supervisor's liveness checks of its children.
_POLL_INTERVAL = 0.1


async def _kill(process: asyncio.subprocess.Process) -> None:
    """SIGKILL ``process`` unless it already exited, and reap it."""
    if process.returncode is None:
        try:
            process.kill()
        except ProcessLookupError:
            pass  # exited between the check and the signal
    await process.wait()


class ReplicationFollower:
    """Pull loop keeping a follower server converged on its primary.

    Every ``interval`` seconds: list the primary's monitors, retire
    local monitors the primary no longer has, and for each primary
    monitor request a ``handoff`` delta chaining from the local round
    count — ``unchanged`` is a no-op, a delta applies in O(delta), and
    any divergence (the follower is ahead after a role swap, or the
    chain does not fold) falls back to a full state install. Primary
    outages are absorbed: the loop resets its connection and retries on
    the next tick, so a follower started before its primary, or one
    whose primary is mid-restart, converges as soon as it can.
    """

    def __init__(
        self,
        server: FenrirServer,
        primary: Tuple[str, int],
        interval: float = 0.5,
    ) -> None:
        self.server = server
        self.primary = primary
        self.interval = interval
        self._stopped = asyncio.Event()
        self._client = AsyncServeClient(*primary)
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self.run())

    async def run(self) -> None:
        # Imported here, not at module level: the supervisor imports this
        # module and must not load numpy; a follower's process already has.
        from .monitor import MonitorError

        while not self._stopped.is_set():
            try:
                await self._sync_once()
                self.server.registry.counter(
                    "serve_follower_syncs_total",
                    help="Completed replication sync passes",
                ).inc()
            except (
                ConnectionError,
                OSError,
                FrameError,
                ServeClientError,
                MonitorError,
            ):
                # The primary is down, mid-restart, or answered with an
                # error; drop the connection and retry next tick.
                await self._client.close()
                self.server.registry.counter(
                    "serve_follower_sync_errors_total",
                    help="Replication sync passes that failed and will retry",
                ).inc()
            try:
                await asyncio.wait_for(self._stopped.wait(), timeout=self.interval)
            except asyncio.TimeoutError:
                pass

    async def stop(self) -> None:
        """Stop syncing (idempotent); called by the ``promote`` command."""
        self._stopped.set()
        if self._task is not None and self._task is not asyncio.current_task():
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            except Exception:
                # The loop died on an unexpected error before the cancel
                # landed; shutdown still succeeds, but leave a trace.
                self.server.registry.counter(
                    "serve_follower_sync_errors_total",
                    help="Replication sync passes that failed and will retry",
                ).inc()
            self._task = None
        await self._client.close()

    async def _sync_once(self) -> None:
        names = set(await self._client.list_monitors())
        # Monitors we hold that the primary does not (stale after a
        # rebalance or role swap) would resurface old data if this
        # follower were promoted; retire them.
        for name in sorted(set(self.server._monitors) - names):
            await self.server.retire_monitor(name)
        for name in sorted(names):
            await self._sync_monitor(name)

    async def _sync_monitor(self, name: str) -> None:
        from .monitor import MonitorError

        runtime = self.server._monitors.get(name)
        if runtime is None:
            export = await self._client.handoff(name)
        else:
            local_rounds = len(runtime.monitor.tracker.updates)
            try:
                export = await self._client.handoff(name, local_rounds)
            except ServeClientError as exc:
                if exc.code != ERR_BAD_REQUEST:
                    raise
                # We are ahead of the primary (stale journal replayed
                # after a role swap): resynchronize from scratch.
                export = await self._client.handoff(name)
        if export.get("kind") == "unchanged":
            return
        try:
            self.server.install_state(name, export["seq"], export["state"])
        except MonitorError:
            if export.get("kind") != "delta":
                raise
            # The delta did not chain (e.g. our state predates a
            # compaction); a full install always converges.
            export = await self._client.handoff(name)
            self.server.install_state(name, export["seq"], export["state"])


@dataclass
class ClusterConfig:
    """Tunables for one sharded serve tier."""

    data_dir: Path
    shards: int = 2
    host: str = "127.0.0.1"
    port: int = 7339  # router port; 0 = OS-assigned. Shards always use 0.
    replicate: bool = False
    sync_interval: float = 0.5
    queue_size: int = 256
    snapshot_every: int = 1000
    fsync: bool = False

    def __post_init__(self) -> None:
        self.data_dir = Path(self.data_dir)
        if self.shards < 1:
            raise ValueError("shards must be at least 1")


@dataclass
class _ShardProcess:
    """One managed child ``repro serve`` process."""

    shard_id: int
    role: str  # "primary" | "follower"
    directory: Path
    process: asyncio.subprocess.Process
    address: Tuple[str, int]
    # Awaiting process.wait() in the background keeps returncode fresh.
    waiter: asyncio.Task = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def alive(self) -> bool:
        return self.process.returncode is None


@dataclass
class _ShardPair:
    primary: _ShardProcess
    follower: Optional[_ShardProcess] = None


class ClusterSupervisor:
    """Spawns, watches, heals, and fronts the shard processes."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.registry = MetricsRegistry()
        self.state = ClusterState(ring=HashRing.for_cluster(config.shards))
        self.router = ShardRouter(
            self.state, host=config.host, port=config.port, registry=self.registry
        )
        self._shards: Dict[int, _ShardPair] = {}
        self._watch_task: Optional[asyncio.Task] = None
        self._rebalances = self.registry.counter(
            "cluster_rebalances_total",
            help="Monitors moved to their ring owner at startup",
        )

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Spawn every shard (and follower), rebalance, open the router.

        All primaries start at once, then (with ``replicate``) all
        followers, so a start takes about one child's start time. If any
        child fails to report readiness, every child already started is
        stopped before the error propagates.
        """
        self.config.data_dir.mkdir(parents=True, exist_ok=True)
        shard_ids = range(self.config.shards)
        primaries = await self._spawn_all(
            (shard_id, "primary", self._primary_dir(shard_id), None)
            for shard_id in shard_ids
        )
        for primary in primaries:
            self._shards[primary.shard_id] = _ShardPair(primary=primary)
            self.state.set_address(primary.shard_id, primary.address)
            self._up_gauge(primary.shard_id).set(1)
        try:
            await self._rebalance_on_start()
            if self.config.replicate:
                followers = await self._spawn_all(
                    (
                        shard_id,
                        "follower",
                        self._follower_dir(shard_id),
                        self._shards[shard_id].primary.address,
                    )
                    for shard_id in shard_ids
                )
                for follower in followers:
                    self._shards[follower.shard_id].follower = follower
            await self.router.start()
        except BaseException:
            await self._stop_children()
            raise

    @property
    def address(self) -> Tuple[str, int]:
        return self.router.address

    def describe_processes(self) -> List[str]:
        """One machine-readable line per child, for harnesses to parse."""
        lines: List[str] = []
        for shard_id in sorted(self._shards):
            pair = self._shards[shard_id]
            processes = [pair.primary]
            if pair.follower is not None:
                processes.append(pair.follower)
            for child in processes:
                host, port = child.address
                lines.append(
                    f"shard {shard_id} {child.role} listening on "
                    f"{host}:{port} pid={child.process.pid}"
                )
        return lines

    async def serve_forever(self) -> None:
        self._watch_task = asyncio.get_running_loop().create_task(self._watch())
        try:
            await self.router.serve_forever()
        finally:
            if self._watch_task is not None:
                self._watch_task.cancel()
                self._watch_task = None

    async def stop(self) -> None:
        if self._watch_task is not None:
            self._watch_task.cancel()
            self._watch_task = None
        await self.router.stop()
        await self._stop_children()

    # -- child process management --------------------------------------------

    def _primary_dir(self, shard_id: int) -> Path:
        return self.config.data_dir / f"shard-{shard_id:02d}"

    def _follower_dir(self, shard_id: int) -> Path:
        return self.config.data_dir / f"shard-{shard_id:02d}-follower"

    def _up_gauge(self, shard_id: int):  # type: ignore[no-untyped-def]
        return self.registry.gauge(
            "cluster_shard_up",
            labels={"shard": str(shard_id)},
            help="1 when the shard's primary is serving, else 0",
        )

    async def _spawn(
        self,
        shard_id: int,
        role: str,
        directory: Path,
        follow: Optional[Tuple[str, int]] = None,
    ) -> _ShardProcess:
        """Start one child server and wait for its readiness line."""
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            self.config.host,
            "--port",
            "0",
            "--data-dir",
            str(directory),
            "--queue-size",
            str(self.config.queue_size),
            "--snapshot-every",
            str(self.config.snapshot_every),
            "--exit-on-stdin-close",
        ]
        if self.config.fsync:
            argv.append("--fsync")
        if follow is not None:
            argv += [
                "--follow",
                f"{follow[0]}:{follow[1]}",
                "--sync-interval",
                str(self.config.sync_interval),
            ]
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else package_root + os.pathsep + existing
        )
        process = await asyncio.create_subprocess_exec(
            *argv,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=env,
        )
        try:
            line = await asyncio.wait_for(
                process.stdout.readline(), _SPAWN_TIMEOUT  # type: ignore[union-attr]
            )
        except BaseException as exc:
            # Timed out, or cancelled: leave no half-started child behind.
            await _kill(process)
            if isinstance(exc, asyncio.TimeoutError):
                raise RuntimeError(
                    f"shard {shard_id} {role} did not report readiness "
                    f"within {_SPAWN_TIMEOUT}s"
                ) from None
            raise
        if not line:
            # Stdout closed before readiness: the child is exiting (its
            # own stderr line says why); report how it ended.
            try:
                await asyncio.wait_for(process.wait(), 5.0)
            except asyncio.TimeoutError:
                await _kill(process)
            raise RuntimeError(
                f"shard {shard_id} {role} exited with status "
                f"{process.returncode} before reporting readiness"
            )
        text = line.decode("utf-8", "replace").strip()
        if not text.startswith(_READY_PREFIX):
            await _kill(process)
            raise RuntimeError(
                f"shard {shard_id} {role} failed to start "
                f"(first line: {text!r})"
            )
        host, _, port_text = text[len(_READY_PREFIX):].rpartition(":")
        child = _ShardProcess(
            shard_id=shard_id,
            role=role,
            directory=directory,
            process=process,
            address=(host, int(port_text)),
        )
        child.waiter = asyncio.get_running_loop().create_task(process.wait())
        return child

    async def _spawn_all(
        self,
        specs: Iterable[Tuple[int, str, Path, Optional[Tuple[str, int]]]],
    ) -> List[_ShardProcess]:
        """Run :meth:`_spawn` for every ``(shard, role, directory, follow)``
        at once; on any failure, stop the ones that started and re-raise
        the first failure in spec order."""
        results = await asyncio.gather(
            *(self._spawn(*spec) for spec in specs), return_exceptions=True
        )
        started = [r for r in results if isinstance(r, _ShardProcess)]
        for result in results:
            if isinstance(result, BaseException):
                await self._terminate_all(started)
                raise result
        return started

    async def _stop_children(self) -> None:
        """Terminate every follower at once, then every primary at once.

        Followers go first so that no primary stops while a follower's
        sync connection to it is still open.
        """
        pairs = list(self._shards.values())
        await self._terminate_all(
            pair.follower for pair in pairs if pair.follower is not None
        )
        await self._terminate_all(pair.primary for pair in pairs)

    async def _terminate_all(self, children: Iterable[_ShardProcess]) -> None:
        await asyncio.gather(*(self._terminate(child) for child in children))

    async def _terminate(self, child: _ShardProcess) -> None:
        """Stop a child: close stdin (clean exit), escalate if needed."""
        process = child.process
        if process.returncode is not None:
            return
        if process.stdin is not None:
            process.stdin.close()
        try:
            await asyncio.wait_for(process.wait(), 5.0)
            return
        except asyncio.TimeoutError:
            pass
        try:
            process.terminate()
        except ProcessLookupError:
            pass
        try:
            await asyncio.wait_for(process.wait(), 5.0)
        except asyncio.TimeoutError:
            await _kill(process)

    # -- healing -------------------------------------------------------------

    async def _watch(self) -> None:
        """Liveness loop: restart dead shards, promote followers."""
        while True:
            await asyncio.sleep(_POLL_INTERVAL)
            for shard_id, pair in self._shards.items():
                if not pair.primary.alive:
                    await self._heal_primary(shard_id, pair)
                if (
                    self.config.replicate
                    and pair.primary.alive
                    and (pair.follower is None or not pair.follower.alive)
                ):
                    await self._heal_follower(shard_id, pair)

    async def _heal_primary(self, shard_id: int, pair: _ShardPair) -> None:
        self._up_gauge(shard_id).set(0)
        if pair.follower is not None and pair.follower.alive:
            if await self._promote(shard_id, pair):
                return
        # No follower (or promotion failed): restart on the same journal
        # directory; recovery replays every acknowledged round.
        try:
            fresh = await self._spawn(
                shard_id, "primary", pair.primary.directory
            )
        except (RuntimeError, OSError):
            return  # retry on the next watch tick
        pair.primary = fresh
        self.state.set_address(shard_id, fresh.address)
        self._up_gauge(shard_id).set(1)
        self.registry.counter(
            "cluster_shard_restarts_total",
            labels={"shard": str(shard_id)},
            help="Primary restarts after a crash",
        ).inc()
        # The follower (if any) is pinned to the old primary address;
        # respawn it against the new one.
        if pair.follower is not None and pair.follower.alive:
            await self._terminate(pair.follower)
            pair.follower = None

    async def _promote(self, shard_id: int, pair: _ShardPair) -> bool:
        """Fail over to the follower; True when it now owns the shard."""
        follower = pair.follower
        assert follower is not None
        try:
            async with AsyncServeClient(*follower.address, timeout=10.0) as client:
                await client.promote()
        except (ConnectionError, OSError, FrameError, ServeClientError):
            return False
        follower.role = "primary"
        pair.primary = follower
        pair.follower = None
        self.state.set_address(shard_id, follower.address)
        self._up_gauge(shard_id).set(1)
        self.registry.counter(
            "cluster_failovers_total",
            labels={"shard": str(shard_id)},
            help="Follower promotions after a primary death",
        ).inc()
        return True

    async def _heal_follower(self, shard_id: int, pair: _ShardPair) -> None:
        if pair.follower is not None:
            await self._terminate(pair.follower)
            pair.follower = None
        # The directory not serving as the primary's becomes the new
        # follower's home (after a failover that is the dead primary's
        # old directory; its stale state full-resyncs on first sync).
        directory = (
            self._follower_dir(shard_id)
            if pair.primary.directory == self._primary_dir(shard_id)
            else self._primary_dir(shard_id)
        )
        try:
            pair.follower = await self._spawn(
                shard_id, "follower", directory, follow=pair.primary.address
            )
        except (RuntimeError, OSError):
            pair.follower = None  # retry on the next watch tick

    # -- rebalance -----------------------------------------------------------

    async def _rebalance_on_start(self) -> None:
        """Move monitors whose ring owner changed since the last run.

        Guarded by sequence comparison: a monitor already present on
        the target shard at an equal-or-newer seq (a crash between
        install and retire on a previous rebalance) is not clobbered —
        the stale source copy is just retired.
        """
        # A move ships a whole monitor's state: allow it the spawn timeout.
        shards = {
            shard_id: AsyncServeClient(*pair.primary.address, timeout=_SPAWN_TIMEOUT)
            for shard_id, pair in self._shards.items()
        }
        try:
            holdings = {
                shard_id: await shard.list_monitors()
                for shard_id, shard in shards.items()
            }
            for name, source, target in misplaced(self.state.ring, holdings):
                export = await shards[source].handoff(name)
                target_seq = -1
                if name in holdings[target]:
                    target_seq = int((await shards[target].query(name))["seq"])
                if export["seq"] > target_seq:
                    await shards[target].install(name, export["seq"], export["state"])
                await shards[source].retire(name)
                self._rebalances.inc()
        finally:
            for shard in shards.values():
                await shard.close()
