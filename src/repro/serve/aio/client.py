""":class:`AsyncServeClient`: the pooled, optionally ring-aware client.

The command surface is the blocking
:class:`~repro.serve.client.ServeClient`'s, from the same definitions
(:mod:`repro.serve.commands`), so callers port by adding ``await``;
under the hood every call borrows a slot from a
:class:`~repro.serve.aio.pool.ConnectionPool`, which means thousands of
logical requests can be in flight from one process over a handful of
sockets.

Ring-aware mode (``ring_aware=True``) additionally learns the cluster
shape from the ``topology`` command and sends monitor-scoped commands
straight to the owning shard, skipping the router's proxy hop. The
router stays the fallback: an unreachable shard (failover in progress)
or a detected ring drift (ownership math gone stale) sends the request
through the router, which always knows the current addresses, and the
cached topology is refetched before trusting direct routing again.
See ``docs/async-client.md`` for when the direct path is worth it.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, Mapping, Optional, Tuple

from .. import protocol
from ..commands import AsyncCommands
from ..protocol import ERR_NO_SUCH_MONITOR, ServeTimeout
from ..ring import HashRing
from .pool import ConnectionPool

__all__ = ["AsyncServeClient"]


class _Topology:
    """A cached ``topology`` response, decoded for local routing."""

    __slots__ = ("ring", "addresses", "digest", "generation", "router", "fetched")

    def __init__(self, response: dict, fetched: float) -> None:
        shards = {
            int(shard): (str(address[0]), int(address[1]))
            for shard, address in response.get("shards", {}).items()
        }
        self.addresses: Dict[int, Tuple[str, int]] = shards
        self.ring = HashRing(shards or [0], vnodes=int(response.get("vnodes", 1)))
        self.digest = str(response.get("ring_digest", ""))
        self.generation = int(response.get("generation", 0))
        self.router = bool(response.get("router", False))
        self.fetched = fetched


class AsyncServeClient(AsyncCommands):
    """Async client for one server or a cluster router.

    The command coroutines (``create``, ``ingest``, …, ``topology``)
    come from :class:`~repro.serve.commands.CommandMethods`, shared
    with the blocking client; this class supplies the pooled,
    optionally ring-aware :meth:`request`.

    Use as an async context manager::

        async with AsyncServeClient(host, port) as client:
            await client.create("mon", networks)
            await asyncio.gather(*(client.ingest("mon", ...) for ...))
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7339,
        timeout: Optional[float] = 30.0,
        max_connections: int = 4,
        max_inflight: int = 64,
        ring_aware: bool = False,
        topology_ttl: float = 5.0,
    ) -> None:
        """Configure the client; connections are dialed on first use.

        ``timeout`` bounds each dial and each request's slot wait and
        response wait (:class:`~repro.serve.protocol.ServeTimeout` on
        expiry), as in the blocking client. ``max_connections ×
        max_inflight`` is the hard cap on requests in flight; the
        excess waits FIFO. ``ring_aware`` turns on direct-to-shard
        routing against a router, refreshed every ``topology_ttl``
        seconds.
        """
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_connections = max_connections
        self.max_inflight = max_inflight
        self.ring_aware = ring_aware
        self.topology_ttl = topology_ttl
        self._pool = self._make_pool(host, port)
        self._shard_pools: Dict[Tuple[str, int], ConnectionPool] = {}
        self._topology: Optional[_Topology] = None
        self._topology_lock = asyncio.Lock()

    def _make_pool(self, host: str, port: int) -> ConnectionPool:
        return ConnectionPool(
            host,
            port,
            max_connections=self.max_connections,
            max_inflight=self.max_inflight,
            connect_timeout=self.timeout,
        )

    # -- lifecycle -----------------------------------------------------------

    async def close(self) -> None:
        await self._pool.close()
        for pool in self._shard_pools.values():
            await pool.close()
        self._shard_pools.clear()

    async def __aenter__(self) -> "AsyncServeClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # -- request plumbing ----------------------------------------------------

    async def request(self, command: str, **fields: object) -> dict:
        """Send one command; same exception mapping as the blocking client."""
        monitor = fields.get("monitor")
        if (
            self.ring_aware
            and command in protocol.MONITOR_COMMANDS
            and isinstance(monitor, str)
        ):
            return await self._request_ring_aware(command, monitor, fields)
        return await self._pool.request(command, self.timeout, **fields)

    async def _request_ring_aware(
        self, command: str, monitor: str, fields: Mapping[str, object]
    ) -> dict:
        """Direct-to-owner dispatch with router fallback.

        Fallback triggers, in order of likelihood:

        * no usable topology (single server, or fetch failed) — the
          router path *is* the request path;
        * owning shard unreachable — failover in progress; the router
          answers ``shard_unavailable`` or routes to the successor, and
          the cached topology is dropped so the next request refetches;
        * ``no_such_monitor`` from the direct shard while the ring
          digest moved — the monitor was rebalanced off the shard our
          stale ring chose. Nothing was applied, so routing the same
          request through the router is safe.
        """
        topology = await self._current_topology()
        if topology is None or not topology.router:
            return await self._pool.request(command, self.timeout, **fields)
        shard = topology.ring.owner(monitor)
        address = topology.addresses.get(shard)
        if address is None:
            return await self._pool.request(command, self.timeout, **fields)
        pool = self._shard_pool(address)
        try:
            return await pool.request(command, self.timeout, **fields)
        except (ConnectionError, ServeTimeout):
            self._topology = None
            return await self._pool.request(command, self.timeout, **fields)
        except protocol.ServeClientError as exc:
            if exc.code == ERR_NO_SUCH_MONITOR:
                refreshed = await self._refresh_topology()
                if refreshed is not None and refreshed.digest != topology.digest:
                    return await self._pool.request(
                        command, self.timeout, **fields
                    )
            raise

    def _shard_pool(self, address: Tuple[str, int]) -> ConnectionPool:
        pool = self._shard_pools.get(address)
        if pool is None:
            pool = self._shard_pools[address] = self._make_pool(*address)
        return pool

    # -- topology cache ------------------------------------------------------

    async def _current_topology(self) -> Optional[_Topology]:
        cached = self._topology
        if cached is not None and (
            time.monotonic() - cached.fetched < self.topology_ttl
        ):
            return cached
        return await self._refresh_topology()

    async def _refresh_topology(self) -> Optional[_Topology]:
        """Fetch ``topology`` through the router; None when unavailable.

        The lock collapses a thundering herd of expired-TTL callers
        into one wire fetch; latecomers reuse the fresh cache.
        """
        async with self._topology_lock:
            cached = self._topology
            if cached is not None and (
                time.monotonic() - cached.fetched < self.topology_ttl
            ):
                return cached
            try:
                response = await self._pool.request("topology", self.timeout)
            except (ConnectionError, ServeTimeout, protocol.ServeClientError):
                # No topology is not an error: fall back to routed mode
                # until the tier answers again.
                self._topology = None
                return None
            self._topology = _Topology(response, time.monotonic())
            return self._topology
