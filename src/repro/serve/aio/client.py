""":class:`AsyncServeClient`: one pipelined connection per server.

The command coroutines are :mod:`repro.serve.commands`'s; the blocking
:class:`~repro.serve.client.ServeClient` runs this client's coroutines
to completion, so callers port by adding ``await``. Underneath, each
server address has one lazily dialed
:class:`~repro.serve.aio.connection.AsyncConnection` (through a
:class:`~repro.serve.aio.connection.Dialer`), and one client-wide
semaphore bounds the requests in flight: thousands of logical requests
share one socket per server.

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
from ..commands import CommandMethods
from ..protocol import ERR_NO_SUCH_MONITOR, ServeTimeout
from ..ring import HashRing
from .connection import AsyncConnection, Dialer, RequestNotSent

__all__ = ["AsyncServeClient", "CLIENT_INFLIGHT"]

Address = Tuple[str, int]

#: Requests one client may have in flight across every server it talks
#: to; the excess waits FIFO for a slot.
CLIENT_INFLIGHT = 64


class _Topology:
    """A cached ``topology`` response, decoded for local routing."""

    __slots__ = ("ring", "addresses", "digest", "generation", "router", "fetched")

    def __init__(self, response: dict, fetched: float) -> None:
        shards = {
            int(shard): (str(address[0]), int(address[1]))
            for shard, address in response.get("shards", {}).items()
        }
        self.addresses: Dict[int, Address] = shards
        self.ring = HashRing(shards or [0], vnodes=int(response.get("vnodes", 1)))
        self.digest = str(response.get("ring_digest", ""))
        self.generation = int(response.get("generation", 0))
        self.router = bool(response.get("router", False))
        self.fetched = fetched


class AsyncServeClient(CommandMethods):
    """Async client for one server or a cluster router.

    The command coroutines (``create``, ``ingest``, …, ``topology``)
    come from :class:`~repro.serve.commands.CommandMethods`; this class
    supplies the pipelined, optionally ring-aware :meth:`request`.

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
        ring_aware: bool = False,
        topology_ttl: float = 5.0,
        max_connections: int = 1,
    ) -> None:
        """Configure the client; connections are dialed on first use.

        ``timeout`` bounds each dial and each request's slot wait and
        response wait (:class:`~repro.serve.protocol.ServeTimeout` on
        expiry). At most :data:`CLIENT_INFLIGHT` requests are in flight
        across every server this client talks to. ``ring_aware`` turns
        on direct-to-shard routing against a router, refreshed every
        ``topology_ttl`` seconds. ``max_connections`` is accepted for
        old callers and must be 1: there is one connection per server.
        """
        if max_connections != 1:
            raise ValueError("max_connections must be 1 (one connection per server)")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.ring_aware = ring_aware
        self.topology_ttl = topology_ttl
        self._slots = asyncio.Semaphore(CLIENT_INFLIGHT)
        self._router = Dialer(self._dial)
        self._shards: Dict[Address, Dialer] = {}
        self._topology: Optional[_Topology] = None
        self._topology_lock = asyncio.Lock()

    # -- lifecycle -----------------------------------------------------------

    async def connect(self) -> None:
        """Dial the server now rather than on the first request."""
        await self._router.connect((self.host, self.port))

    async def close(self) -> None:
        """Close every connection; a later request dials again."""
        shards, self._shards = list(self._shards.values()), {}
        for dialer in [self._router, *shards]:
            await dialer.close()

    async def __aenter__(self) -> "AsyncServeClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # -- request plumbing ----------------------------------------------------

    async def request(self, command: str, **fields: object) -> dict:
        """Send one command and return its ``ok`` response.

        An error response raises :class:`~repro.serve.protocol.ServeClientError`
        (:class:`~repro.serve.protocol.OverloadedError` for explicit
        backpressure, so callers can tell "retry later" from "you sent
        garbage").
        """
        monitor = fields.get("monitor")
        if (
            self.ring_aware
            and command in protocol.MONITOR_COMMANDS
            and isinstance(monitor, str)
        ):
            return await self._request_ring_aware(command, monitor, fields)
        return await self._routed(command, fields)

    async def _routed(self, command: str, fields: Mapping[str, object]) -> dict:
        return await self._send(self._router, (self.host, self.port), command, fields)

    async def _send(
        self,
        dialer: Dialer,
        address: Address,
        command: str,
        fields: Mapping[str, object],
    ) -> dict:
        """One request on ``address``'s connection, under an in-flight slot.

        ``timeout`` bounds the slot wait and the response wait
        separately: a client at its in-flight cap is backpressure, not
        a dead server. A request whose frame provably never reached
        the server (:class:`RequestNotSent`: the connection died
        between requests) is resent once on a fresh connection; a
        failure after the send is never retried here, because the
        request may already have been applied.
        """
        try:
            await asyncio.wait_for(self._slots.acquire(), self.timeout)
        except asyncio.TimeoutError as exc:
            raise ServeTimeout(
                f"no free request slot for {command!r} within {self.timeout}s "
                f"({CLIENT_INFLIGHT} in flight)"
            ) from exc
        try:
            connection = await dialer.connect(address)
            try:
                return await connection.request(command, self.timeout, **fields)
            except RequestNotSent:
                connection = await dialer.connect(address)
                return await connection.request(command, self.timeout, **fields)
        finally:
            self._slots.release()

    async def _dial(self, host: str, port: int) -> AsyncConnection:
        """One connect attempt; a server that is down fails at once.

        A refused or reset dial keeps its own :class:`ConnectionError`
        type and a slow one raises :class:`ServeTimeout`; any other
        :class:`OSError` becomes a :class:`ConnectionError`.
        """
        try:
            return await AsyncConnection.open(host, port, connect_timeout=self.timeout)
        except (ConnectionError, ServeTimeout):
            raise
        except OSError as exc:
            raise ConnectionError(f"could not reach {host}:{port}: {exc}") from exc

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
            return await self._routed(command, fields)
        address = topology.addresses.get(topology.ring.owner(monitor))
        if address is None:
            return await self._routed(command, fields)
        dialer = self._shards.get(address)
        if dialer is None:
            dialer = self._shards[address] = Dialer(self._dial)
        try:
            return await self._send(dialer, address, command, fields)
        except (ConnectionError, ServeTimeout):
            self._topology = None
            return await self._routed(command, fields)
        except protocol.ServeClientError as exc:
            if exc.code == ERR_NO_SUCH_MONITOR:
                refreshed = await self._refresh_topology()
                if refreshed is not None and refreshed.digest != topology.digest:
                    return await self._routed(command, fields)
            raise

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
                response = await self._routed("topology", {})
            except (ConnectionError, ServeTimeout, protocol.ServeClientError):
                # No topology is not an error: fall back to routed mode
                # until the tier answers again.
                self._topology = None
                return None
            self._topology = _Topology(response, time.monotonic())
            return self._topology
