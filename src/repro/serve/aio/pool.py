"""A bounded pool of pipelined connections.

Capacity is ``max_connections × max_inflight`` logical request slots,
guarded by one semaphore whose waiters are FIFO — request capacity+1
queues behind everyone already waiting instead of dialing without
bound or failing. Within that budget the pool keeps connections
least-loaded-first: each request picks the member with the fewest
checked-out slots, so depth stays even and no connection exceeds its
pipelining cap (the selection and counter bump happen with no ``await``
in between, hence atomically on the event loop).

Dead connections are replaced lazily, at the moment a request lands on
them: the re-dial is health-checked (a cheap ``topology`` round trip
must succeed, proving the far end *speaks the protocol* rather than
merely accepting TCP — exactly the difference between a restarting
shard's listener and a serving one) and retried under exponential
backoff with jitter, so a thousand concurrent requests against a
restarting server do not stampede it with synchronized dials.
"""

from __future__ import annotations

import asyncio
import random
from typing import Optional

from ..protocol import ServeClientError, ServeTimeout
from .connection import AsyncConnection, Dialer, RequestNotSent

__all__ = ["ConnectionPool"]

RECONNECT_ATTEMPTS = 5  # dials per re-dial before ConnectionError
RECONNECT_BACKOFF = 0.05  # seconds before the second dial, doubling after


class _Member:
    """One pool slot's connection and its checked-out request count."""

    __slots__ = ("dialer", "checked_out")

    def __init__(self, dialer: Dialer) -> None:
        self.dialer = dialer
        self.checked_out = 0


class ConnectionPool:
    """Bounded, self-healing pool of :class:`AsyncConnection`."""

    def __init__(
        self,
        host: str,
        port: int,
        max_connections: int = 4,
        max_inflight: int = 64,
        connect_timeout: Optional[float] = 5.0,
        health_check: bool = True,
    ) -> None:
        if max_connections < 1:
            raise ValueError("max_connections must be at least 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.max_inflight = max_inflight
        self.connect_timeout = connect_timeout
        self.health_check = health_check
        self._members = [_Member(Dialer(self._dial)) for _ in range(max_connections)]
        self._slots = asyncio.Semaphore(max_connections * max_inflight)
        self._closed = False

    # -- introspection -------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Total logical request slots (connections × in-flight cap)."""
        return self.max_connections * self.max_inflight

    @property
    def in_flight(self) -> int:
        """Requests currently holding a slot."""
        return sum(member.checked_out for member in self._members)

    # -- requests ------------------------------------------------------------

    async def request(
        self, command: str, timeout: Optional[float] = None, **fields: object
    ) -> dict:
        """One command through the pool; waits FIFO when it is full.

        ``timeout`` bounds both the wait for a free slot and the wait
        for the response (each separately — a saturated pool is server
        backpressure, not a dead server, and deserves its own clock).
        A request whose frame provably never reached the server
        (:class:`RequestNotSent` — the connection died between pooled
        requests) is resent once on a fresh connection; a failure
        after the send is never retried here, because the request may
        already have been applied.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        try:
            await asyncio.wait_for(self._slots.acquire(), timeout)
        except asyncio.TimeoutError as exc:
            raise ServeTimeout(
                f"no free pool slot for {command!r} within {timeout}s "
                f"({self.capacity} slots, all in flight)"
            ) from exc
        try:
            member = min(self._members, key=lambda m: m.checked_out)
            member.checked_out += 1
            address = (self.host, self.port)
            try:
                connection = await member.dialer.connect(address)
                try:
                    return await connection.request(command, timeout, **fields)
                except RequestNotSent:
                    # Stale socket (server restarted between requests):
                    # the frame never left, so one resend is safe.
                    connection = await member.dialer.connect(address)
                    return await connection.request(command, timeout, **fields)
            finally:
                member.checked_out -= 1
        finally:
            self._slots.release()

    # -- connection management -----------------------------------------------

    async def _dial(self, host: str, port: int) -> AsyncConnection:
        """Dial with health check, exponential backoff, and jitter.

        Each member's :class:`Dialer` calls this under its lock, so
        concurrent requests on a dead member wait for one re-dial
        rather than racing their own.
        """
        delay = RECONNECT_BACKOFF
        last_error: Exception | None = None
        for attempt in range(RECONNECT_ATTEMPTS):
            if attempt:
                # Jitter in [0.5, 1.5)× so a fleet of waiters does not
                # re-dial a recovering server in lockstep.
                await asyncio.sleep(delay * (0.5 + random.random()))
                delay *= 2
            try:
                connection = await AsyncConnection.open(
                    host,
                    port,
                    connect_timeout=self.connect_timeout,
                    max_inflight=self.max_inflight,
                )
            except (ConnectionError, OSError, ServeTimeout) as exc:
                last_error = exc
                continue
            if not self.health_check:
                return connection
            try:
                # topology is answered locally by both the single
                # server and the router — the cheapest proof that the
                # peer speaks the protocol and is actually serving.
                await connection.request("topology", self.connect_timeout)
                return connection
            except (ConnectionError, OSError, ServeTimeout) as exc:
                last_error = exc
                await connection.close()
            except ServeClientError:
                # An error *response* still proves a live server;
                # old servers without the command would answer
                # bad_request, which is healthy enough.
                return connection
        raise ConnectionError(
            f"could not reach {host}:{port} after "
            f"{RECONNECT_ATTEMPTS} attempts: {last_error}"
        ) from last_error

    # -- lifecycle -----------------------------------------------------------

    async def close(self) -> None:
        """Close every member connection; pending requests fail fast."""
        self._closed = True
        for member in self._members:
            await member.dialer.close()

    async def __aenter__(self) -> "ConnectionPool":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()
