"""One pipelined connection: many logical requests, one socket.

The server answers pipelined frames out of order, correlated by
``id`` (see ``docs/serving.md``). :class:`AsyncConnection` exploits
that: each request registers a future in a table keyed by its
correlation id and writes its frame; a single background reader task
resolves futures as response frames arrive, in whatever order the
server finished them. ``N`` logical requests therefore share one
socket, one reader, and one TCP round-trip pipeline instead of ``N``
connections.

A timed-out request does **not** poison the connection: it gives back
its in-flight slot, its late response carries an id no longer pending
and is dropped, and every other request keeps its pairing. Only a
transport failure kills the connection, and then every pending future
fails promptly with :class:`ConnectionError` so callers can retry
against a fresh one.

The reader never parses a response just to route it: the server writes
``id`` first, so an anchored match on the raw bytes finds the waiting
future (a full JSON parse is the fallback). Dict requests are decoded
for their caller; :meth:`AsyncConnection.submit_bytes` hands the raw
response back, which is how the router relays bodies it never parses.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Awaitable, Callable, Dict, Optional, Tuple

from .. import protocol
from ..protocol import (
    RESPONSE_ID,
    FrameError,
    FrameRejected,
    RequestIds,
    ServeTimeout,
    check_response,
)

__all__ = ["AsyncConnection", "Dialer", "FrameRejected", "RequestNotSent"]


class RequestNotSent(ConnectionError):
    """The request frame never reached the server.

    Raised when the write itself fails — the server cannot have seen
    any byte of the request, so resending on a fresh connection is
    always safe (:class:`~repro.serve.aio.AsyncServeClient` does exactly
    that, once). Contrast with a
    plain :class:`ConnectionError` after a successful write: the
    request's fate is unknown and an automatic retry could
    double-apply.
    """


class AsyncConnection:
    """A multiplexed client connection to one server or router."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = RequestIds()
        # id -> (future, whether the caller wants the raw response bytes)
        self._pending: Dict[int, Tuple[asyncio.Future, bool]] = {}
        self._closed: Optional[ConnectionError] = None
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    @classmethod
    async def open(
        cls,
        host: str,
        port: int,
        connect_timeout: Optional[float] = None,
    ) -> "AsyncConnection":
        """Dial ``host:port``; :class:`ServeTimeout` on a slow connect."""
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), connect_timeout
            )
        except asyncio.TimeoutError as exc:
            raise ServeTimeout(
                f"connecting to {host}:{port} exceeded {connect_timeout}s"
            ) from exc
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(reader, writer)

    # -- state ---------------------------------------------------------------

    @property
    def healthy(self) -> bool:
        """True while the transport and its reader task are alive."""
        return (
            self._closed is None
            and not self._reader_task.done()
            and not self._writer.is_closing()
        )

    @property
    def in_flight(self) -> int:
        """Requests awaiting a response right now."""
        return len(self._pending)

    # -- requests ------------------------------------------------------------

    def submit(self, command: str, **fields: object) -> "asyncio.Future[dict]":
        """Write one request *now* and return the future for its response.

        Synchronous by design: the frame goes into the transport buffer
        before this returns, so a sequence of ``submit`` calls is sent
        in exactly call order — the property pipelined same-monitor
        ingest depends on (the server applies one connection's ingests
        in frame order, see :func:`~repro.serve.protocol.serve_pipelined`).
        Callers doing sustained submission should ``await drain()``
        between submits to respect transport backpressure.

        The future resolves to the *raw* response document; pass it
        through :func:`~repro.serve.protocol.check_response` to get the
        clients' exception mapping. Raises
        :class:`RequestNotSent` if the connection is already dead or the
        send fails at once — the frame provably never left, so resending
        elsewhere is safe.
        """
        request_id = self._ids.next()
        message = {"cmd": command, "id": request_id, **fields}
        return self._send(request_id, protocol.encode_frame(message))

    def submit_bytes(self, head: bytes, tail: bytes) -> "asyncio.Future[bytes]":
        """Write the payload ``head + <id> + tail`` now; future of the raw reply.

        The bytes twin of :meth:`submit`, for relaying a frame without
        parsing it: ``head`` ends where the request's id value starts
        and ``tail`` starts where it ends, and this connection's own id
        goes in between. The future resolves to the response payload,
        undecoded and unchecked.
        """
        request_id = self._ids.next()
        payload = b"%b%d%b" % (head, request_id, tail)
        return self._send(request_id, protocol.frame_bytes(payload), raw=True)

    def _send(self, request_id: int, frame: bytes, raw: bool = False) -> asyncio.Future:
        if not self.healthy:
            raise RequestNotSent(f"connection is closed: {self._closed or 'closing'}")
        if len(self._pending) >= protocol.MAX_INFLIGHT:
            # The server would answer the excess ``overloaded``; direct
            # users get a loud error rather than silent unbounded
            # queueing (AsyncServeClient's own bound is lower).
            raise RuntimeError(
                f"connection already has {len(self._pending)} requests in "
                f"flight (cap {protocol.MAX_INFLIGHT})"
            )
        self._writer.write(frame)
        if self._writer.is_closing():
            # A transport closes itself inside write() only when its
            # immediate send into an empty buffer fails: not one byte
            # of this frame left.
            raise RequestNotSent("send failed: the connection was lost")
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = (future, raw)
        return future

    async def drain(self) -> None:
        """Wait for the transport's write buffer to flush below its mark."""
        await self._writer.drain()

    async def request(
        self, command: str, timeout: Optional[float] = None, **fields: object
    ) -> dict:
        """Send one command; resolve when *its* response arrives.

        Many callers may be inside this method concurrently — that is
        the point. Error responses raise the clients' exceptions (via
        :func:`~repro.serve.protocol.check_response`);
        ``timeout`` bounds the wait for this request's response only
        and raises :class:`~repro.serve.protocol.ServeTimeout` without
        disturbing the other requests in flight: their correlation ids
        keep every other pairing intact. A request that ends without
        its response (timeout, cancellation) gives back its in-flight
        slot, and a late answer is dropped as an unknown id.
        """
        request_id = self._ids.next()
        message = {"cmd": command, "id": request_id, **fields}
        future = self._send(request_id, protocol.encode_frame(message))
        try:
            try:
                await self._writer.drain()
            except (ConnectionError, OSError) as exc:
                # The frame was handed to the transport before the
                # failure: its fate is unknown, so this is NOT
                # RequestNotSent and must not be auto-retried.
                raise ConnectionError(f"connection lost during send: {exc}") from exc
            try:
                response = await asyncio.wait_for(future, timeout)
            except asyncio.TimeoutError as exc:
                raise ServeTimeout(
                    f"no response to {command!r} within {timeout}s"
                ) from exc
        finally:
            self._pending.pop(request_id, None)
        return check_response(response)

    # -- reader task ---------------------------------------------------------

    async def _read_loop(self) -> None:
        """Resolve pending futures from response frames until EOF/error."""
        try:
            while True:
                payload = await protocol.read_frame_bytes(self._reader)
                if payload is None:
                    self._fail(ConnectionError("server closed the connection"))
                    return
                self._resolve(payload)
        except asyncio.CancelledError:
            self._fail(ConnectionError("connection closed"))
            raise
        except FrameRejected as exc:
            self._fail(exc)
        except (FrameError, OSError) as exc:
            self._fail(ConnectionError(f"connection lost: {exc}"))

    def _resolve(self, payload: bytes) -> None:
        response: Optional[dict] = None
        match = RESPONSE_ID.match(payload)
        if match is not None:
            request_id: object = int(match.group(1))
        else:
            response = protocol.decode_payload(payload)
            request_id = response.get("id")
            if not isinstance(request_id, int):
                raise FrameRejected(response)
        future, raw = self._pending.get(request_id, (None, False))
        # Unknown ids are dropped on the floor: the late answer to a
        # request that timed out, or (unknown) a server bug we must not
        # crash the reader over.
        if future is None:
            return
        if not raw and response is None:
            response = protocol.decode_payload(payload)  # may fail them all
        del self._pending[request_id]
        if not future.done():
            future.set_result(payload if raw else response)

    def _fail(self, error: ConnectionError) -> None:
        """Mark the connection dead and fail everything in flight."""
        if self._closed is None:
            self._closed = error
        for future, _raw in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()
        self._writer.close()

    # -- lifecycle -----------------------------------------------------------

    async def close(self) -> None:
        """Tear down: cancel the reader, fail pending, close the socket.

        ``_fail`` runs here too, not only in the reader's cancellation
        handler: a task cancelled before its first scheduling never
        executes that handler at all, and the transport would otherwise
        never be closed (``wait_closed`` would hang forever).
        """
        self._reader_task.cancel()
        self._fail(ConnectionError("connection closed"))
        await asyncio.gather(self._reader_task, return_exceptions=True)
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncConnection":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    @property
    def peer(self) -> Optional[Tuple[str, int]]:
        """The remote ``(host, port)``, while the socket is open."""
        peername = self._writer.get_extra_info("peername")
        if peername is None:
            return None
        return str(peername[0]), int(peername[1])


class Dialer:
    """One lazily dialed :class:`AsyncConnection`, re-dialed on demand.

    :meth:`connect` returns the live connection to ``address``, calling
    ``dial(host, port)`` first when there is none yet, when the last one
    died, or when the address moved (the old one is closed). Dialing
    happens under a FIFO lock, so callers that write as soon as
    ``connect`` returns, with no ``await`` in between, write in the
    order they called it, across the first dial and every re-dial. (A
    dial task shared by the callers would not: a caller arriving just
    after it finished could overtake earlier ones still waking up.)
    """

    def __init__(self, dial: Callable[[str, int], Awaitable[AsyncConnection]]) -> None:
        self._dial = dial
        self._address: Optional[Tuple[str, int]] = None
        self._connection: Optional[AsyncConnection] = None
        self._lock = asyncio.Lock()

    async def connect(self, address: Tuple[str, int]) -> AsyncConnection:
        async with self._lock:
            connection = self._connection
            if connection is not None:
                if connection.healthy and address == self._address:
                    return connection
                self._connection = None
                await connection.close()
            self._connection = await self._dial(*address)
            self._address = address
            return self._connection

    async def close(self) -> None:
        """Close the connection, if any; the next :meth:`connect` re-dials."""
        connection, self._connection = self._connection, None
        if connection is not None:
            await connection.close()
