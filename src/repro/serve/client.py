"""Blocking client for the ``repro serve`` wire protocol.

A thin convenience layer over one TCP connection: requests are
numbered, sent as length-prefixed JSON frames, and answered in order.
Blocking sockets keep the client trivially usable from the CLI, tests,
and thread-per-client load generators; the server side is where the
concurrency lives.
"""

from __future__ import annotations

import socket
from typing import Optional

from . import protocol
from .commands import BlockingCommands
from .protocol import (
    BatchRejectedError,
    OverloadedError,
    RequestIds,
    ServeClientError,
    ServeTimeout,
    check_response,
)

__all__ = [
    "ServeClientError",
    "ServeTimeout",
    "OverloadedError",
    "BatchRejectedError",
    "ServeClient",
]


class ServeClient(BlockingCommands):
    """One connection to a Fenrir server; use as a context manager.

    The command methods (``create``, ``ingest``, …, ``topology``) come
    from :class:`~repro.serve.commands.CommandMethods`; this class
    supplies only the transport, :meth:`request`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7339,
        timeout: Optional[float] = 30.0,
        connect_timeout: Optional[float] = None,
        max_frame: int = protocol.MAX_FRAME,
    ) -> None:
        """Connect to ``host:port``.

        ``timeout`` bounds every subsequent socket read/write (None =
        block forever — only sensible in debugging); ``connect_timeout``
        bounds the initial connect and defaults to ``timeout``. Both
        raise :class:`ServeTimeout` on expiry.
        """
        self.max_frame = max_frame
        self.timeout = timeout
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout if connect_timeout is not None else timeout
        self._ids = RequestIds()
        self._sock = self._connect()

    def _connect(self) -> socket.socket:
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
        except socket.timeout as exc:
            raise ServeTimeout(
                f"connecting to {self.host}:{self.port} exceeded "
                f"{self.connect_timeout}s"
            ) from exc
        sock.settimeout(self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- request plumbing ----------------------------------------------------

    def request(self, command: str, **fields: object) -> dict:
        """Send one command and return its ``ok`` response.

        Error responses raise :class:`ServeClientError`
        (:class:`OverloadedError` for explicit backpressure, so callers
        can distinguish "retry later" from "you sent garbage").

        A connection that died *between* requests — a pooled client
        reused after the server restarted, a NAT timeout — fails at
        send time with ``ECONNRESET``/``EPIPE``. The server cannot have
        seen any of the request, so one transparent reconnect-and-resend
        is always safe; a failure after the send phase is not retried
        (the request may have been applied).
        """
        message = {"cmd": command, "id": self._ids.next(), **fields}
        try:
            protocol.send_frame(self._sock, message, self.max_frame)
        except (ConnectionResetError, BrokenPipeError):
            # Stale socket: reconnect once and resend. The frame never
            # reached the server (sendall raised), so this cannot
            # double-apply.
            self._sock.close()
            self._sock = self._connect()
            protocol.send_frame(self._sock, message, self.max_frame)
        try:
            response = protocol.recv_frame(self._sock, self.max_frame)
        except socket.timeout as exc:
            # The stream position is now unknowable (a late response
            # would be mistaken for the next request's answer); close so
            # any further use fails fast instead of desynchronizing.
            self._sock.close()
            raise ServeTimeout(
                f"no response to {command!r} within {self.timeout}s"
            ) from exc
        return check_response(response)
