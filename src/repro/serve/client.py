"""Blocking client for the ``repro serve`` wire protocol.

:class:`ServeClient` is :class:`~repro.serve.aio.AsyncServeClient` run
to completion: it owns one private event loop and one async client, and
each method runs the async client's command coroutine on that loop
until it finishes. So both clients share one transport
(:class:`~repro.serve.aio.connection.AsyncConnection`) and one
definition of each command (:mod:`repro.serve.commands`); this module
adds only the blocking call, for the CLI, tests and scripts.

A client serves one thread at a time; threads that talk at once each
open their own. Inside a running event loop, use ``AsyncServeClient``:
a blocking call there raises :class:`RuntimeError`.
"""

from __future__ import annotations

import asyncio
import functools
import threading
from typing import Any, Callable, Concatenate, Coroutine, Optional, ParamSpec, TypeVar

from .aio.client import AsyncServeClient
from .protocol import (
    BatchRejectedError,
    OverloadedError,
    ServeClientError,
    ServeTimeout,
)

__all__ = [
    "ServeClientError",
    "ServeTimeout",
    "OverloadedError",
    "BatchRejectedError",
    "ServeClient",
]

P = ParamSpec("P")
T = TypeVar("T")


def _in_running_loop() -> bool:
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return False
    return True


def _blocking(
    command: Callable[Concatenate[AsyncServeClient, P], Coroutine[Any, Any, T]],
) -> Callable[Concatenate["ServeClient", P], T]:
    """``command`` as a method that runs it on the client's own loop."""

    @functools.wraps(command)
    def call(self: ServeClient, *args: P.args, **kwargs: P.kwargs) -> T:
        if _in_running_loop():
            raise RuntimeError(
                f"ServeClient.{command.__name__} blocks, so it cannot run "
                "inside a running event loop; use AsyncServeClient there"
            )
        return self._loop.run_until_complete(command(self._client, *args, **kwargs))

    return call


class ServeClient:
    """One connection to a Fenrir server; use as a context manager.

    Every method is the :class:`~repro.serve.aio.AsyncServeClient`
    method of the same name and signature, minus the ``await``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7339,
        timeout: Optional[float] = 30.0,
    ) -> None:
        """Connect to ``host:port``.

        ``timeout`` bounds the dial and each request (None = block
        forever — only sensible in debugging) and raises
        :class:`ServeTimeout` on expiry.
        """
        self.host = host
        self.port = port
        self.timeout = timeout
        self._client = AsyncServeClient(host, port, timeout=timeout)
        self._loop = asyncio.new_event_loop()
        try:
            self._connect()
        except BaseException:
            self._loop.close()
            raise

    _connect = _blocking(AsyncServeClient.connect)
    _close = _blocking(AsyncServeClient.close)

    def close(self) -> None:
        """Close the connection and the event loop; idempotent."""
        if self._loop.is_closed():
            return
        try:
            self._close()
        finally:
            self._loop.close()

    def __del__(self) -> None:
        # Collected while open: close as close() would. The collecting
        # thread may be running a loop of its own, where this client's
        # loop cannot run, so close on a helper thread then.
        if not hasattr(self, "_loop") or self._loop.is_closed():
            return
        if not _in_running_loop():
            self.close()
            return
        closer = threading.Thread(target=self.close)
        closer.start()
        closer.join()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    request = _blocking(AsyncServeClient.request)
    create = _blocking(AsyncServeClient.create)
    ingest = _blocking(AsyncServeClient.ingest)
    ingest_batch = _blocking(AsyncServeClient.ingest_batch)
    ingest_many = _blocking(AsyncServeClient.ingest_many)
    query = _blocking(AsyncServeClient.query)
    timeline = _blocking(AsyncServeClient.timeline)
    stats = _blocking(AsyncServeClient.stats)
    metrics = _blocking(AsyncServeClient.metrics)
    snapshot = _blocking(AsyncServeClient.snapshot)
    list_monitors = _blocking(AsyncServeClient.list_monitors)
    vps = _blocking(AsyncServeClient.vps)
    dedup = _blocking(AsyncServeClient.dedup)
    classify = _blocking(AsyncServeClient.classify)
    handoff = _blocking(AsyncServeClient.handoff)
    install = _blocking(AsyncServeClient.install)
    retire = _blocking(AsyncServeClient.retire)
    promote = _blocking(AsyncServeClient.promote)
    topology = _blocking(AsyncServeClient.topology)
