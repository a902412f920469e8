"""``repro.serve.aio``: the asyncio client for the serve wire protocol.

The blocking :class:`~repro.serve.client.ServeClient` holds one
connection and one request in flight — fine for the CLI, hopeless for
a load generator or a service ingesting thousands of rounds a second
from one process. This package multiplexes instead:

* :mod:`~repro.serve.aio.connection` — one pipelined connection: many
  logical requests in flight, responses correlated back to waiting
  futures by ``id`` in whatever order the server finishes them;
* :mod:`~repro.serve.aio.client` — :class:`AsyncServeClient`, the
  blocking client's command surface as coroutines over one such
  connection per server, with a client-wide FIFO in-flight bound and
  lazy re-dials, plus an optional ring-aware mode that sends monitor
  commands straight to the owning shard and falls back to the router
  when the ring drifts.

See ``docs/async-client.md`` for backpressure semantics and the
ring-aware tradeoffs.
"""

from .client import AsyncServeClient
from .connection import AsyncConnection, FrameRejected, RequestNotSent

__all__ = [
    "AsyncConnection",
    "AsyncServeClient",
    "FrameRejected",
    "RequestNotSent",
]
