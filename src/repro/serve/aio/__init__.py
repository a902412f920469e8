"""``repro.serve.aio``: the client for the serve wire protocol.

One request in flight per connection would be fine for the CLI and
hopeless for a load generator or a service ingesting thousands of
rounds a second from one process. This package multiplexes instead,
and the blocking :class:`~repro.serve.client.ServeClient` is its
:class:`AsyncServeClient` run one call at a time on a private loop:

* :mod:`~repro.serve.aio.connection` — one pipelined connection: many
  logical requests in flight, responses correlated back to waiting
  futures by ``id`` in whatever order the server finishes them;
* :mod:`~repro.serve.aio.client` — :class:`AsyncServeClient`, every
  command as a coroutine over one such connection per server, with a
  client-wide FIFO in-flight bound and lazy re-dials, plus an optional
  ring-aware mode that sends monitor commands straight to the owning
  shard and falls back to the router when the ring drifts.

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
