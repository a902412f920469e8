"""``repro.serve``: a durable streaming monitoring service.

The paper's operator question is online — "did routing just change,
and is it a mode we've seen before?" — and this package turns the
in-memory :class:`~repro.core.online.OnlineFenrir` answer to it into a
long-lived, queryable network service:

* :mod:`~repro.serve.protocol` — length-prefixed JSON frames over TCP;
* :mod:`~repro.serve.journal` — write-ahead journal + checksummed
  snapshots so acknowledged ingests survive a kill;
* :mod:`~repro.serve.monitor` — one durable OnlineFenrir per watched
  service;
* :mod:`~repro.serve.server` — the asyncio server multiplexing many
  monitors with bounded queues and explicit overload responses;
* :mod:`~repro.serve.client` — the blocking client used by the CLI,
  tests, and load generator;
* :mod:`~repro.serve.aio` — the asyncio client: pipelined connections
  multiplexing many requests by correlation id behind a bounded pool,
  with optional ring-aware direct-to-shard routing;
* :mod:`~repro.serve.metrics` — counters and latency percentiles for
  the ``stats`` command, backed by the per-server
  :class:`repro.obs.MetricsRegistry` that the ``metrics`` command
  renders as Prometheus text;
* :mod:`~repro.serve.ring` — consistent hashing (virtual nodes over a
  stable digest) assigning monitors to shards;
* :mod:`~repro.serve.router` — the cluster front-end proxying the same
  wire protocol to the owning shard;
* :mod:`~repro.serve.cluster` — the shard supervisor (spawn, watch,
  restart, failover, rebalance) and the replication follower loop.

See ``docs/serving.md`` for the wire protocol and durability model,
and ``docs/cluster.md`` for the sharded tier.
"""

from typing import TYPE_CHECKING

from .aio import AsyncConnection, AsyncServeClient, ConnectionPool
from .client import (
    BatchRejectedError,
    OverloadedError,
    ServeClient,
    ServeClientError,
    ServeTimeout,
)
from .cluster import (
    ClusterConfig,
    ClusterSupervisor,
    ReplicationFollower,
)
from .metrics import LatencyRecorder, ServerMetrics
from .protocol import FrameError, FrameTooLarge, MAX_FRAME
from .ring import HashRing
from .router import ClusterState, ShardRouter

if TYPE_CHECKING:
    from .journal import JournalError, JournalRecord, JournalWriter, read_journal
    from .monitor import BatchResult, DurableMonitor, MonitorError, ReplayReport
    from .server import FenrirServer, ServeConfig

# The modules that hold monitor state import numpy and ``repro.core``.
# The supervisor and router only relay bytes, so these names load on
# first use and a ``repro serve --shards`` process never imports them.
_LAZY = {
    "JournalError": "journal",
    "JournalRecord": "journal",
    "JournalWriter": "journal",
    "read_journal": "journal",
    "BatchResult": "monitor",
    "DurableMonitor": "monitor",
    "MonitorError": "monitor",
    "ReplayReport": "monitor",
    "FenrirServer": "server",
    "ServeConfig": "server",
}


def __getattr__(name: str) -> object:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "AsyncConnection",
    "AsyncServeClient",
    "BatchRejectedError",
    "BatchResult",
    "ClusterConfig",
    "ClusterState",
    "ClusterSupervisor",
    "ConnectionPool",
    "DurableMonitor",
    "FenrirServer",
    "FrameError",
    "FrameTooLarge",
    "HashRing",
    "JournalError",
    "JournalRecord",
    "JournalWriter",
    "LatencyRecorder",
    "MAX_FRAME",
    "MonitorError",
    "OverloadedError",
    "ReplayReport",
    "ReplicationFollower",
    "ServeClient",
    "ServeClientError",
    "ServeConfig",
    "ServeTimeout",
    "ServerMetrics",
    "ShardRouter",
    "read_journal",
]
