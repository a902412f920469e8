"""The cluster front-end: one address, N shards behind it.

:class:`ShardRouter` speaks the exact wire protocol of a single
``repro serve`` process, so existing clients need no changes. Each
request is routed by the consistent-hash ring: monitor-scoped commands
go to the owning shard, ``list``/``stats`` fan out to every
shard and come back merged, and ``metrics`` answers from the router's
own registry (pass ``"shard": <id>`` to proxy a specific shard's
exposition instead).

Proxy hot path: the router never re-serializes a routed request or its
response. The payload bytes are read once, the command, id and monitor
name are extracted with an anchored regex over the canonical key order
our clients emit (full JSON parse as fallback), and the body is relayed
unparsed both ways. Only the id changes on each hop: the shard sees the
upstream connection's own id, and the client's id is spliced back into
the response's first bytes. Routing a round therefore costs two frame
copies, not two JSON round trips.

Each client connection has its own pipelined
:class:`~repro.serve.aio.AsyncConnection` per shard, and its frames for
a shard are written upstream in the order the router read them, so
pipelined ingests for one monitor apply in send order. There is never
an upstream shared with other clients: it would put every client under one
shard-side in-flight cap, and a client's malformed frame, which the
shard answers with ``bad_frame`` and a hang-up, must close only that
client's connection.

Liveness is the supervisor's job, not the router's: when a shard's
connection fails the router answers ``shard_unavailable`` (a retryable
error — the supervisor is already restarting or failing over the
shard), and the next request re-dials the shard's current address.
"""

from __future__ import annotations

import asyncio
import functools
import re
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, NamedTuple, Optional, Tuple

from ..obs import CONTENT_TYPE, MetricsRegistry, render_prometheus
from . import protocol
from .aio.connection import AsyncConnection, Dialer
from .protocol import (
    ERR_BAD_REQUEST,
    ERR_SHARD_DOWN,
    MONITOR_NEEDED,
    RESPONSE_ID,
    FrameError,
    FrameRejected,
    Route,
    encode_payload,
    error_response,
)
from .ring import HashRing

__all__ = ["ClusterState", "ShardRouter"]


@dataclass
class ClusterState:
    """What the router needs to know about the shards, live-updated.

    The supervisor mutates ``addresses`` (and bumps ``generation``) on
    restart and failover; the router reads it per request. One object
    is shared — there is no copy to go stale.
    """

    ring: HashRing
    addresses: Dict[int, Tuple[str, int]] = field(default_factory=dict)
    generation: int = 0

    def set_address(self, shard: int, address: Optional[Tuple[str, int]]) -> None:
        if address is None:
            self.addresses.pop(shard, None)
        else:
            self.addresses[shard] = address
        self.generation += 1

    def owner(self, monitor: str) -> int:
        return self.ring.owner(monitor)


#: Canonical request prefix: ``{"cmd":"<x>","id":<n>`` with an optional
#: ``,"monitor":"<name>"`` right after — exactly what ServeClient (and
#: any json.dumps of ``{"cmd", "id", "monitor", ...}``) emits. Anchored
#: at byte 0, so a match can only be the real top-level keys.
_FAST_REQUEST = re.compile(
    rb'^\{"cmd":"([a-z_]+)","id":(0|[1-9][0-9]*)(?:,"monitor":"([A-Za-z0-9._-]+)")?'
)

#: One client connection's shard connections.
_Links = Dict[int, Dialer]


class _Relay(NamedTuple):
    """A monitor command read off the canonical prefix, never decoded."""

    monitor: str
    head: bytes  # the payload up to the id's value
    tail: bytes  # the payload after it


class ShardRouter:
    """Protocol-transparent front-end multiplexing N shard servers."""

    def __init__(
        self,
        state: ClusterState,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.state = state
        self.host = host
        self.port = port
        self.registry = registry if registry is not None else MetricsRegistry()
        self._listener = protocol.Listener(self._serve_client)
        self._started = time.time()
        self.registry.gauge(
            "cluster_uptime_seconds", help="Seconds since this router constructed"
        ).set_function(lambda: time.time() - self._started)
        self._requests_total = self.registry.counter(
            "cluster_requests_total", help="Requests handled by the router"
        )
        # The router answers the FAN_OUT and LOCAL commands itself:
        # command ``x`` with ``self._x``.
        self._answers: Dict[str, Callable[[_Links, dict, object], Awaitable[dict]]] = {
            name: getattr(self, f"_{name}")
            for name, spec in protocol.COMMAND_SPECS.items()
            if spec.route in (Route.FAN_OUT, Route.LOCAL)
        }

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        await self._listener.start(self.host, self.port)

    @property
    def address(self) -> Tuple[str, int]:
        return self._listener.address

    async def serve_forever(self) -> None:
        if not self._listener.listening:
            await self.start()
        await self._listener.serve_forever()

    async def stop(self) -> None:
        await self._listener.close()

    # -- shard connections ---------------------------------------------------

    async def _connection(self, links: _Links, shard: int) -> AsyncConnection:
        """This client connection's connection to ``shard``'s current address.

        The caller writes as soon as this returns, so one client's
        frames for a shard leave in arrival order (see :class:`Dialer`).
        """
        address = self.state.addresses.get(shard)
        if address is None:
            raise ConnectionError(f"shard {shard} has no live address")
        dialer = links.get(shard)
        if dialer is None:
            dialer = links[shard] = Dialer(AsyncConnection.open)
        return await dialer.connect(address)

    async def _forward(
        self, links: _Links, shard: int, head: bytes, tail: bytes
    ) -> bytes:
        """Relay ``head + <id> + tail``; the raw response."""
        connection = await self._connection(links, shard)
        response = connection.submit_bytes(head, tail)
        await connection.drain()
        return await response

    async def _ask(self, links: _Links, shard: int, command: str) -> dict:
        """A parsed request/response round trip (the fan-out path)."""
        head = b'{"cmd":' + encode_payload(command) + b',"id":'
        return protocol.decode_payload(await self._forward(links, shard, head, b"}"))

    def _count_shard_error(self, shard: int) -> None:
        self.registry.counter(
            "cluster_shard_errors_total",
            labels={"shard": str(shard)},
            help="Upstream shard failures observed by the router",
        ).inc()

    # -- request handling ----------------------------------------------------

    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection, on the shared pipelined loop: requests
        overlap within a shard as well as across shards."""
        self.registry.counter(
            "cluster_connections_total", help="Client connections accepted"
        ).inc()
        links: _Links = {}
        try:
            await protocol.serve_pipelined(
                reader,
                writer,
                self._parse,
                functools.partial(self._route, links),
            )
        finally:
            try:
                for dialer in links.values():
                    await dialer.close()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # teardown during loop shutdown; sockets are closing anyway

    @staticmethod
    def _parse(payload: bytes) -> Tuple[object, "_Relay | dict"]:
        """The request id, and the request: a relay, or a document.

        A monitor command behind the canonical prefix becomes a
        :class:`_Relay` without a decode. Everything else (non-canonical
        key order from a hand-rolled client, a command that needs
        fields the prefix does not carry) is decoded here, so a
        malformed one is answered ``bad_frame`` before later frames run.
        """
        match = _FAST_REQUEST.match(payload)
        if match is not None and match.group(3) is not None:
            if match.group(1).decode("ascii") in protocol.MONITOR_COMMANDS:
                relay = _Relay(
                    match.group(3).decode("ascii"),
                    payload[: match.start(2)],
                    payload[match.end(2) :],
                )
                return int(match.group(2)), relay
        request_id, request = protocol.decode_request(payload)
        monitor = request.get("monitor")
        if str(request.get("cmd")) in protocol.MONITOR_COMMANDS and isinstance(
            monitor, str
        ):  # re-encoded id first; the tail starts after the 0
            rest = {key: value for key, value in request.items() if key != "id"}
            tail = encode_payload({"id": 0, **rest})[7:]
            return request_id, _Relay(monitor, b'{"id":', tail)
        return request_id, request

    async def _route(
        self, links: _Links, request_id: object, request: "_Relay | dict"
    ) -> bytes:
        """One parsed request in, its raw response payload out.

        Raises :class:`FrameRejected` when the shard could not read the
        relayed frame.
        """
        self._requests_total.inc()
        if isinstance(request, _Relay):
            return await self._route_to_owner(links, request, request_id)
        command = str(request.get("cmd"))
        spec = protocol.COMMAND_SPECS.get(command)
        if spec is None:
            response = error_response(
                ERR_BAD_REQUEST, f"unknown command: {command!r}", request_id
            )
        elif spec.route is Route.FORWARD:  # parse relays those with a monitor
            response = error_response(ERR_BAD_REQUEST, MONITOR_NEEDED, request_id)
        elif spec.route is Route.SHARD_ONLY:
            # Such a command addresses one concrete server, never the tier.
            response = error_response(
                ERR_BAD_REQUEST,
                f"{command} must be sent to a shard directly, not the router",
                request_id,
            )
        else:
            response = await self._answers[command](links, request, request_id)
        return encode_payload(response)

    async def _topology(self, links: _Links, request: dict, request_id: object) -> dict:
        """The cluster's live shape, for ring-aware clients.

        Carries everything needed to route monitor commands locally:
        each shard's dialable address, the ring parameters, and a
        ``ring_digest``/``generation`` pair for cheap drift detection
        (a client whose cached digest stops matching refetches before
        trusting its ownership math).
        """
        return {
            "id": request_id,
            "ok": True,
            "shards": {
                str(shard): list(address)
                for shard, address in sorted(self.state.addresses.items())
            },
            "vnodes": self.state.ring.vnodes,
            "ring_digest": self.state.ring.digest(),
            "generation": self.state.generation,
            "router": True,
        }

    async def _route_to_owner(
        self, links: _Links, relay: _Relay, request_id: object
    ) -> bytes:
        monitor = relay.monitor
        shard = self.state.owner(monitor)
        try:
            response = await self._forward(links, shard, relay.head, relay.tail)
        except FrameRejected:
            raise
        except (ConnectionError, OSError, FrameError):
            self._count_shard_error(shard)
            return encode_payload(
                error_response(
                    ERR_SHARD_DOWN,
                    f"shard {shard} (owner of {monitor!r}) is unavailable; "
                    "retry after failover",
                    request_id,
                    shard=shard,
                )
            )
        match = RESPONSE_ID.match(response)
        if match is None:  # a shard that does not write the id first
            document = protocol.decode_payload(response)
            return encode_payload({**document, "id": request_id})
        return b'{"id":' + encode_payload(request_id) + response[match.end(1) :]

    async def _list(self, links: _Links, request: dict, request_id: object) -> dict:
        """Union of every live shard's monitors, sorted."""
        monitors: set[str] = set()
        down: list[int] = []
        for shard in self.state.ring.shards:
            try:
                response = await self._ask(links, shard, "list")
                monitors.update(response.get("monitors", ()))
            except (ConnectionError, OSError, FrameError):
                self._count_shard_error(shard)
                down.append(shard)
        document: dict = {"id": request_id, "ok": True, "monitors": sorted(monitors)}
        if down:
            document["shards_down"] = down
        return document

    async def _stats(self, links: _Links, request: dict, request_id: object) -> dict:
        """Every shard's stats, merged: summed counters, tagged monitors."""
        counters: Dict[str, float] = {}
        monitors: dict = {}
        failed: dict = {}
        per_shard: dict = {}
        for shard in self.state.ring.shards:
            try:
                response = await self._ask(links, shard, "stats")
            except (ConnectionError, OSError, FrameError):
                self._count_shard_error(shard)
                per_shard[str(shard)] = {"up": False}
                continue
            for name, value in response.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            for name, document in response.get("monitors", {}).items():
                monitors[name] = {**document, "shard": shard}
            for name, message in response.get("failed_monitors", {}).items():
                failed[name] = message
            per_shard[str(shard)] = {
                "up": True,
                "uptime_seconds": response.get("uptime_seconds"),
                "monitors": len(response.get("monitors", {})),
            }
        return {
            "id": request_id,
            "ok": True,
            "cluster": {
                "shards": len(self.state.ring.shards),
                "router_uptime_seconds": round(time.time() - self._started, 3),
                "shard_status": per_shard,
            },
            "counters": counters,
            "monitors": dict(sorted(monitors.items())),
            "failed_monitors": dict(sorted(failed.items())),
        }

    async def _metrics(self, links: _Links, request: dict, request_id: object) -> dict:
        """Router registry by default; one shard's exposition on demand."""
        shard = request.get("shard")
        if shard is None:
            return {
                "id": request_id,
                "ok": True,
                "content_type": CONTENT_TYPE,
                "text": render_prometheus(self.registry),
            }
        if not isinstance(shard, int) or shard not in self.state.ring.shards:
            return error_response(
                ERR_BAD_REQUEST, f"unknown shard: {shard!r}", request_id
            )
        try:
            response = await self._ask(links, shard, "metrics")
        except (ConnectionError, OSError, FrameError):
            self._count_shard_error(shard)
            return error_response(
                ERR_SHARD_DOWN, f"shard {shard} is unavailable", request_id
            )
        return {**response, "id": request_id}
