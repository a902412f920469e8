"""Length-prefixed JSON wire protocol for ``repro serve``.

Every message — request or response — is one *frame*: a 4-byte
big-endian unsigned length followed by that many bytes of UTF-8 JSON.
Length prefixes (rather than newline delimiting) keep framing robust
to payloads containing arbitrary text and make oversized-frame
rejection possible before a byte of JSON is parsed.

Requests carry ``{"cmd": ..., "id": ...}`` plus command arguments;
responses echo the ``id`` as their first key (:data:`RESPONSE_ID`
relies on that) and carry ``{"ok": true, ...}`` or
``{"ok": false, "error": <code>, "message": ...}``. Error codes are
the ``ERR_*`` constants below; ``ERR_OVERLOADED`` is the explicit
backpressure signal (the monitor's bounded ingest queue is full — back
off and retry rather than buffering server-side without limit).
"""

from __future__ import annotations

import asyncio
import enum
import json
import re
import struct
from dataclasses import dataclass
from typing import Awaitable, Callable, Mapping, NamedTuple, Optional, TypeVar

__all__ = [
    "MAX_FRAME",
    "MAX_INFLIGHT",
    "FieldType",
    "Field",
    "Route",
    "CommandSpec",
    "COMMAND_SPECS",
    "COMMANDS",
    "MONITOR_COMMANDS",
    "FrameError",
    "FrameTooLarge",
    "FrameRejected",
    "ServeClientError",
    "ServeTimeout",
    "OverloadedError",
    "BatchRejectedError",
    "RequestIds",
    "RESPONSE_ID",
    "check_response",
    "encode_frame",
    "encode_payload",
    "frame_bytes",
    "decode_payload",
    "decode_request",
    "read_frame",
    "read_frame_bytes",
    "serve_pipelined",
    "Listener",
    "write_frame",
    "error_response",
    "ERR_BAD_FRAME",
    "ERR_BAD_REQUEST",
    "ERR_FRAME_TOO_LARGE",
    "ERR_NO_SUCH_MONITOR",
    "ERR_MONITOR_EXISTS",
    "ERR_OVERLOADED",
    "ERR_OUT_OF_ORDER",
    "ERR_INTERNAL",
    "ERR_SHARD_DOWN",
]

_LENGTH = struct.Struct(">I")

#: Cap on a single frame's payload (4 MiB), on every tier and both
#: directions. Large enough for an ingest round over hundreds of
#: thousands of networks, small enough that a garbage length prefix
#: cannot make the server buffer gigabytes.
MAX_FRAME = 4 * 1024 * 1024

#: Requests one connection may have in flight: past it the server and
#: the router answer ``overloaded``, and a client connection refuses to
#: send. One-at-a-time clients never notice (docs/async-client.md).
MAX_INFLIGHT = 512


# -- the command table --------------------------------------------------------
#
# Every wire command is declared once, in COMMAND_SPECS. The server
# checks a request's declared fields against its entry and calls the
# handler of the same name; the router picks its path from ``route``;
# both clients' command methods (repro.serve.commands) send these
# names; the command table in docs/serving.md is rendered from it.


class FieldType(NamedTuple):
    """One of the closed set of wire field types."""

    label: str
    accepts: Callable[[object], bool]


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_state_map(value: object) -> bool:
    return isinstance(value, dict) and all(
        isinstance(key, str) and isinstance(label, str) for key, label in value.items()
    )


STRING = FieldType("string", lambda value: isinstance(value, str))
MONITOR = FieldType("monitor name", lambda value: isinstance(value, str))
NUMBER = FieldType("number", _is_number)
COUNT = FieldType("non-negative int", _is_count)
BOOL = FieldType("bool", lambda value: isinstance(value, bool))
SWITCH = FieldType("on/off", lambda value: value == "on" or value == "off")
STATES = FieldType("{network: state}", _is_state_map)
LIST = FieldType("list", lambda value: isinstance(value, list))
OBJECT = FieldType("object", lambda value: isinstance(value, dict))


#: The answer to a monitor-scoped request without a usable monitor name
#: (the router gives it too, before picking an owner shard).
MONITOR_NEEDED = "request needs a 'monitor' name"


class Field(NamedTuple):
    """A declared request field; ``note`` overrides the type in the docs."""

    name: str
    type: FieldType
    required: bool = False
    note: str = ""


class Route(enum.Enum):
    """How the cluster router handles a command."""

    FORWARD = "owner shard"  # relayed verbatim to the monitor's ring owner
    FAN_OUT = "every shard"  # sent to every shard, answers merged
    LOCAL = "router"  # answered by the router itself
    SHARD_ONLY = "refused"  # addresses one server; the router refuses it


@dataclass(frozen=True)
class CommandSpec:
    """One wire command: its fields, its router policy, what it returns."""

    name: str
    route: Route
    fields: tuple[Field, ...]
    returns: str

    @property
    def scope(self) -> str:
        """``monitor`` for commands addressed to one monitor, else ``tier``."""
        return "monitor" if self.route is Route.FORWARD else "tier"

    def problem(self, request: Mapping[str, object]) -> Optional[str]:
        """Why ``request`` does not fit this command, or None if it does.

        A declared field, when present, must have its declared type;
        ``null`` is not a value of any type. Undeclared fields are
        ignored.
        """
        for field in self.fields:
            if field.name not in request:
                if not field.required:
                    continue
            elif field.type.accepts(request[field.name]):
                continue
            if field.type is MONITOR:
                return MONITOR_NEEDED
            if field.name not in request:
                return f"{self.name} needs '{field.name}' ({field.type.label})"
            return (
                f"'{field.name}' must be {field.type.label}, "
                f"got {_preview(request[field.name])}"
            )
        return None


def _preview(value: object, limit: int = 60) -> str:
    text = json.dumps(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


_MONITOR = Field("monitor", MONITOR, required=True)
_THRESHOLDS = (
    Field("event_threshold", NUMBER),
    Field("mode_threshold", NUMBER),
    Field("policy", STRING, note="`pessimistic`/`exclude`"),
)
_FORWARD, _FAN_OUT, _LOCAL = Route.FORWARD, Route.FAN_OUT, Route.LOCAL

COMMAND_SPECS: dict[str, CommandSpec] = {
    spec.name: spec
    for spec in (
        CommandSpec(
            "create",
            _FORWARD,
            (
                _MONITOR,
                Field("networks", LIST, required=True),
                *_THRESHOLDS,
                Field("weights", LIST, note="list of numbers"),
                Field("dedup", BOOL),
            ),
            "`{ok, monitor}`",
        ),
        CommandSpec(
            "ingest",
            _FORWARD,
            (
                _MONITOR,
                Field("time", STRING, required=True, note="ISO-8601"),
                Field("states", STATES, required=True),
            ),
            "`{ok, seq, update}`: the full `OnlineUpdate`",
        ),
        CommandSpec(
            "ingest_batch",
            _FORWARD,
            (_MONITOR, Field("rounds", LIST, required=True, note="`[{time, states}]`")),
            "`{ok, seq, accepted, results, failed}`: see below",
        ),
        CommandSpec(
            "query",
            _FORWARD,
            (_MONITOR, Field("states", STATES)),
            "summary; with `states`, a non-mutating mode `match`",
        ),
        CommandSpec(
            "timeline",
            _FORWARD,
            (_MONITOR,),
            "`{ok, monitor, segments}`: `{mode_id, start, end}` runs",
        ),
        CommandSpec(
            "stats",
            _FAN_OUT,
            (),
            "counters, latency percentiles, per-monitor queues and replay",
        ),
        CommandSpec(
            "metrics",
            _LOCAL,
            (Field("shard", COUNT, note="router only: that shard's exposition"),),
            "`{ok, content_type, text}`: Prometheus text",
        ),
        CommandSpec("snapshot", _FORWARD, (_MONITOR,), "`{ok, monitor, seq}`"),
        CommandSpec("list", _FAN_OUT, (), "`{ok, monitors}`"),
        # VP-plan monitors and ingest dedup (docs/vps.md).
        CommandSpec(
            "vps",
            _FORWARD,
            (_MONITOR, Field("plan", OBJECT), Field("dedup", BOOL), *_THRESHOLDS),
            "creates a plan-backed monitor, or reports its plan",
        ),
        CommandSpec(
            "dedup",
            _FORWARD,
            (_MONITOR, Field("mode", SWITCH)),
            "`{ok, monitor, mode, deduped_records, bytes_saved}`",
        ),
        # Route-change cause classification (docs/classification.md).
        CommandSpec(
            "classify",
            _FORWARD,
            (
                _MONITOR,
                Field("model", OBJECT),
                Field("stream", SWITCH),
                Field("features", LIST, note="list of numbers"),
                Field("before", STATES),
                Field("after", STATES),
                Field("revert", STATES),
            ),
            "installs a model, toggles streaming, classifies, or reports",
        ),
        # Cluster support: state shipping and failover (docs/cluster.md).
        CommandSpec(
            "handoff",
            _FORWARD,
            (_MONITOR, Field("after_rounds", COUNT)),
            "`{ok, monitor, kind, seq, rounds, state}`",
        ),
        CommandSpec(
            "install",
            _FORWARD,
            (
                _MONITOR,
                Field("seq", COUNT, required=True),
                Field("state", OBJECT, required=True),
            ),
            "`{ok, monitor, seq, rounds}`",
        ),
        CommandSpec("retire", _FORWARD, (_MONITOR,), "`{ok, monitor, seq}`"),
        CommandSpec("promote", Route.SHARD_ONLY, (), "`{ok, was_following}`"),
        # Cluster shape for ring-aware clients (docs/async-client.md).
        CommandSpec(
            "topology",
            _LOCAL,
            (),
            "`{ok, shards, vnodes, ring_digest, generation, router}`",
        ),
    )
}

COMMANDS = tuple(COMMAND_SPECS)

#: Commands addressed to one monitor — the router routes these to the
#: ring owner's shard; everything else is answered by the router itself
#: or fanned out to every shard.
MONITOR_COMMANDS = frozenset(
    name for name, spec in COMMAND_SPECS.items() if spec.scope == "monitor"
)

ERR_BAD_FRAME = "bad_frame"
ERR_BAD_REQUEST = "bad_request"
ERR_FRAME_TOO_LARGE = "frame_too_large"
ERR_NO_SUCH_MONITOR = "no_such_monitor"
ERR_MONITOR_EXISTS = "monitor_exists"
ERR_OVERLOADED = "overloaded"
ERR_OUT_OF_ORDER = "out_of_order"
ERR_INTERNAL = "internal"
#: Router-originated: the shard owning the addressed monitor is down or
#: unreachable. Retryable — the supervisor restarts or fails over the
#: shard; clients should back off and resend.
ERR_SHARD_DOWN = "shard_unavailable"


class FrameError(ValueError):
    """Malformed frame: bad length prefix, bad UTF-8, or bad JSON."""


class FrameTooLarge(FrameError):
    """Frame payload exceeds the configured maximum."""


class FrameRejected(ConnectionError):
    """The far end could not read a frame, answered, and hung up.

    ``response`` is that answer: a ``bad_frame`` or ``frame_too_large``
    error whose ``id`` is ``null``, since the frame's own id was never
    read. Which request it belongs to is unknowable, so it fails every
    request in flight and the connection. A handler of
    :func:`serve_pipelined` raises it to relay that answer and hang up
    in turn.
    """

    def __init__(self, response: dict) -> None:
        super().__init__(f"frame rejected: {response.get('message')}")
        self.response = response


# -- client-side error surface ------------------------------------------------
#
# What a client raises, plus the correlation-id allocator and the
# response check that the client connection (repro.serve.aio.connection)
# uses. Callers import the exceptions from here or from repro.serve.


class ServeClientError(RuntimeError):
    """An error response from the server."""

    def __init__(self, code: str, message: str, response: dict) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.response = response


class ServeTimeout(OSError):
    """The server (or the route to it) stopped answering in time.

    Raised when connecting or a request exceeds the client's
    ``timeout``. Distinct from :class:`ServeClientError`: no response
    was received at all, so the request's fate is unknown — behind a
    router this usually means the owning shard is dead and a restart or
    failover is in progress. The connection stays open: a late response
    is dropped by its id.
    """


class OverloadedError(ServeClientError):
    """Explicit backpressure: a bounded queue or in-flight cap is full."""


class BatchRejectedError(ServeClientError):
    """A batched ingest hit an invalid record partway through.

    Everything before ``index`` was applied and durably acknowledged —
    ``applied`` holds those update documents — and nothing at or after
    ``index`` was. ``index`` is absolute into the rounds the caller
    passed, not relative to the failing wire batch.
    """

    def __init__(
        self, code: str, message: str, response: dict, index: int, applied: list[dict]
    ) -> None:
        super().__init__(code, f"round {index}: {message}", response)
        self.index = index
        self.applied = applied


class RequestIds:
    """Monotonic correlation-id allocator, one per connection.

    Ids only need to be unique among the requests in flight on one
    connection — the pipelined server echoes whatever it was sent — so
    a plain counter suffices and stays debuggable (id order == send
    order).
    """

    __slots__ = ("_next",)

    def __init__(self) -> None:
        self._next = 0

    def next(self) -> int:
        self._next += 1
        return self._next


def check_response(response: dict) -> dict:
    """Return an ``ok`` response, or raise the mapped client exception.

    ``overloaded`` raises :class:`OverloadedError` so callers can
    distinguish "back off and retry" from "you sent garbage"; every
    other error code raises plain :class:`ServeClientError` with the
    code preserved on the exception.
    """
    if not response.get("ok"):
        code = str(response.get("error", "unknown"))
        text = str(response.get("message", ""))
        if code == ERR_OVERLOADED:
            raise OverloadedError(code, text, response)
        raise ServeClientError(code, text, response)
    return response


#: The id of a response as the server writes it: first key, an integer.
#: Lets a client correlate a response without parsing it.
RESPONSE_ID = re.compile(rb'^\{"id":(\d+)[,}]')


def encode_payload(message: object) -> bytes:
    """``message`` as compact JSON, unchecked against any frame cap."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8")


def encode_frame(message: dict) -> bytes:
    payload = encode_payload(message)
    if len(payload) > MAX_FRAME:
        raise FrameTooLarge(f"frame of {len(payload)} bytes exceeds {MAX_FRAME}")
    return frame_bytes(payload)


def frame_bytes(payload: bytes) -> bytes:
    """``payload`` behind its length prefix, unchecked."""
    return _LENGTH.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict):
        raise FrameError("frame payload must be a JSON object")
    return message


def decode_request(payload: bytes) -> tuple[object, dict]:
    """A request payload's id and decoded document (a ``parse`` for
    :func:`serve_pipelined`)."""
    request = decode_payload(payload)
    return request.get("id"), request


def error_response(
    code: str, message: str, request_id: object = None, **extra: object
) -> dict:
    response = {"id": request_id, "ok": False, "error": code, "message": message}
    response.update(extra)
    return response


# -- asyncio (server side) ----------------------------------------------------

_Item = TypeVar("_Item")


def _ignore(_value: object) -> None:
    """The default ``count``/``observe_fill`` hook: record nothing."""


async def read_frame(reader: asyncio.StreamReader) -> Optional[dict]:
    """Read and decode one frame; None on clean EOF before a length prefix."""
    payload = await read_frame_bytes(reader)
    return None if payload is None else decode_payload(payload)


async def read_frame_bytes(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read one frame's raw payload bytes; None on clean EOF.

    The serving loop and the client connection's reader: a frame can be
    relayed or correlated without a decode/re-encode round trip.
    """
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError("connection closed mid length prefix") from exc
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME:
        raise FrameTooLarge(f"declared frame of {length} bytes exceeds {MAX_FRAME}")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError("connection closed mid frame") from exc


async def serve_pipelined(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    parse: Callable[[bytes], tuple[object, _Item]],
    handle: Callable[[object, _Item], Awaitable[bytes]],
    *,
    count: Callable[[str], object] = _ignore,
    observe_fill: Callable[[float], object] = _ignore,
) -> None:
    """Serve one connection's pipelined frames until EOF or a bad frame.

    The connection loop of the server and of the router. ``parse`` runs
    inline, in arrival order, and turns a payload into the request id
    plus whatever ``handle`` needs; ``handle(request_id, item)`` runs as
    the request's own task and returns the response payload. Responses
    are written as tasks finish, under a per-connection lock, and echo
    their request's id; a client that sends one request and waits sees
    plain request/response order.

    Tasks start in frame order and asyncio runs each up to its first
    suspension in that order, so what a handler does before its first
    ``await`` (the server's enqueue onto a monitor queue, the router's
    write to a shard) happens in send order: pipelined ingests on one
    connection apply in the order sent.

    Failures, the same on every tier. A frame over :data:`MAX_FRAME` is
    answered ``frame_too_large`` and one that cannot be read or parsed
    ``bad_frame``, with a null id; the connection then closes and no
    later frame is handled. Past :data:`MAX_INFLIGHT` pending requests
    a frame is answered ``overloaded`` with its id. A handler raising
    :class:`FrameRejected` has that answer written, then the connection
    closes. A response over :data:`MAX_FRAME` becomes an ``internal``
    error with the request's id, and the connection stays open.

    ``count`` receives ``frames_oversized``, ``frames_malformed`` and
    ``pipeline_overloads``; ``observe_fill`` the in-flight depth over
    :data:`MAX_INFLIGHT` at each arrival. When the loop ends, pending tasks
    are cancelled (an enqueued ingest's future is abandoned) and awaited
    before the socket closes.
    """
    write_lock = asyncio.Lock()
    inflight: set[asyncio.Task] = set()
    loop = asyncio.get_running_loop()

    async def reply(payload: bytes) -> None:
        async with write_lock:
            writer.write(frame_bytes(payload))
            await writer.drain()

    async def answer(request_id: object, item: _Item) -> None:
        try:
            try:
                payload = await handle(request_id, item)
            except FrameRejected as exc:
                await reply(encode_payload(exc.response))
                writer.close()  # the read loop sees EOF and ends
                return
            if len(payload) > MAX_FRAME:
                payload = encode_payload(
                    error_response(
                        ERR_INTERNAL,
                        f"response of {len(payload)} bytes exceeds the "
                        f"{MAX_FRAME}-byte frame cap",
                        request_id,
                    )
                )
            await reply(payload)
        except (ConnectionError, OSError):
            pass  # peer vanished mid-response; the read loop notices

    try:
        while not writer.is_closing():
            try:
                payload = await read_frame_bytes(reader)
                if payload is None:
                    break
                request_id, item = parse(payload)
            except FrameError as exc:
                # Resync is impossible mid-stream: answer, then hang up.
                too_large = isinstance(exc, FrameTooLarge)
                count("frames_oversized" if too_large else "frames_malformed")
                code = ERR_FRAME_TOO_LARGE if too_large else ERR_BAD_FRAME
                await reply(encode_payload(error_response(code, str(exc))))
                break
            observe_fill(len(inflight) / MAX_INFLIGHT)
            if len(inflight) >= MAX_INFLIGHT:
                count("pipeline_overloads")
                overloaded = error_response(
                    ERR_OVERLOADED,
                    f"connection has {len(inflight)} requests in "
                    f"flight (cap {MAX_INFLIGHT})",
                    request_id,
                    in_flight=len(inflight),
                )
                await reply(encode_payload(overloaded))
                continue
            task = loop.create_task(answer(request_id, item))
            inflight.add(task)
            task.add_done_callback(inflight.discard)
    except (ConnectionError, OSError):
        pass  # peer vanished; nothing to answer
    finally:
        for task in list(inflight):
            task.cancel()
        if inflight:
            await asyncio.gather(*inflight, return_exceptions=True)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass  # teardown during loop shutdown; the socket is closed anyway


class Listener:
    """A TCP listener running ``handler`` per connection, which closes
    the connections still open when it closes.

    Server and router both listen through it. Closing each socket lets
    its connection loop end on EOF while the event loop still runs: a
    handler left for the loop's own shutdown to cancel is logged as an
    error by Python 3.11's stream server, and on 3.12
    ``Server.wait_closed`` waits for every connection to end.
    """

    def __init__(
        self,
        handler: Callable[
            [asyncio.StreamReader, asyncio.StreamWriter], Awaitable[None]
        ],
    ) -> None:
        self._handler = handler
        self._server: Optional[asyncio.AbstractServer] = None
        self._open: dict[asyncio.Task, asyncio.StreamWriter] = {}

    async def start(self, host: str, port: int) -> None:
        self._server = await asyncio.start_server(self._serve, host, port)

    @property
    def listening(self) -> bool:
        return self._server is not None

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — useful when port 0 was requested."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("not listening")
        host, port = self._server.sockets[0].getsockname()[:2]
        return str(host), int(port)

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, close every open connection and give their
        loops a second to end.

        A connection the loop has accepted but not yet wrapped in a
        transport would attach to an already closed ``Server`` (an
        ``AssertionError`` on transport creation, which asyncio's debug
        mode logs). So the listening sockets stop being read first, and
        the accepts already taken get the loop turns they need to start
        their handlers before the server closes: one to create the
        transport, one for ``connection_made`` to create the handler
        task, one for that task to register in ``_open``.
        """
        if self._server is None:
            return
        loop = asyncio.get_running_loop()
        for sock in self._server.sockets:
            loop.remove_reader(sock.fileno())
        for _turn in range(3):
            await asyncio.sleep(0)
        self._server.close()
        for writer in self._open.values():
            writer.close()
        if self._open:
            await asyncio.wait(list(self._open), timeout=1.0)
        await self._server.wait_closed()

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._open[task] = writer
        try:
            await self._handler(reader, writer)
        finally:
            del self._open[task]


async def write_frame(writer: asyncio.StreamWriter, message: dict) -> None:
    writer.write(encode_frame(message))
    await writer.drain()

