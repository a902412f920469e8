"""Golden wire frames: the exact bytes each client sends and the server answers.

One scripted session — create → ingest → … → retire, touching every
command in ``COMMANDS`` — runs once through the blocking
``ServeClient`` and once through ``AsyncServeClient``, each through a
recording TCP relay in front of a fresh server. Every request frame
either client emits must equal the golden bytes in
``tests/golden/wire_frames.jsonl`` (so the two clients are
byte-identical to each other too), and every response must equal the
golden response once the volatile fields (uptimes, latency
percentiles, timing series, the listening port) are masked.

Regenerate after an intentional wire change:
    PYTHONPATH=src python tests/test_serve_wire_golden.py
"""

from __future__ import annotations

import asyncio
import json
import re
import socket
import struct
import threading
from pathlib import Path
from typing import Any, Callable, Generator

from repro.classify.features import FEATURE_WIDTH
from repro.classify.model import train_forest
from repro.serve import AsyncServeClient, ServeClient, ServeClientError, ServeConfig
from repro.serve.protocol import COMMAND_SPECS, COMMANDS, Route
from repro.vps import VPPlan
from test_classify import synthetic_dataset
from test_serve_cluster import RouterTier
from test_serve_server import ServerThread

GOLDEN = Path(__file__).parent / "golden" / "wire_frames.jsonl"
NETWORKS = ["n1", "n2", "n3"]
BEFORE = {"n1": "LAX", "n2": "LAX", "n3": "AMS"}
AFTER = {"n1": "AMS", "n2": "AMS", "n3": "AMS"}
MASK = "<masked>"
#: Response keys whose values depend on wall-clock time.
VOLATILE_KEYS = {"uptime_seconds", "router_uptime_seconds", "latency"}
#: Exposition samples whose values are timings.
_TIMED_SAMPLE = re.compile(r"^(\w*seconds\w*(?:\{[^}]*\})?) .*$", re.MULTILINE)

#: One step of the scripted session: (client method, args, kwargs).
Step = tuple[str, tuple, dict]


def session() -> Generator[Step, Any, None]:
    """The scripted session, shared by both clients.

    Each yielded step is one client call; the call's result (or, for a
    raw ``request`` that errors, the error response) is sent back in.
    """
    plan = VPPlan(
        kept=("n1", "n3"),
        weights={"n1": 2.0, "n3": 1.0},
        total_networks=3,
        provenance={"series_sha256": "0" * 64},
    )
    features, labels = synthetic_dataset(samples_per_class=2, seed=3)
    model = train_forest(features, labels, seed=11, num_trees=2, max_depth=2)

    yield "create", ("svc", NETWORKS), {}
    yield "ingest", ("svc", BEFORE, "2025-01-01T00:00:00"), {}
    rounds = [(AFTER, "2025-01-01T01:00:00"), (BEFORE, "2025-01-01T02:00:00")]
    yield "ingest_batch", ("svc", rounds), {}
    yield "query", ("svc",), {}
    yield "query", ("svc", AFTER), {}
    yield "timeline", ("svc",), {}
    yield "snapshot", ("svc",), {}
    yield "list_monitors", (), {}
    yield "vps", ("planned",), {"plan": plan.to_document()}
    yield "vps", ("planned",), {}
    yield "dedup", ("planned",), {}
    yield "dedup", ("planned", "off"), {}
    yield "classify", ("svc",), {}
    yield "classify", ("svc",), {"model": model.to_document()}
    yield "classify", ("svc",), {"before": BEFORE, "after": AFTER}
    yield "classify", ("svc",), {"features": [0.25] * FEATURE_WIDTH}
    yield "classify", ("svc",), {"stream": "on"}
    full = yield "handoff", ("svc",), {}
    yield "handoff", ("svc",), {"after_rounds": 1}
    yield "install", ("copy", full["seq"], full["state"]), {}
    yield "retire", ("copy",), {}
    yield "stats", (), {}
    yield "metrics", (), {}
    yield "promote", (), {}
    yield "topology", (), {}
    # Error answers, recorded once the spec's field types were enforced.
    typed = {"monitor": "typed", "networks": NETWORKS}
    yield "request", ("bogus",), {}
    yield "request", ("create",), {**typed, "event_threshold": None}
    yield "request", ("create",), {**typed, "dedup": "no"}
    yield "request", ("query",), {"monitor": "svc", "states": {"n1": 1}}


class Relay:
    """A one-connection TCP relay that records both directions' bytes."""

    def __init__(self, upstream: tuple[str, int]) -> None:
        self.upstream = upstream
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.requests = bytearray()
        self.responses = bytearray()
        self._pumps: list[threading.Thread] = []
        self._sockets: list[socket.socket] = []
        self._acceptor = threading.Thread(target=self._accept, daemon=True)
        self._acceptor.start()

    def _accept(self) -> None:
        downstream, _ = self.listener.accept()
        upstream = socket.create_connection(self.upstream)
        self._sockets += [downstream, upstream]
        for source, sink, record in (
            (downstream, upstream, self.requests),
            (upstream, downstream, self.responses),
        ):
            pump = threading.Thread(
                target=self._pump, args=(source, sink, record), daemon=True
            )
            pump.start()
            self._pumps.append(pump)

    @staticmethod
    def _pump(source: socket.socket, sink: socket.socket, record: bytearray) -> None:
        try:
            while chunk := source.recv(65536):
                record.extend(chunk)
                sink.sendall(chunk)
        except OSError:
            pass
        finally:
            for end in (source, sink):
                try:
                    end.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def close(self) -> None:
        self._acceptor.join(timeout=10)
        for pump in self._pumps:
            pump.join(timeout=10)
        for end in self._sockets:
            end.close()
        self.listener.close()


def split_frames(stream: bytes) -> list[bytes]:
    """Length-prefixed frames → their payloads."""
    payloads = []
    offset = 0
    while offset < len(stream):
        (length,) = struct.unpack(">I", stream[offset : offset + 4])
        payloads.append(bytes(stream[offset + 4 : offset + 4 + length]))
        offset += 4 + length
    return payloads


def mask(value: Any, key: str = "") -> Any:
    if key in VOLATILE_KEYS:
        return MASK
    if key == "shards" and isinstance(value, dict):
        # topology: {id: [host, port]} — the port is the OS's choice.
        return {shard: [address[0], MASK] for shard, address in value.items()}
    if key == "text" and isinstance(value, str):
        return _TIMED_SAMPLE.sub(rf"\1 {MASK}", value)
    if isinstance(value, dict):
        return {name: mask(item, name) for name, item in value.items()}
    if isinstance(value, list):
        return [mask(item) for item in value]
    return value


def masked_response(payload: bytes) -> str:
    return json.dumps(mask(json.loads(payload)), separators=(",", ":"))


def run_blocking(address: tuple[str, int]) -> list[str]:
    relay = Relay(address)
    commands = []
    with ServeClient(port=relay.port) as client:
        steps = session()
        result = None
        while True:
            try:
                method, args, kwargs = steps.send(result)
            except StopIteration:
                break
            commands.append(method)
            try:
                result = getattr(client, method)(*args, **kwargs)
            except ServeClientError as exc:
                result = exc.response
    relay.close()
    return frame_records(commands, relay)


def run_async(address: tuple[str, int]) -> list[str]:
    relay = Relay(address)
    commands = []

    async def drive() -> None:
        async with AsyncServeClient(port=relay.port) as client:
            steps = session()
            result = None
            while True:
                try:
                    method, args, kwargs = steps.send(result)
                except StopIteration:
                    break
                commands.append(method)
                try:
                    result = await getattr(client, method)(*args, **kwargs)
                except ServeClientError as exc:
                    result = exc.response

    asyncio.run(drive())
    relay.close()
    return frame_records(commands, relay)


def frame_records(commands: list[str], relay: Relay) -> list[str]:
    requests = split_frames(relay.requests)
    responses = split_frames(relay.responses)
    assert len(requests) == len(responses) == len(commands)
    return [
        json.dumps(
            {
                "method": method,
                "request": request.decode("utf-8"),
                "response": masked_response(response),
            },
            separators=(",", ":"),
        )
        for method, request, response in zip(commands, requests, responses)
    ]


def record(tmp_path: Path, runner: Callable[[tuple[str, int]], list[str]]) -> list[str]:
    config = ServeConfig(data_dir=tmp_path, port=0)
    with ServerThread(config) as server:
        assert server.address is not None
        return runner(server.address)


def golden_records() -> list[str]:
    return GOLDEN.read_text(encoding="utf-8").splitlines()


def test_golden_covers_every_command():
    sent = {json.loads(json.loads(line)["request"])["cmd"] for line in golden_records()}
    assert sent >= set(COMMANDS)


def test_blocking_client_frames_match_golden(tmp_path):
    assert record(tmp_path, run_blocking) == golden_records()


def test_async_client_frames_match_golden(tmp_path):
    assert record(tmp_path, run_async) == golden_records()


def test_routed_responses_match_golden(tmp_path):
    # The router rewrites every forwarded request's id and splices the
    # client's back into the answer; neither may show in the bytes.
    def is_forwarded(golden: dict) -> bool:
        spec = COMMAND_SPECS.get(json.loads(golden["request"])["cmd"])
        return spec is not None and spec.route is Route.FORWARD

    forwarded = [g for g in map(json.loads, golden_records()) if is_forwarded(g)]
    assert len(forwarded) > 20
    with RouterTier(tmp_path, shards=1) as tier:
        sock = socket.create_connection(tier.address, timeout=10)
        with sock, sock.makefile("rb") as stream:
            for golden in forwarded:
                payload = golden["request"].encode("utf-8")
                sock.sendall(struct.pack(">I", len(payload)) + payload)
                (length,) = struct.unpack(">I", stream.read(4))
                assert masked_response(stream.read(length)) == golden["response"]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        lines = record(Path(scratch), run_blocking)
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} frames to {GOLDEN}")
