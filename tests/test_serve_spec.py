"""Spec conformance: every layer reads ``protocol.COMMAND_SPECS``.

The wire commands are declared once, in the spec table. These tests,
parametrized straight off the table, hold the layers to it:

* the server has exactly one handler per command;
* every command has a router policy, and the router answers itself
  exactly the commands whose policy says so;
* each command method is defined once, for the async client, and the
  blocking client exposes it with the same signature; those methods
  send only spec commands;
* the command table in ``docs/serving.md`` is the table rendered from
  the spec;
* each field type is enforced, missing required fields are named,
  and undeclared fields are ignored.

Re-render the docs table after changing the spec:
    PYTHONPATH=src python tests/test_serve_spec.py
"""

from __future__ import annotations

import asyncio
import inspect
from pathlib import Path

import pytest

from repro.serve import AsyncServeClient, ServeClient, ServeClientError, ServeConfig
from repro.serve.commands import CommandMethods
from repro.serve.protocol import (
    BOOL,
    COMMAND_SPECS,
    COMMANDS,
    COUNT,
    LIST,
    MONITOR,
    MONITOR_NEEDED,
    NUMBER,
    OBJECT,
    STATES,
    STRING,
    SWITCH,
    CommandSpec,
    Field,
    Route,
)
from repro.serve.ring import HashRing
from repro.serve.router import ClusterState, ShardRouter
from repro.serve.server import FenrirServer
from test_serve_server import ServerThread, connect
from test_serve_wire_golden import session

DOCS = Path(__file__).resolve().parent.parent / "docs" / "serving.md"
TABLE_HEADER = "| command | arguments | router | returns |"
SPECS = list(COMMAND_SPECS.values())
#: A valid value of every field type.
SAMPLES = {
    STRING: "pessimistic",
    MONITOR: "svc",
    NUMBER: 0.5,
    COUNT: 3,
    BOOL: False,
    SWITCH: "off",
    STATES: {"n1": "LAX"},
    LIST: [],
    OBJECT: {},
}


def method_name(command: str) -> str:
    return "list_monitors" if command == "list" else command


def by_name(spec: CommandSpec) -> str:
    return spec.name


def render_argument(field: Field) -> str:
    name = f"`{field.name}`" if field.required else f"`{field.name}?`"
    if field.type is MONITOR:
        return name
    return f"{name} ({field.note or field.type.label})"


def render_command_table() -> list[str]:
    lines = [TABLE_HEADER, "|---|---|---|---|"]
    for spec in SPECS:
        arguments = ", ".join(map(render_argument, spec.fields)) or "—"
        lines.append(
            f"| `{spec.name}` | {arguments} | {spec.route.value} | {spec.returns} |"
        )
    return lines


def documented_command_table(text: str) -> list[str]:
    lines = text.splitlines()
    start = lines.index(TABLE_HEADER)
    end = start
    while end < len(lines) and lines[end].startswith("|"):
        end += 1
    return lines[start:end]


def test_server_has_one_handler_per_command(tmp_path):
    server = FenrirServer(ServeConfig(data_dir=tmp_path))
    assert sorted(server._handlers) == sorted(COMMANDS)


@pytest.mark.parametrize("spec", SPECS, ids=by_name)
def test_every_command_has_a_router_policy(spec):
    assert isinstance(spec.route, Route)
    # The router routes on the monitor name, which the canonical key
    # order puts right after ``cmd`` and ``id``.
    monitor_first = bool(spec.fields) and spec.fields[0].type is MONITOR
    assert (spec.route is Route.FORWARD) == monitor_first
    assert all(field.type is not MONITOR for field in spec.fields[1:])


def test_router_answers_exactly_its_own_commands():
    router = ShardRouter(ClusterState(ring=HashRing([0])))
    own = {s.name for s in SPECS if s.route in (Route.FAN_OUT, Route.LOCAL)}
    assert set(router._answers) == own


@pytest.mark.parametrize("name", [*map(method_name, COMMANDS), "ingest_many"])
def test_both_clients_share_one_method_per_command(name):
    assert name not in vars(AsyncServeClient)
    assert inspect.iscoroutinefunction(vars(CommandMethods)[name])
    blocking, awaited = getattr(ServeClient, name), getattr(AsyncServeClient, name)
    assert inspect.signature(blocking) == inspect.signature(awaited)


def test_blocking_client_exposes_every_command_method():
    methods = {
        name
        for name, value in vars(CommandMethods).items()
        if inspect.iscoroutinefunction(value)
    }
    assert "request" in methods
    assert methods <= set(vars(ServeClient))


class Recorder(CommandMethods):
    """A transport that records each command and answers a stock ``ok``."""

    def __init__(self) -> None:
        self.sent: list[str] = []

    async def request(self, command: str, **fields: object) -> dict:
        self.sent.append(command)
        stock = {"seq": 1, "state": {}, "results": [], "failed": None}
        return {"ok": True, "text": "", "monitors": [], **stock}


def test_client_methods_send_only_spec_commands():
    recorder = Recorder()

    async def drive() -> None:
        steps = session()
        result = None
        while True:
            try:
                method, args, kwargs = steps.send(result)
            except StopIteration:
                break
            result = await getattr(recorder, method)(*args, **kwargs)

    asyncio.run(drive())
    assert set(recorder.sent) - {"bogus"} == set(COMMANDS)


def test_docs_table_is_rendered_from_the_spec():
    documented = documented_command_table(DOCS.read_text(encoding="utf-8"))
    assert documented == render_command_table()


@pytest.mark.parametrize("spec", SPECS, ids=by_name)
def test_declared_field_types_are_enforced(spec):
    valid = {field.name: SAMPLES[field.type] for field in spec.fields}
    assert spec.problem(valid) is None
    assert spec.problem({**valid, "marker": object()}) is None
    for field in spec.fields:
        problem = spec.problem({**valid, field.name: None})
        expected = MONITOR_NEEDED if field.type is MONITOR else f"'{field.name}'"
        assert problem is not None and expected in problem
        missing = spec.problem({k: v for k, v in valid.items() if k != field.name})
        if field.required:
            assert missing is not None and field.name in missing
        else:
            assert missing is None


def test_server_names_the_missing_field(tmp_path):
    config = ServeConfig(data_dir=tmp_path / "data", port=0)
    with ServerThread(config) as server, connect(server) as client:
        for spec in SPECS:
            for field in spec.fields:
                if not field.required:
                    continue
                request = {f.name: SAMPLES[f.type] for f in spec.fields}
                del request[field.name]
                with pytest.raises(ServeClientError) as caught:
                    client.request(spec.name, **request)
                assert caught.value.code == "bad_request", spec.name
                assert field.name in caught.value.response["message"]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    text = DOCS.read_text(encoding="utf-8")
    old = "\n".join(documented_command_table(text))
    DOCS.write_text(text.replace(old, "\n".join(render_command_table())), "utf-8")
    print(f"re-rendered the command table in {DOCS}")
