"""The client command methods, written once for both clients.

Each method of :class:`CommandMethods` is a *plan*: a generator that
yields the wire requests it needs (and, for overload retries, the
backoff sleeps between them), receives each response, and returns the
method's result. It never touches a socket. The blocking
:class:`~repro.serve.client.ServeClient` and the asyncio
:class:`~repro.serve.aio.AsyncServeClient` derive from
:class:`BlockingCommands` and :class:`AsyncCommands`, which run plans
over the client's own ``request`` — so ``client.query("m")`` returns
the response on the first and an awaitable of it on the second, from
the one definition below. The command names sent are the keys of
:data:`~repro.serve.protocol.COMMAND_SPECS`.
"""

from __future__ import annotations

import asyncio
import functools
import time
import types
from collections.abc import Callable, Coroutine, Generator, Iterable, Mapping, Sequence
from datetime import datetime
from typing import Any, Concatenate, Generic, NamedTuple, ParamSpec, TypeVar, overload

from .protocol import BatchRejectedError, OverloadedError, ServeClientError

__all__ = ["Request", "Backoff", "CommandMethods", "BlockingCommands", "AsyncCommands"]

P = ParamSpec("P")
T = TypeVar("T")


class Request(NamedTuple):
    """Plan step: send one command; the response is sent back in."""

    command: str
    fields: dict


class Backoff(NamedTuple):
    """Plan step: wait before the next request."""

    seconds: float


#: A command method's body: yields steps, receives responses (an error
#: response arrives as its ServeClientError, thrown in at the yield),
#: returns the method's result.
Plan = Generator[Request | Backoff, Any, T]

Round = tuple[Mapping[str, str], datetime | str]


def _given(command: str, **fields: object) -> Request:
    """A request carrying only the optional fields actually given."""
    return Request(command, {k: v for k, v in fields.items() if v is not None})


def _copy(mapping: Mapping[str, Any] | None) -> dict | None:
    return None if mapping is None else dict(mapping)


def _ingest_batch(monitor: str, rounds: Iterable[Round]) -> Request:
    documents = []
    for states, when in rounds:
        time_text = when.isoformat() if isinstance(when, datetime) else when
        documents.append({"time": time_text, "states": dict(states)})
    return Request("ingest_batch", {"monitor": monitor, "rounds": documents})


class _Command(Generic[P, T]):
    """Binds a plan method to a client: the client's driver runs it."""

    def __init__(self, plan: Callable[Concatenate[Any, P], Plan[T]]) -> None:
        self.plan = plan
        functools.update_wrapper(self, plan)

    @overload
    def __get__(self, client: None, owner: type) -> "_Command[P, T]": ...

    @overload
    def __get__(self, client: "BlockingCommands", owner: type) -> Callable[P, T]: ...

    @overload
    def __get__(
        self, client: "AsyncCommands", owner: type
    ) -> Callable[P, Coroutine[Any, Any, T]]: ...

    def __get__(self, client: Any, owner: type) -> Any:
        return self if client is None else types.MethodType(self, client)

    def __call__(self, client: Any, *args: Any, **kwargs: Any) -> Any:
        return client._drive(self.plan(client, *args, **kwargs))


class CommandMethods:
    """Every wire command as a client method (see the module docstring)."""

    @_Command
    def create(
        self,
        monitor: str,
        networks: Sequence[str],
        event_threshold: float = 0.1,
        mode_threshold: float = 0.7,
        policy: str = "pessimistic",
    ) -> Plan[dict]:
        fields = {"monitor": monitor, "networks": list(networks)}
        fields["event_threshold"] = event_threshold
        fields["mode_threshold"] = mode_threshold
        fields["policy"] = policy
        return (yield Request("create", fields))

    @_Command
    def ingest(
        self, monitor: str, states: Mapping[str, str], when: datetime | str
    ) -> Plan[dict]:
        time_text = when.isoformat() if isinstance(when, datetime) else when
        fields = {"monitor": monitor, "states": dict(states), "time": time_text}
        return (yield Request("ingest", fields))

    @_Command
    def ingest_batch(self, monitor: str, rounds: Sequence[Round]) -> Plan[dict]:
        """One ``ingest_batch`` request; returns the raw response.

        The response is ``ok: true`` even on partial failure — check
        ``failed`` (None when every round was applied). Most callers
        want :meth:`ingest_many`, which chunks, retries overload, and
        raises on rejected records.
        """
        return (yield _ingest_batch(monitor, rounds))

    @_Command
    def ingest_many(
        self,
        monitor: str,
        rounds: Sequence[Round],
        batch_size: int = 128,
        retry_overload: bool = True,
        backoff_seconds: float = 0.05,
    ) -> Plan[list[dict]]:
        """Stream ``rounds`` in batches; returns one update doc per round.

        Batches go serially because rounds are ordered. Overload
        responses are retried after a short backoff (safe: an
        overloaded batch was rejected before anything was enqueued, so
        the retry cannot double-apply). A rejected record raises
        :class:`BatchRejectedError` carrying the absolute index of the
        bad round and every update applied before it.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        applied: list[dict] = []
        for start in range(0, len(rounds), batch_size):
            batch = _ingest_batch(monitor, rounds[start : start + batch_size])
            while True:
                try:
                    response = yield batch
                    break
                except OverloadedError:
                    if not retry_overload:
                        raise
                    yield Backoff(backoff_seconds)
            applied.extend(response["results"])
            failed = response.get("failed")
            if failed is not None:
                raise BatchRejectedError(
                    failed["error"],
                    failed["message"],
                    response,
                    index=start + failed["index"],
                    applied=applied,
                )
        return applied

    @_Command
    def query(
        self, monitor: str, states: Mapping[str, str] | None = None
    ) -> Plan[dict]:
        return (yield _given("query", monitor=monitor, states=_copy(states)))

    @_Command
    def timeline(self, monitor: str) -> Plan[dict]:
        return (yield Request("timeline", {"monitor": monitor}))

    @_Command
    def stats(self) -> Plan[dict]:
        return (yield Request("stats", {}))

    @_Command
    def metrics(self) -> Plan[str]:
        """The server's metrics as Prometheus text exposition."""
        response = yield Request("metrics", {})
        return str(response["text"])

    @_Command
    def snapshot(self, monitor: str) -> Plan[dict]:
        return (yield Request("snapshot", {"monitor": monitor}))

    @_Command
    def list_monitors(self) -> Plan[list[str]]:
        response = yield Request("list", {})
        return list(response["monitors"])

    @_Command
    def vps(
        self,
        monitor: str,
        plan: Mapping[str, object] | None = None,
        dedup: bool = True,
        **options: object,
    ) -> Plan[dict]:
        """Create a monitor from a VP plan, or query its stored plan.

        With ``plan`` (a ``VPPlan.to_document()`` mapping) the server
        creates a monitor over the plan's kept VPs with the plan's
        weight rescaling; ``dedup`` controls the new monitor's ingest
        dedup mode (on by default). Without ``plan`` the call reports
        the stored plan summary and live dedup stats. Extra keyword
        options (``event_threshold``, ``mode_threshold``, ``policy``)
        pass through to creation.
        """
        fields: dict = {"monitor": monitor}
        if plan is not None:
            fields.update(plan=dict(plan), dedup=dedup, **options)
        return (yield Request("vps", fields))

    @_Command
    def dedup(self, monitor: str, mode: str | None = None) -> Plan[dict]:
        """Report a monitor's dedup stats; ``mode='on'|'off'`` toggles."""
        return (yield _given("dedup", monitor=monitor, mode=mode))

    @_Command
    def classify(
        self,
        monitor: str,
        *,
        model: Mapping[str, object] | None = None,
        stream: str | None = None,
        features: Sequence[float] | None = None,
        before: Mapping[str, str] | None = None,
        after: Mapping[str, str] | None = None,
        revert: Mapping[str, str] | None = None,
    ) -> Plan[dict]:
        """Classify a transition, manage the model, or report state.

        One optional argument group per request shape
        (docs/classification.md): ``model`` installs a
        ``ClassifierModel.to_document()`` mapping; ``stream`` toggles
        labeling at ingest time (``'on'``/``'off'``); ``features`` or
        ``before``/``after`` (plus optional ``revert``) classify one
        transition; no arguments reports the installed model summary,
        streaming flag, and recent streamed labels.
        """
        vector = None if features is None else [float(value) for value in features]
        request = _given(
            "classify",
            monitor=monitor,
            model=_copy(model),
            stream=stream,
            features=vector,
            before=_copy(before),
            after=_copy(after),
            revert=_copy(revert),
        )
        return (yield request)

    # -- cluster commands (state shipping and failover) ----------------------

    @_Command
    def handoff(self, monitor: str, after_rounds: int | None = None) -> Plan[dict]:
        """Export a monitor's state document for shipping elsewhere.

        Without ``after_rounds`` the response carries the full state
        (``kind: "full"``); with it, a delta covering only newer rounds
        (``kind: "delta"``, or ``"unchanged"`` when already current).
        """
        return (yield _given("handoff", monitor=monitor, after_rounds=after_rounds))

    @_Command
    def install(
        self, monitor: str, seq: int, state: Mapping[str, object]
    ) -> Plan[dict]:
        """Install a state document shipped from a ``handoff``."""
        fields = {"monitor": monitor, "seq": seq, "state": dict(state)}
        return (yield Request("install", fields))

    @_Command
    def retire(self, monitor: str) -> Plan[dict]:
        """Drop a monitor after its state moved to another shard."""
        return (yield Request("retire", {"monitor": monitor}))

    @_Command
    def promote(self) -> Plan[dict]:
        """Tell a replication follower to stop following and serve."""
        return (yield Request("promote", {}))

    @_Command
    def topology(self) -> Plan[dict]:
        """The serving tier's shape: ring members, digest, addresses.

        Against a cluster router the response carries every shard's
        id and dialable address plus the ring parameters (``vnodes``,
        ``ring_digest``) a ring-aware client needs to compute ownership
        locally; against a single server it reports the one-shard
        degenerate topology. ``generation`` bumps on every failover or
        restart, so clients can detect drift cheaply.
        """
        return (yield Request("topology", {}))


class BlockingCommands(CommandMethods):
    """Runs plans to completion over a blocking ``request``."""

    def request(self, command: str, **fields: object) -> dict:
        raise NotImplementedError

    def _drive(self, plan: Plan[T]) -> T:
        reply: Any = None
        failure: ServeClientError | None = None
        while True:
            try:
                step = plan.send(reply) if failure is None else plan.throw(failure)
            except StopIteration as done:
                return done.value
            reply, failure = None, None
            if isinstance(step, Backoff):
                time.sleep(step.seconds)
                continue
            try:
                reply = self.request(step.command, **step.fields)
            except ServeClientError as exc:
                failure = exc


class AsyncCommands(CommandMethods):
    """Runs plans as coroutines over an asyncio ``request``."""

    async def request(self, command: str, **fields: object) -> dict:
        raise NotImplementedError

    async def _drive(self, plan: Plan[T]) -> T:
        reply: Any = None
        failure: ServeClientError | None = None
        while True:
            try:
                step = plan.send(reply) if failure is None else plan.throw(failure)
            except StopIteration as done:
                return done.value
            reply, failure = None, None
            if isinstance(step, Backoff):
                await asyncio.sleep(step.seconds)
                continue
            try:
                reply = await self.request(step.command, **step.fields)
            except ServeClientError as exc:
                failure = exc
