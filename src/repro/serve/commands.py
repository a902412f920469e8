"""The client command methods, written once.

Each method of :class:`CommandMethods` is a coroutine that awaits the
client's own ``request`` for every wire request it needs and returns
the method's result. :class:`~repro.serve.aio.AsyncServeClient`
supplies ``request``; the blocking
:class:`~repro.serve.client.ServeClient` runs these same coroutines on
its own event loop. The command names sent are the keys of
:data:`~repro.serve.protocol.COMMAND_SPECS`.
"""

from __future__ import annotations

import asyncio
from collections.abc import Iterable, Mapping, Sequence
from datetime import datetime
from typing import Any

from .protocol import BatchRejectedError, OverloadedError

__all__ = ["CommandMethods"]

Round = tuple[Mapping[str, str], datetime | str]

#: Seconds :meth:`CommandMethods.ingest_many` waits before resending a
#: batch the server answered ``overloaded``.
_OVERLOAD_BACKOFF = 0.05


def _given(**fields: object) -> dict:
    """Only the optional fields actually given."""
    return {k: v for k, v in fields.items() if v is not None}


def _copy(mapping: Mapping[str, Any] | None) -> dict | None:
    return None if mapping is None else dict(mapping)


def _documents(rounds: Iterable[Round]) -> list[dict]:
    documents = []
    for states, when in rounds:
        time_text = when.isoformat() if isinstance(when, datetime) else when
        documents.append({"time": time_text, "states": dict(states)})
    return documents


class CommandMethods:
    """Every wire command as a client method (see the module docstring)."""

    async def request(self, command: str, **fields: object) -> dict:
        raise NotImplementedError

    async def create(
        self,
        monitor: str,
        networks: Sequence[str],
        event_threshold: float = 0.1,
        mode_threshold: float = 0.7,
        policy: str = "pessimistic",
    ) -> dict:
        return await self.request(
            "create",
            monitor=monitor,
            networks=list(networks),
            event_threshold=event_threshold,
            mode_threshold=mode_threshold,
            policy=policy,
        )

    async def ingest(
        self, monitor: str, states: Mapping[str, str], when: datetime | str
    ) -> dict:
        time_text = when.isoformat() if isinstance(when, datetime) else when
        return await self.request(
            "ingest", monitor=monitor, states=dict(states), time=time_text
        )

    async def ingest_batch(self, monitor: str, rounds: Sequence[Round]) -> dict:
        """One ``ingest_batch`` request; returns the raw response.

        The response is ``ok: true`` even on partial failure — check
        ``failed`` (None when every round was applied). Most callers
        want :meth:`ingest_many`, which chunks, retries overload, and
        raises on rejected records.
        """
        return await self.request(
            "ingest_batch", monitor=monitor, rounds=_documents(rounds)
        )

    async def ingest_many(
        self,
        monitor: str,
        rounds: Sequence[Round],
        batch_size: int = 128,
    ) -> list[dict]:
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
            documents = _documents(rounds[start : start + batch_size])
            while True:
                try:
                    response = await self.request(
                        "ingest_batch", monitor=monitor, rounds=documents
                    )
                    break
                except OverloadedError:
                    await asyncio.sleep(_OVERLOAD_BACKOFF)
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

    async def query(
        self, monitor: str, states: Mapping[str, str] | None = None
    ) -> dict:
        fields = _given(monitor=monitor, states=_copy(states))
        return await self.request("query", **fields)

    async def timeline(self, monitor: str) -> dict:
        return await self.request("timeline", monitor=monitor)

    async def stats(self) -> dict:
        return await self.request("stats")

    async def metrics(self) -> str:
        """The server's metrics as Prometheus text exposition."""
        response = await self.request("metrics")
        return str(response["text"])

    async def snapshot(self, monitor: str) -> dict:
        return await self.request("snapshot", monitor=monitor)

    async def list_monitors(self) -> list[str]:
        response = await self.request("list")
        return list(response["monitors"])

    async def vps(
        self,
        monitor: str,
        plan: Mapping[str, object] | None = None,
        dedup: bool = True,
        **options: object,
    ) -> dict:
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
        return await self.request("vps", **fields)

    async def dedup(self, monitor: str, mode: str | None = None) -> dict:
        """Report a monitor's dedup stats; ``mode='on'|'off'`` toggles."""
        return await self.request("dedup", **_given(monitor=monitor, mode=mode))

    async def classify(
        self,
        monitor: str,
        *,
        model: Mapping[str, object] | None = None,
        stream: str | None = None,
        features: Sequence[float] | None = None,
        before: Mapping[str, str] | None = None,
        after: Mapping[str, str] | None = None,
        revert: Mapping[str, str] | None = None,
    ) -> dict:
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
        fields = _given(
            monitor=monitor,
            model=_copy(model),
            stream=stream,
            features=vector,
            before=_copy(before),
            after=_copy(after),
            revert=_copy(revert),
        )
        return await self.request("classify", **fields)

    # -- cluster commands (state shipping and failover) ----------------------

    async def handoff(self, monitor: str, after_rounds: int | None = None) -> dict:
        """Export a monitor's state document for shipping elsewhere.

        Without ``after_rounds`` the response carries the full state
        (``kind: "full"``); with it, a delta covering only newer rounds
        (``kind: "delta"``, or ``"unchanged"`` when already current).
        """
        fields = _given(monitor=monitor, after_rounds=after_rounds)
        return await self.request("handoff", **fields)

    async def install(
        self, monitor: str, seq: int, state: Mapping[str, object]
    ) -> dict:
        """Install a state document shipped from a ``handoff``."""
        fields = {"monitor": monitor, "seq": seq, "state": dict(state)}
        return await self.request("install", **fields)

    async def retire(self, monitor: str) -> dict:
        """Drop a monitor after its state moved to another shard."""
        return await self.request("retire", monitor=monitor)

    async def promote(self) -> dict:
        """Tell a replication follower to stop following and serve."""
        return await self.request("promote")

    async def topology(self) -> dict:
        """The serving tier's shape: ring members, digest, addresses.

        Against a cluster router the response carries every shard's
        id and dialable address plus the ring parameters (``vnodes``,
        ``ring_digest``) a ring-aware client needs to compute ownership
        locally; against a single server it reports the one-shard
        degenerate topology. ``generation`` bumps on every failover or
        restart, so clients can detect drift cheaply.
        """
        return await self.request("topology")
