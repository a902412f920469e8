"""The ``repro serve`` asyncio server.

One process multiplexes many named monitors. Each monitor gets a
bounded ingest queue drained by a dedicated writer task, so one
flooded monitor cannot stall the others and overload is an *explicit
protocol answer* (``error: overloaded`` with the current queue depth)
rather than unbounded server-side buffering. All other commands are
answered by the request's own task on the connection's pipelined loop
(:func:`~repro.serve.protocol.serve_pipelined`).

Durability contract: an ``ok`` ingest response is sent only after the
record is journaled and applied, so every acknowledged round survives
a kill — see :mod:`repro.serve.journal` for the recovery half.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import TYPE_CHECKING, Any, Awaitable, Callable, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster imports us)
    from .cluster import ReplicationFollower

from ..classify.features import FEATURE_WIDTH, featurize_mappings
from ..classify.model import ClassifierModel, ModelError
from ..core.compare import UnknownPolicy
from ..obs import CONTENT_TYPE, MetricsRegistry, render_prometheus
from ..vps import PlanError, VPPlan
from .journal import SNAPSHOT_FILE, JournalError, _fsync_directory
from .metrics import ServerMetrics
from .monitor import BatchResult, DurableMonitor, MonitorError, valid_monitor_name
from .ring import HashRing
from . import protocol
from .protocol import (
    ERR_BAD_REQUEST,
    ERR_INTERNAL,
    ERR_MONITOR_EXISTS,
    ERR_NO_SUCH_MONITOR,
    ERR_OUT_OF_ORDER,
    ERR_OVERLOADED,
    error_response,
)

__all__ = ["ServeConfig", "FenrirServer", "VPPLAN_FILE", "CLASSIFIER_FILE"]

#: A monitor created from a VP plan keeps the plan in its directory so
#: operators (and the ``vps`` query) can trace kept VPs and weights.
VPPLAN_FILE = "vpplan.json"

#: An installed classifier model lives in the monitor directory and is
#: re-armed (though not re-streamed) across restarts.
CLASSIFIER_FILE = "classifier.json"

#: How many recent streaming classifications each monitor retains for
#: the ``classify`` report.
_CLASSIFIED_WINDOW = 64


@dataclass
class ServeConfig:
    """Tunables for one server process."""

    data_dir: Path
    host: str = "127.0.0.1"
    port: int = 7339  # 0 = let the OS pick (printed/queryable after start)
    queue_size: int = 256
    snapshot_every: int = 1000  # auto-checkpoint cadence per monitor; 0 = never
    fsync: bool = False

    def __post_init__(self) -> None:
        self.data_dir = Path(self.data_dir)
        if self.queue_size < 1:
            raise ValueError("queue_size must be at least 1")


@dataclass
class _MonitorRuntime:
    """A monitor plus its ingest queue and writer task."""

    monitor: DurableMonitor
    queue: asyncio.Queue = field(default_factory=asyncio.Queue)
    worker: Optional[asyncio.Task] = None
    # Route-change classification (docs/classification.md): the armed
    # model, whether streaming labels on mode transitions is on, the
    # previous ingested round (the "before" side of a transition), and
    # the recent labeled events served by the `classify` report.
    classifier: Optional[ClassifierModel] = None
    classify_stream: bool = False
    last_states: Optional[dict] = None
    classified: deque = field(
        default_factory=lambda: deque(maxlen=_CLASSIFIED_WINDOW)
    )


class FenrirServer:
    """Asyncio JSON-frames-over-TCP server around durable monitors."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        # One registry per server: the single sink behind both the
        # `stats` counters/percentiles and the `metrics` Prometheus
        # exposition. Monitors and journals report into it too.
        self.registry = MetricsRegistry()
        self.metrics = ServerMetrics(registry=self.registry)
        self._monitors: dict[str, _MonitorRuntime] = {}
        self._failed: dict[str, str] = {}  # monitor name -> recovery error
        self._listener = protocol.Listener(self._serve_client)
        # When this process is a replication follower, the cluster glue
        # (repro.serve.cluster) attaches the sync loop here so the
        # `promote` command can stop it and take writes.
        self.follower: Optional["ReplicationFollower"] = None
        self._started = time.time()
        self.registry.gauge(
            "serve_uptime_seconds", help="Seconds since this server constructed"
        ).set_function(lambda: time.time() - self._started)
        # Pipelining instrumentation: total requests currently being
        # dispatched (all connections) and, per request arrival, how
        # full the per-connection in-flight window was.
        self._inflight = 0
        self.registry.gauge(
            "serve_inflight_requests",
            help="Requests currently in flight across all connections",
        ).set_function(lambda: self._inflight)
        self._fill_histogram = self.registry.histogram(
            "serve_pipeline_fill_ratio",
            buckets=(0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0),
            help="Per-connection in-flight depth over max_inflight, "
            "observed at each request arrival",
        )
        # Classification instrumentation (docs/classification.md):
        # request counts, streaming labels emitted, and how long one
        # featurize+predict takes.
        self._classify_requests = self.registry.counter(
            "classify_requests_total",
            help="classify wire commands handled",
        )
        self._classify_stream_events = self.registry.counter(
            "classify_stream_events_total",
            help="Mode transitions labeled by the streaming classifier",
        )
        self._classify_latency = self.registry.histogram(
            "classify_latency_seconds",
            help="Featurize + predict time per classification",
        )
        # The handler for command ``x`` is ``self._x``; _dispatch has
        # already checked the request against protocol.COMMAND_SPECS.
        self._handlers: dict[str, Callable[[dict], Awaitable[dict]]] = {
            name: getattr(self, f"_{name}") for name in protocol.COMMANDS
        }

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Recover every monitor found under data_dir, then listen."""
        self.config.data_dir.mkdir(parents=True, exist_ok=True)
        for entry in sorted(self.config.data_dir.iterdir()):
            if not entry.is_dir() or not (entry / SNAPSHOT_FILE).exists():
                continue
            if not valid_monitor_name(entry.name):
                continue
            try:
                monitor = DurableMonitor.open(
                    self.config.data_dir,
                    entry.name,
                    snapshot_every=self.config.snapshot_every,
                    fsync=self.config.fsync,
                    registry=self.registry,
                )
            except Exception as exc:
                # One unrecoverable monitor (corrupt snapshot, bad state)
                # must not take down every healthy one; serve the rest and
                # surface the failure through stats.
                self._failed[entry.name] = f"{type(exc).__name__}: {exc}"
                self.metrics.increment("monitors_failed")
                self.metrics.internal_error("recover")
                continue
            self._register(monitor)
            if monitor.replay:
                self.metrics.increment("monitors_recovered")
                self.metrics.increment(
                    "replayed_records", monitor.replay.replayed_records
                )
                self.metrics.latency.observe(
                    "replay", monitor.replay.elapsed_seconds
                )
        await self._listener.start(self.config.host, self.config.port)

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — useful when port 0 was requested."""
        return self._listener.address

    async def serve_forever(self) -> None:
        if not self._listener.listening:
            await self.start()
        await self._listener.serve_forever()

    async def stop(self) -> None:
        """Stop serving, then checkpoint and close every monitor.

        The order matters: the listener closes first, so no request
        arrives; the writer tasks are cancelled and awaited, so no
        ``ingest_batch`` is mid-apply; then each monitor checkpoints the
        rounds since its last checkpoint (a delta segment, bounded by
        ``snapshot_every``; none when no round is new) and closes its
        journal. The next start then opens every monitor from its
        checkpoint chain instead of replaying the journal. A checkpoint
        that fails is counted (:meth:`DurableMonitor.try_checkpoint`)
        and its rounds replay from the journal instead.
        """
        if self.follower is not None:
            await self.follower.stop()
            self.follower = None
        await self._listener.close()
        workers = [
            runtime.worker
            for runtime in self._monitors.values()
            if runtime.worker is not None
        ]
        for worker in workers:
            worker.cancel()
        await asyncio.gather(*workers, return_exceptions=True)
        for runtime in self._monitors.values():
            runtime.monitor.try_checkpoint()
            runtime.monitor.close()

    def _register(self, monitor: DurableMonitor) -> _MonitorRuntime:
        runtime = _MonitorRuntime(
            monitor=monitor,
            queue=asyncio.Queue(maxsize=self.config.queue_size),
        )
        classifier_path = monitor.directory / CLASSIFIER_FILE
        if classifier_path.exists():
            try:
                runtime.classifier = ClassifierModel.load(classifier_path)
            except (ModelError, OSError):
                # A bad artifact must not block the monitor itself;
                # classification stays unarmed and the failure is
                # visible in the error series.
                self.metrics.internal_error("classifier_load")
        runtime.worker = asyncio.get_running_loop().create_task(
            self._drain_ingests(runtime)
        )
        self._monitors[monitor.name] = runtime
        # Depth is read from the live queue at collection time rather
        # than mirrored on every put/get — the ingest path stays clean.
        self.registry.gauge(
            "serve_queue_depth",
            labels={"monitor": monitor.name},
            help="Pending ingests in the monitor's bounded queue",
        ).set_function(runtime.queue.qsize)
        self.registry.gauge(
            "serve_queue_capacity", labels={"monitor": monitor.name}
        ).set(self.config.queue_size)
        return runtime

    # -- ingest path ---------------------------------------------------------

    def _count_update(self, update: Any) -> None:
        self.metrics.increment("rounds_ingested")
        if update.is_event:
            self.metrics.increment("events_detected")
        if update.is_new_mode:
            self.metrics.increment("modes_opened")
        if update.recurred:
            self.metrics.increment("recurrences")

    async def _drain_ingests(self, runtime: _MonitorRuntime) -> None:
        """Writer task: journal + apply queued ``(rounds, future)`` entries.

        Every entry goes through the monitor's group-commit path (one
        journal flush per entry); a single ``ingest`` is a one-round
        entry.
        """
        while True:
            rounds, future = await runtime.queue.get()
            try:
                batch = runtime.monitor.ingest_batch(rounds)
                for (states, _when), update in zip(rounds, batch.updates):
                    self._count_update(update)
                    self._stream_classify(runtime, states, update)
                # Capture seq now, before yielding: by the time the
                # requesting coroutine resumes, this task may have
                # applied later records for other connections.
                result = (runtime.monitor.seq, batch)
            except Exception as exc:
                self.metrics.internal_error("writer")
                if not future.cancelled():
                    future.set_exception(exc)
            else:
                if not future.cancelled():
                    future.set_result(result)
            finally:
                runtime.queue.task_done()

    def _stream_classify(
        self, runtime: _MonitorRuntime, states: dict, update: Any
    ) -> None:
        """Label a just-ingested mode transition, if streaming is armed.

        Runs on the writer task between ingests; a classification
        failure must never fail (or slow) the acknowledged ingest, so
        errors are counted and dropped. While streaming is on, each
        round is captured as the "before" side of the next transition;
        both stream toggles reset it, so nothing is kept while it is off.
        """
        if not runtime.classify_stream:
            return
        previous = runtime.last_states
        runtime.last_states = dict(states)
        if runtime.classifier is None or previous is None or not update.is_event:
            return
        started = time.perf_counter()
        try:
            features = featurize_mappings(previous, states)
            label, scores = runtime.classifier.predict(features)
        except Exception:
            self.metrics.internal_error("classify")
            return
        self._classify_latency.observe(time.perf_counter() - started)
        self._classify_stream_events.inc()
        runtime.classified.append(
            {
                "time": update.time.isoformat(),
                "label": label,
                "scores": scores,
                "mode_id": update.mode_id,
                "is_new_mode": update.is_new_mode,
            }
        )

    async def _ingest(self, request: dict) -> dict:
        runtime = self._runtime_for(request)
        rounds = [(request["states"], _parse_time(request["time"]))]
        seq, batch = await self._apply(runtime, rounds, "ingest")
        if batch.error_index is not None:
            raise _RequestError(_REJECTION_CODES[batch.error_kind], batch.error)
        return {
            "seq": seq,
            "update": batch.updates[0].to_document(),
        }

    async def _apply(
        self, runtime: _MonitorRuntime, rounds: list, site: str
    ) -> tuple[int, BatchResult]:
        """Queue ``rounds`` on the monitor's writer and await ``(seq, batch)``.

        Overload and writer failures become error responses here;
        ``site`` labels the ``serve_internal_errors_total`` count.
        """
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            runtime.queue.put_nowait((rounds, future))
        except asyncio.QueueFull:
            self.metrics.increment("overload_rejections")
            raise _RequestError(
                ERR_OVERLOADED,
                f"monitor {runtime.monitor.name!r} ingest queue is full",
                queue_depth=runtime.queue.qsize(),
            ) from None
        try:
            return await future
        except _RequestError:
            raise  # the monitor was replaced before the writer got to it
        except Exception as exc:
            # The writer task forwards whatever the apply raised; answer
            # rather than letting it kill the connection handler.
            self.metrics.increment("ingest_failures")
            self.metrics.internal_error(site)
            raise _RequestError(ERR_INTERNAL, f"{type(exc).__name__}: {exc}") from exc

    async def _ingest_batch(self, request: dict) -> dict:
        """Batched ingest: valid prefix applied + acked under one commit.

        The response is ``ok: true`` whenever the *request shape* was
        acceptable, even if some trailing records were rejected:
        ``results`` holds one update document per applied record, and
        ``failed`` (null on full success) reports the first rejected
        record's index, error code, and message. Everything before
        ``failed.index`` is durable; everything at and after it was not
        applied.
        """
        runtime = self._runtime_for(request)
        parsed, shape_failure = _parse_rounds(request["rounds"])
        seq, batch = await self._apply(runtime, parsed, "ingest_batch")
        self.metrics.increment("batches_ingested")
        # A monitor-level rejection happened inside the parsed prefix,
        # so it precedes (and supersedes) any shape failure.
        if batch.error_index is not None:
            failed = {
                "index": batch.error_index,
                "error": _REJECTION_CODES[batch.error_kind],
                "message": batch.error,
            }
        elif shape_failure is not None:
            index, message = shape_failure
            failed = {"index": index, "error": ERR_BAD_REQUEST, "message": message}
        else:
            failed = None
        return {
            "seq": seq,
            "accepted": batch.accepted,
            "results": [update.to_document() for update in batch.updates],
            "failed": failed,
        }

    # -- other commands ------------------------------------------------------

    def _runtime_for(self, request: dict) -> _MonitorRuntime:
        name = request["monitor"]
        runtime = self._monitors.get(name)
        if runtime is None:
            raise _RequestError(ERR_NO_SUCH_MONITOR, f"no such monitor: {name!r}")
        return runtime

    def _new_monitor_name(self, request: dict) -> str:
        name: str = request["monitor"]
        if not valid_monitor_name(name):
            raise _RequestError(ERR_BAD_REQUEST, f"invalid monitor name: {name!r}")
        if name in self._monitors:
            raise _RequestError(ERR_MONITOR_EXISTS, f"monitor exists: {name!r}")
        return name

    def _open_new_monitor(
        self,
        name: str,
        request: dict,
        networks: list[str],
        weights: Optional[list],
        dedup: bool,
    ) -> DurableMonitor:
        """Create, register and count a monitor from a create-shaped request."""
        try:
            policy = UnknownPolicy(request.get("policy", "pessimistic"))
        except ValueError as exc:
            raise _RequestError(ERR_BAD_REQUEST, str(exc)) from exc
        try:
            monitor = DurableMonitor.create(
                self.config.data_dir,
                name,
                networks=networks,
                event_threshold=float(request.get("event_threshold", 0.1)),
                mode_threshold=float(request.get("mode_threshold", 0.7)),
                policy=policy,
                weights=weights,
                snapshot_every=self.config.snapshot_every,
                fsync=self.config.fsync,
                registry=self.registry,
                dedup=dedup,
            )
        except (MonitorError, ValueError) as exc:
            raise _RequestError(ERR_BAD_REQUEST, str(exc)) from exc
        self._register(monitor)
        self.metrics.increment("monitors_created")
        return monitor

    async def _create(self, request: dict) -> dict:
        name = self._new_monitor_name(request)
        networks = request["networks"]
        if not networks:
            raise _RequestError(
                ERR_BAD_REQUEST, "create needs a non-empty 'networks' list"
            )
        weights = request.get("weights")
        if weights is not None and not all(map(protocol.NUMBER.accepts, weights)):
            raise _RequestError(ERR_BAD_REQUEST, "'weights' must be a list of numbers")
        self._open_new_monitor(
            name,
            request,
            networks=[str(network) for network in networks],
            weights=weights,
            dedup=request.get("dedup", False),
        )
        return {"monitor": name}

    async def _vps(self, request: dict) -> dict:
        """Create a monitor from a VP plan, or report the stored plan.

        With a ``plan`` object the request creates a new monitor whose
        networks are the plan's kept VPs and whose Φ weights are the
        plan's rescaled per-VP weights (dedup defaults on — a reduced
        stream is exactly the workload dedup targets); the plan is kept
        in the monitor directory. Without ``plan`` it reports the
        stored plan summary plus the live dedup stats.
        """
        plan_document = request.get("plan")
        if plan_document is None:
            runtime = self._runtime_for(request)
            plan_path = runtime.monitor.directory / VPPLAN_FILE
            summary = None
            if plan_path.exists():
                plan = VPPlan.load(plan_path)
                summary = {
                    "kept": plan.budget,
                    "total_networks": plan.total_networks,
                    "volume_fraction": plan.volume_fraction,
                    "provenance": dict(plan.provenance),
                }
            return {
                "monitor": runtime.monitor.name,
                "plan": summary,
                "dedup": runtime.monitor.dedup_stats(),
            }
        name = self._new_monitor_name(request)
        try:
            plan = VPPlan.from_document(plan_document)
        except PlanError as exc:
            raise _RequestError(ERR_BAD_REQUEST, str(exc)) from exc
        dedup = request.get("dedup", True)
        monitor = self._open_new_monitor(
            name,
            request,
            networks=list(plan.kept),
            weights=[plan.weights[vp] for vp in plan.kept],
            dedup=dedup,
        )
        plan.save(monitor.directory / VPPLAN_FILE)
        self.metrics.increment("vps_monitors_created")
        return {
            "monitor": name,
            "kept": plan.budget,
            "total_networks": plan.total_networks,
            "volume_fraction": plan.volume_fraction,
            "dedup": dedup,
        }

    async def _dedup(self, request: dict) -> dict:
        """Report (and optionally toggle) a monitor's dedup mode."""
        runtime = self._runtime_for(request)
        mode = request.get("mode")
        if mode is not None:
            runtime.monitor.set_dedup(mode == "on")
            self.metrics.increment("dedup_mode_changes")
        return {
            "monitor": runtime.monitor.name,
            **runtime.monitor.dedup_stats(),
        }

    async def _classify(self, request: dict) -> dict:
        """Classify a transition, manage the model, or report state.

        Four request shapes, dispatched on which argument is present:

        * ``model``: install a :class:`ClassifierModel` document — it
          is persisted to the monitor directory (re-armed on restart)
          and used for every later classification;
        * ``stream``: ``"on"``/``"off"`` toggles labeling mode
          transitions at ingest time (``"on"`` requires an installed
          model and resets the remembered previous round);
        * ``features`` (a full feature vector) or ``before``/``after``
          (raw ``{network: state}`` rounds, optional ``revert``):
          classify one transition and answer label + per-class scores;
        * none of the above: report the installed model summary, the
          streaming flag, and recent streamed labels.
        """
        runtime = self._runtime_for(request)
        self._classify_requests.inc()
        monitor_name = runtime.monitor.name

        model_document = request.get("model")
        if model_document is not None:
            try:
                model = ClassifierModel.from_document(model_document)
            except ModelError as exc:
                raise _RequestError(ERR_BAD_REQUEST, str(exc)) from exc
            model.save(runtime.monitor.directory / CLASSIFIER_FILE)
            runtime.classifier = model
            self.metrics.increment("classify_models_installed")
            return {
                "monitor": monitor_name,
                "installed": True,
                "model": model.summary(),
            }

        stream = request.get("stream")
        if stream is not None:
            if stream == "on" and runtime.classifier is None:
                raise _RequestError(
                    ERR_BAD_REQUEST,
                    "streaming needs an installed model; send 'model' first",
                )
            runtime.classify_stream = stream == "on"
            # The first post-toggle round becomes the new "before";
            # anything remembered from earlier is stale.
            runtime.last_states = None
            return {
                "monitor": monitor_name,
                "stream": runtime.classify_stream,
            }

        features = request.get("features")
        before = request.get("before")
        after = request.get("after")
        if features is not None or before is not None or after is not None:
            if runtime.classifier is None:
                raise _RequestError(
                    ERR_BAD_REQUEST,
                    "no classifier installed; send 'model' first",
                )
            started = time.perf_counter()
            if features is not None:
                if len(features) != FEATURE_WIDTH or not all(
                    map(protocol.NUMBER.accepts, features)
                ):
                    raise _RequestError(
                        ERR_BAD_REQUEST,
                        f"'features' must be a list of {FEATURE_WIDTH} numbers",
                    )
                vector = [float(value) for value in features]
            else:
                if before is None or after is None:
                    raise _RequestError(
                        ERR_BAD_REQUEST, "classify needs both 'before' and 'after'"
                    )
                vector = featurize_mappings(
                    before, after, revert=request.get("revert")
                ).tolist()
            label, scores = runtime.classifier.predict(vector)
            self._classify_latency.observe(time.perf_counter() - started)
            return {
                "monitor": monitor_name,
                "label": label,
                "scores": scores,
                "features": vector,
            }

        return {
            "monitor": monitor_name,
            "model": (
                runtime.classifier.summary()
                if runtime.classifier is not None
                else None
            ),
            "stream": runtime.classify_stream,
            "recent": list(runtime.classified),
        }

    async def _query(self, request: dict) -> dict:
        runtime = self._runtime_for(request)
        response = runtime.monitor.describe()
        states = request.get("states")
        if states is not None:
            mode_id, similarity = runtime.monitor.tracker.match(states)
            response["match"] = {
                "mode_id": mode_id,
                "similarity": similarity,
                "would_open_new_mode": mode_id is None,
            }
        return response

    async def _timeline(self, request: dict) -> dict:
        runtime = self._runtime_for(request)
        return {
            "monitor": runtime.monitor.name,
            "segments": [
                {
                    "mode_id": mode_id,
                    "start": start.isoformat(),
                    "end": end.isoformat(),
                }
                for mode_id, start, end in runtime.monitor.tracker.mode_timeline()
            ],
        }

    async def _stats(self, request: dict) -> dict:
        document = self.metrics.snapshot()
        document["uptime_seconds"] = round(time.time() - self._started, 3)
        document["monitors"] = {
            name: {
                **runtime.monitor.describe(),
                "queue_depth": runtime.queue.qsize(),
                "queue_capacity": self.config.queue_size,
                "replay": (
                    {
                        "snapshot_seq": runtime.monitor.replay.snapshot_seq,
                        "replayed_records": runtime.monitor.replay.replayed_records,
                        "dropped_lines": runtime.monitor.replay.dropped_lines,
                        "skipped_records": runtime.monitor.replay.skipped_records,
                        "elapsed_seconds": round(
                            runtime.monitor.replay.elapsed_seconds, 6
                        ),
                    }
                    if runtime.monitor.replay
                    else None
                ),
            }
            for name, runtime in sorted(self._monitors.items())
        }
        document["failed_monitors"] = dict(sorted(self._failed.items()))
        return document

    async def _metrics(self, request: dict) -> dict:
        return {
            "content_type": CONTENT_TYPE,
            "text": render_prometheus(self.registry),
        }

    async def _list(self, request: dict) -> dict:
        return {"monitors": sorted(self._monitors)}

    # -- handoff / install / retire / promote (cluster support) --------------

    def _unregister(self, runtime: _MonitorRuntime) -> None:
        """Tear down a runtime: stop its writer, fail queued ingests.

        A queued round was never journaled, so it is answered
        ``no_such_monitor``: safe to route again.
        """
        if runtime.worker is not None:
            runtime.worker.cancel()
        name = runtime.monitor.name
        while not runtime.queue.empty():
            _rounds, future = runtime.queue.get_nowait()
            if not future.cancelled():
                future.set_exception(
                    _RequestError(
                        ERR_NO_SUCH_MONITOR,
                        f"monitor {name!r} was replaced or retired before "
                        "this ingest was applied; nothing was journaled",
                    )
                )
            runtime.queue.task_done()
        runtime.monitor.close()

    def install_state(self, name: str, seq: int, state: Mapping) -> _MonitorRuntime:
        """Install a shipped state document, replacing any current monitor.

        A ``kind: delta`` document is applied onto the existing monitor
        in O(delta) (it must chain exactly — the follower sync path);
        a full document replaces the monitor and its on-disk chain
        wholesale. Raises :class:`MonitorError` on anything that does
        not validate; nothing is mutated in that case.
        """
        if not isinstance(state, Mapping):
            raise MonitorError("install 'state' must be a state document object")
        existing = self._monitors.get(name)
        if state.get("kind") == "delta":
            if existing is None:
                raise MonitorError(
                    f"delta install for {name!r} needs an existing monitor"
                )
            existing.monitor.install_delta(seq, state)
            return existing
        monitor = DurableMonitor.install(
            self.config.data_dir,
            name,
            seq=seq,
            state=state,
            snapshot_every=self.config.snapshot_every,
            fsync=self.config.fsync,
            registry=self.registry,
        )
        if existing is not None:
            self._unregister(existing)
            del self._monitors[name]
        # A monitor that failed recovery is healed by a fresh install.
        self._failed.pop(name, None)
        return self._register(monitor)

    async def _handoff(self, request: dict) -> dict:
        """Export a monitor's state for shipping to another shard.

        With ``after_rounds`` the export is a delta segment covering
        only the rounds past that count (``kind: "delta"``, or
        ``"unchanged"`` when the caller is already current); without it
        the export is the full state. The monitor's queue is quiesced
        first so the export covers every acknowledged ingest.
        """
        runtime = self._runtime_for(request)
        await runtime.queue.join()
        monitor = runtime.monitor
        rounds = len(monitor.tracker.updates)
        after = request.get("after_rounds")
        if after is not None:
            if after > rounds:
                raise _RequestError(
                    ERR_BAD_REQUEST,
                    f"'after_rounds' {after} is ahead of the monitor ({rounds})",
                )
            if after == rounds:
                self.metrics.increment("handoffs_served")
                return {
                    "monitor": monitor.name,
                    "kind": "unchanged",
                    "seq": monitor.seq,
                    "rounds": rounds,
                }
            state = monitor.tracker.to_state(updates_after=after)
            kind = "delta"
        else:
            state = monitor.tracker.to_state()
            kind = "full"
        self.metrics.increment("handoffs_served")
        return {
            "monitor": monitor.name,
            "kind": kind,
            "seq": monitor.seq,
            "rounds": rounds,
            "state": state,
        }

    async def _install(self, request: dict) -> dict:
        name = request["monitor"]
        if not valid_monitor_name(name):
            raise _RequestError(ERR_BAD_REQUEST, f"invalid monitor name: {name!r}")
        try:
            runtime = self.install_state(name, request["seq"], request["state"])
        except MonitorError as exc:
            raise _RequestError(ERR_BAD_REQUEST, str(exc)) from exc
        self.metrics.increment("installs_applied")
        return {
            "monitor": name,
            "seq": runtime.monitor.seq,
            "rounds": len(runtime.monitor.tracker.updates),
        }

    async def retire_monitor(self, name: str) -> int:
        """Drop a monitor and move its directory out of recovery's scan.

        The directory is renamed to ``_retired-<name>-<seq>`` — a
        leading underscore fails :func:`valid_monitor_name`, so restart
        recovery skips it — rather than deleted, keeping the data
        available for manual inspection after a rebalance. Returns the
        retired monitor's final seq; raises :class:`MonitorError` when
        no such monitor exists.
        """
        runtime = self._monitors.get(name)
        if runtime is None:
            raise MonitorError(f"no such monitor: {name!r}")
        await runtime.queue.join()
        seq = runtime.monitor.seq
        self._unregister(runtime)
        del self._monitors[name]
        directory = runtime.monitor.directory
        target = directory.with_name(f"_retired-{name}-{seq}")
        suffix = 0
        while target.exists():
            suffix += 1
            target = directory.with_name(f"_retired-{name}-{seq}.{suffix}")
        await asyncio.to_thread(self._retire_directory, directory, target)
        self.metrics.increment("monitors_retired")
        return seq

    def _retire_directory(self, directory: Path, target: Path) -> None:
        """Rename ``directory`` to ``target``; with ``fsync``, make the
        rename durable, so a retired monitor stays retired after a
        power loss."""
        os.rename(directory, target)
        if self.config.fsync:
            _fsync_directory(directory.parent)

    async def _retire(self, request: dict) -> dict:
        runtime = self._runtime_for(request)  # maps the usual error codes
        name = runtime.monitor.name
        seq = await self.retire_monitor(name)
        return {"monitor": name, "seq": seq}

    async def _promote(self, request: dict) -> dict:
        """Stop following a primary (if we were) and accept writes.

        Idempotent: promoting a server that was never a follower is an
        ``ok`` no-op, so the supervisor can fire-and-forget during
        failover races.
        """
        was_following = self.follower is not None
        if self.follower is not None:
            await self.follower.stop()
            self.follower = None
            self.metrics.increment("promotions")
        return {"was_following": was_following}

    async def _topology(self, request: dict) -> dict:
        """The degenerate single-server topology.

        A ring-aware client asks ``topology`` to learn where to send
        monitor-scoped commands directly. A standalone server *is* the
        whole tier: one shard (id 0) at its own address, a one-member
        ring. The cluster router overrides this with the real ring —
        same response shape, so clients need not care which tier
        answered (docs/async-client.md).
        """
        host, port = self.address
        ring = HashRing.for_cluster(1)
        return {
            "shards": {"0": [host, port]},
            "vnodes": ring.vnodes,
            "ring_digest": ring.digest(),
            "generation": 0,
            "router": False,
        }

    async def _snapshot(self, request: dict) -> dict:
        runtime = self._runtime_for(request)
        # Quiesce: let queued ingests land so the checkpoint covers them.
        await runtime.queue.join()
        seq = runtime.monitor.snapshot()
        self.metrics.increment("snapshots_taken")
        return {"monitor": runtime.monitor.name, "seq": seq}

    # -- connection handling -------------------------------------------------

    async def _dispatch(self, request: dict) -> dict:
        """Answer one request: spec lookup, field check, handler call.

        Every failure becomes an error response here. Latency is
        observed only for commands in the spec, so arbitrary ``cmd``
        strings cannot grow the per-command series.
        """
        request_id = request.get("id")
        command = request.get("cmd")
        spec = protocol.COMMAND_SPECS.get(command) if isinstance(command, str) else None
        if spec is None:
            return error_response(
                ERR_BAD_REQUEST, f"unknown command: {command!r}", request_id
            )
        started = time.perf_counter()
        try:
            problem = spec.problem(request)
            if problem is not None:
                raise _RequestError(ERR_BAD_REQUEST, problem)
            response = {"id": request_id, "ok": True}
            response.update(await self._handlers[spec.name](request))
        except _RequestError as exc:
            response = error_response(exc.code, exc.message, request_id, **exc.extra)
        except JournalError as exc:
            response = error_response(ERR_INTERNAL, str(exc), request_id)
        except Exception as exc:
            # Last-resort guard: every request gets an answer; an
            # unanswered client would hang until its socket timeout.
            self.metrics.increment("internal_errors")
            self.metrics.internal_error("dispatch")
            response = error_response(
                ERR_INTERNAL, f"{type(exc).__name__}: {exc}", request_id
            )
        self.metrics.latency.observe(spec.name, time.perf_counter() - started)
        return response

    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection, on the shared pipelined loop."""
        self.metrics.increment("connections_accepted")
        await protocol.serve_pipelined(
            reader,
            writer,
            protocol.decode_request,
            self._answer,
            count=self.metrics.increment,
            observe_fill=self._fill_histogram.observe,
        )

    async def _answer(self, request_id: object, request: dict) -> bytes:
        self._inflight += 1
        try:
            return protocol.encode_payload(await self._dispatch(request))
        finally:
            self._inflight -= 1


class _RequestError(Exception):
    """Internal: maps straight to an error response (``extra`` included)."""

    def __init__(self, code: str, message: str, **extra: object) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.extra = extra


#: Wire error code for each :attr:`BatchResult.error_kind`.
_REJECTION_CODES = {"out_of_order": ERR_OUT_OF_ORDER, "invalid_states": ERR_BAD_REQUEST}


def _parse_time(value: object) -> datetime:
    if not isinstance(value, str):
        raise _RequestError(ERR_BAD_REQUEST, "ingest needs an ISO-8601 'time'")
    try:
        return datetime.fromisoformat(value)
    except ValueError as exc:
        raise _RequestError(ERR_BAD_REQUEST, f"bad time {value!r}: {exc}") from exc


def _parse_rounds(
    rounds: list,
) -> tuple[list[tuple[dict, datetime]], Optional[tuple[int, str]]]:
    """Shape-check a batch: the parseable prefix plus the first failure.

    Mirrors the monitor's valid-prefix contract at the wire layer: the
    returned prefix is every round up to (not including) the first one
    that is not ``{"time": <ISO-8601>, "states": {str: str}}``; the
    failure (when any) is ``(index, message)``. Deeper validation —
    string-ness of individual labels, time ordering — happens in
    :meth:`DurableMonitor.ingest_batch` so the journal contract has a
    single owner.
    """
    parsed: list[tuple[dict, datetime]] = []
    for index, item in enumerate(rounds):
        if not isinstance(item, dict):
            return parsed, (index, f"round {index} must be an object")
        states = item.get("states")
        if not isinstance(states, dict):
            return parsed, (index, f"round {index} needs a 'states' object")
        try:
            when = _parse_time(item.get("time"))
        except _RequestError as exc:
            return parsed, (index, f"round {index}: {exc.message}")
        parsed.append((states, when))
    return parsed, None
