"""Server metrics: the serve-flavoured view over one
:class:`~repro.obs.MetricsRegistry`.

The ``stats`` command reports plain counters plus exact recent
percentiles from the bounded :class:`~repro.obs.LatencyRecorder`
windows; every observation also lands in the registry (counters as
``serve_<name>_total``, latencies as cumulative
``serve_command_latency_seconds{command=...}`` histograms), which is
what the ``metrics`` wire command and ``repro client metrics`` render
as Prometheus text.

Each :class:`FenrirServer` gets its own registry so servers sharing a
process (tests, embedded use) never mix their numbers.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..obs import Counter, LatencyRecorder, MetricsRegistry

__all__ = ["LatencyRecorder", "ServerMetrics"]

#: Prometheus naming for the registry mirror of each stats counter.
_COUNTER_PREFIX = "serve_"
_COUNTER_SUFFIX = "_total"


class ServerMetrics:
    """Everything the ``stats`` command reports about the server.

    ``increment``/``counters``/``latency``/``snapshot`` keep their PR 2
    semantics; the registry passed in (or created here) is the single
    sink both the ``stats`` and ``metrics`` commands read from.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.latency = LatencyRecorder(
            registry=self.registry,
            histogram_name="serve_command_latency_seconds",
            label_name="command",
        )
        self._counters: Dict[str, Counter] = {}  # stats name -> registry counter
        self._internal_errors: Dict[str, Counter] = {}  # site -> labeled counter

    def increment(self, name: str, amount: int = 1) -> None:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = self.registry.counter(
                f"{_COUNTER_PREFIX}{name}{_COUNTER_SUFFIX}"
            )
        counter.inc(amount)

    def internal_error(self, site: str) -> None:
        """Count a broad-except recovery, labeled by handler site.

        Every ``except Exception`` in the server answers the client and
        keeps serving, which makes the failure easy to never notice.
        This is the visible trace: one ``serve_internal_errors_total``
        series per site (``recover``, ``writer``, ``ingest``,
        ``ingest_batch``, ``dispatch``), rendered by the ``metrics``
        wire command and ``repro client metrics``.
        """
        counter = self._internal_errors.get(site)
        if counter is None:
            counter = self._internal_errors[site] = self.registry.counter(
                "serve_internal_errors_total",
                labels={"site": site},
                help="exceptions caught and answered by broad handlers",
            )
        counter.inc()

    @property
    def counters(self) -> dict:
        """Stats-shaped ``{name: count}`` view of the registry counters."""
        return {
            name: int(counter.value)
            for name, counter in sorted(self._counters.items())
        }

    def snapshot(self) -> dict:
        return {
            "counters": self.counters,
            "latency": self.latency.summary(),
        }
