"""The process-wide metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` is the single sink every subsystem reports
through — the pipeline's stage timings, the Φ cache's hit and miss
counters, and the serve ingest path all land here and come back out
through one exposition surface (:mod:`repro.obs.export`). Metrics are
named Prometheus-style (``snake_case``, unit-suffixed) and may carry a
small, fixed label set (``{"stage": "compare"}``); a (name, labels)
pair identifies one time series.

Design constraints, in order:

1. **Hot-path cheapness.** ``Counter.inc`` is one dict-free attribute
   add; ``Histogram.observe`` is one bisect plus three adds. The serve
   ingest path observes per request, so anything heavier would show up
   in perfbench's ``mixed-routed`` ``server.command_p50_ms``.
2. **No dependencies.** Pure stdlib (plus ``bisect``); the exposition
   format is plain text.
3. **Bounded memory.** Histograms are fixed-bucket; the
   :class:`LatencyRecorder` windows are bounded rings. Nothing grows
   with uptime.

:class:`LatencyRecorder` (moved here from ``repro.serve.metrics``)
keeps its exact nearest-rank-percentile-over-recent-window semantics;
when constructed with a registry it *also* feeds a per-key histogram,
so the same observation stream is visible both as exact recent
percentiles (``stats``) and as cumulative bucket counts (``metrics``).
The property tests assert the two views agree: histogram bucket bounds
bracket the exact nearest-rank values.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyRecorder",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "get_registry",
    "set_registry",
]

LabelPair = Tuple[Tuple[str, str], ...]

#: Default histogram buckets for latencies, in seconds: 100 µs to 10 s,
#: roughly 2.5x apart — wide enough for fsync outliers, fine enough to
#: separate a 200 µs fast path from a 2 ms slow one.
DEFAULT_LATENCY_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _label_key(labels: Optional[Mapping[str, str]]) -> LabelPair:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelPair = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down, or be computed on read.

    ``set_function`` registers a zero-argument callable evaluated at
    collection time — the idiom for values that already live somewhere
    (a queue's ``qsize``) and should not be mirrored on every change.
    """

    __slots__ = ("name", "labels", "_value", "_fn")

    def __init__(self, name: str, labels: LabelPair = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self._fn = None
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    def set_function(self, fn: Callable[[], float]) -> None:
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            try:
                return float(self._fn())
            # NaN in the exposition *is* the visible trace here; a
            # counter would recurse into the registry mid-collect.
            except Exception:  # fenlint: disable=swallowed-exception
                return float("nan")
        return self._value


class Histogram:
    """Fixed-bucket histogram with cumulative Prometheus semantics.

    ``bounds`` are the finite upper bounds (inclusive, ``le``); an
    implicit +Inf bucket catches the overflow. ``observe`` is O(log
    buckets). ``percentile_bounds(q)`` returns the (lower, upper) bucket
    edges that bracket the nearest-rank q-percentile of everything
    observed so far — the histogram cannot say *where* in the bucket
    the exact value lies, but it can always bracket it.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "total")

    def __init__(
        self,
        name: str,
        labels: LabelPair = (),
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        if not buckets:
            raise ValueError("histogram needs at least one finite bucket bound")
        ordered = tuple(float(b) for b in buckets)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(f"bucket bounds must be strictly increasing: {buckets}")
        if any(math.isinf(b) for b in ordered):
            raise ValueError("+Inf bucket is implicit; pass finite bounds only")
        self.name = name
        self.labels = labels
        self.bounds = ordered
        self.bucket_counts = [0] * (len(ordered) + 1)  # +1 = the +Inf bucket
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def cumulative_counts(self) -> list[int]:
        """Bucket counts as Prometheus cumulative ``le`` counts."""
        running = 0
        out = []
        for bucket in self.bucket_counts:
            running += bucket
            out.append(running)
        return out

    def percentile_bounds(self, fraction: float) -> Tuple[float, float]:
        """(lower, upper) bucket edges bracketing the nearest-rank
        ``fraction`` percentile; ``(0.0, 0.0)`` when empty.

        The nearest rank is ``ceil(fraction · count)`` (1-based),
        matching :meth:`LatencyRecorder._percentile` exactly, so for
        any observation stream ``lower <= exact_percentile <= upper``.
        """
        if self.count == 0:
            return (0.0, 0.0)
        rank = max(1, math.ceil(fraction * self.count))
        running = 0
        for index, bucket in enumerate(self.bucket_counts):
            running += bucket
            if running >= rank:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else float("inf")
                )
                return (lower, upper)
        return (self.bounds[-1], float("inf"))  # pragma: no cover


class MetricsRegistry:
    """Get-or-create home for every metric in one process (or server).

    Metric creation takes a lock; the returned instrument is cached by
    the caller and updated lock-free (the GIL makes the single adds in
    ``inc``/``observe`` safe enough for counting). A name maps to one
    *kind* — asking for ``foo`` as a counter and again as a gauge is a
    bug and raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelPair], object] = {}
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}

    def _get_or_create(
        self,
        kind: str,
        name: str,
        labels: Optional[Mapping[str, str]],
        help_text: str,
        factory: Callable[[str, LabelPair], object],
    ) -> Any:
        key = (name, _label_key(labels))
        with self._lock:
            existing_kind = self._kinds.get(name)
            if existing_kind is not None and existing_kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {existing_kind}, not a {kind}"
                )
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory(name, key[1])
                self._metrics[key] = metric
                self._kinds[name] = kind
                if help_text:
                    self._help[name] = help_text
            elif help_text and name not in self._help:
                self._help[name] = help_text
            return metric

    def counter(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
    ) -> Counter:
        return self._get_or_create("counter", name, labels, help, Counter)

    def gauge(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
    ) -> Gauge:
        return self._get_or_create("gauge", name, labels, help, Gauge)

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
    ) -> Histogram:
        return self._get_or_create(
            "histogram",
            name,
            labels,
            help,
            lambda n, lb: Histogram(n, lb, buckets=buckets),
        )

    def kind_of(self, name: str) -> Optional[str]:
        return self._kinds.get(name)

    def help_of(self, name: str) -> str:
        return self._help.get(name, "")

    def collect(self) -> Iterator[object]:
        """Every metric, grouped by name then label set (stable order)."""
        with self._lock:
            items = sorted(self._metrics.items())
        for _, metric in items:
            yield metric

    def snapshot(self) -> dict:
        """A plain-dict dump, mostly for tests and debugging."""
        out: dict = {}
        for metric in self.collect():
            label_text = ",".join(f"{k}={v}" for k, v in metric.labels)
            key = f"{metric.name}{{{label_text}}}" if label_text else metric.name
            if isinstance(metric, Histogram):
                out[key] = {"count": metric.count, "sum": metric.total}
            else:
                out[key] = metric.value
        return out


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (offline runs report here)."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide default (tests); returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


_DEFAULT_WINDOW = 4096


class LatencyRecorder:
    """Per-key ring buffer of recent latencies, in seconds.

    The ring answers "what were p50/p99 *recently*" with exact
    nearest-rank percentiles over the last ``window`` samples — a
    lifetime average hides regressions, and memory stays constant
    under sustained load. With a ``registry``, every observation is
    also fed to a cumulative ``{histogram_name}{{key=...}}`` histogram
    so the same stream is visible through the Prometheus exposition.
    """

    def __init__(
        self,
        window: int = _DEFAULT_WINDOW,
        registry: Optional[MetricsRegistry] = None,
        histogram_name: str = "command_latency_seconds",
        label_name: str = "command",
    ) -> None:
        self.window = window
        self._samples: Dict[str, Deque[float]] = {}
        self._registry = registry
        self._histogram_name = histogram_name
        self._label_name = label_name
        self._histograms: Dict[str, Histogram] = {}

    def observe(self, key: str, seconds: float) -> None:
        ring = self._samples.get(key)
        if ring is None:
            ring = self._samples[key] = deque(maxlen=self.window)
            if self._registry is not None:
                self._histograms[key] = self._registry.histogram(
                    self._histogram_name, labels={self._label_name: key}
                )
        ring.append(seconds)
        histogram = self._histograms.get(key)
        if histogram is not None:
            histogram.observe(seconds)

    @staticmethod
    def _percentile(ordered: list[float], fraction: float) -> float:
        """Nearest-rank percentile: the smallest sample with at least
        ``fraction`` of the distribution at or below it.

        The rank is ``ceil(fraction · n)`` (1-based); the once-used
        ``int(fraction · n)`` 0-based index over-read by one position —
        p50 of ``[1, 2]`` came back 2.
        """
        if not ordered:
            return 0.0
        index = max(0, math.ceil(fraction * len(ordered)) - 1)
        return ordered[min(len(ordered) - 1, index)]

    def summary(self) -> dict:
        """``{key: {count, p50_ms, p99_ms, max_ms}}`` for stats."""
        report = {}
        for key, ring in sorted(self._samples.items()):
            ordered = sorted(ring)
            report[key] = {
                "count": len(ordered),
                "p50_ms": round(self._percentile(ordered, 0.50) * 1000, 3),
                "p99_ms": round(self._percentile(ordered, 0.99) * 1000, 3),
                "max_ms": round(ordered[-1] * 1000, 3) if ordered else 0.0,
            }
        return report
