"""Event detection and ground-truth validation (§3).

Detection scans consecutive vector pairs: a routing event is a step (or
run of steps) whose change ``1 - Φ`` exceeds a threshold. The step
changes are one pass of the shared paired-rows Φ kernel in
:mod:`repro.core.compare` over every consecutive pair. The threshold
can be fixed or derived robustly from the series itself (median + k·MAD
of the step changes), since stable services differ widely in their
baseline churn.

Validation reproduces the paper's Table 4 protocol: operator log
entries are grouped (same operator within ten minutes), groups are
classed *external* (site drain, traffic engineering) or *internal*, and
detected events are matched against group windows. External groups
detected are true positives; internal groups detected are the paper's
"FP?" rows; detections matching no group at all are candidate
third-party routing changes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Optional, Sequence

import numpy as np

from .compare import UnknownPolicy, _check_weights, denominator, match_counts
from .series import VectorSeries

__all__ = [
    "DetectedEvent",
    "detect_events",
    "step_changes",
    "MaintenanceKind",
    "GroundTruthEntry",
    "EventGroup",
    "group_entries",
    "ValidationReport",
    "validate_events",
]


@dataclass(frozen=True)
class DetectedEvent:
    """A contiguous run of high-change steps in a series."""

    start: datetime  # time of the last vector before the change
    end: datetime  # time of the first vector after the change settles
    start_index: int
    end_index: int
    max_change: float  # largest per-step 1 - Φ inside the event

    def overlaps(self, window_start: datetime, window_end: datetime) -> bool:
        return self.start <= window_end and window_start <= self.end


def step_changes(
    series: VectorSeries,
    weights: Optional[np.ndarray] = None,
    policy: UnknownPolicy = UnknownPolicy.PESSIMISTIC,
) -> np.ndarray:
    """Per-step change ``1 - Φ(t_i, t_{i+1})`` for consecutive vectors.

    One pass of the paired-rows kernel
    (:func:`~repro.core.compare.match_counts`) over all consecutive
    pairs; a step whose Φ is undefined (no jointly known network under
    EXCLUDE) comes back NaN.
    """
    codes = series.matrix
    w = _check_weights(weights, codes.shape[1])
    before, after = codes[:-1], codes[1:]
    count = match_counts(before, after, w)
    return 1.0 - count / denominator(before, after, w, w.sum(), policy)


def _adaptive_threshold(changes: np.ndarray, sensitivity: float) -> float:
    """Median + sensitivity·MAD of step changes, floored at a tiny epsilon."""
    if len(changes) == 0:
        return 1.0
    median = float(np.median(changes))
    mad = float(np.median(np.abs(changes - median)))
    return max(median + sensitivity * max(mad, 1e-6), 1e-4)


def detect_events(
    series: VectorSeries,
    weights: Optional[np.ndarray] = None,
    policy: UnknownPolicy = UnknownPolicy.PESSIMISTIC,
    threshold: Optional[float] = None,
    sensitivity: float = 8.0,
    merge_gap: int = 1,
) -> list[DetectedEvent]:
    """Find routing events as runs of above-threshold step changes.

    ``threshold=None`` selects the robust adaptive threshold. Flagged
    steps separated by fewer than ``merge_gap`` quiet steps merge into
    one event — paper events (a drain plus its revert) often span
    several measurement rounds.
    """
    changes = step_changes(series, weights, policy)
    if threshold is None:
        threshold = _adaptive_threshold(changes, sensitivity)
    flagged = changes > threshold
    events: list[DetectedEvent] = []
    run_start: Optional[int] = None
    quiet = 0
    for index, is_flagged in enumerate(flagged):
        if is_flagged:
            if run_start is None:
                run_start = index
            quiet = 0
        elif run_start is not None:
            quiet += 1
            if quiet >= merge_gap:
                end_index = index - quiet + 1
                events.append(_make_event(series, changes, run_start, end_index))
                run_start = None
                quiet = 0
    if run_start is not None:
        events.append(_make_event(series, changes, run_start, len(flagged)))
    return events


def _make_event(
    series: VectorSeries, changes: np.ndarray, start: int, end: int
) -> DetectedEvent:
    return DetectedEvent(
        start=series.times[start],
        end=series.times[min(end, len(series) - 1)],
        start_index=start,
        end_index=end,
        max_change=float(changes[start:end].max()),
    )


# -- ground truth ----------------------------------------------------------


class MaintenanceKind(enum.Enum):
    """Operator log entry categories from the paper's B-Root logs."""

    INTERNAL = "internal"  # no externally visible routing effect
    SITE_DRAIN = "site-drain"
    TRAFFIC_ENGINEERING = "traffic-engineering"

    @property
    def external(self) -> bool:
        return self is not MaintenanceKind.INTERNAL


@dataclass(frozen=True)
class GroundTruthEntry:
    """One raw maintenance-log line."""

    time: datetime
    operator: str
    kind: MaintenanceKind
    note: str = ""


@dataclass
class EventGroup:
    """Log entries by one operator within the grouping window."""

    entries: list[GroundTruthEntry] = field(default_factory=list)

    @property
    def start(self) -> datetime:
        return min(entry.time for entry in self.entries)

    @property
    def end(self) -> datetime:
        return max(entry.time for entry in self.entries)

    @property
    def operator(self) -> str:
        return self.entries[0].operator

    @property
    def external(self) -> bool:
        """A group is external if any member event is."""
        return any(entry.kind.external for entry in self.entries)

    @property
    def kinds(self) -> set[MaintenanceKind]:
        return {entry.kind for entry in self.entries}


def group_entries(
    entries: Sequence[GroundTruthEntry],
    window: timedelta = timedelta(minutes=10),
) -> list[EventGroup]:
    """Group entries by operator within ``window`` (paper: 10 minutes).

    Entries chain: each entry joins the group if it is within the
    window of the group's *latest* entry by the same operator.
    """
    groups: list[EventGroup] = []
    latest_group: dict[str, EventGroup] = {}
    for entry in sorted(entries, key=lambda item: item.time):
        current = latest_group.get(entry.operator)
        if current is not None and entry.time - current.end <= window:
            current.entries.append(entry)
        else:
            current = EventGroup([entry])
            groups.append(current)
            latest_group[entry.operator] = current
    return groups


@dataclass
class ValidationReport:
    """Table 4: confusion counts of ground truth vs detected events."""

    true_positive: int
    false_negative: int
    true_negative: int
    false_positive: int  # internal groups that matched a detection ("FP?")
    unmatched_detections: int  # candidate third-party changes ("(*)")
    matched_external: list[EventGroup] = field(default_factory=list)
    missed_external: list[EventGroup] = field(default_factory=list)
    extra_events: list[DetectedEvent] = field(default_factory=list)

    @property
    def recall(self) -> float:
        denominator = self.true_positive + self.false_negative
        return self.true_positive / denominator if denominator else float("nan")

    @property
    def precision(self) -> float:
        denominator = self.true_positive + self.false_positive
        return self.true_positive / denominator if denominator else float("nan")

    @property
    def accuracy(self) -> float:
        total = (
            self.true_positive
            + self.true_negative
            + self.false_positive
            + self.false_negative
        )
        return (self.true_positive + self.true_negative) / total if total else float("nan")


def validate_events(
    detected: Sequence[DetectedEvent],
    groups: Sequence[EventGroup],
    tolerance: timedelta = timedelta(minutes=10),
) -> ValidationReport:
    """Match detections against ground-truth groups (Table 4 protocol).

    A group is *detected* when any detection overlaps its window padded
    by ``tolerance``. Detections overlapping no group are counted as
    unmatched — Fenrir's candidate third-party routing changes.
    """
    tp = fn = tn = fp = 0
    matched_external: list[EventGroup] = []
    missed_external: list[EventGroup] = []
    used: set[int] = set()

    for group in groups:
        window_start = group.start - tolerance
        window_end = group.end + tolerance
        hits = [
            index
            for index, event in enumerate(detected)
            if event.overlaps(window_start, window_end)
        ]
        if group.external:
            if hits:
                tp += 1
                matched_external.append(group)
            else:
                fn += 1
                missed_external.append(group)
        else:
            if hits:
                fp += 1
            else:
                tn += 1
        used.update(hits)

    extra = [event for index, event in enumerate(detected) if index not in used]
    return ValidationReport(
        true_positive=tp,
        false_negative=fn,
        true_negative=tn,
        false_positive=fp,
        unmatched_detections=len(extra),
        matched_external=matched_external,
        missed_external=missed_external,
        extra_events=extra,
    )
