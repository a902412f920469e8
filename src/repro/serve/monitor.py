"""A durable monitor: one OnlineFenrir with a journal and snapshots.

The monitor is the unit of multiplexing in ``repro serve`` — one per
anycast service, enterprise, or website being watched. It owns a
directory under the server's data dir and guarantees that every
*acknowledged* ingest survives a process kill: the record is appended
to the write-ahead journal and flushed before the in-memory tracker
applies it, and recovery replays snapshot + journal back to exactly
the acknowledged prefix.
"""

from __future__ import annotations

import json
import os
import re
import time as _time
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from ..core.compare import UnknownPolicy
from ..core.online import OnlineFenrir, OnlineUpdate
from ..core.vector import UNKNOWN, labels_of
from ..obs import Counter, MetricsRegistry, span
from .journal import (
    JOURNAL_FILE,
    JournalError,
    JournalRecord,
    JournalTail,
    JournalWriter,
    _fsync_directory,
    discard_deltas,
    labels_json,
    read_deltas,
    read_journal,
    read_snapshot,
    record_line,
    ref_record_line,
    write_delta,
    write_snapshot,
)

__all__ = [
    "MonitorError",
    "ReplayReport",
    "BatchResult",
    "DurableMonitor",
    "valid_monitor_name",
    "OPTIONS_FILE",
]

OPTIONS_FILE = "options.json"  # durable per-monitor settings (dedup mode)

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def valid_monitor_name(name: str) -> bool:
    """Names become directory names, so they must be path-safe."""
    return bool(_NAME_PATTERN.match(name)) and name not in (".", "..")


def _is_string_pair(item: tuple) -> bool:
    return isinstance(item[0], str) and isinstance(item[1], str)


class MonitorError(ValueError):
    """Raised for invalid monitor operations (bad name, bad state)."""


@dataclass(frozen=True)
class ReplayReport:
    """What recovery did when a monitor was opened from disk."""

    snapshot_seq: int
    replayed_records: int
    dropped_lines: int
    elapsed_seconds: float
    tail: Optional[JournalTail] = None
    skipped_records: int = 0  # journaled but unapplyable (never acknowledged)


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one :meth:`DurableMonitor.ingest_batch` call.

    The contract is *valid prefix applied*: ``updates`` covers every
    record up to (not including) the first invalid one, all of which
    are journaled under a single group commit and therefore durable.
    ``error_index``/``error`` describe the first rejected record, or
    are None when the whole batch was accepted; ``error_kind`` is
    ``"invalid_states"`` or ``"out_of_order"`` so callers can map the
    rejection to their own error taxonomy without parsing the message.
    """

    updates: tuple[OnlineUpdate, ...]
    error_index: Optional[int] = None
    error: Optional[str] = None
    error_kind: Optional[str] = None

    @property
    def accepted(self) -> int:
        return len(self.updates)


def _read_options(directory: Path) -> bool:
    """The durable dedup setting, tolerant of missing/corrupt files.

    Options are a convenience, not state: a monitor whose options file
    is unreadable recovers with dedup off (safe — dedup only changes
    the journal encoding, never the replayed stream).
    """
    try:
        document = json.loads(
            (directory / OPTIONS_FILE).read_text(encoding="utf-8")
        )
        return bool(document.get("dedup", False))
    except (OSError, ValueError):
        return False


@dataclass
class DurableMonitor:
    """Crash-safe wrapper around one :class:`OnlineFenrir`."""

    name: str
    directory: Path
    tracker: OnlineFenrir
    seq: int = 0
    snapshot_every: int = 0  # 0 = only explicit snapshots
    fsync: bool = False
    replay: Optional[ReplayReport] = None
    registry: Optional[MetricsRegistry] = None  # observability sink, if any
    # Ingest-dedup mode (repro.vps): recurring identical rounds journal
    # a compact reference record instead of repeating the states.
    dedup: bool = False
    _journal: JournalWriter = field(init=False, repr=False)
    _since_snapshot: int = field(default=0, init=False, repr=False)
    _checkpoint_updates: int = field(default=0, init=False, repr=False)
    _checkpoint_exemplars: int = field(default=0, init=False, repr=False)
    # Recurring-round fast path: routing results recur, so consecutive
    # rounds usually carry the same states mapping. Cache the last
    # accepted mapping with its label list and that list's JSON; a
    # repeat skips conversion, validation and encoding, and hands the
    # tracker the same list, so it skips the coding too (the journal
    # bytes are identical either way — see journal.record_line).
    _last_states: Optional[dict] = field(default=None, init=False, repr=False)
    _last_labels: list[str] = field(default_factory=list, init=False, repr=False)
    _last_labels_json: str = field(default="", init=False, repr=False)
    # The most recent *full* record in the current journal file — the
    # only legal target for a dedup reference. Tracked unconditionally
    # (cheap) so toggling dedup on mid-stream is immediately correct,
    # and cleared on every journal reset because references never cross
    # one. After open() it starts as None: the first post-recovery round
    # is journaled full even if it repeats, which keeps recovery free of
    # any re-derivation of the tail's last full line.
    _last_full_seq: Optional[int] = field(default=None, init=False, repr=False)
    _last_full_labels: Optional[list[str]] = field(default=None, init=False, repr=False)
    deduped_records: int = field(default=0, init=False, repr=False)
    dedup_bytes_saved: int = field(default=0, init=False, repr=False)
    _dedup_records_counter: Optional[Counter] = field(
        default=None, init=False, repr=False
    )
    _dedup_bytes_counter: Optional[Counter] = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        flush_histogram = (
            self.registry.histogram(
                "serve_journal_fsync_seconds",
                help="Journal group-commit latency (write + flush + fsync)",
            )
            if self.registry is not None
            else None
        )
        self._journal = JournalWriter(
            self.directory / JOURNAL_FILE,
            fsync=self.fsync,
            flush_histogram=flush_histogram,
        )
        if self.registry is not None:
            self._dedup_records_counter = self.registry.counter(
                "serve_dedup_records_total",
                labels={"monitor": self.name},
                help="Recurring rounds journaled as compact dedup references",
            )
            self._dedup_bytes_counter = self.registry.counter(
                "serve_dedup_bytes_saved_total",
                labels={"monitor": self.name},
                help="Journal bytes saved by dedup reference records",
            )
        # The tracker state as constructed is what the on-disk
        # checkpoint chain currently covers (create() snapshots the
        # empty tracker; open() restores from the chain); record it so
        # the first incremental checkpoint writes only newer rounds.
        self._checkpoint_updates = len(self.tracker.updates)
        self._checkpoint_exemplars = self.tracker.num_modes

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(
        cls,
        data_dir: Path | str,
        name: str,
        networks: Sequence[str],
        event_threshold: float = 0.1,
        mode_threshold: float = 0.7,
        policy: UnknownPolicy = UnknownPolicy.PESSIMISTIC,
        weights: Optional[Sequence[float]] = None,
        snapshot_every: int = 0,
        fsync: bool = False,
        registry: Optional[MetricsRegistry] = None,
        dedup: bool = False,
    ) -> "DurableMonitor":
        """Create a new monitor directory with an initial checkpoint."""
        if not valid_monitor_name(name):
            raise MonitorError(f"invalid monitor name: {name!r}")
        directory = Path(data_dir) / name
        if directory.exists():
            raise MonitorError(f"monitor already exists: {name!r}")
        # Build (and thereby validate — thresholds, weight shape and
        # signs) the tracker *before* touching the filesystem, so a bad
        # config cannot leave an empty monitor directory behind.
        tracker = OnlineFenrir(
            networks=networks,
            event_threshold=event_threshold,
            mode_threshold=mode_threshold,
            policy=policy,
            weights=None if weights is None else np.asarray(weights, dtype=np.float64),
        )
        directory.mkdir(parents=True)
        if fsync:  # the new directory's entry must survive a power loss
            _fsync_directory(directory.parent)
        # Checkpoint the empty tracker immediately: a monitor that was
        # created but never ingested still reopens with its config.
        write_snapshot(directory, 0, tracker.to_state(), fsync=fsync)
        monitor = cls(
            name=name,
            directory=directory,
            tracker=tracker,
            seq=0,
            snapshot_every=snapshot_every,
            fsync=fsync,
            registry=registry,
            dedup=dedup,
        )
        if dedup:
            monitor._write_options()
        return monitor

    @classmethod
    def open(
        cls,
        data_dir: Path | str,
        name: str,
        snapshot_every: int = 0,
        fsync: bool = False,
        registry: Optional[MetricsRegistry] = None,
    ) -> "DurableMonitor":
        """Recover a monitor from its snapshot plus journal replay."""
        if not valid_monitor_name(name):
            raise MonitorError(f"invalid monitor name: {name!r}")
        directory = Path(data_dir) / name
        started = _time.perf_counter()
        with span("serve.replay", monitor=name):
            snapshot_seq, state = read_snapshot(directory)
            tracker = OnlineFenrir.from_state(state)
            for delta_seq, delta in read_deltas(directory):
                if delta_seq <= snapshot_seq:
                    continue  # compaction leftover, already in the base
                try:
                    tracker.apply_delta(delta)
                except (ValueError, KeyError, TypeError) as exc:
                    raise JournalError(
                        f"delta segment chain broken in {directory}: {exc}"
                    ) from exc
                snapshot_seq = delta_seq
            chain_updates = len(tracker.updates)
            chain_exemplars = tracker.num_modes
            records, tail = read_journal(
                directory / JOURNAL_FILE, after_seq=snapshot_seq
            )
            skipped = 0
            # A record that parses but cannot be applied (e.g. written
            # by an older server without pre-journal validation) was
            # never acknowledged — validation happens before the
            # append, so an apply failure implies the ack never went
            # out. Skip it and report rather than leaving the monitor
            # permanently unopenable; an ingest that raises changes no
            # tracker state. Version 2 records go to the tracker as the
            # label lists they are; only version 1 lines hold mappings.
            for record in records:
                try:
                    if record.labels is not None:
                        tracker.ingest_labels(record.labels, record.time)
                    elif record.states is not None:
                        tracker.ingest(record.states, record.time)
                except Exception:
                    skipped += 1
                    if registry is not None:
                        registry.counter(
                            "serve_replay_skipped_records_total",
                            labels={"monitor": name},
                            help="journal records skipped during replay",
                        ).inc()
        seq = records[-1].seq if records else snapshot_seq
        monitor = cls(
            name=name,
            directory=directory,
            tracker=tracker,
            seq=seq,
            snapshot_every=snapshot_every,
            fsync=fsync,
            registry=registry,
            dedup=_read_options(directory),
            replay=ReplayReport(
                snapshot_seq=snapshot_seq,
                replayed_records=len(records) - skipped,
                dropped_lines=tail.dropped_lines if tail else 0,
                elapsed_seconds=_time.perf_counter() - started,
                tail=tail,
                skipped_records=skipped,
            ),
        )
        # The on-disk checkpoint chain covers only the snapshot's state;
        # replayed rounds still live in the journal. Point the
        # incremental bookkeeping at the chain, not the live tracker, so
        # the next checkpoint() folds the replayed rounds in instead of
        # silently dropping them from the chain.
        monitor._checkpoint_updates = chain_updates
        monitor._checkpoint_exemplars = chain_exemplars
        monitor._since_snapshot = len(records) - skipped
        if tail is not None or skipped:
            # Dropped tails and skipped records are unacknowledged
            # garbage; rewrite the journal to the applied prefix so they
            # cannot shadow new seqs on the next recovery.
            monitor.snapshot()
        return monitor

    @classmethod
    def install(
        cls,
        data_dir: Path | str,
        name: str,
        seq: int,
        state: Mapping,
        snapshot_every: int = 0,
        fsync: bool = False,
        registry: Optional[MetricsRegistry] = None,
    ) -> "DurableMonitor":
        """Materialize a monitor from a shipped full ``to_state`` document.

        The receiving half of the ``handoff`` wire command: the state is
        validated (:meth:`OnlineFenrir.from_state` rejects deltas and
        malformed documents) *before* anything touches disk, then any
        stale incarnation's journal and delta segments are discarded and
        the shipped state becomes the new base snapshot at ``seq``. The
        returned monitor is immediately ingestable; replaying it later
        recovers exactly the shipped state.
        """
        if not valid_monitor_name(name):
            raise MonitorError(f"invalid monitor name: {name!r}")
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
            raise MonitorError(f"install seq must be a non-negative int: {seq!r}")
        try:
            tracker = OnlineFenrir.from_state(state)
        except (ValueError, KeyError, TypeError) as exc:
            raise MonitorError(f"uninstallable state: {exc}") from exc
        directory = Path(data_dir) / name
        directory.mkdir(parents=True, exist_ok=True)
        if fsync:
            _fsync_directory(directory.parent)
        # A previous incarnation's journal/deltas describe history this
        # install supersedes; drop them before the snapshot lands so a
        # crash in between cannot resurrect them over the new base.
        (directory / JOURNAL_FILE).unlink(missing_ok=True)
        discard_deltas(directory)
        write_snapshot(directory, seq, dict(state), fsync=fsync)
        return cls(
            name=name,
            directory=directory,
            tracker=tracker,
            seq=seq,
            snapshot_every=snapshot_every,
            fsync=fsync,
            registry=registry,
            dedup=_read_options(directory),
        )

    def install_delta(self, seq: int, delta: Mapping) -> None:
        """Apply a shipped delta segment that chains from the live state.

        Replication followers call this on every sync: the delta is
        checked against the tracker first (:meth:`OnlineFenrir.stage_delta`
        raises on any chain mismatch before disk is touched), then
        persisted as a delta segment at ``seq``, and only then applied
        in memory and the journal reset. A failed write raises with the
        tracker unchanged, so the next sync asks for the same rounds
        again and the on-disk chain stays exactly equivalent to the
        in-memory tracker.
        """
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < self.seq:
            raise MonitorError(
                f"delta seq {seq!r} must be an int >= current seq {self.seq}"
            )
        try:
            commit = self.tracker.stage_delta(delta)
        except (ValueError, KeyError, TypeError) as exc:
            raise MonitorError(f"unapplyable delta: {exc}") from exc
        write_delta(self.directory, seq, delta, fsync=self.fsync)
        commit()
        self.seq = seq
        self._mark_checkpoint()
        self._reset_journal()

    def close(self) -> None:
        self._journal.close()

    # -- dedup ---------------------------------------------------------------

    def set_dedup(self, enabled: bool) -> None:
        """Toggle dedup-mode journaling; the setting survives restarts."""
        self.dedup = bool(enabled)
        self._write_options()

    def dedup_stats(self) -> dict:
        """Dedup status document (served by the ``dedup`` wire command)."""
        return {
            "mode": "on" if self.dedup else "off",
            "deduped_records": self.deduped_records,
            "bytes_saved": self.dedup_bytes_saved,
        }

    def _write_options(self) -> None:
        temp = self.directory / (OPTIONS_FILE + ".tmp")
        temp.write_text(
            json.dumps({"dedup": self.dedup}, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(temp, self.directory / OPTIONS_FILE)

    def _encode_line(self, record: JournalRecord, fragment: str) -> str:
        """The journal line for ``record``: full, or a dedup reference.

        In dedup mode a round whose labels equal the most recent full
        record's journals as a reference; replay materializes the
        labels from the referenced line, so the recovered stream is
        byte-equal either way. ``fragment`` is the labels' JSON.
        """
        if (
            self.dedup
            and self._last_full_seq is not None
            and record.labels == self._last_full_labels
        ):
            ref = self._last_full_seq
            # A full line carries `"v":2,` and `,"labels":<json>`; a ref
            # line carries `"ref":<seq>,` instead.
            self._note_dedup(1, len(fragment) + 9 - len(str(ref)))
            return ref_record_line(record.seq, record.time, ref)
        self._last_full_seq = record.seq
        self._last_full_labels = record.labels
        return record_line(record, fragment)

    def _note_dedup(self, records: int, saved: int) -> None:
        self.deduped_records += records
        self.dedup_bytes_saved += saved
        if self._dedup_records_counter is not None:
            self._dedup_records_counter.inc(records)
        if self._dedup_bytes_counter is not None:
            self._dedup_bytes_counter.inc(saved)

    def _reset_journal(self) -> None:
        # References never cross a reset: the next record must be full.
        # Forget the target first, so that a reset which fails after its
        # swap cannot leave a reference into the replaced journal.
        self._last_full_seq = None
        self._last_full_labels = None
        self._journal.reset()

    # -- operations ----------------------------------------------------------

    def _round_labels(self, states: Mapping[str, str]) -> tuple[list[str], str]:
        """The round as labels in the monitor's network order, and their JSON.

        This is where a round stops being keyed by network name: the
        monitor's networks are read from ``states`` in order
        (:func:`~repro.core.vector.labels_of`, absent ones ``unknown``)
        and keys outside them are dropped. The journal must never
        accept a record the tracker cannot apply, and a non-string key
        or label anywhere in ``states`` raises :class:`MonitorError`
        here, before the append. The labels are checked as their
        distinct set; the whole mapping is checked only when its size
        shows that it holds keys outside the networks. A round repeating
        the previous round's mapping (the common case in a
        recurring-routing stream) reuses the previous list and JSON.
        """
        if self._last_states is not None and states == self._last_states:
            return self._last_labels, self._last_labels_json
        labels = labels_of(states, self.tracker.networks)
        try:
            distinct = set(labels)
            valid = all(isinstance(label, str) for label in distinct)
        except TypeError:  # an unhashable label, such as a JSON array
            valid = False
        if valid:
            # Every absent network reads as ``unknown``, so the mapping
            # names at least this many of the networks, and it holds
            # keys outside them only if it is larger than that.
            named = len(labels)
            if UNKNOWN in distinct:
                named -= labels.count(UNKNOWN)
            if len(states) > named:
                valid = all(map(_is_string_pair, states.items()))
        if not valid:
            key, label = next(
                item for item in states.items() if not _is_string_pair(item)
            )
            raise MonitorError(
                "states must map network names to state labels (strings); "
                f"got {key!r}: {label!r}"
            )
        self._last_states = dict(states)
        self._last_labels = labels
        self._last_labels_json = labels_json(labels)
        return labels, self._last_labels_json

    def ingest(self, states: Mapping[str, str], when: datetime) -> OnlineUpdate:
        """Durably apply one measurement round: a one-round batch."""
        batch = self.ingest_batch([(states, when)])
        if batch.error is not None:
            raise MonitorError(batch.error)
        return batch.updates[0]

    def ingest_batch(
        self, rounds: Sequence[tuple[Mapping[str, str], datetime]]
    ) -> BatchResult:
        """Durably apply many rounds under one group commit.

        Validation runs record by record, in order, *before* anything
        touches the journal: the valid prefix (everything up to the
        first bad states mapping or time-ordering violation) is then
        appended with a single flush/fsync, applied, and acknowledged
        together. The tracker apply cannot fail after validation, so a
        record is journaled iff its update is returned — an
        acknowledged round is exactly a replayable round. The journal
        bytes are identical to the equivalent sequence of one-round
        batches.

        A failed cadence checkpoint does not fail the call: the rounds
        are already durable in the journal, so the failure is counted
        (:meth:`try_checkpoint`) and the next commit retries it.
        """
        with span("serve.ingest_batch", monitor=self.name, rounds=len(rounds)):
            last = self.tracker.last_time
            accepted: list[tuple[list[str], datetime]] = []
            lines: list[str] = []
            rejection: tuple = ()  # (error_index, error, error_kind)
            for index, (states, when) in enumerate(rounds):
                try:
                    labels, fragment = self._round_labels(states)
                except MonitorError as exc:
                    rejection = (index, str(exc), "invalid_states")
                    break
                if last is not None and when <= last:
                    rejection = (
                        index,
                        f"observations must move forward in time: {when} after {last}",
                        "out_of_order",
                    )
                    break
                record = JournalRecord(
                    seq=self.seq + len(accepted) + 1, time=when, labels=labels
                )
                accepted.append((labels, when))
                lines.append(self._encode_line(record, fragment))
                last = when
            try:
                self._journal.append_lines(lines)
            except BaseException:
                # The append may not have landed; a later reference to a
                # record that never hit disk would poison replay. Force the
                # next round to journal full.
                self._last_full_seq = None
                self._last_full_labels = None
                raise
            ingest = self.tracker.ingest_labels
            updates = [ingest(labels, when) for labels, when in accepted]
            self.seq += len(accepted)
            self._since_snapshot += len(accepted)
            if self.snapshot_every and self._since_snapshot >= self.snapshot_every:
                self.try_checkpoint()
            return BatchResult(tuple(updates), *rejection)

    def checkpoint(self) -> int:
        """Incremental checkpoint: persist only rounds since the last one.

        Writes a delta segment (O(rounds since last checkpoint) bytes,
        independent of total history) and resets the journal. This is
        what the ``snapshot_every`` cadence and a graceful server stop
        call; an explicit :meth:`snapshot` compacts the chain back into
        one base file. With no round since the last checkpoint it writes
        nothing: a segment at an unchanged seq would replace the one
        already there.
        """
        if not self._since_snapshot:
            return self.seq
        delta = self.tracker.to_state(
            updates_after=self._checkpoint_updates,
            exemplars_after=self._checkpoint_exemplars,
        )
        write_delta(self.directory, self.seq, delta, fsync=self.fsync)
        self._mark_checkpoint()
        self._reset_journal()
        return self.seq

    def try_checkpoint(self) -> None:
        """:meth:`checkpoint`, with an ``OSError`` counted, not raised.

        The rounds it would cover are already durable in the journal, so
        a failed checkpoint loses nothing: they replay on the next open,
        and the next cadence checkpoint retries. The failure is counted
        in ``serve_checkpoint_failures_total{monitor}``.
        """
        try:
            self.checkpoint()
        except OSError:
            if self.registry is not None:
                self.registry.counter(
                    "serve_checkpoint_failures_total",
                    labels={"monitor": self.name},
                    help="Checkpoints that failed; their rounds stay in the "
                    "journal (a cadence checkpoint retries on the next commit)",
                ).inc()

    def snapshot(self) -> int:
        """Full checkpoint + compaction; returns the sequence captured.

        Rewrites the base snapshot from the live tracker, then discards
        the (now redundant) delta segments and journal. Crash-safe in
        any interleaving: leftover deltas carry a seq at or below the
        new base's and are skipped at read time, leftover journal
        entries likewise.
        """
        write_snapshot(
            self.directory, self.seq, self.tracker.to_state(), fsync=self.fsync
        )
        self._mark_checkpoint()
        discard_deltas(self.directory)
        self._reset_journal()
        return self.seq

    def _mark_checkpoint(self) -> None:
        """Record that the on-disk chain now covers the live tracker.

        Called as soon as a delta or snapshot lands, before the journal
        reset: if the reset then fails, the next checkpoint must still
        chain from the new head, and the journal lines left behind are
        at or below its seq, so replay skips them.
        """
        self._checkpoint_updates = len(self.tracker.updates)
        self._checkpoint_exemplars = self.tracker.num_modes
        self._since_snapshot = 0

    def describe(self) -> dict:
        """Summary document served by the ``query`` command."""
        tracker = self.tracker
        last = tracker.last_time
        return {
            "monitor": self.name,
            "networks": len(tracker.networks),
            "rounds": len(tracker.updates),
            "modes": tracker.num_modes,
            "events": tracker.num_events,
            "recurrences": tracker.num_recurrences,
            "seq": self.seq,
            "last_time": last.isoformat() if last else None,
            "current_mode": tracker.updates[-1].mode_id if tracker.updates else None,
            "dedup": self.dedup_stats(),
        }
