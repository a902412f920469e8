"""Write-ahead journal and snapshots for durable monitors.

Durability model (per monitor directory)::

    <data_dir>/<monitor>/
        journal.jsonl         append-only ingest log since the last checkpoint
        snapshot.json         base OnlineFenrir.to_state() checkpoint
        delta-<seq>.json      incremental checkpoints newer than the base

Every acknowledged ingest is first appended to the journal — one JSON
line carrying a monotonically increasing sequence number and a CRC32
— and flushed to the OS before the tracker applies it. A killed
process therefore leaves at worst a *truncated final line*, which the
reader detects (bad JSON, bad CRC, or a sequence gap) and drops,
recovering the exact acknowledged prefix: the same last-valid-record
semantics as :func:`repro.io.formats.recover_series_jsonl`.

Line formats. The writer emits version 2, a *positional* line::

    {"v":2,"seq":7,"time":"2025-01-01T06:00:00","labels":["AMS","unknown"],
     "crc":"afe38618"}

(one line on disk). ``labels`` holds one state label per monitor
network, in the monitor's network order, and the CRC32 is taken over
the line's own bytes: everything before ``,"crc":`` followed by ``}``.
The reader
checks it on the raw bytes, so it never re-encodes JSON. Version 1
lines, written before positional rounds, carry the ``states`` mapping
as sent and a CRC32 of the record's canonical (sorted-key) encoding;
the reader still accepts them, so an older journal replays unchanged
and a journal may hold version 1 lines followed by version 2 ones.

Recurring rounds can be journaled as *dedup reference records*
(``repro.vps``'s ingest-dedup mode): when a round's labels equal those
of the most recent fully journaled one, the line
``{"ref": <full seq>, "seq": ..., "time": ..., "crc": ...}`` is
written instead of repeating them. Its CRC is spliced in last, as on a
version 2 line, and checked on the raw bytes. :func:`read_journal` expands
references while scanning — it only ever needs the last full record,
because a valid writer always refs the most recent full line in the
same journal (the reference chain never crosses a journal reset).
Replay is therefore byte-equal to the undeduplicated stream; only the
on-disk encoding is compact. A reference that does not point at the
last full record is treated like any other corrupt line: the valid
prefix is kept and the tail is dropped.

Checkpoints are written atomically (temp file + ``os.replace``), then
the journal is reset; replay skips journal entries at or below the
checkpoint's seq, so a crash between the two converges. Periodic
checkpoints are *incremental*: instead of re-serializing the
whole tracker history every ``snapshot_every`` rounds (O(rounds²)
cumulative bytes), :func:`write_delta` persists only the updates since
the previous checkpoint as a ``delta-<seq>.json`` segment.
Recovery restores the base snapshot and applies each newer segment to
the tracker (:meth:`repro.core.online.OnlineFenrir.apply_delta`, the
same call a replication follower uses), and an explicit
:meth:`DurableMonitor.snapshot` compacts — rewrites the full base and
discards the segments. Segments whose seq is at or below the base's
are compaction leftovers and are skipped, so a crash at any point in
the checkpoint/compact sequence still converges.

Base and segment have one format, a canonical JSON document with its
CRC32 spliced in last as on a version 2 line: :func:`_write_checkpoint`
writes both and :func:`_read_checkpoint` checks both on their raw
bytes. A base from before this format has a sha256 in ``MANIFEST.json``
instead; :func:`_read_manifest_snapshot` still opens it, and the next
base write removes the manifest.

With ``fsync`` on, a checkpoint is as durable as an append: every temp
file is fsynced before its ``os.replace``, and the directory after it,
so the segment or base is on stable storage before the journal
reset empties the journal; the reset fsyncs the directory as well, so
later appends land in the file that survives. With ``fsync`` off these
paths make no extra syscall.
"""

from __future__ import annotations

import json
import os
import zlib
from time import perf_counter as _perf_counter
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

if TYPE_CHECKING:  # circular-import-free type for flush_histogram
    from ..obs import Histogram

__all__ = [
    "JournalError",
    "JournalRecord",
    "JournalTail",
    "JournalWriter",
    "labels_json",
    "record_line",
    "ref_record_line",
    "read_journal",
    "write_snapshot",
    "read_snapshot",
    "write_delta",
    "read_deltas",
    "discard_deltas",
]

JOURNAL_FILE = "journal.jsonl"
SNAPSHOT_FILE = "snapshot.json"
MANIFEST_FILE = "MANIFEST.json"  # sha256 of a base in the earlier format
_DELTA_GLOB = "delta-*.json"
# Each checkpoint type: what an error calls it, and its payload field.
_CHECKPOINTS = {
    "fenrir-snapshot": ("snapshot", "state"),
    "fenrir-delta": ("delta segment", "delta"),
}
# How a base from before the CRC format ends: no ``crc`` after ``type``.
_LEGACY_SNAPSHOT_END = b',"type":"fenrir-snapshot"}'


class JournalError(ValueError):
    """Raised for corruption that recovery cannot skip (bad snapshot)."""


@dataclass(frozen=True)
class JournalRecord:
    """One durable ingest: sequence number, timestamp and the round.

    A version 2 record carries ``labels``, one state label per monitor
    network in the monitor's network order; a version 1 record carries
    the ``states`` mapping as it was sent. Exactly one of the two is set.
    """

    seq: int
    time: datetime
    states: Optional[dict[str, str]] = None
    labels: Optional[list[str]] = None

    def __post_init__(self) -> None:
        if (self.states is None) == (self.labels is None):
            raise ValueError("a journal record carries one of states and labels")


@dataclass(frozen=True)
class JournalTail:
    """Report of what journal recovery dropped (None when clean)."""

    first_bad_line: int
    dropped_lines: int
    reason: str


def _canonical(document: object) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _splice_crc(body: str) -> str:
    """``body`` (a JSON object) with the CRC32 of its bytes as a last field."""
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f'{body[:-1]},"crc":"{crc:08x}"}}'


def labels_json(labels: list[str]) -> str:
    """The ``labels`` array of a version 2 line."""
    return json.dumps(labels, separators=(",", ":"))


def record_line(record: "JournalRecord", fragment: Optional[str] = None) -> str:
    """The journal line for ``record`` (no trailing newline).

    A record with ``labels`` encodes as a version 2 line,
    ``{"v":2,"seq":…,"time":…,"labels":[…]}`` with the CRC of those
    bytes spliced in as a last ``crc`` field. A record with ``states``
    encodes as a version 1 line, the canonical encoding of
    ``{"seq", "states", "time"}`` with its CRC spliced in; only tools
    and fixtures that stand in for older writers make those.

    ``fragment`` is an optional precomputed :func:`labels_json` (or,
    for version 1, ``_canonical(states)``). Routing results recur — the
    paper's core observation — so a monitor that caches it across
    repeated rounds skips the encoding.
    """
    when = record.time.isoformat()
    if record.labels is not None:
        if fragment is None:
            fragment = labels_json(record.labels)
        return _splice_crc(
            f'{{"v":2,"seq":{record.seq},"time":"{when}","labels":{fragment}}}'
        )
    if fragment is None:
        fragment = _canonical(record.states)
    return _splice_crc(f'{{"seq":{record.seq},"states":{fragment},"time":"{when}"}}')


def ref_record_line(seq: int, time: datetime, ref: int) -> str:
    """A dedup reference line: same round as full record ``ref``.

    The composed bytes are :func:`_splice_crc` of the canonical
    encoding of ``{"ref": ref, "seq": seq, "time": ...}`` (key order
    ``ref`` < ``seq`` < ``time``), as every reference line ever
    written was, so the reader checks it on its raw bytes.
    The round is *not* repeated — the reader materializes it from the
    referenced full record.
    """
    return _splice_crc(f'{{"ref":{ref},"seq":{seq},"time":"{time.isoformat()}"}}')


def _check_crc(obj: dict) -> dict:
    """Check a version 1 line's CRC by re-encoding it canonically: the
    earliest writer put ``crc`` first, so not every one is spliced last."""
    crc = obj.pop("crc", None)
    if crc is None:
        raise ValueError("record missing crc")
    body = _canonical(obj)
    expected = f"{zlib.crc32(body.encode('utf-8')) & 0xFFFFFFFF:08x}"
    if crc != expected:
        raise ValueError(f"crc mismatch: {crc} != {expected}")
    return obj


# Version 2 and ``ref`` lines carry their CRC spliced in last.
_SPLICED_PREFIXES = (b'{"v":2,', b'{"ref":')
_CRC_FIELD = b',"crc":"'
_CRC_TAIL = len(b',"crc":"00000000"}')


def _check_spliced_crc(line: bytes) -> None:
    """Check the CRC that :func:`_splice_crc` put in ``line``'s last field.

    The CRC covers the bytes before ``,"crc":`` followed by ``}``, so
    this reads the raw bytes and never re-encodes JSON. Version 2 lines,
    ``ref`` lines and checkpoint files are checked here; version 1 lines
    go through :func:`_check_crc`.
    """
    body = len(line) - _CRC_TAIL
    if body < 0 or line[body : body + len(_CRC_FIELD)] != _CRC_FIELD:
        raise ValueError("record missing crc")
    crc = zlib.crc32(b"}", zlib.crc32(memoryview(line)[:body])) & 0xFFFFFFFF
    stored = line[body + len(_CRC_FIELD) : -2]
    if stored != b"%08x" % crc or line[-2:] != b'"}':
        raise ValueError(f"crc mismatch: {stored!r} != {crc:08x}")


class JournalWriter:
    """Append-only writer; every append is flushed before returning.

    ``fsync=True`` additionally forces the write to stable storage per
    append (survives power loss, ~100x slower); the default flush
    survives any death of the *process*, which is the failure mode the
    kill-and-restart tests exercise.

    ``flush_histogram`` (a :class:`repro.obs.Histogram`, optional)
    observes the wall time of each durability commit — write + flush +
    fsync when enabled. This is the ``serve_journal_fsync_seconds``
    series in the server's Prometheus exposition; when None (offline
    library use) the writer never reads the clock.
    """

    def __init__(
        self,
        path: Path,
        fsync: bool = False,
        flush_histogram: Optional["Histogram"] = None,
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.flush_histogram = flush_histogram
        self._stream = self.path.open("a", encoding="utf-8")

    def append(self, record: JournalRecord) -> None:
        self.append_lines((record_line(record),))

    def append_lines(self, lines: Iterable[str]) -> None:
        """Append pre-encoded :func:`record_line` lines, one group commit.

        Byte-identical to appending the lines one by one — only the
        durability syscalls are amortized, which is what makes batched
        ingest ~O(batch) cheaper than record-at-a-time without weakening
        the acknowledged-iff-replayable contract (the batch is acked
        only after this returns).
        """
        payload = "".join(line + "\n" for line in lines)
        if not payload:
            return
        if self.flush_histogram is None:
            self._stream.write(payload)
            self._commit()
            return
        started = _perf_counter()
        self._stream.write(payload)
        self._commit()
        self.flush_histogram.observe(_perf_counter() - started)

    def _commit(self) -> None:
        """The single durability point every append funnels through:
        push the buffered payload to the OS, and to stable storage when
        ``fsync`` is on. fenlint's journal-durability rule proves this
        helper flushes on every path (a call-graph effect summary), so
        the write sites in :meth:`append_lines` need no inline flush."""
        self._stream.flush()
        if self.fsync:
            os.fsync(self._stream.fileno())

    def reset(self) -> None:
        """Atomically replace the journal with an empty one.

        The live stream is swapped only after the empty file has
        replaced the journal, so a failed reset leaves the old journal
        and its stream in use and later appends still land. With
        ``fsync`` the directory is fsynced after the swap: the appends
        that follow are fsynced into the new file, which must be the
        one a power loss leaves under the journal's name.
        """
        temp = self.path.with_suffix(".tmp")
        stream = temp.open("w", encoding="utf-8")
        try:
            os.replace(temp, self.path)
        except BaseException:
            stream.close()
            raise
        self._stream.close()
        self._stream = stream
        if self.fsync:
            _fsync_directory(self.path.parent)

    def close(self) -> None:
        self._stream.close()


def read_journal(
    path: Path, after_seq: int = 0
) -> tuple[list[JournalRecord], Optional[JournalTail]]:
    """Replay the journal's valid prefix, skipping records ≤ after_seq.

    Stops at the first unparseable, checksum-failing, or out-of-order
    line — everything a crashed writer can leave behind — and reports
    the dropped tail instead of raising.

    Each record carries its round as the line held it: ``labels`` (a
    list, one label per monitor network in the monitor's order) for a
    version 2 line, or ``states`` (the ``{network: label}`` mapping as
    sent) for a version 1 line; the other field is None.

    Dedup reference lines (``{"ref": ..., "seq": ..., "time": ...}``)
    are expanded in place: the record takes the round of the
    referenced full record, so callers see the exact stream an
    undeduplicated writer would have produced. A reference that does
    not point at the most recent full record is corruption and drops
    the tail like any other bad line.
    """
    path = Path(path)
    if not path.exists():
        return [], None
    records: list[JournalRecord] = []
    tail: Optional[JournalTail] = None
    expected = after_seq
    last_full: Optional[JournalRecord] = None
    with path.open("rb") as stream:
        iterator: Iterator[tuple[int, bytes]] = enumerate(stream, start=1)
        for line_number, line in iterator:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                if stripped.startswith(_SPLICED_PREFIXES):
                    _check_spliced_crc(stripped)
                    document = json.loads(stripped)
                else:  # a version 1 line
                    document = _check_crc(json.loads(stripped))
                seq = int(document["seq"])
                time = datetime.fromisoformat(document["time"])
                if "ref" in document:
                    ref = document["ref"]
                    if last_full is None or ref != last_full.seq:
                        raise ValueError(
                            f"dangling dedup reference: {ref!r} does not "
                            "name the most recent full record"
                        )
                    record = JournalRecord(
                        seq, time, last_full.states, last_full.labels
                    )
                elif "labels" in document:
                    labels = document["labels"]
                    if type(labels) is not list:
                        raise ValueError("version 2 labels must be a list")
                    record = last_full = JournalRecord(seq, time, labels=labels)
                else:
                    states = dict(document["states"])
                    record = last_full = JournalRecord(seq, time, states=states)
                if record.seq <= after_seq:
                    continue  # already folded into the snapshot
                if record.seq != expected + 1:
                    raise ValueError(
                        f"sequence gap: expected {expected + 1}, got {record.seq}"
                    )
            except (ValueError, KeyError, TypeError) as exc:
                remaining = sum(1 for _ in iterator)
                tail = JournalTail(
                    first_bad_line=line_number,
                    dropped_lines=1 + remaining,
                    reason=str(exc),
                )
                break
            records.append(record)
            expected = record.seq
    return records, tail


def _fsync_directory(directory: Path) -> None:
    """Make the renames and creations in ``directory`` durable."""
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def _write_checkpoint(path: Path, document: dict, fsync: bool) -> None:
    """Atomically write ``document`` to ``path`` with its CRC spliced last.

    With ``fsync`` the temp file reaches stable storage before it
    replaces ``path``, and the directory after that.
    """
    temp = path.with_name(path.name + ".tmp")
    with temp.open("w", encoding="utf-8") as out:
        out.write(_splice_crc(_canonical(document)) + "\n")
        if fsync:
            out.flush()
            os.fsync(out.fileno())
    os.replace(temp, path)
    if fsync:
        _fsync_directory(path.parent)


def _read_checkpoint(path: Path, body: bytes, kind: str) -> tuple[int, dict]:
    """(seq, payload) of the checkpoint file ``path`` holding ``body``.

    ``kind`` is the ``type`` the document must carry. The CRC is
    checked on the raw bytes before anything is parsed; any failure
    raises :class:`JournalError`.
    """
    label, payload = _CHECKPOINTS[kind]
    try:
        _check_spliced_crc(body)
        document = json.loads(body)
        if document.get("type") != kind:
            raise ValueError(f"not a {label}: {document.get('type')!r}")
        return int(document["seq"]), document[payload]
    except (ValueError, KeyError, TypeError) as exc:
        raise JournalError(f"corrupt {label} {path}: {exc}") from exc


def write_snapshot(directory: Path, seq: int, state: dict, fsync: bool = False) -> None:
    """Atomically checkpoint ``state`` as the base, the truth up to ``seq``.

    A ``MANIFEST.json`` left by the earlier base format is removed once
    the new base has replaced the old one.
    """
    directory = Path(directory)
    document = {"type": "fenrir-snapshot", "seq": seq, "state": state}
    _write_checkpoint(directory / SNAPSHOT_FILE, document, fsync)
    (directory / MANIFEST_FILE).unlink(missing_ok=True)


def write_delta(directory: Path, seq: int, delta: dict, fsync: bool = False) -> Path:
    """Atomically persist one incremental checkpoint segment.

    The segment carries the ``OnlineFenrir.to_state(updates_after=...)``
    delta document plus the journal sequence number it is the truth up
    to. The journal is reset only *after* the replace, so a missing
    segment just means those rounds replay from the journal.
    """
    path = Path(directory) / f"delta-{seq:012d}.json"
    _write_checkpoint(path, {"type": "fenrir-delta", "seq": seq, "delta": delta}, fsync)
    return path


def read_deltas(directory: Path) -> list[tuple[int, dict]]:
    """All delta segments in ``directory``, ascending by seq.

    Raises :class:`JournalError` on a corrupt segment: unlike a journal
    tail, a segment was only written *before* the journal covering the
    same rounds was reset, so there is no redundant copy to fall back
    on and recovery cannot silently skip it.
    """
    segments = [
        _read_checkpoint(path, path.read_bytes().rstrip(b"\n"), "fenrir-delta")
        for path in sorted(Path(directory).glob(_DELTA_GLOB))
    ]
    segments.sort(key=lambda pair: pair[0])
    return segments


def discard_deltas(directory: Path) -> int:
    """Remove all delta segments (after compaction folded them)."""
    removed = 0
    for path in sorted(Path(directory).glob(_DELTA_GLOB)):
        path.unlink()
        removed += 1
    return removed


def read_snapshot(directory: Path) -> tuple[int, dict]:
    """Load and verify the base snapshot; returns (seq, state).

    Delta segments newer than ``seq`` (:func:`read_deltas`) are not
    folded in: the caller applies them to the restored tracker. Raises
    :class:`JournalError` on a missing or corrupt base. Only a base
    ending as the earlier format did goes to the manifest rule; any
    other bytes get the CRC check, so damage cannot route a current
    base around it.
    """
    path = Path(directory) / SNAPSHOT_FILE
    if not path.exists():
        raise JournalError(f"no snapshot in {directory}")
    body = path.read_bytes().rstrip(b"\n")
    if body.endswith(_LEGACY_SNAPSHOT_END):
        return _read_manifest_snapshot(Path(directory), body)
    return _read_checkpoint(path, body, "fenrir-snapshot")


def _read_manifest_snapshot(directory: Path, body: bytes) -> tuple[int, dict]:
    """Read a base written before the CRC format, checked by its manifest.

    The manifest checksum is enforced only when the manifest records
    the same seq as the snapshot document: a manifest for a *different*
    seq is the leftover of a crash between the old writer's two atomic
    replaces, and the self-describing snapshot (which parsed intact) is
    the truth. The old writer replaced the snapshot first, so it left no
    manifest at all only after a crash inside a monitor's first write:
    ``create``'s empty seq-0 checkpoint, or an ``install`` that was
    never acknowledged. So a base without a manifest opens only when it
    is that empty checkpoint. Raises :class:`JournalError` on a same-seq
    checksum mismatch, any other base without a manifest, or an
    unparseable snapshot.
    """
    import hashlib

    manifest_path = directory / MANIFEST_FILE
    try:  # the ``type`` field is the one read_snapshot matched
        document = json.loads(body)
        seq, state = int(document["seq"]), document["state"]
    except (json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        raise JournalError(f"corrupt snapshot in {directory}: {exc}") from exc
    if not manifest_path.exists():
        empty = isinstance(state, dict) and not (
            state.get("updates") or state.get("exemplars")
        )
        if seq != 0 or not empty:
            raise JournalError(f"snapshot without its manifest in {directory}")
    else:
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            expected = manifest["files"][SNAPSHOT_FILE]
            manifest_seq = int(manifest["seq"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise JournalError(f"unreadable manifest in {directory}") from exc
        if manifest_seq == seq:
            actual = hashlib.sha256(body).hexdigest()
            if actual != expected:
                raise JournalError(f"snapshot checksum mismatch in {directory}")
    return seq, state
