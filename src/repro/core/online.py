"""Online Fenrir: streaming event detection and mode matching.

The batch pipeline answers "what happened over the last five years";
operators also need the stream form of the paper's question: *as each
measurement round arrives*, did routing just change, and is the new
routing a mode I have seen before?

:class:`OnlineFenrir` ingests one observation at a time and reports,
per round: the step change ``1 - Φ`` against the previous round,
whether that crosses the event threshold, and which known mode the new
vector matches (a new mode is opened when none matches). Mode
exemplars are fixed at mode birth so that slow drift cannot chain two
genuinely different routing results into one mode.

Hot-path layout: a round enters as its labels in network order
(:meth:`OnlineFenrir.ingest_labels`, the positional ``D(t)``; a
``{network: state}`` mapping is converted once by :meth:`ingest`) and
is coded with one lookup per label; the exemplars are a
:class:`~repro.core.series.VectorSeries`, so their codes are one
``(M, N)`` int32 matrix and matching an incoming vector against every
known mode is one pass of the shared paired-rows kernel
(:func:`~repro.core.compare.match_counts` over
:func:`~repro.core.compare.denominator`), as is the step change;
weights are validated, summed and cast to their count dtype once at
construction and handed to the kernels as they are; event/recurrence
counts are maintained incrementally so summaries never rescan
``updates``. The scalar
per-exemplar loop the matcher is property-tested against lives in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .compare import UnknownPolicy, _check_weights, denominator, match_counts
from .series import VectorSeries
from .vector import RoutingVector, StateCatalog, labels_of

__all__ = ["OnlineUpdate", "OnlineFenrir"]

STATE_VERSION = 1


@dataclass(frozen=True)
class OnlineUpdate:
    """What one ingested observation told us."""

    time: datetime
    step_change: float  # 1 - Φ vs the previous observation (0 for the first)
    is_event: bool
    mode_id: int
    is_new_mode: bool
    mode_similarity: float  # Φ against the matched mode's exemplar
    recurred: bool  # matched a mode that was not the previous one

    def to_document(self) -> dict:
        """The JSON form: every field in order, ``time`` as ISO-8601."""
        # Spelled out, not ``vars(self)``: reading ``__dict__`` would
        # materialize a dict on every update the tracker keeps.
        return {
            "time": self.time.isoformat(),
            "step_change": self.step_change,
            "is_event": self.is_event,
            "mode_id": self.mode_id,
            "is_new_mode": self.is_new_mode,
            "mode_similarity": self.mode_similarity,
            "recurred": self.recurred,
        }

    @classmethod
    def from_document(cls, document: Mapping) -> "OnlineUpdate":
        return cls(**{**document, "time": datetime.fromisoformat(document["time"])})


def _vector_state(time: Optional[datetime], codes: np.ndarray) -> dict:
    return {"time": time.isoformat() if time else None, "codes": codes.tolist()}


@dataclass
class OnlineFenrir:
    """Streaming mode tracker over a fixed network universe.

    * ``event_threshold`` — step change above which a round is an event;
    * ``mode_threshold`` — minimum Φ against a mode's exemplar to join
      that mode (the online analogue of the HAC distance threshold).
    """

    networks: Sequence[str]
    event_threshold: float = 0.1
    mode_threshold: float = 0.7
    policy: UnknownPolicy = UnknownPolicy.PESSIMISTIC
    weights: Optional[np.ndarray] = None
    catalog: StateCatalog = field(default_factory=StateCatalog)

    def __post_init__(self) -> None:
        self.networks = tuple(self.networks)
        if not 0.0 <= self.event_threshold <= 1.0:
            raise ValueError("event_threshold must be in [0, 1]")
        if not 0.0 <= self.mode_threshold <= 1.0:
            raise ValueError("mode_threshold must be in [0, 1]")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64)
        # Validate once, here, so a bad weight vector fails at
        # construction instead of as a phi shape error on the first
        # ingest — and so the hot path never re-checks, re-sums or
        # re-picks the count dtype of it.
        self._checked_weights = _check_weights(self.weights, len(self.networks))
        self._total_weight = float(self._checked_weights.sum())
        self._exemplars = VectorSeries(self.networks, self.catalog)
        self._previous: Optional[RoutingVector] = None
        self._previous_mode: Optional[int] = None
        self._last_time: Optional[datetime] = None
        self._num_events = 0
        self._num_recurrences = 0
        self.updates: list[OnlineUpdate] = []
        # Recurring-round fast path (the paper's central observation:
        # routing results recur, so consecutive rounds usually repeat
        # the previous assignment verbatim). When the incoming labels
        # equal the last ones, coding, the step-change Φ, and — while
        # no mode has been opened since — the mode match are all pure
        # functions of state this tracker already computed. The memos
        # below cache them; every value is produced by the exact same
        # arithmetic as the slow path, so results stay bit-identical.
        self._prev_labels: Optional[list] = None
        self._prev_self_step: Optional[float] = None  # 1 - Φ(prev, prev)
        self._memo_match: tuple[Optional[int], float] = (None, -1.0)
        self._memo_match_modes: int = -1  # num_modes the memo was taken at
        # The last mapping :meth:`ingest` converted, and its labels: a
        # repeated mapping skips the conversion as well.
        self._prev_mapping: Optional[dict] = None
        self._prev_mapping_labels: list = []

    # -- properties ---------------------------------------------------------

    @property
    def num_modes(self) -> int:
        return len(self._exemplars)

    @property
    def num_events(self) -> int:
        """Running count of event rounds (no rescan of ``updates``)."""
        return self._num_events

    @property
    def num_recurrences(self) -> int:
        """Running count of recurrence rounds (no rescan of ``updates``)."""
        return self._num_recurrences

    def events(self) -> list[OnlineUpdate]:
        return [update for update in self.updates if update.is_event]

    def recurrences(self) -> list[OnlineUpdate]:
        """Rounds where routing returned to an older known mode."""
        return [update for update in self.updates if update.recurred]

    # -- ingestion ------------------------------------------------------------

    def ingest(self, assignment: Mapping[str, str], when: datetime) -> OnlineUpdate:
        """Process one measurement round given as ``{network: state}``.

        The mapping's labels are read in network order (absent networks
        are ``unknown``, other keys are ignored) and handed to
        :meth:`ingest_labels`; a mapping equal to the previous one
        reuses the previous labels without converting again.
        """
        if self._prev_mapping is not None and assignment == self._prev_mapping:
            labels = self._prev_mapping_labels
        else:
            labels = labels_of(assignment, self.networks)
            self._prev_mapping = dict(assignment)
            self._prev_mapping_labels = labels
        return self.ingest_labels(labels, when)

    def ingest_labels(self, labels: Sequence[str], when: datetime) -> OnlineUpdate:
        """Process one measurement round and classify it.

        ``labels`` holds one state label per network, in the order of
        :attr:`networks`: the positional routing vector ``D(t)``. A round
        whose labels equal the previous round's skips the coding.
        Raises :class:`ValueError`, changing no tracker state, on a
        time that does not move forward or a wrong number of labels.
        """
        if self._last_time is not None and when <= self._last_time:
            raise ValueError(f"observations must move forward in time: {when}")
        if len(labels) != len(self.networks):
            raise ValueError(f"{len(labels)} labels for {len(self.networks)} networks")
        previous = self._previous
        # Recurring round: same labels as last time, so the codes are
        # the previous codes, the step change is Φ(x, x), and the match
        # is unchanged unless a mode opened in between.
        recurring = previous is not None and self._prev_labels == labels
        if previous is not None and recurring:
            codes = previous.codes
        else:
            codes = self.catalog.codes(labels)
        vector = RoutingVector._trusted(self.networks, codes, self.catalog, when)
        if previous is None:
            step_change = 0.0
        elif recurring and self._prev_self_step is not None:
            step_change = self._prev_self_step
        else:
            before, w = previous.codes, self._checked_weights
            step_change = 1.0 - float(
                match_counts(before, codes, w)
                / denominator(before, codes, w, self._total_weight, self.policy)
            )
            self._prev_self_step = step_change if recurring else None
        if recurring and self._memo_match_modes == len(self._exemplars):
            mode_id, similarity = self._memo_match
        else:
            mode_id, similarity = self._match_mode(vector)
            self._memo_match = (mode_id, similarity)
            self._memo_match_modes = len(self._exemplars)
        if not recurring:
            self._prev_labels = list(labels)
        is_event = step_change > self.event_threshold
        is_new_mode = mode_id is None
        if mode_id is None:
            self._exemplars.append(vector)
            mode_id = len(self._exemplars) - 1
            similarity = 1.0
        recurred = (
            self._previous_mode is not None
            and mode_id != self._previous_mode
            and not is_new_mode
        )

        update = OnlineUpdate(
            time=when,
            step_change=float(step_change),
            is_event=is_event,
            mode_id=mode_id,
            is_new_mode=is_new_mode,
            mode_similarity=float(similarity),
            recurred=recurred,
        )
        self.updates.append(update)
        if is_event:
            self._num_events += 1
        if recurred:
            self._num_recurrences += 1
        self._previous = vector
        self._previous_mode = mode_id
        self._last_time = when
        return update

    def ingest_many(
        self, rounds: Sequence[tuple[Mapping[str, str], datetime]]
    ) -> list[OnlineUpdate]:
        """Apply many rounds in order; the batched form of :meth:`ingest`."""
        return [self.ingest(states, when) for states, when in rounds]

    @property
    def last_time(self) -> Optional[datetime]:
        """Timestamp of the most recent ingested observation, if any."""
        return self._last_time

    def match(self, assignment: Mapping[str, str]) -> tuple[Optional[int], float]:
        """Which known mode would ``assignment`` join? Non-mutating.

        Returns ``(mode_id, similarity)``; ``mode_id`` is None when the
        assignment would open a new mode. Unlike :meth:`ingest` this
        does not advance the tracker (no mode is opened, no update is
        recorded), so servers can answer "have we seen this routing
        before?" without committing the observation. Unseen site labels
        are still registered in the shared catalog; that is only an
        identifier assignment and cannot change any Φ value.
        """
        vector = RoutingVector.from_mapping(
            dict(assignment), catalog=self.catalog, networks=self.networks
        )
        return self._match_mode(vector)

    # -- matching kernel -----------------------------------------------------

    def _match_mode(self, vector: RoutingVector) -> tuple[Optional[int], float]:
        """Best known mode for ``vector`` via one vectorized Φ pass."""
        if not len(self._exemplars):
            return None, -1.0
        exemplars, w = self._exemplars.matrix, self._checked_weights
        similarities = match_counts(vector.codes, exemplars, w) / denominator(
            vector.codes, exemplars, w, self._total_weight, self.policy
        )
        valid = ~np.isnan(similarities)
        if not valid.any():
            return None, -1.0
        # argmax on the NaN-masked copy picks the *first* best row —
        # the same tie-break as the scalar loop's strict ``>``.
        best = int(np.argmax(np.where(valid, similarities, -np.inf)))
        best_similarity = float(similarities[best])
        if best_similarity >= self.mode_threshold:
            return best, best_similarity
        return None, best_similarity

    # -- checkpointing --------------------------------------------------------

    def to_state(
        self,
        updates_after: Optional[int] = None,
        exemplars_after: Optional[int] = None,
    ) -> dict:
        """A JSON-serializable snapshot of the tracker state.

        With no arguments the snapshot is *full and exact*:
        ``from_state(to_state())`` yields a tracker whose every
        subsequent :meth:`ingest` returns the same updates
        (bit-identical floats — JSON round-trips Python floats
        losslessly via their shortest repr) as the original would have.

        With ``updates_after=k`` the result is a *delta segment*: only
        the updates (and exemplars) recorded after the first ``k``
        plus the small mutable head (previous vector, catalog, last
        time). :meth:`apply_delta` on a tracker restored from the
        state it chains from reproduces the full snapshot, so
        periodic checkpoints write O(delta) bytes instead of
        re-serializing the whole history. ``exemplars_after`` (the
        exemplar count already captured upstream) is derived from the
        update flags when not given.
        """
        if updates_after is None:
            head = {
                "version": STATE_VERSION,
                "networks": list(self.networks),
                "event_threshold": self.event_threshold,
                "mode_threshold": self.mode_threshold,
                "policy": self.policy.value,
                "weights": None
                if self.weights is None
                else [float(w) for w in self.weights],
            }
            updates_after = exemplars_after = 0
        else:
            if not 0 <= updates_after <= len(self.updates):
                raise ValueError(
                    f"updates_after={updates_after} outside [0, {len(self.updates)}]"
                )
            if exemplars_after is None:
                exemplars_after = sum(
                    1 for update in self.updates[:updates_after] if update.is_new_mode
                )
            if not 0 <= exemplars_after <= len(self._exemplars):
                raise ValueError(
                    f"exemplars_after={exemplars_after} outside "
                    f"[0, {len(self._exemplars)}]"
                )
            head = {
                "version": STATE_VERSION,
                "kind": "delta",
                "updates_after": updates_after,
                "exemplars_after": exemplars_after,
            }
        exemplars = self._exemplars.matrix
        return {
            **head,
            "catalog": list(self.catalog.labels),
            "exemplars": [
                _vector_state(self._exemplars.times[i], exemplars[i])
                for i in range(exemplars_after, self.num_modes)
            ],
            "previous": None
            if self._previous is None
            else _vector_state(self._previous.time, self._previous.codes),
            "previous_mode": self._previous_mode,
            "last_time": self._last_time.isoformat() if self._last_time else None,
            "updates": [u.to_document() for u in self.updates[updates_after:]],
        }

    @classmethod
    def from_state(cls, state: Mapping) -> "OnlineFenrir":
        """Rebuild a tracker from a full :meth:`to_state` snapshot.

        A full state is a delta from an empty tracker: build the tracker
        from the config fields, then :meth:`apply_delta` the rest.
        """
        version = state.get("version")
        if version != STATE_VERSION:
            raise ValueError(f"unsupported OnlineFenrir state version: {version!r}")
        if state.get("kind") == "delta":
            raise ValueError(
                "cannot restore from a delta segment: restore its base "
                "state, then apply_delta it"
            )
        weights = state.get("weights")
        tracker = cls(
            networks=state["networks"],
            event_threshold=state["event_threshold"],
            mode_threshold=state["mode_threshold"],
            policy=UnknownPolicy(state["policy"]),
            weights=None if weights is None else np.asarray(weights, dtype=np.float64),
        )
        tracker.apply_delta(
            {**state, "kind": "delta", "updates_after": 0, "exemplars_after": 0}
        )
        return tracker

    def apply_delta(self, delta: Mapping) -> None:
        """Apply a ``to_state(updates_after=...)`` delta to this live tracker.

        The delta must chain exactly from this tracker's current counts
        (its ``updates_after``/``exemplars_after`` equal the live list
        lengths and its catalog extends the live catalog), and applying
        it costs O(delta) — this is how a replication follower keeps up
        with a primary, and how recovery applies the checkpoint segments
        on disk, without re-serializing or re-ingesting history.
        Raises :class:`ValueError` on any chain mismatch or malformed
        vector or update, *before* changing any mode state (the catalog
        may gain labels, which only assigns identifiers, as
        :meth:`match` does).
        """
        self.stage_delta(delta)()

    def stage_delta(self, delta: Mapping) -> Callable[[], None]:
        """Check and decode ``delta`` now; return the call that applies it.

        Raises what :meth:`apply_delta` raises and changes no mode state,
        so an owner that persists the delta in between (the durable
        monitor) can leave the tracker untouched when that write fails.
        """
        live_labels = list(self.catalog.labels)
        new_labels = _check_chain(
            delta, len(self.updates), len(self._exemplars), live_labels
        )
        for label in new_labels[len(live_labels):]:
            self.catalog.code(label)

        def restore_vector(doc: Mapping) -> RoutingVector:
            return RoutingVector(
                self.networks,
                np.asarray(doc["codes"], dtype=np.int32),
                self.catalog,
                datetime.fromisoformat(doc["time"]) if doc["time"] else None,
            )

        exemplars = [restore_vector(doc) for doc in delta["exemplars"]]
        # The exemplar series' append would refuse these mid-``commit``.
        last = self._exemplars.times[-1] if self.num_modes else None
        for vector in exemplars:
            if vector.time is None or (last is not None and vector.time <= last):
                raise ValueError("delta exemplar times must be set and increase")
            last = vector.time
        previous = delta.get("previous")
        previous = restore_vector(previous) if previous else None
        last_time = delta.get("last_time")
        last_time = datetime.fromisoformat(last_time) if last_time else None
        new_updates = [OnlineUpdate.from_document(doc) for doc in delta["updates"]]
        previous_mode = delta.get("previous_mode")

        def commit() -> None:
            for vector in exemplars:
                self._exemplars.append(vector)
            self._previous = previous
            self._previous_mode = previous_mode
            self._last_time = last_time
            self.updates.extend(new_updates)
            self._num_events += sum(1 for u in new_updates if u.is_event)
            self._num_recurrences += sum(1 for u in new_updates if u.recurred)
            # The recurring-round memos cache state the delta replaced.
            self._prev_labels = None
            self._prev_self_step = None
            self._memo_match = (None, -1.0)
            self._memo_match_modes = -1

        return commit

    def mode_timeline(self) -> list[tuple[int, datetime, datetime]]:
        """Contiguous (mode_id, start, end) segments seen so far."""
        segments: list[tuple[int, datetime, datetime]] = []
        for update in self.updates:
            if segments and segments[-1][0] == update.mode_id:
                mode_id, start, _end = segments[-1]
                segments[-1] = (mode_id, start, update.time)
            else:
                segments.append((update.mode_id, update.time, update.time))
        return segments


def _check_chain(
    delta: Mapping, updates: int, exemplars: int, catalog: list
) -> list:
    """Check that ``delta`` chains from a tracker's current state.

    ``updates``/``exemplars`` are the counts it must chain from and
    ``catalog`` the labels its catalog must extend (the catalog is
    append-only). Returns the delta's catalog; raises
    :class:`ValueError` on any mismatch.
    """
    if delta.get("version") != STATE_VERSION or delta.get("kind") != "delta":
        raise ValueError("not a delta segment")
    if delta["updates_after"] != updates:
        raise ValueError(
            f"delta chains from {delta['updates_after']} updates, "
            f"tracker has {updates}"
        )
    if delta["exemplars_after"] != exemplars:
        raise ValueError(
            f"delta chains from {delta['exemplars_after']} exemplars, "
            f"tracker has {exemplars}"
        )
    new_catalog = list(delta["catalog"])
    if new_catalog[: len(catalog)] != catalog:
        raise ValueError("delta catalog does not extend the tracker's catalog")
    return new_catalog
