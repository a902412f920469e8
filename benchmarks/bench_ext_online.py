"""Extension: the streaming tracker vs the batch pipeline.

Replays the B-Root series through :class:`OnlineFenrir` and compares
its incremental mode assignments against the batch HAC mode labels —
the question an operator cares about before trusting the live view:
does the streaming approximation agree with the full analysis?
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core import Fenrir, OnlineFenrir
from repro.core.vector import RoutingVector
from repro.datasets import broot

from common import REPO_ROOT, emit

sys.path.insert(0, str(REPO_ROOT / "tests"))
from oracles import match_mode_scalar  # noqa: E402  (the tests' scalar oracle)


@pytest.fixture(scope="module")
def study():
    return broot.generate(num_blocks=1200)


def _pair_agreement(a: np.ndarray, b: np.ndarray) -> float:
    """Fraction of observation pairs the two labelings co-classify alike.

    Label values are arbitrary, so agreement is measured on pairs:
    both labelings put (i, j) in the same cluster, or both split them
    (the Rand index).
    """
    count = len(a)
    same_a = a[:, None] == a[None, :]
    same_b = b[:, None] == b[None, :]
    mask = ~np.eye(count, dtype=bool)
    return float((same_a == same_b)[mask].mean())


def test_ext_online_vs_batch(study, benchmark):
    report = Fenrir().run(study.series)
    cleaned = report.cleaned

    # Verfploeter's ~45% unknowns cap pessimistic Φ near 0.6, which
    # would swamp absolute thresholds; the stream view therefore runs
    # under the EXCLUDE policy (the paper's stated ongoing work), where
    # stable rounds sit near Φ = 1.
    from repro.core import UnknownPolicy

    tracker = OnlineFenrir(
        networks=cleaned.networks,
        event_threshold=0.10,
        mode_threshold=0.90,
        policy=UnknownPolicy.EXCLUDE,
    )
    for vector in cleaned:
        tracker.ingest(vector.to_mapping(), vector.time)

    online_labels = np.array([update.mode_id for update in tracker.updates])
    batch_labels = np.asarray(report.modes.labels)
    agreement = _pair_agreement(online_labels, batch_labels)

    online_recurrences = len(tracker.recurrences())
    batch_recurring = len(report.modes.recurring_modes())

    lines = [
        "Extension: streaming tracker vs batch pipeline (B-Root series)",
        "",
        f"batch modes: {len(report.modes)}   online modes: {tracker.num_modes}",
        f"pairwise label agreement (Rand index): {agreement:.2f}",
        f"online recurrences observed: {online_recurrences} "
        f"(batch recurring modes: {batch_recurring})",
        f"online events: {len(tracker.events())}  batch events: {len(report.events)}",
    ]
    emit("ext_online", "\n".join(lines))

    assert agreement > 0.8
    assert abs(tracker.num_modes - len(report.modes)) <= 3

    def replay():
        replay_tracker = OnlineFenrir(
            networks=cleaned.networks,
            event_threshold=0.10,
            mode_threshold=0.90,
            policy=UnknownPolicy.EXCLUDE,
        )
        for vector in cleaned:
            replay_tracker.ingest(vector.to_mapping(), vector.time)
        return replay_tracker

    benchmark.pedantic(replay, rounds=2, iterations=1)


def test_ext_match_mode_oracle_on_broot(study):
    """Vectorized ``_match_mode`` ≡ the scalar loop on the real replay.

    The property tests cover random catalogs; this drives the same
    oracle comparison through every round of the B-Root series — real
    unknown rates, real recurrence structure — and reports the per-path
    timing alongside.
    """
    import time

    from repro.core import UnknownPolicy

    report = Fenrir().run(study.series)
    cleaned = report.cleaned
    tracker = OnlineFenrir(
        networks=cleaned.networks,
        event_threshold=0.10,
        mode_threshold=0.90,
        policy=UnknownPolicy.EXCLUDE,
    )
    t_vectorized = 0.0
    t_scalar = 0.0
    for vector in cleaned:
        mapping = vector.to_mapping()
        probe = tracker.match(mapping)  # the public, non-mutating form
        incoming = RoutingVector.from_mapping(
            mapping, catalog=tracker.catalog, networks=tracker.networks
        )
        started = time.perf_counter()
        vectorized = tracker._match_mode(incoming)
        t_vectorized += time.perf_counter() - started
        started = time.perf_counter()
        scalar = match_mode_scalar(tracker, incoming)
        t_scalar += time.perf_counter() - started
        assert vectorized == probe == scalar
        tracker.ingest(mapping, vector.time)

    rounds = len(tracker.updates)
    emit(
        "ext_online_match",
        "\n".join(
            [
                "Extension: match-mode oracle on the B-Root replay",
                "",
                f"rounds: {rounds}   modes: {tracker.num_modes}",
                f"vectorized: {t_vectorized / rounds * 1e6:8.1f} us/match",
                f"scalar:     {t_scalar / rounds * 1e6:8.1f} us/match",
            ]
        ),
    )
