"""VP selection + ingest dedup: Table 4 survives at 20% of the volume.

The paper's observations recur — across vantage points (VPs in one
catchment see the same site) and across time (most rounds repeat the
previous round). ``repro.vps`` exploits both: ``select_vps`` keeps the
~20% most-informative VPs with catchment-population weight rescaling,
and the serve tier's dedup ingest mode journals recurring identical
rounds as compact reference records. This bench demonstrates the
end-to-end claim on the ground-truth study (docs/vps.md):

* **Fidelity**: the Table 4 confusion matrix computed from the kept
  20% of VPs (plan weights, err-repair interpolation — see
  ``interpolate_series(repair_errors=True)``) equals the full-volume
  matrix, and the ``OnlineFenrir`` mode timeline over the reduced
  series is segment-for-segment identical to the full one. Full mode
  asserts the exact paper tuple (TP=19 FN=0 TN=29 FP=8, 10 unmatched);
  quick mode asserts TP/FN/TN/FP and timeline equality (at 150 VPs the
  unmatched count legitimately differs — tiny third-party changes
  move fewer networks than one reduced-VP granule).
* **Volume**: the study stream replayed through ``DurableMonitor`` —
  full volume without dedup (the before) vs the plan's 20% with dedup
  (the after) — with acked rounds/s, journal bytes, and the speedup.
* **Micro-bench**: a fixed synthetic workload timing the journal
  encode path with dedup off, on, and on-at-20%-width; the
  ``ingest_rounds_per_second`` section feeds ``check_regression.py``,
  which compares it only against a baseline of the same mode.

Human-readable results go to ``benchmarks/out/vps.txt``; the
machine-readable trajectory goes to ``BENCH_vps.json`` at the repo
root (uploaded as a CI artifact).

Run directly: ``PYTHONPATH=src python benchmarks/bench_vps.py``
(``--quick`` for a 150-VP smoke study; CI runs full mode, the mode
of the committed ``BENCH_vps.json``).
"""

from __future__ import annotations

import argparse
import tempfile
import time
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from repro.core.cleaning import interpolate_series
from repro.core.detect import detect_events, group_entries, validate_events
from repro.core.online import OnlineFenrir
from repro.datasets import groundtruth
from repro.serve.monitor import DurableMonitor
from repro.vps import SelectionConfig, select_vps

from common import emit, write_bench_json

# The Table 4 protocol (bench_tab4_validation.py) and the serve tier's
# streaming thresholds, unchanged — the point is that *only the volume*
# changes.
THRESHOLD = 0.02
MERGE_GAP = 3
MODE_THRESHOLD = 0.95
INTERP_LIMIT = 3
FRACTION = 0.2
BATCH_SIZE = 256

# Full-mode paper tuple: (TP, FN, TN, FP, unmatched detections).
PAPER_CONFUSION = (19, 0, 29, 8, 10)

# Ingest floors. Observed on laptop-class hardware: the reduced+dedup
# stream ingests ~8.6x the full-volume stream and journals ~5% of the
# bytes; the floors are generous so a noisy CI runner cannot flake.
MIN_STUDY_SPEEDUP = 3.0
QUICK_MIN_STUDY_SPEEDUP = 2.0
MAX_JOURNAL_RATIO = 0.15

# Fixed synthetic micro-bench workload, the same in quick and full
# modes.
SYNTH_NETWORKS = 200
SYNTH_ROUNDS = 2000
SYNTH_SHIFT_EVERY = 97
SYNTH_SITES = ["LAX", "AMS", "FRA", "NRT", "GRU"]
T0 = datetime(2025, 1, 1)


def confusion(report) -> tuple[int, int, int, int, int]:
    return (
        report.true_positive,
        report.false_negative,
        report.true_negative,
        report.false_positive,
        report.unmatched_detections,
    )


def timeline_of(series, weights) -> tuple[list, int]:
    """Mode timeline (as comparable tuples) + mode count for a series."""
    tracker = OnlineFenrir(
        networks=series.networks,
        event_threshold=THRESHOLD,
        mode_threshold=MODE_THRESHOLD,
        weights=None if weights is None else np.asarray(weights),
    )
    tracker.ingest_many([(v.to_mapping(), v.time) for v in series])
    timeline = [
        (mode, start.isoformat(), end.isoformat())
        for mode, start, end in tracker.mode_timeline()
    ]
    return timeline, tracker.num_modes


def series_rounds(series) -> list:
    """``[(states, time)]`` for ingest, sharing one dict per recurrence run.

    Consecutive identical rounds reuse the same mapping object — the
    study is ~40% recurring, and building 14k distinct 450-key dicts
    would dominate setup time without changing what is measured.
    """
    matrix = series.matrix
    rounds = []
    previous_row = None
    previous_map = None
    for index, when in enumerate(series.times):
        row = matrix[index]
        if previous_row is not None and np.array_equal(row, previous_row):
            rounds.append((previous_map, when))
            continue
        mapping = {
            network: series.catalog.label(code)
            for network, code in zip(series.networks, row)
        }
        rounds.append((mapping, when))
        previous_row = row
        previous_map = mapping
    return rounds


def stream_monitor(rounds, networks, weights, dedup: bool) -> dict:
    """Ingest ``rounds`` into a fresh DurableMonitor; timing + journal size."""
    directory = Path(tempfile.mkdtemp(prefix="bench_vps_"))
    monitor = DurableMonitor.create(
        directory,
        "bench",
        networks=list(networks),
        event_threshold=THRESHOLD,
        mode_threshold=MODE_THRESHOLD,
        weights=None if weights is None else list(weights),
        dedup=dedup,
    )
    started = time.perf_counter()
    for start in range(0, len(rounds), BATCH_SIZE):
        result = monitor.ingest_batch(rounds[start : start + BATCH_SIZE])
        assert result.error_index is None, result
    elapsed = time.perf_counter() - started
    journal_bytes = (directory / "bench" / "journal.jsonl").stat().st_size
    stats = monitor.dedup_stats()
    monitor.close()
    return {
        "rounds": len(rounds),
        "networks": len(networks),
        "dedup": dedup,
        "throughput": round(len(rounds) / elapsed, 1),
        "journal_bytes": journal_bytes,
        "deduped_records": stats["deduped_records"],
        "bytes_saved": stats["bytes_saved"],
    }


def synth_rounds(num_networks: int) -> list:
    """The fixed micro-bench stream: stable with periodic shifts."""
    networks = [f"n{i}" for i in range(num_networks)]
    rounds = []
    previous_epoch = -1
    states: dict = {}
    for index in range(SYNTH_ROUNDS):
        epoch = index // SYNTH_SHIFT_EVERY
        if epoch != previous_epoch:
            states = {
                network: SYNTH_SITES[(epoch + i % 7) % len(SYNTH_SITES)]
                for i, network in enumerate(networks)
            }
            previous_epoch = epoch
        rounds.append((states, T0 + timedelta(seconds=index)))
    return rounds


def run_micro_bench() -> dict:
    """Journal-encode throughput: dedup off/on, and on at 20% width."""
    full = synth_rounds(SYNTH_NETWORKS)
    reduced = synth_rounds(int(SYNTH_NETWORKS * FRACTION))
    networks = [f"n{i}" for i in range(SYNTH_NETWORKS)]
    narrow = [f"n{i}" for i in range(int(SYNTH_NETWORKS * FRACTION))]
    return {
        "full": stream_monitor(full, networks, None, dedup=False),
        "dedup": stream_monitor(full, networks, None, dedup=True),
        "dedup_reduced": stream_monitor(reduced, narrow, None, dedup=True),
    }


def run(quick: bool = False) -> dict:
    generate_started = time.perf_counter()
    if quick:
        # A 150-VP/30-day study with the same structure: ~1.5 s to
        # generate vs ~60 s for the paper-scale one.
        study = groundtruth.generate(
            num_vps=150,
            days=30,
            num_drains=6,
            num_te=1,
            num_internal=10,
            num_coinciding=2,
            num_standalone=3,
            extra_log_entries=10,
        )
    else:
        study = groundtruth.generate()
    generate_seconds = time.perf_counter() - generate_started

    select_started = time.perf_counter()
    plan = select_vps(study.series, SelectionConfig(fraction=FRACTION))
    select_seconds = time.perf_counter() - select_started
    reduced, weights = plan.apply(study.series)
    assert plan.volume_fraction <= FRACTION + 1e-9

    # -- Table 4 at both volumes ------------------------------------------
    groups = group_entries(study.log)
    full_report = validate_events(
        detect_events(study.series, threshold=THRESHOLD, merge_gap=MERGE_GAP),
        groups,
    )
    repaired = interpolate_series(
        reduced, limit=INTERP_LIMIT, repair_errors=True
    )
    reduced_report = validate_events(
        detect_events(
            repaired, weights=weights, threshold=THRESHOLD, merge_gap=MERGE_GAP
        ),
        groups,
    )
    full_confusion = confusion(full_report)
    reduced_confusion = confusion(reduced_report)

    # -- mode timelines at both volumes -----------------------------------
    full_repaired = interpolate_series(
        study.series, limit=INTERP_LIMIT, repair_errors=True
    )
    full_timeline, full_modes = timeline_of(full_repaired, None)
    reduced_timeline, reduced_modes = timeline_of(repaired, weights)
    timeline_equal = full_timeline == reduced_timeline

    # -- study-stream ingest: full/no-dedup vs reduced/dedup ---------------
    full_rounds = series_rounds(study.series)
    reduced_rounds = series_rounds(reduced)
    ingest_full = stream_monitor(
        full_rounds, study.series.networks, None, dedup=False
    )
    ingest_reduced = stream_monitor(
        reduced_rounds, reduced.networks, weights, dedup=True
    )
    study_speedup = ingest_reduced["throughput"] / ingest_full["throughput"]
    journal_ratio = (
        ingest_reduced["journal_bytes"] / ingest_full["journal_bytes"]
    )

    micro = run_micro_bench()

    lines = [
        f"mode={'quick' if quick else 'full'} "
        f"vps={len(study.series.networks)} rounds={len(study.series)} "
        f"(generate {generate_seconds:.1f} s)",
        "",
        f"plan: kept {plan.budget}/{plan.total_networks} VPs "
        f"({plan.volume_fraction:.0%} of probe volume), "
        f"selected in {select_seconds:.2f} s",
        "",
        "Table 4 confusion (TP, FN, TN, FP, unmatched):",
        f"  full volume    {full_confusion}  "
        f"recall={full_report.recall:.2f} "
        f"precision={full_report.precision:.2f} "
        f"accuracy={full_report.accuracy:.2f}",
        f"  kept {plan.volume_fraction:.0%}       {reduced_confusion}  "
        f"recall={reduced_report.recall:.2f} "
        f"precision={reduced_report.precision:.2f} "
        f"accuracy={reduced_report.accuracy:.2f}",
        "",
        "mode timeline (OnlineFenrir, err-repaired series):",
        f"  full volume    {len(full_timeline)} segments, "
        f"{full_modes} modes",
        f"  kept {plan.volume_fraction:.0%}       {len(reduced_timeline)} segments, "
        f"{reduced_modes} modes  "
        f"({'identical' if timeline_equal else 'DIVERGED'})",
        "",
        "study-stream ingest (DurableMonitor, batch "
        f"{BATCH_SIZE}, fsync off):",
        f"  full, no dedup   {ingest_full['throughput']:10.0f} rounds/s  "
        f"journal {ingest_full['journal_bytes']:>11,} B",
        f"  kept, dedup      {ingest_reduced['throughput']:10.0f} rounds/s  "
        f"journal {ingest_reduced['journal_bytes']:>11,} B  "
        f"({ingest_reduced['deduped_records']} refs, "
        f"{ingest_reduced['bytes_saved']:,} B saved)",
        f"  speedup {study_speedup:.1f}x, journal ratio {journal_ratio:.3f}",
        "",
        f"micro-bench (fixed {SYNTH_NETWORKS}-network synthetic, "
        f"{SYNTH_ROUNDS} rounds):",
    ]
    for label, entry in micro.items():
        lines.append(
            f"  {label:>13}: {entry['throughput']:10.0f} rounds/s  "
            f"journal {entry['journal_bytes']:>9,} B"
        )
    emit("vps", "\n".join(lines))

    metrics = {
        "mode": "quick" if quick else "full",
        "vps": len(study.series.networks),
        "rounds": len(study.series),
        "kept": plan.budget,
        "volume_fraction": round(plan.volume_fraction, 4),
        "select_seconds": round(select_seconds, 3),
        "table4": {
            "full": full_confusion,
            "reduced": reduced_confusion,
            "core_equal": full_confusion[:4] == reduced_confusion[:4],
            "equal": full_confusion == reduced_confusion,
        },
        "timeline": {
            "segments_full": len(full_timeline),
            "segments_reduced": len(reduced_timeline),
            "modes_full": full_modes,
            "modes_reduced": reduced_modes,
            "equal": timeline_equal,
        },
        "study_ingest": {
            "full": ingest_full,
            "reduced_dedup": ingest_reduced,
            "speedup": round(study_speedup, 2),
            "journal_ratio": round(journal_ratio, 4),
        },
        "micro": micro,
        # The check_regression section.
        "ingest_rounds_per_second": {
            label: entry["throughput"] for label, entry in micro.items()
        },
    }
    write_bench_json("vps", metrics)

    # -- acceptance --------------------------------------------------------
    assert full_confusion[:4] == reduced_confusion[:4], (
        f"reduced-volume confusion {reduced_confusion} diverges from "
        f"full-volume {full_confusion} on TP/FN/TN/FP"
    )
    assert timeline_equal, (
        f"reduced-volume mode timeline ({len(reduced_timeline)} segments) "
        f"diverges from full-volume ({len(full_timeline)} segments)"
    )
    assert journal_ratio <= MAX_JOURNAL_RATIO, (
        f"reduced+dedup journal is {journal_ratio:.1%} of full volume; "
        f"budget {MAX_JOURNAL_RATIO:.0%}"
    )
    assert ingest_reduced["deduped_records"] > 0, "dedup never fired"
    if quick:
        assert study_speedup >= QUICK_MIN_STUDY_SPEEDUP, (
            f"reduced+dedup ingest speedup {study_speedup:.1f}x below the "
            f"{QUICK_MIN_STUDY_SPEEDUP:.1f}x quick floor"
        )
    else:
        # Paper-scale exactness: the full tuple including unmatched
        # detections, for both volumes, plus the paper's headline rates.
        assert full_confusion == PAPER_CONFUSION
        assert reduced_confusion == PAPER_CONFUSION
        assert full_report.recall == 1.0 and reduced_report.recall == 1.0
        assert abs(reduced_report.precision - 0.70) < 0.03
        assert abs(reduced_report.accuracy - 0.86) < 0.03
        assert study_speedup >= MIN_STUDY_SPEEDUP, (
            f"reduced+dedup ingest speedup {study_speedup:.1f}x below the "
            f"{MIN_STUDY_SPEEDUP:.1f}x floor"
        )
    return metrics


def test_vps_fidelity() -> None:
    run(quick=False)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke variant: 150-VP study, core-equality asserts only",
    )
    arguments = parser.parse_args()
    run(quick=arguments.quick)
