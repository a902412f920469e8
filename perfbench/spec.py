"""What each metric means and which end-to-end metric it should move.

``BENCHMARK.json`` is the one list of workloads and metrics, with each
metric's unit and direction. ``END_TO_END`` metrics are what a user of
Fenrir sees; every workload reports all of them from an untraced run.
``PER_LAYER`` metrics come from a separate traced run (``--trace 1``)
that times calls into one layer's public functions from the
benchmark's own code. ``MEANING`` says how each is measured and, for a
per-layer metric, which end-to-end metric it should move on which
workloads, so a change to one layer can say in advance where its
saving must appear. A per-layer metric whose layer a workload never
calls reads 0 on that workload (for example ``cleaning.s`` on
``mixed-routed``, or ``router.hop_p50_ms`` on the pipelines).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in BENCHMARK["workloads"])
PIPELINE_WORKLOADS = ("broot-daily", "churn-daily")
SERVE_WORKLOADS = ("mixed-routed",)

_BOTH_PIPELINES = "broot-daily, churn-daily"

#: name -> (how it is measured, the end-to-end metric it should move,
#: the workloads where it should move it); the last two per-layer only.
MEANING = {
    "setup_s": (
        "benchmark start to the first timed operation: import, then the "
        "median set-up: loading the base series and applying the seed, "
        "repeated before every Fenrir.run (pipeline); building the streams, "
        "then starting the server and creating the monitors, three times "
        "(serve)", "", ""),
    "rounds_per_s": (
        "routing rounds turned into modes per second: observations / "
        "median Fenrir.run wall time (pipeline); acked rounds per second, "
        "the interquartile mean over the window's one-second slices (serve)",
        "", ""),
    "op_p50_ms": (
        "median time of one operation: one Fenrir.run over at least 7 "
        "repeats (pipeline); each one-second slice's median client-observed "
        "write time, interquartile mean over the slices (serve)", "", ""),
    "cold_start_s": (
        "time to a full answer from fresh data: import plus the median of "
        "one load and its Fenrir.run (pipeline); the median of five server "
        "restarts on the data dir left by a fixed seeded warm-up, each until "
        "every monitor answers query with all its acked rounds (serve)", "", ""),
    "peak_rss_mb": (
        "peak resident memory: the benchmark process, which never holds the "
        "dataset simulator (pipeline); the sum of the server processes' "
        "VmHWM (serve)", "", ""),
    "tail.p99_ms": (
        "99th percentile (nearest rank) of op_p50_ms's operation times, from "
        "the same untraced operations: the slowest untraced Fenrir.run "
        "(pipeline); each one-second slice's p99, interquartile mean over "
        "the slices (serve; a slice holds ~100 writes, so it is about each "
        "second's slowest two). Not an end-to-end metric because its spread "
        "between runs exceeds the 0.25 bound on this kind of host", "none",
        "all"),
    "cleaning.s": ("Fenrir.clean per run", "op_p50_ms", "broot-daily"),
    "compare.s": ("core.compare.similarity_matrix per run", "op_p50_ms",
                  "churn-daily (most), broot-daily"),
    "compare.distinct_states": (
        "distinct state codes; above 2T the per-pair kernel runs", "none",
        _BOTH_PIPELINES),
    "cluster.linkage_s": ("core.cluster.hac_linkage per run", "op_p50_ms",
                          "broot-daily"),
    "cluster.cut_s": ("core.cluster.adaptive_clusters minus its linkage per run",
                      "op_p50_ms", "broot-daily"),
    "modes.s": ("core.modes.find_modes per run, linkage and cut included",
                "op_p50_ms", "broot-daily"),
    "modes.count": ("modes found; must repeat exactly", "none", _BOTH_PIPELINES),
    "detect.s": ("core.detect.detect_events per run",
                 "op_p50_ms (small; predicted unmoved)", _BOTH_PIPELINES),
    "detect.events": ("events detected; must repeat exactly", "none",
                      _BOTH_PIPELINES),
    "pipeline.residual_s": (
        "Fenrir.run minus cleaning, compare, modes and detect", "none",
        _BOTH_PIPELINES),
    "trace.overhead_pct": (
        "traced minus untraced op_p50_ms, as a share of untraced; 0 on "
        "mixed-routed, where nothing on the live path is traced (its layer "
        "figures come from stats and probes after the window)", "none",
        _BOTH_PIPELINES),
    "protocol.encode_us": ("serve.protocol.encode_frame per write frame",
                           "op_p50_ms, rounds_per_s", "mixed-routed"),
    "protocol.decode_us": ("serve.protocol.decode_payload per write frame",
                           "op_p50_ms, rounds_per_s", "mixed-routed"),
    "protocol.bytes_per_round": ("write frame bytes per round", "rounds_per_s",
                                 "mixed-routed"),
    "online.ingest_us": (
        "core.online.OnlineFenrir.ingest per novel round (the oracle feed)",
        "rounds_per_s", "mixed-routed"),
    "online.match_us": (
        "core.compare.phi_one_to_many against a monitor's end-of-run "
        "exemplar matrix", "op_p99_ms", "mixed-routed"),
    "online.modes": ("modes summed over all monitors at the end of the run",
                     "none", "mixed-routed"),
    "monitor.ingest_us": (
        "serve.monitor.DurableMonitor.ingest_batch per round on a temporary "
        "dir, same flush policy", "rounds_per_s", "mixed-routed"),
    "journal.commit_us": (
        "serve.journal.JournalWriter.append_lines per commit (one per batch)",
        "op_p50_ms", "mixed-routed"),
    "journal.bytes_per_round": (
        "bytes on disk under the monitor dirs / acked rounds", "cold_start_s",
        "mixed-routed"),
    "server.command_p50_ms": (
        "server-side p50 of ingest_batch from the stats command, "
        "count-weighted over the shards", "op_p50_ms", "mixed-routed"),
    "server.command_p99_ms": ("server-side p99 of ingest_batch, from stats",
                              "op_p99_ms", "mixed-routed"),
    "server.overload_rejections": (
        "ingests refused with overloaded, from stats", "op_p50_ms",
        "mixed-routed"),
    "wire.residual_ms": (
        "client write p50 minus server.command_p50_ms: transport, framing and "
        "the router", "op_p50_ms", "mixed-routed"),
    "router.hop_p50_ms": (
        "query p50 through the router minus query p50 sent ring-aware "
        "straight to the owning shard", "op_p50_ms, rounds_per_s",
        "mixed-routed"),
    "router.hop_p99_ms": ("the same difference at p99", "op_p99_ms",
                          "mixed-routed"),
    "replay.s": (
        "per-monitor DurableMonitor.open replay seconds summed, from stats "
        "after a restart", "cold_start_s", "mixed-routed"),
    "read.p50_ms": ("client-observed query/timeline read time, median", "none",
                    "mixed-routed"),
    "read.p99_ms": ("client-observed query/timeline read time, p99", "none",
                    "mixed-routed"),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    meaning: str
    moves: str  # per-layer only: the end-to-end metric it should move
    on: str  # per-layer only: the workloads where it should move it


def _metrics(section: str) -> tuple:
    return tuple(
        Metric(entry["name"], entry["unit"], entry["better"], *MEANING[entry["name"]])
        for entry in BENCHMARK[section]
    )


END_TO_END = _metrics("end_to_end")
PER_LAYER = _metrics("per_layer")


def describe() -> str:
    """Every metric by name and unit, for ``run.py --list``."""
    lines = ["end-to-end (--trace 0, every workload):"]
    for metric in END_TO_END:
        lines.append(
            f"  {metric.name:<16} {metric.unit:<6} {metric.better:<6} "
            f"{metric.meaning}"
        )
    lines.append("per-layer (--trace 1; 0 where the workload skips the layer):")
    for metric in PER_LAYER:
        lines.append(
            f"  {metric.name:<27} {metric.unit:<6} moves {metric.moves} "
            f"on {metric.on}: {metric.meaning}"
        )
    return "\n".join(lines)
