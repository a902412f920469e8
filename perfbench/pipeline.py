"""Pipeline workloads: ``Fenrir().run`` over one whole daily series.

``broot-daily`` is the paper's B-Root study (Figure 3) at daily cadence;
``churn-daily`` is a Google-shaped front-end churn series built here.
The seed permutes the network order (B-Root) or draws the failed
queries (churn), so every seed gives different inputs of the same shape
and cost. Runs repeat until ``seconds`` have passed and at least
``MIN_REPEATS`` untraced runs are done; every repeat must give the same
mode labels and events.

The traced run times the pipeline's stages by wrapping, for the run's
duration, the functions ``Fenrir.run`` calls through its own module
globals; nothing in ``src/`` changes.

Run as a script, ``python3 perfbench/pipeline.py <workload> <path>``
writes the workload's base series to ``path``; ``run`` does so in a
child process, so the simulator's memory never counts in
``peak_rss_mb``.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import contextmanager
from datetime import datetime, timedelta
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, Optional

import numpy as np

from repro.core import Fenrir, VectorSeries
from repro.core import cluster as cluster_module
from repro.core import modes as modes_module
from repro.core import pipeline as pipeline_module
from repro.core.vector import UNKNOWN_CODE, RoutingVector, StateCatalog

from measure import Outcome, percentile, source_digest, summary

#: The B-Root scenario's own default seed: the study whose Figure 3
#: shape the paper reports. The benchmark seed only reorders networks,
#: which leaves every Φ value, and so the cost, unchanged.
BROOT_STUDY_SEED = 20190901
CHURN_DAYS = 365
CHURN_PREFIXES = 2000
CHURN_FRONTENDS = 3000
CHURN_EPOCH = datetime(2024, 2, 17)
CHURN_QUERY_FAILURE = 0.01
MODE_V_TIME = datetime(2024, 2, 1)  # inside the paper's mode (v)
CACHE = Path(__file__).resolve().parent / "cache"
#: Untraced Fenrir.run repeats at least, however long they take, so the
#: median is not one of two or three; and traced repeats in ``--trace 1``.
MIN_REPEATS = 7
MIN_TRACED = 3


def _series(matrix: np.ndarray, networks, catalog: StateCatalog, times) -> VectorSeries:
    networks = tuple(networks)
    return VectorSeries.from_vectors(
        [RoutingVector(networks, row, catalog, when) for row, when in zip(matrix, times)]
    )


def _broot_study() -> VectorSeries:
    from repro.datasets import broot

    return broot.generate(seed=BROOT_STUDY_SEED, cadence=timedelta(days=1)).series


def _churn_fleet() -> VectorSeries:
    """~1 year daily over 2k /24s and 3k front ends (datasets/google.py's
    2024 fleet): weekly reshuffle, 10% daily flux, 30% pinned."""
    from repro.net.addr import IPv4Prefix
    from repro.webmap.frontends import ChurnFleet

    fleet = ChurnFleet(
        num_frontends=CHURN_FRONTENDS,
        epoch=CHURN_EPOCH,
        era="bench",
        stable_share=0.30,
        daily_change=0.10,
    )
    base = IPv4Prefix.from_string("40.0.0.0/8")
    prefixes = [
        IPv4Prefix(base.network + (index << 8), 24) for index in range(CHURN_PREFIXES)
    ]
    series = VectorSeries([str(prefix) for prefix in prefixes], StateCatalog())
    for day in range(CHURN_DAYS):
        when = CHURN_EPOCH + timedelta(days=day)
        series.append_mapping(
            {str(prefix): fleet.select(prefix, when) for prefix in prefixes}, when
        )
    return series


GENERATORS: Dict[str, Callable[[], VectorSeries]] = {
    "broot-daily": _broot_study,
    "churn-daily": _churn_fleet,
}


def base_path(workload: str, root: Path) -> Path:
    """Where the workload's seed-independent base series is cached.

    Simulating the study is not part of Fenrir's work, so it happens on
    the first run in a checkout; later runs load it as a user would load
    a recorded series. The key is a digest of ``src/repro``.
    """
    return CACHE / f"{workload}-{source_digest(root)[:16]}.npz"


def _write_base(workload: str, path: Path) -> None:
    series = GENERATORS[workload]()
    CACHE.mkdir(exist_ok=True)
    partial = path.with_name(f"{path.name}.{os.getpid()}.partial")
    with partial.open("wb") as handle:
        np.savez(
            handle,
            matrix=series.matrix,
            networks=np.array(series.networks),
            sites=np.array(series.catalog.site_labels),
            times=np.array([when.isoformat() for when in series.times]),
        )
    os.replace(partial, path)


def _load_base(path: Path) -> VectorSeries:
    with np.load(path) as data:
        return _series(
            data["matrix"],
            [str(network) for network in data["networks"]],
            StateCatalog(str(site) for site in data["sites"]),
            [datetime.fromisoformat(str(when)) for when in data["times"]],
        )


def build_broot(seed: int, path: Path) -> VectorSeries:
    base = _load_base(path)
    order = list(range(len(base.networks)))
    random.Random(seed).shuffle(order)
    return _series(
        base.matrix[:, order], [base.networks[i] for i in order], base.catalog, base.times
    )


def build_churn(seed: int, path: Path) -> VectorSeries:
    """The churn fleet with 1% of queries unanswered, drawn from ``seed``."""
    base = _load_base(path)
    unanswered = np.random.default_rng(seed).random(base.matrix.shape) < CHURN_QUERY_FAILURE
    matrix = np.where(unanswered, UNKNOWN_CODE, base.matrix)
    return _series(matrix, base.networks, base.catalog, base.times)


class LayerClock:
    """Busy time per layer, accumulated by wrappers around its functions."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)

    def wrap(self, name: str, function: Callable) -> Callable:
        def timed(*args, **kwargs):
            started = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.seconds[name] += perf_counter() - started

        return timed

    def reset(self) -> None:
        self.seconds.clear()


def _fingerprint(report) -> tuple:
    return (
        report.modes.labels.tobytes(),
        tuple((event.start_index, event.end_index) for event in report.events),
    )


def _check_broot(report, series: VectorSeries) -> Optional[str]:
    """Figure 3's shape: 4-8 modes, and mode (v) recalls mode (i)."""
    modes = report.modes
    if not 4 <= len(modes) <= 8:
        return f"broot-daily found {len(modes)} modes, expected 4-8"
    v_mode = modes.mode_at(series.index_at(MODE_V_TIME)).mode_id
    prior = modes.closest_prior_mode(v_mode)
    if prior is None or prior[0] != 0:
        return f"mode (v)'s closest prior mode is {prior}, expected mode (i) = 0"
    return None


def _check_churn(report, series: VectorSeries) -> Optional[str]:
    distinct = len(np.unique(series.matrix))
    if distinct <= 2 * len(series):
        return f"churn-daily has {distinct} states, not above 2T: wrong kernel path"
    return None


@contextmanager
def _traced(clock: LayerClock) -> Iterator[None]:
    """Wrap each stage function where ``Fenrir.run`` looks it up."""
    patches = [
        (pipeline_module.Fenrir, "clean", "cleaning"),
        (pipeline_module, "similarity_matrix", "compare"),
        (pipeline_module, "find_modes", "modes"),
        (modes_module, "adaptive_clusters", "adaptive"),
        (cluster_module, "hac_linkage", "linkage"),
        (pipeline_module, "detect_events", "detect"),
    ]
    originals = [getattr(owner, attribute) for owner, attribute, _ in patches]
    try:
        for (owner, attribute, name), original in zip(patches, originals):
            setattr(owner, attribute, clock.wrap(name, original))
        yield
    finally:
        for (owner, attribute, _), original in zip(patches, originals):
            setattr(owner, attribute, original)


def _stage_times(clock: LayerClock, run_s: float) -> dict:
    seconds = clock.seconds
    stages = seconds["cleaning"] + seconds["compare"] + seconds["modes"] + seconds["detect"]
    return {
        "cleaning.s": seconds["cleaning"],
        "compare.s": seconds["compare"],
        "cluster.linkage_s": seconds["linkage"],
        "cluster.cut_s": seconds["adaptive"] - seconds["linkage"],
        "modes.s": seconds["modes"],
        "detect.s": seconds["detect"],
        "pipeline.residual_s": run_s - stages,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, started: float,
        root: Path) -> Outcome:
    build: Callable[[int, Path], VectorSeries]
    build, check = {
        "broot-daily": (build_broot, _check_broot),
        "churn-daily": (build_churn, _check_churn),
    }[workload]
    imports_s = perf_counter() - started
    outcome = Outcome()
    path = base_path(workload, root)
    if not path.exists():
        begun = perf_counter()
        subprocess.run(
            [sys.executable, __file__, workload, str(path)], check=True,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
        )
        outcome.notes["base_generation_s"] = perf_counter() - begun
    # An untimed warm-up load and run: the process's first Fenrir.run
    # pays for page faults and allocator growth that later repeats do
    # not, and would be every run's slowest. Its report is the one every
    # repeat must reproduce.
    series = build(seed, path)
    outcome.notes["sizes"] = {
        "rounds": len(series),
        "networks": len(series.networks),
        "states": len(series.catalog),
    }
    fenrir = Fenrir()
    begun = perf_counter()
    report = fenrir.run(series)
    outcome.notes["warm_up_run_s"] = perf_counter() - begun
    outcome.attempted += 1
    problem = check(report, series)
    if problem:
        outcome.fail(problem)
    outcome.notes["modes"] = len(report.modes)
    outcome.notes["events"] = len(report.events)
    expected = _fingerprint(report)
    del report
    loads: list[float] = []
    answers: list[float] = []  # load plus run: a fresh series to its report
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    clock = LayerClock()
    # Every repeat loads the series afresh, then runs Fenrir on it. The
    # traced run alternates untraced and traced repeats, so the tracing
    # overhead is measured within one process under one load.
    window_start = perf_counter()
    while True:
        elapsed = perf_counter() - window_start
        if elapsed >= seconds and (
            len(traced) >= MIN_TRACED if trace else len(untraced) >= MIN_REPEATS
        ):
            break
        tracing = trace and len(untraced) > len(traced)
        clock.reset()
        outcome.attempted += 1
        begun = perf_counter()
        series = build(seed, path)
        loads.append(perf_counter() - begun)
        if tracing:
            with _traced(clock):
                begun = perf_counter()
                report = fenrir.run(series)
                elapsed = perf_counter() - begun
            traced.append(elapsed)
            layers.append(_stage_times(clock, elapsed))
        else:
            begun = perf_counter()
            report = fenrir.run(series)
            elapsed = perf_counter() - begun
            untraced.append(elapsed)
            answers.append(loads[-1] + elapsed)
        if _fingerprint(report) != expected:
            outcome.fail("mode labels or events differ between repeats")
        # Free this report before the next repeat, so the peak memory
        # is one run's, however many repeats fit the window.
        del report
    run_s = summary(untraced)
    outcome.samples["run_s"] = run_s
    outcome.samples["setup_s"] = summary([imports_s + load for load in loads])
    outcome.samples["cold_start_s"] = summary([imports_s + answer for answer in answers])
    if not trace:
        outcome.metrics = {
            "setup_s": outcome.samples["setup_s"]["median"],
            "rounds_per_s": len(series) / run_s["median"],
            "op_p50_ms": run_s["median"] * 1000,
            "op_p99_ms": percentile(untraced, 0.99) * 1000,
            "cold_start_s": outcome.samples["cold_start_s"]["median"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return outcome
    outcome.samples["traced_run_s"] = summary(traced)
    metrics = {
        name: statistics.median(layer[name] for layer in layers)
        for name in layers[0]
    }
    metrics["compare.distinct_states"] = len(np.unique(series.matrix))
    metrics["modes.count"] = outcome.notes.get("modes", 0)
    metrics["detect.events"] = outcome.notes.get("events", 0)
    metrics["trace.overhead_pct"] = (
        (statistics.median(traced) - run_s["median"]) / run_s["median"] * 100
    )
    outcome.notes["stage_share_of_run"] = (
        1 - metrics["pipeline.residual_s"] / statistics.median(traced)
    )
    outcome.metrics = metrics
    return outcome


if __name__ == "__main__":
    _write_base(sys.argv[1], Path(sys.argv[2]))
