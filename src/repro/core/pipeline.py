"""The end-to-end Fenrir pipeline (Table 1).

``Fenrir.run(series)`` chains the paper's steps — cleaning, weighting,
pairwise comparison, clustering into modes, event detection — and
returns a :class:`FenrirReport` holding every intermediate product an
operator would inspect (the similarity matrix for heatmaps, the mode
set, detected events, aggregates for stack plots).

>>> from repro.core import Fenrir, VectorSeries
>>> fenrir = Fenrir()
>>> report = fenrir.run(series)              # doctest: +SKIP
>>> report.modes.timeline()                  # doctest: +SKIP
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional, Sequence

import numpy as np

from ..obs import get_registry, span
from .cleaning import fold_micro_catchments, interpolate_series, map_unmapped_states
from .cluster import LinkageMethod
from .compare import UnknownPolicy, similarity_matrix
from .detect import DetectedEvent, detect_events
from .modes import ModeSet, find_modes
from .series import VectorSeries
from .viz import render_heatmap, render_mode_timeline, render_stackplot

__all__ = ["FenrirConfig", "FenrirReport", "Fenrir"]


@dataclass(frozen=True)
class FenrirConfig:
    """Tunable knobs of the pipeline, with the paper's defaults."""

    # Cleaning (§2.4)
    interpolation_limit: int = 3
    known_sites: Optional[frozenset[str]] = None  # None = keep all states
    micro_catchment_min_networks: int = 0
    micro_catchment_min_fraction: float = 0.0
    # Comparison (§2.6.1)
    unknown_policy: UnknownPolicy = UnknownPolicy.PESSIMISTIC
    cache_dir: Optional[str] = None  # None = no on-disk Φ cache (docs/performance.md)
    # Clustering (§2.6.2)
    linkage: LinkageMethod = "single"  # the paper cites SLINK (Sibson 1973)
    max_clusters: int = 15
    min_cluster_size: int = 2
    # Detection (§3)
    detection_threshold: Optional[float] = None  # None = adaptive
    detection_sensitivity: float = 8.0


@dataclass
class FenrirReport:
    """Everything Fenrir derives from one series."""

    raw: VectorSeries
    cleaned: VectorSeries
    weights: Optional[np.ndarray]
    similarity: np.ndarray
    modes: ModeSet
    events: list[DetectedEvent]
    folded_micro_catchments: list[str] = field(default_factory=list)

    def heatmap(self, max_size: int = 60) -> str:
        labels = [f"{t:%Y-%m-%d}" for t in self.cleaned.times]
        return render_heatmap(self.similarity, labels, max_size)

    def stackplot(self, width: int = 50) -> str:
        aggregates = self.cleaned.aggregate_over_time(self.weights)
        labels = [f"{t:%Y-%m-%d}" for t in self.cleaned.times]
        return render_stackplot(aggregates, width, labels)

    def mode_timeline(self) -> str:
        return render_mode_timeline(self.modes)

    def export_svg(self, directory) -> dict[str, str]:
        """Write heatmap.svg and stackplot.svg into ``directory``."""
        from pathlib import Path

        from ..viz_svg import heatmap_svg, stackplot_svg

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = {}
        heatmap = heatmap_svg(self.similarity, self.cleaned.times)
        heatmap_path = directory / "heatmap.svg"
        heatmap.save(heatmap_path)
        written["heatmap"] = str(heatmap_path)
        stack = stackplot_svg(
            self.cleaned.aggregate_over_time(self.weights), self.cleaned.times
        )
        stack_path = directory / "stackplot.svg"
        stack.save(stack_path)
        written["stackplot"] = str(stack_path)
        return written

    def summary(self) -> str:
        lines = [
            f"observations: {len(self.cleaned)}  networks: {len(self.cleaned.networks)}",
            f"modes: {len(self.modes)} (threshold {self.modes.threshold:.2f})",
            f"events detected: {len(self.events)}",
        ]
        if self.folded_micro_catchments:
            lines.append(
                "micro-catchments folded: " + ", ".join(self.folded_micro_catchments)
            )
        recurring = self.modes.recurring_modes()
        if recurring:
            ids = ", ".join(str(mode.mode_id) for mode in recurring)
            lines.append(f"recurring modes: {ids}")
        return "\n".join(lines)


class Fenrir:
    """The Fenrir analysis engine.

    ``weight_fn`` maps the series' network list to a weight vector
    (§2.5); by default all observations weigh 1.
    """

    def __init__(
        self,
        config: FenrirConfig = FenrirConfig(),
        weight_fn: Optional[Callable[[Sequence[str]], np.ndarray]] = None,
    ) -> None:
        self.config = config
        self.weight_fn = weight_fn

    @contextmanager
    def _stage(self, name: str, observations: int):
        """One pipeline stage: a trace span plus a stage-time histogram."""
        histogram = get_registry().histogram(
            "pipeline_stage_seconds",
            labels={"stage": name},
            help="Wall time of each Fenrir pipeline stage",
        )
        started = perf_counter()
        try:
            with span(name, observations=observations):
                yield
        finally:
            histogram.observe(perf_counter() - started)

    def clean(self, series: VectorSeries) -> tuple[VectorSeries, list[str]]:
        """§2.4: incorrect-data mapping, micro-catchment fold, gap fill."""
        cleaned = series
        if self.config.known_sites is not None:
            cleaned = map_unmapped_states(cleaned, set(self.config.known_sites))
        folded: list[str] = []
        if (
            self.config.micro_catchment_min_networks
            or self.config.micro_catchment_min_fraction
        ):
            cleaned, folded = fold_micro_catchments(
                cleaned,
                min_networks=self.config.micro_catchment_min_networks,
                min_fraction=self.config.micro_catchment_min_fraction,
            )
        if self.config.interpolation_limit:
            cleaned = interpolate_series(cleaned, self.config.interpolation_limit)
        return cleaned, folded

    def _similarity(
        self, cleaned: VectorSeries, weights: Optional[np.ndarray]
    ) -> np.ndarray:
        """All-pairs Φ, through the on-disk cache when ``cache_dir`` is set."""
        policy = self.config.unknown_policy
        if self.config.cache_dir is None:
            return similarity_matrix(cleaned, weights, policy)
        # Imported here: its hashlib loads OpenSSL, ~4 MB of resident
        # memory that a run without a cache never needs.
        from .phicache import MatrixCache, matrix_cache_key

        cache = MatrixCache(self.config.cache_dir)
        key = matrix_cache_key(cleaned.matrix, weights, policy)
        similarity = cache.load(key, len(cleaned))
        if similarity is None:
            similarity = similarity_matrix(cleaned, weights, policy)
            cache.store(key, similarity)
        return similarity

    def run(self, series: VectorSeries) -> FenrirReport:
        """Run the full pipeline and return the report.

        Each of the five stages — clean → weight → compare → cluster →
        transition — runs inside a :func:`repro.obs.span` (a no-op
        unless tracing is enabled) and reports its wall time to the
        process registry's ``pipeline_stage_seconds{stage=...}``
        histogram, so a ``--trace`` dump and the Prometheus exposition
        tell the same story about where a run spent its time.
        """
        if len(series) < 2:
            raise ValueError("Fenrir needs at least two observations")
        with span("pipeline", observations=len(series)):
            with self._stage("clean", len(series)):
                cleaned, folded = self.clean(series)
            with self._stage("weight", len(cleaned)):
                weights = (
                    self.weight_fn(cleaned.networks) if self.weight_fn else None
                )
            with self._stage("compare", len(cleaned)):
                similarity = self._similarity(cleaned, weights)
            with self._stage("cluster", len(cleaned)):
                modes = find_modes(
                    cleaned,
                    weights=weights,
                    policy=self.config.unknown_policy,
                    method=self.config.linkage,
                    max_clusters=self.config.max_clusters,
                    min_cluster_size=self.config.min_cluster_size,
                    similarity=similarity,
                )
            with self._stage("transition", len(cleaned)):
                events = detect_events(
                    cleaned,
                    weights=weights,
                    policy=self.config.unknown_policy,
                    threshold=self.config.detection_threshold,
                    sensitivity=self.config.detection_sensitivity,
                )
        get_registry().counter(
            "pipeline_runs_total", help="Completed Fenrir.run invocations"
        ).inc()
        return FenrirReport(
            raw=series,
            cleaned=cleaned,
            weights=weights,
            similarity=similarity,
            modes=modes,
            events=events,
            folded_micro_catchments=folded,
        )
