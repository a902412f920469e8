"""The parallel similarity engine: tiles × processes × cache.

:class:`SimilarityEngine` is a drop-in replacement for
:func:`repro.core.compare.similarity_matrix` that

1. checks the on-disk :class:`~repro.parallel.cache.MatrixCache`
   (content-hash keyed on codes, weights and policy) and returns
   immediately on a hit;
2. with ``n_jobs == 1`` runs the serial reference implementation —
   the oracle every parallel result is tested against;
3. with ``n_jobs > 1`` merges networks with identical histories as
   the serial path does, factors the merged series once, publishes the
   factorization to shared memory, fans the upper-triangular tile plan
   out over a ``ProcessPoolExecutor`` (workers re-map the shared pages
   in their initializer and never unpickle the series), then merges
   tiles and mirrors the lower triangle.

Both paths produce matrices equal to within 1e-12 of each other; the
equivalence grid in ``tests/test_parallel_equivalence.py`` enforces it.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter as _perf_counter
from typing import Optional, Union

import numpy as np

from ..core.compare import (
    UnknownPolicy,
    _check_weights,
    _merge_identical_columns,
    similarity_matrix,
)
from ..core.series import VectorSeries
from ..obs import get_registry, span
from .cache import MatrixCache, matrix_cache_key
from .sharedmem import AttachedBundle, BundleSpec, SharedBundle, attach
from .tiling import (
    DEFAULT_TILE_SIZE,
    Tile,
    denominator_tile,
    factor_series,
    factored_from_arrays,
    match_tile,
    plan_tiles,
    reflect_lower,
)

__all__ = ["EngineStats", "SimilarityEngine", "parallel_similarity_matrix"]


def resolve_jobs(n_jobs: int) -> int:
    """Normalize an ``n_jobs`` request; 0 or negative means "all cores"."""
    if n_jobs <= 0:
        return os.cpu_count() or 1
    return n_jobs


@dataclass
class EngineStats:
    """Observable counters for one engine instance."""

    serial_runs: int = 0
    parallel_runs: int = 0
    tiles_computed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


# -- worker side --------------------------------------------------------------
#
# Pool initializer state. The parent factors the series once and
# publishes the factorization's arrays; each worker re-wraps the shared
# pages in O(1). Tile tasks then only carry four ints.

_worker_bundle: Optional[AttachedBundle] = None
_worker_factored = None


def _worker_init(spec: BundleSpec, num_features: int, with_denominators: bool) -> None:
    global _worker_bundle, _worker_factored
    _worker_bundle = attach(spec)
    _worker_factored = factored_from_arrays(
        data=_worker_bundle["data"],
        indices=_worker_bundle["indices"],
        indptr=_worker_bundle["indptr"],
        num_features=num_features,
        known_weighted=_worker_bundle["known_weighted"] if with_denominators else None,
        known=_worker_bundle["known"] if with_denominators else None,
    )


def _worker_tile(
    tile_tuple: tuple[int, int, int, int],
) -> tuple[tuple[int, int, int, int], np.ndarray, Optional[np.ndarray], float]:
    # Workers time their own compute: the parent cannot see per-tile
    # cost from the result stream (arrival order reflects scheduling),
    # and worker processes have no channel to the parent's registry —
    # so the elapsed seconds ride back with the tile payload and the
    # parent observes them into `parallel_tile_seconds`.
    started = _perf_counter()
    tile = Tile(*tile_tuple)
    matches = match_tile(_worker_factored, tile)
    denominators = None
    if _worker_factored.known_weighted is not None:
        denominators = denominator_tile(_worker_factored, tile)
    return tile_tuple, matches, denominators, _perf_counter() - started


# -- parent side --------------------------------------------------------------


class SimilarityEngine:
    """Computes all-pairs Φ with optional multi-processing and caching."""

    def __init__(
        self,
        n_jobs: int = 1,
        tile_size: int = DEFAULT_TILE_SIZE,
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if tile_size <= 0:
            raise ValueError(f"tile_size must be positive, got {tile_size}")
        self.n_jobs = resolve_jobs(n_jobs)
        self.tile_size = tile_size
        self.cache = MatrixCache(cache_dir) if cache_dir is not None else None
        self.stats = EngineStats()

    # -- public API ----------------------------------------------------------

    def similarity_matrix(
        self,
        series: VectorSeries,
        weights: Optional[np.ndarray] = None,
        policy: UnknownPolicy = UnknownPolicy.PESSIMISTIC,
    ) -> np.ndarray:
        """All-pairs Φ; cache-checked, then serial or tiled-parallel."""
        codes = series.matrix
        num_times, num_networks = codes.shape
        checked_weights = _check_weights(weights, num_networks)
        registry = get_registry()

        key = None
        if self.cache is not None:
            key = matrix_cache_key(codes, weights, policy)
            cached = self.cache.load(key, num_times)
            if cached is not None:
                self.stats.cache_hits += 1
                registry.counter(
                    "parallel_cache_hits_total",
                    help="Similarity-matrix cache hits",
                ).inc()
                return cached
            self.stats.cache_misses += 1
            registry.counter(
                "parallel_cache_misses_total",
                help="Similarity-matrix cache misses",
            ).inc()

        if self.n_jobs == 1 or num_times < 2:
            with span("similarity.serial", observations=num_times):
                result = similarity_matrix(series, weights, policy)
            self.stats.serial_runs += 1
            registry.counter("parallel_serial_runs_total").inc()
        else:
            with span(
                "similarity.parallel",
                observations=num_times,
                jobs=self.n_jobs,
                tile_size=self.tile_size,
            ):
                result = self._parallel(codes, checked_weights, policy)
            self.stats.parallel_runs += 1
            registry.counter("parallel_runs_total").inc()

        if self.cache is not None and key is not None:
            self.cache.store(key, result)
        return result

    def distance_matrix(
        self,
        series: VectorSeries,
        weights: Optional[np.ndarray] = None,
        policy: UnknownPolicy = UnknownPolicy.PESSIMISTIC,
    ) -> np.ndarray:
        """``1 - Φ`` with NaN → 1.0, matching the serial helper."""
        similarity = self.similarity_matrix(series, weights, policy)
        distance = 1.0 - similarity
        return np.where(np.isnan(distance), 1.0, distance)

    # -- parallel path -------------------------------------------------------

    def _parallel(
        self,
        codes: np.ndarray,
        weights: np.ndarray,
        policy: UnknownPolicy,
    ) -> np.ndarray:
        num_times = codes.shape[0]
        exclude = policy is UnknownPolicy.EXCLUDE
        total = weights.sum()
        codes, weights = _merge_identical_columns(codes, weights)
        tiles = plan_tiles(num_times, self.tile_size)
        matches = np.zeros((num_times, num_times), dtype=np.float64)
        denominators = (
            np.zeros((num_times, num_times), dtype=np.float64) if exclude else None
        )

        factored = factor_series(codes, weights, with_denominators=exclude)
        features = factored.features
        arrays = {
            "data": features.data,
            "indices": features.indices,
            "indptr": features.indptr,
        }
        if exclude:
            arrays["known_weighted"] = factored.known_weighted
            arrays["known"] = factored.known

        with SharedBundle(arrays) as shared:
            workers = min(self.n_jobs, len(tiles)) or 1
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_worker_init,
                initargs=(shared.spec, features.shape[1], exclude),
            ) as pool:
                tile_histogram = get_registry().histogram(
                    "parallel_tile_seconds",
                    help="Per-tile similarity kernel compute time (worker-side)",
                )
                tiles_counter = get_registry().counter(
                    "parallel_tiles_computed_total"
                )
                tile_results = pool.map(
                    _worker_tile,
                    [tile.as_tuple() for tile in tiles],
                    chunksize=max(1, len(tiles) // (4 * workers)),
                )
                for (
                    tile_tuple,
                    tile_matches,
                    tile_denominators,
                    tile_seconds,
                ) in tile_results:
                    tile = Tile(*tile_tuple)
                    matches[
                        tile.row_start : tile.row_stop,
                        tile.col_start : tile.col_stop,
                    ] = tile_matches
                    if denominators is not None and tile_denominators is not None:
                        denominators[
                            tile.row_start : tile.row_stop,
                            tile.col_start : tile.col_stop,
                        ] = tile_denominators
                    self.stats.tiles_computed += 1
                    tiles_counter.inc()
                    tile_histogram.observe(tile_seconds)

        reflect_lower(matches)
        if not exclude:
            if total == 0:
                return np.full((num_times, num_times), np.nan)
            return matches / total
        reflect_lower(denominators)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(denominators > 0, matches / denominators, np.nan)


def parallel_similarity_matrix(
    series: VectorSeries,
    weights: Optional[np.ndarray] = None,
    policy: UnknownPolicy = UnknownPolicy.PESSIMISTIC,
    n_jobs: int = 1,
    tile_size: int = DEFAULT_TILE_SIZE,
    cache_dir: Optional[Union[str, Path]] = None,
) -> np.ndarray:
    """One-shot convenience wrapper around :class:`SimilarityEngine`."""
    engine = SimilarityEngine(n_jobs=n_jobs, tile_size=tile_size, cache_dir=cache_dir)
    return engine.similarity_matrix(series, weights, policy)
