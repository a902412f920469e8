"""Tile plans and tile kernels for the parallel similarity engine.

The T×T Φ matrix is symmetric, so only the upper triangle of a
row-block × column-block tiling needs computing; :func:`plan_tiles`
enumerates those tiles and :func:`reflect_lower` mirrors the finished
upper triangle down.

Each tile is evaluated against a :class:`FactoredSeries`: the T×N code
matrix is re-expressed as a sparse "feature" matrix ``E`` with one
column per (network, known-state) pair and value ``w[n]``, so with
``[E]`` its 0/1 pattern the weighted known-match counts of §2.6.1
become a single sparse product::

    matches[i, j] = Σ_n w[n] · [codes[i,n] == codes[j,n] != unknown]
                  = (E @ [E].T)[i, j]

Each term is one weight times one, so integer weights (such as the
summed weights of merged network columns) give exact integer counts.

This factorization is state-count independent — it is equally fast for
B-root's handful of sites and Google's thousands of front ends — and a
tile only touches the row slices ``E[rows]`` / ``E[cols]``, which is
what makes block dispatch to workers cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sparse

from ..core.vector import UNKNOWN_CODE

__all__ = [
    "Tile",
    "plan_tiles",
    "FactoredSeries",
    "factor_series",
    "match_tile",
    "denominator_tile",
    "reflect_lower",
]

DEFAULT_TILE_SIZE = 64


@dataclass(frozen=True)
class Tile:
    """One rectangular block of the (upper-triangular) T×T matrix."""

    row_start: int
    row_stop: int
    col_start: int
    col_stop: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.row_stop - self.row_start, self.col_stop - self.col_start)

    @property
    def on_diagonal(self) -> bool:
        return self.row_start == self.col_start

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.row_start, self.row_stop, self.col_start, self.col_stop)


def plan_tiles(num_times: int, tile_size: int = DEFAULT_TILE_SIZE) -> list[Tile]:
    """Upper-triangular block tiling of a ``num_times``-square matrix.

    Every (i, j) with ``i <= j`` lands in exactly one tile; the strictly
    lower triangle is recovered afterwards by :func:`reflect_lower`.
    """
    if tile_size <= 0:
        raise ValueError(f"tile_size must be positive, got {tile_size}")
    if num_times < 0:
        raise ValueError(f"num_times must be non-negative, got {num_times}")
    tiles = []
    for row_start in range(0, num_times, tile_size):
        row_stop = min(num_times, row_start + tile_size)
        for col_start in range(row_start, num_times, tile_size):
            col_stop = min(num_times, col_start + tile_size)
            tiles.append(Tile(row_start, row_stop, col_start, col_stop))
    return tiles


@dataclass
class FactoredSeries:
    """The sparse factorization the tile kernels consume.

    ``features`` is the weighted (network, state) indicator matrix
    described in the module docstring. ``known_weighted`` / ``known``
    exist only under :attr:`UnknownPolicy.EXCLUDE`, where the
    denominator of Φ is itself pair-dependent.
    """

    num_times: int
    features: sparse.csr_matrix
    total_weight: float
    known_weighted: Optional[np.ndarray] = None  # (known * w), float64 T×N
    known: Optional[np.ndarray] = None  # known mask as float64 T×N


def factor_series(
    codes: np.ndarray,
    weights: np.ndarray,
    with_denominators: bool = False,
) -> FactoredSeries:
    """Build the tile-kernel inputs from a T×N code matrix and weights."""
    num_times, num_networks = codes.shape
    known_mask = codes != UNKNOWN_CODE
    rows, cols = np.nonzero(known_mask)
    # One feature per (network, state) pair, compacted to the pairs that
    # actually occur so the sparse matrix stays narrow.
    num_states = int(codes.max()) + 1 if codes.size else 1
    raw_features = cols.astype(np.int64) * num_states + codes[rows, cols]
    unique_features, feature_ids = np.unique(raw_features, return_inverse=True)
    values = weights[cols]
    # np.nonzero walks the matrix row-major, so ``rows`` is already
    # sorted: assemble the CSR directly instead of paying the
    # COO-conversion sort.
    counts = np.bincount(rows, minlength=num_times) if len(rows) else np.zeros(
        num_times, dtype=np.int64
    )
    indptr = np.zeros(num_times + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    features = sparse.csr_matrix(
        (values, feature_ids.astype(np.int32), indptr),
        shape=(num_times, len(unique_features)),
    )
    factored = FactoredSeries(
        num_times=num_times,
        features=features,
        total_weight=float(weights.sum()),
    )
    if with_denominators:
        known = known_mask.astype(np.float64)
        factored.known_weighted = known * weights
        factored.known = known
    return factored


def factored_from_arrays(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    num_features: int,
    known_weighted: Optional[np.ndarray] = None,
    known: Optional[np.ndarray] = None,
    total_weight: float = float("nan"),
) -> FactoredSeries:
    """Rebuild a :class:`FactoredSeries` from its raw (shared) arrays.

    The CSR constituents are wrapped without copying, so workers
    attaching shared-memory segments pay O(1) to reconstruct the
    factorization the parent built once.
    """
    num_times = len(indptr) - 1
    features = sparse.csr_matrix(
        (data, indices, indptr), shape=(num_times, num_features), copy=False
    )
    return FactoredSeries(
        num_times=num_times,
        features=features,
        total_weight=total_weight,
        known_weighted=known_weighted,
        known=known,
    )


def match_tile(factored: FactoredSeries, tile: Tile) -> np.ndarray:
    """Weighted known-match counts for one tile: ``(E_r @ [E_c].T)``."""
    rows = factored.features[tile.row_start : tile.row_stop]
    cols = factored.features[tile.col_start : tile.col_stop]
    pattern = sparse.csr_matrix(
        (np.ones_like(cols.data), cols.indices, cols.indptr), shape=cols.shape
    )
    return np.asarray((rows @ pattern.T).todense(), dtype=np.float64)


def denominator_tile(factored: FactoredSeries, tile: Tile) -> np.ndarray:
    """EXCLUDE-policy denominators for one tile: Σ_n w[n]·[both known]."""
    if factored.known_weighted is None or factored.known is None:
        raise ValueError("factored series was built without denominators")
    rows = factored.known_weighted[tile.row_start : tile.row_stop]
    cols = factored.known[tile.col_start : tile.col_stop]
    return rows @ cols.T


def reflect_lower(matrix: np.ndarray) -> np.ndarray:
    """Mirror the upper triangle onto the strictly lower triangle."""
    lower = np.tril_indices(matrix.shape[0], k=-1)
    matrix[lower] = matrix.T[lower]
    return matrix
