"""Time series of routing vectors.

A :class:`VectorSeries` holds one study's vectors over a shared network
list and state catalog as a single T×N int32 code matrix: ``append``
copies into a buffer that doubles when full, and ``matrix`` is a view
of its filled rows that all of Fenrir's analyses read.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from datetime import datetime
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .vector import RoutingVector, StateCatalog

__all__ = ["VectorSeries"]


class VectorSeries:
    """An ordered, time-indexed collection of routing vectors."""

    def __init__(
        self,
        networks: Sequence[str],
        catalog: Optional[StateCatalog] = None,
    ) -> None:
        self.networks: tuple[str, ...] = tuple(networks)
        self.catalog = catalog or StateCatalog()
        self.times: list[datetime] = []
        # Rows past ``len(self)`` are spare; a buffer from ``_with_codes``
        # has none, so appends never write into another series' rows.
        self._codes = np.empty((0, len(self.networks)), dtype=np.int32)
        self._matrix: Optional[np.ndarray] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_vectors(cls, vectors: Sequence[RoutingVector]) -> "VectorSeries":
        """Stack pre-built vectors; they must share networks and catalog."""
        if not vectors:
            raise ValueError("cannot build a series from zero vectors")
        first = vectors[0]
        series = cls(first.networks, first.catalog)
        for vector in vectors:
            series.append(vector)
        return series

    def _with_codes(
        self, networks: tuple[str, ...], codes: np.ndarray, times: list[datetime]
    ) -> "VectorSeries":
        """A series over this catalog whose buffer is ``codes`` as given."""
        series = VectorSeries(networks, self.catalog)
        series._codes = codes
        series.times = times
        return series

    def append(self, vector: RoutingVector) -> None:
        if vector.networks != self.networks:
            raise ValueError("vector networks do not match series networks")
        if vector.catalog is not self.catalog:
            raise ValueError("vector catalog is not the series catalog")
        if vector.time is None:
            raise ValueError("series vectors need a timestamp")
        if self.times and vector.time <= self.times[-1]:
            raise ValueError(
                f"timestamps must increase: {vector.time} after {self.times[-1]}"
            )
        count = len(self.times)
        if count == len(self._codes):
            grown = np.empty((2 * count + 1, len(self.networks)), dtype=np.int32)
            grown[:count] = self._codes[:count]
            self._codes = grown
        self._codes[count] = vector.codes
        self.times.append(vector.time)
        self._matrix = None

    def append_mapping(self, assignment: dict[str, str], time: datetime) -> None:
        """Append from a ``{network: state}`` mapping (unlisted → unknown)."""
        vector = RoutingVector.from_mapping(
            assignment, catalog=self.catalog, networks=self.networks, time=time
        )
        self.append(vector)

    def replace_codes(self, codes: np.ndarray) -> "VectorSeries":
        """Same networks, catalog and times; ``codes`` (T×N) as the matrix."""
        codes = np.asarray(codes, dtype=np.int32)
        if codes.shape != self.matrix.shape:
            raise ValueError(f"codes shape {codes.shape} is not {self.matrix.shape}")
        if codes.size and (codes.min() < 0 or codes.max() >= len(self.catalog)):
            raise ValueError("state code outside catalog range")
        return self._with_codes(self.networks, codes, list(self.times))

    # -- views ---------------------------------------------------------------

    @property
    def matrix(self) -> np.ndarray:
        """T×N int32 matrix of state codes (a cached view of the buffer)."""
        if self._matrix is None:
            self._matrix = self._codes[: len(self.times)]
        return self._matrix

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index: int) -> RoutingVector:
        return RoutingVector(
            self.networks, self.matrix[index], self.catalog, self.times[index]
        )

    def __iter__(self) -> Iterator[RoutingVector]:
        for index in range(len(self)):
            yield self[index]

    def index_at(self, when: datetime) -> int:
        """Index of the last vector at or before ``when``."""
        index = bisect_right(self.times, when) - 1
        if index < 0:
            raise KeyError(f"no vector at or before {when}")
        return index

    def between(self, start: datetime, end: datetime) -> "VectorSeries":
        """Sub-series of vectors with ``start <= time < end``."""
        rows = slice(bisect_left(self.times, start), bisect_left(self.times, end))
        return self._with_codes(self.networks, self.matrix[rows], self.times[rows])

    def select_networks(self, keep: Iterable[str]) -> "VectorSeries":
        """Sub-series restricted to the given networks (order preserved)."""
        keep_set = set(keep)
        indices = [i for i, network in enumerate(self.networks) if network in keep_set]
        return self._with_codes(
            tuple(self.networks[i] for i in indices),
            self.matrix[:, indices],
            list(self.times),
        )

    def aggregate_over_time(
        self, weights: Optional[np.ndarray] = None
    ) -> dict[str, np.ndarray]:
        """Per-state totals for every time step: the stack-plot data.

        Returns ``{state_label: array of length T}`` including only
        states that ever occur.
        """
        matrix = self.matrix
        rows, num_states = len(matrix), len(self.catalog)
        # One bincount over (row, code) bins. Each bin still sums its
        # row's positions in order, so float-weighted totals are
        # bit-equal to a bincount per row.
        bins = (np.arange(rows, dtype=np.int64)[:, None] * num_states + matrix).ravel()
        if weights is None:
            counts = np.bincount(bins, minlength=rows * num_states)
            totals = counts.reshape(rows, num_states).astype(np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (len(self.networks),):
                raise ValueError("weights length does not match networks")
            totals = np.bincount(
                bins, weights=np.tile(weights, rows), minlength=rows * num_states
            ).reshape(rows, num_states)
        return {
            self.catalog.label(code): totals[:, code]
            for code in range(num_states)
            if totals[:, code].any()
        }

    def copy(self) -> "VectorSeries":
        return self.replace_codes(self.matrix.copy())
