"""Tests for the vector time series container."""

from __future__ import annotations

from datetime import timedelta

import numpy as np
import pytest

from repro.core.series import VectorSeries
from repro.core.vector import UNKNOWN, RoutingVector, StateCatalog


class TestAppend:
    def test_append_mapping_and_iterate(self, t0):
        series = VectorSeries(["a", "b"])
        series.append_mapping({"a": "X", "b": "Y"}, t0)
        series.append_mapping({"a": "X"}, t0 + timedelta(days=1))
        assert len(series) == 2
        assert series[1].state_of("b") == UNKNOWN
        assert [v.time for v in series] == series.times
        assert series[-1].time == t0 + timedelta(days=1)
        assert series[-1].to_mapping() == {"a": "X", "b": UNKNOWN}
        # Two appends leave the doubling buffer a spare row; indexing
        # past the last vector must still fail as it does on a list.
        with pytest.raises(IndexError):
            series[len(series)]

    def test_timestamps_must_increase(self, t0):
        series = VectorSeries(["a"])
        series.append_mapping({"a": "X"}, t0)
        with pytest.raises(ValueError):
            series.append_mapping({"a": "X"}, t0)

    def test_vector_needs_timestamp(self, t0):
        series = VectorSeries(["a"])
        vector = RoutingVector.from_mapping({"a": "X"}, catalog=series.catalog)
        with pytest.raises(ValueError):
            series.append(vector)

    def test_networks_must_match(self, t0):
        series = VectorSeries(["a"])
        vector = RoutingVector.from_mapping(
            {"b": "X"}, catalog=series.catalog, time=t0
        )
        with pytest.raises(ValueError):
            series.append(vector)

    def test_catalog_must_be_shared(self, t0):
        series = VectorSeries(["a"])
        vector = RoutingVector.from_mapping({"a": "X"}, catalog=StateCatalog(), time=t0)
        with pytest.raises(ValueError):
            series.append(vector)

    def test_from_vectors(self, t0):
        catalog = StateCatalog()
        vectors = [
            RoutingVector.from_mapping({"a": "X"}, catalog=catalog, time=t0),
            RoutingVector.from_mapping({"a": "Y"}, catalog=catalog, time=t0 + timedelta(1)),
        ]
        series = VectorSeries.from_vectors(vectors)
        assert len(series) == 2

    def test_from_vectors_empty_rejected(self):
        with pytest.raises(ValueError):
            VectorSeries.from_vectors([])


class TestViews:
    def test_matrix_shape_and_cache(self, simple_series):
        matrix = simple_series.matrix
        assert matrix.shape == (5, 4)
        assert simple_series.matrix is matrix  # cached

    def test_matrix_invalidated_on_append(self, simple_series, t0):
        _ = simple_series.matrix
        simple_series.append_mapping({"n1": "A"}, t0 + timedelta(days=10))
        assert simple_series.matrix.shape == (6, 4)

    def test_index_at(self, simple_series, t0):
        assert simple_series.index_at(t0) == 0
        assert simple_series.index_at(t0 + timedelta(days=2, hours=5)) == 2
        assert simple_series.index_at(t0 + timedelta(days=2)) == 2
        assert simple_series.index_at(t0 + timedelta(days=40)) == 4
        with pytest.raises(KeyError):
            simple_series.index_at(t0 - timedelta(days=1))

    def test_between(self, simple_series, t0):
        subset = simple_series.between(t0 + timedelta(days=1), t0 + timedelta(days=3))
        assert len(subset) == 2
        assert subset.times == [t0 + timedelta(days=1), t0 + timedelta(days=2)]
        assert np.array_equal(subset.matrix, simple_series.matrix[1:3])
        for start, end in [(2.5, 2.7), (3, 1)]:
            empty = simple_series.between(
                t0 + timedelta(days=start), t0 + timedelta(days=end)
            )
            assert len(empty) == 0
            assert empty.matrix.shape == (0, 4)

    def test_select_networks(self, simple_series):
        subset = simple_series.select_networks(["n3", "n1"])
        assert subset.networks == ("n1", "n3")  # original order preserved
        assert subset[0].state_of("n3") == "B"
        assert len(subset) == len(simple_series)

    def test_aggregate_over_time(self, simple_series):
        totals = simple_series.aggregate_over_time()
        assert totals["A"].tolist() == [2, 2, 2, 1, 1]
        assert totals["B"].tolist() == [2, 2, 2, 3, 3]

    def test_aggregate_over_time_weighted(self, simple_series):
        weights = np.array([10.0, 1.0, 1.0, 1.0])
        totals = simple_series.aggregate_over_time(weights)
        assert totals["A"].tolist() == [11, 11, 11, 1, 1]

    def test_aggregate_over_time_of_no_rows(self):
        series = VectorSeries(["a"])
        assert series.aggregate_over_time() == {}
        assert series.aggregate_over_time(np.array([2.5])) == {}

    def test_aggregate_over_time_matches_a_bincount_per_row(self, t0):
        rng = np.random.default_rng(3)
        networks = [f"n{i}" for i in range(40)]
        series = VectorSeries(networks, StateCatalog(["A", "B", "C", "D"]))
        for day in range(25):
            labels = rng.choice(["A", "B", "C", "D", UNKNOWN], size=len(networks))
            series.append_mapping(dict(zip(networks, labels)), t0 + timedelta(days=day))
        # Fractional weights whose sums depend on the order of addition.
        weights = rng.random(len(networks)) * 1e3 + rng.random(len(networks)) * 1e-9
        states = len(series.catalog)
        for given_weights in (None, weights):
            rows = [
                np.bincount(row, weights=given_weights, minlength=states)
                for row in series.matrix
            ]
            expected = np.stack(rows).astype(np.float64)
            totals = series.aggregate_over_time(given_weights)
            for code, label in enumerate(series.catalog.labels):
                if expected[:, code].any():
                    assert totals[label].tobytes() == expected[:, code].tobytes()
                else:
                    assert label not in totals
        with pytest.raises(ValueError, match="weights"):
            series.aggregate_over_time(weights[:-1])

    def test_copy_is_independent(self, simple_series, t0):
        clone = simple_series.copy()
        clone.append_mapping({"n1": "A"}, t0 + timedelta(days=30))
        assert len(simple_series) == 5
        assert len(clone) == 6
        # A tail window ends where the parent's spare rows begin: each
        # side's appends must stay out of the other's rows.
        tail = simple_series.between(t0 + timedelta(days=3), t0 + timedelta(days=9))
        before = simple_series.matrix.copy()
        tail.append_mapping({"n1": "C"}, t0 + timedelta(days=20))
        assert np.array_equal(simple_series.matrix, before)
        simple_series.append_mapping({"n1": "D"}, t0 + timedelta(days=21))
        assert [v.state_of("n1") for v in tail] == ["B", "B", "C"]
        assert [v.state_of("n1") for v in clone][-1] == "A"
        assert simple_series[-1].state_of("n1") == "D"

    def test_replace_codes(self, simple_series):
        swapped = simple_series.replace_codes(simple_series.matrix[:, ::-1])
        assert swapped.times == simple_series.times
        assert swapped.networks == simple_series.networks
        assert swapped.catalog is simple_series.catalog
        assert swapped[0].state_of("n1") == "B"
        for bad in (
            simple_series.matrix[:4],
            simple_series.matrix[:, :3],
            np.full((5, 4), len(simple_series.catalog)),
            np.full((5, 4), -1),
        ):
            with pytest.raises(ValueError):
                simple_series.replace_codes(bad)
