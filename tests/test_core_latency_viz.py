"""Tests for latency joins and the text visualizations."""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.core.latency import (
    compare_latency,
    latency_by_catchment,
    latency_timeseries,
    mean_latency,
    percentile_by_catchment,
)
from repro.core.modes import find_modes
from repro.core.series import VectorSeries
from repro.core.transition import transition_matrix
from repro.core.vector import UNKNOWN, RoutingVector, StateCatalog
from repro.core.viz import (
    render_heatmap,
    render_mode_timeline,
    render_sankey,
    render_stackplot,
    render_transition_table,
    sankey_flows,
)


@pytest.fixture
def catalog():
    return StateCatalog()


@pytest.fixture
def vector(catalog):
    return RoutingVector.from_mapping(
        {"n1": "LAX", "n2": "LAX", "n3": "AMS", "n4": UNKNOWN, "n5": "err"},
        catalog=catalog,
    )


RTTS = {"n1": 10.0, "n2": 30.0, "n3": 120.0, "n4": 50.0, "n5": 40.0}


class TestLatency:
    def test_grouping_by_catchment(self, vector):
        groups = latency_by_catchment(vector, RTTS)
        assert sorted(groups) == ["AMS", "LAX"]
        assert groups["LAX"].tolist() == [10.0, 30.0]
        assert groups["AMS"].tolist() == [120.0]

    def test_special_states_excluded_by_default(self, vector):
        groups = latency_by_catchment(vector, RTTS)
        assert "err" not in groups and UNKNOWN not in groups
        with_special = latency_by_catchment(vector, RTTS, include_special=True)
        assert "err" in with_special

    def test_missing_rtts_skipped(self, vector):
        groups = latency_by_catchment(vector, {"n1": 5.0})
        assert groups == {"LAX": pytest.approx(np.array([5.0]))}

    def test_percentiles(self, vector):
        p50 = percentile_by_catchment(vector, RTTS, q=50)
        assert p50["LAX"] == 20.0

    def test_mean_latency_weighted(self, vector):
        weights = np.array([1.0, 1.0, 2.0, 1.0, 1.0])
        mean = mean_latency(vector, RTTS, weights)
        assert mean == pytest.approx((10 + 30 + 2 * 120) / 4)

    def test_mean_latency_no_data_is_nan(self, catalog):
        empty = RoutingVector.from_mapping({"x": UNKNOWN}, catalog=catalog)
        assert np.isnan(mean_latency(empty, {}))

    def test_latency_timeseries(self, catalog):
        series = VectorSeries(["n1", "n2"], catalog)
        t0 = datetime(2022, 1, 1)
        series.append_mapping({"n1": "LAX", "n2": "ARI"}, t0)
        series.append_mapping({"n1": "LAX", "n2": "LAX"}, t0 + timedelta(days=1))
        rtts = [{"n1": 10.0, "n2": 250.0}, {"n1": 10.0, "n2": 20.0}]
        result = latency_timeseries(series, lambda i: rtts[i], q=90)
        assert result["ARI"][0] == pytest.approx(250.0)
        assert np.isnan(result["ARI"][1])  # site vanished
        assert not np.isnan(result["LAX"]).any()

    def test_compare_latency_moved_networks(self, catalog):
        before = RoutingVector.from_mapping(
            {"a": "NEAR", "b": "FAR"}, catalog=catalog
        )
        after = RoutingVector.from_mapping({"a": "NEAR", "b": "NEAR"}, catalog=catalog)
        rtts_before = {"a": 10.0, "b": 200.0}
        rtts_after = {"a": 10.0, "b": 15.0}
        result = compare_latency(before, after, rtts_before, rtts_after)
        assert result["moved_networks"] == 1
        assert result["delta_ms"] < 0  # things got faster
        assert result["moved_delta_ms"] == pytest.approx(15.0 - 200.0)


class TestViz:
    def test_heatmap_shape_and_legend(self):
        similarity = np.array([[1.0, 0.2], [0.2, 1.0]])
        text = render_heatmap(similarity)
        lines = text.splitlines()
        assert len(lines) == 3  # 2 rows + legend
        assert "scale" in lines[-1]

    def test_heatmap_downsamples(self):
        similarity = np.ones((100, 100))
        text = render_heatmap(similarity, max_size=10)
        rows = text.splitlines()[:-1]
        assert len(rows) <= 11

    def test_heatmap_rejects_non_square(self):
        with pytest.raises(ValueError):
            render_heatmap(np.ones((2, 3)))

    def test_heatmap_rejects_empty_size(self):
        with pytest.raises(ValueError, match="max_size"):
            render_heatmap(np.ones((2, 2)), max_size=0)

    def test_heatmap_nan_marker(self):
        similarity = np.array([[1.0, np.nan], [np.nan, 1.0]])
        assert "?" in render_heatmap(similarity)

    def test_stackplot_proportions(self):
        aggregates = {"LAX": np.array([3.0, 0.0]), "AMS": np.array([1.0, 4.0])}
        text = render_stackplot(aggregates, width=8)
        lines = text.splitlines()
        assert "A=LAX" in lines[0] and "B=AMS" in lines[0]
        assert lines[1].count("A") == 6 and lines[1].count("B") == 2
        assert lines[2].count("B") == 8

    def test_stackplot_empty(self):
        assert render_stackplot({}) == "(empty)"

    def test_transition_table_contains_counts(self, catalog):
        a = RoutingVector.from_mapping({"x": "STR", "y": "STR"}, catalog=catalog)
        b = RoutingVector.from_mapping({"x": "NAP", "y": "NAP"}, catalog=catalog)
        table = render_transition_table(transition_matrix(a, b))
        assert "STR" in table and "NAP" in table and "2" in table

    def test_mode_timeline_roman_numerals(self, simple_series):
        modes = find_modes(simple_series)
        text = render_mode_timeline(modes)
        assert "mode (i)" in text
        assert "Φ" in text

    def test_sankey_flows_counts(self):
        paths = [["USC", "ARN", "NTT"], ["USC", "ARN", "HE"], ["USC", "ARN", "NTT"]]
        flows = sankey_flows(paths, max_hops=3)
        assert (0, "USC", "ARN", 3.0) in flows
        assert (1, "ARN", "NTT", 2.0) in flows
        assert (1, "ARN", "HE", 1.0) in flows

    def test_sankey_flows_weighted(self):
        flows = sankey_flows([["a", "b"]], max_hops=2, weights=[5.0])
        assert flows == [(0, "a", "b", 5.0)]

    def test_sankey_short_paths(self):
        flows = sankey_flows([["solo"]], max_hops=4)
        assert flows == []

    def test_render_sankey(self):
        flows = sankey_flows([["USC", "ARN", "NTT"]], max_hops=3)
        text = render_sankey(flows)
        assert "hop 1 -> hop 2" in text
        assert "USC" in text
        assert render_sankey([]) == "(no flows)"
