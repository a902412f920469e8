"""Tests for bootstrap statistics and the SVG chart renderers."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.core.compare import UnknownPolicy, phi
from repro.core.stats import bootstrap_phi, permutation_change_test
from repro.core.vector import UNKNOWN, RoutingVector, StateCatalog
from repro.viz_svg import Svg, heatmap_svg, latency_svg, sankey_svg, stackplot_svg

T0 = datetime(2025, 1, 1)


def make_pair(size=40, matching=30, unknown=0):
    catalog = StateCatalog()
    networks = [f"n{i}" for i in range(size)]
    map_a = {}
    map_b = {}
    for index, network in enumerate(networks):
        if index < matching:
            map_a[network] = map_b[network] = "SAME"
        elif index < size - unknown:
            map_a[network], map_b[network] = "X", "Y"
        else:
            map_a[network] = map_b[network] = UNKNOWN
    a = RoutingVector.from_mapping(map_a, catalog=catalog, networks=networks)
    b = RoutingVector.from_mapping(map_b, catalog=catalog, networks=networks)
    return a, b


class TestBootstrapPhi:
    def test_point_matches_phi(self):
        a, b = make_pair()
        estimate = bootstrap_phi(a, b, samples=200)
        assert estimate.point == pytest.approx(phi(a, b))

    def test_interval_contains_point(self):
        a, b = make_pair()
        estimate = bootstrap_phi(a, b, samples=500)
        assert estimate.low <= estimate.point <= estimate.high
        assert estimate.point in estimate
        assert 0.0 < estimate.width < 0.5

    def test_deterministic_in_seed(self):
        a, b = make_pair()
        first = bootstrap_phi(a, b, samples=300, seed=5)
        second = bootstrap_phi(a, b, samples=300, seed=5)
        assert (first.low, first.high) == (second.low, second.high)

    def test_more_networks_tighter_interval(self):
        small = bootstrap_phi(*make_pair(size=30, matching=20), samples=500)
        large = bootstrap_phi(*make_pair(size=600, matching=400), samples=500)
        assert large.width < small.width

    def test_exclude_policy(self):
        a, b = make_pair(size=20, matching=10, unknown=5)
        pessimistic = bootstrap_phi(a, b, samples=100)
        excluding = bootstrap_phi(a, b, samples=100, policy=UnknownPolicy.EXCLUDE)
        assert excluding.point > pessimistic.point

    @pytest.mark.parametrize(
        "weights, other_catalog",
        [
            pytest.param(np.ones(1), False, id="weights-of-shape-1"),
            pytest.param(np.array([1.0, -3.0, 1.0]), False, id="negative-weight"),
            pytest.param(np.array([1.0, np.nan, 1.0]), False, id="nan-weight"),
            pytest.param(None, True, id="different-catalogs"),
        ],
    )
    def test_rejects_what_phi_rejects(self, weights, other_catalog):
        a, b = make_pair(size=3, matching=2)
        if other_catalog:
            # Every site differs from a's, but the codes coincide.
            b = RoutingVector.from_mapping(
                {network: "ELSEWHERE" for network in a.networks},
                catalog=StateCatalog(),
                networks=a.networks,
            )
        with pytest.raises(ValueError):
            bootstrap_phi(a, b, weights=weights, samples=50)

    def test_validation(self):
        a, b = make_pair(size=5, matching=5)
        with pytest.raises(ValueError):
            bootstrap_phi(a, b, confidence=1.5)
        with pytest.raises(ValueError):
            bootstrap_phi(a, b, samples=3)

    def test_network_mismatch(self):
        catalog = StateCatalog()
        a = RoutingVector.from_mapping({"x": "A"}, catalog=catalog)
        b = RoutingVector.from_mapping({"y": "A"}, catalog=catalog)
        with pytest.raises(ValueError):
            bootstrap_phi(a, b)


class TestPermutationTest:
    def test_outlier_is_significant(self):
        changes = np.array([0.01] * 50 + [0.5])
        p_value = permutation_change_test(changes, 50)
        assert p_value < 0.05

    def test_typical_step_is_not(self):
        rng = np.random.default_rng(1)
        changes = rng.uniform(0.0, 0.05, 60)
        p_value = permutation_change_test(changes, 10)
        assert p_value > 0.05

    def test_index_validation(self):
        with pytest.raises(IndexError):
            permutation_change_test(np.array([0.1]), 5)

    def test_single_step(self):
        assert permutation_change_test(np.array([0.3]), 0) == 1.0


def parse_svg(svg: Svg) -> ET.Element:
    """Round-trip through a real XML parser: must be well-formed."""
    return ET.fromstring(svg.to_string())


def count_tags(root: ET.Element, tag: str) -> int:
    namespace = "{http://www.w3.org/2000/svg}"
    return len(root.findall(f".//{namespace}{tag}")) + len(root.findall(f".//{tag}"))


class TestSvgCharts:
    def test_heatmap_well_formed_grid(self):
        similarity = np.random.default_rng(0).uniform(0, 1, (12, 12))
        similarity = (similarity + similarity.T) / 2
        root = parse_svg(heatmap_svg(similarity))
        assert count_tags(root, "rect") == 144

    def test_heatmap_nan_flagged(self):
        similarity = np.array([[1.0, np.nan], [np.nan, 1.0]])
        text = heatmap_svg(similarity).to_string()
        assert "#f4c1c1" in text

    def test_heatmap_validation(self):
        with pytest.raises(ValueError):
            heatmap_svg(np.ones((2, 3)))

    def test_stackplot_areas_and_legend(self):
        aggregates = {
            "LAX": np.array([5.0, 4.0, 1.0]),
            "AMS": np.array([1.0, 2.0, 5.0]),
        }
        times = [T0 + timedelta(days=i) for i in range(3)]
        root = parse_svg(stackplot_svg(aggregates, times))
        assert count_tags(root, "polygon") == 2
        text = stackplot_svg(aggregates, times).to_string()
        assert "LAX" in text and "AMS" in text and "2025-01-01" in text

    def test_stackplot_validation(self):
        with pytest.raises(ValueError):
            stackplot_svg({})
        with pytest.raises(ValueError):
            stackplot_svg({"X": np.array([1.0])})

    def test_latency_lines_with_gaps(self):
        latency = {
            "ARI": np.array([200.0, 210.0, np.nan, np.nan]),
            "SCL": np.array([np.nan, np.nan, 40.0, 42.0]),
        }
        root = parse_svg(latency_svg(latency))
        # Each site contributes one polyline segment (gap splits produce
        # only segments with >= 2 points).
        assert count_tags(root, "polyline") == 2

    def test_latency_validation(self):
        with pytest.raises(ValueError):
            latency_svg({})

    def test_sankey_nodes_and_bands(self):
        flows = [
            (0, "USC", "ARN-B", 80.0),
            (0, "USC", "ARN-A", 20.0),
            (1, "ARN-B", "NTT", 50.0),
            (1, "ARN-B", "HE", 30.0),
        ]
        root = parse_svg(sankey_svg(flows))
        assert count_tags(root, "polygon") == 4  # one band per flow
        assert count_tags(root, "rect") >= 5  # nodes (+ none missing)

    def test_sankey_validation(self):
        with pytest.raises(ValueError):
            sankey_svg([])

    def test_svg_save(self, tmp_path):
        svg = Svg(100, 50)
        svg.rect(0, 0, 10, 10, fill="#000")
        path = tmp_path / "chart.svg"
        svg.save(path)
        assert path.read_text().startswith("<svg")

    def test_svg_dimension_validation(self):
        with pytest.raises(ValueError):
            Svg(0, 10)

    def test_attribute_escaping(self):
        svg = Svg(10, 10)
        svg.label(0, 0, 'quotes " & <tags>')
        parse_svg(svg)  # must not raise

    def test_report_export_svg(self, tmp_path):
        from repro.core import Fenrir, VectorSeries
        from repro.core.vector import StateCatalog

        series = VectorSeries(["a", "b"], StateCatalog())
        for day in range(6):
            series.append_mapping({"a": "X", "b": "Y"}, T0 + timedelta(days=day))
        report = Fenrir().run(series)
        written = report.export_svg(tmp_path / "svg")
        assert set(written) == {"heatmap", "stackplot"}
        for path in written.values():
            ET.parse(path)  # well-formed files on disk

    def test_full_report_charts(self):
        """Integration: charts straight from a Fenrir report."""
        from repro.core import Fenrir, VectorSeries
        from repro.core.vector import StateCatalog

        series = VectorSeries(["a", "b", "c"], StateCatalog())
        for day in range(8):
            site = "LAX" if day < 4 else "AMS"
            series.append_mapping({"a": site, "b": "LAX", "c": site}, T0 + timedelta(days=day))
        report = Fenrir().run(series)
        heatmap = heatmap_svg(report.similarity, report.cleaned.times)
        stack = stackplot_svg(
            report.cleaned.aggregate_over_time(), report.cleaned.times
        )
        parse_svg(heatmap)
        parse_svg(stack)
