"""Tests for data cleaning: state mapping, micro-catchments, interpolation."""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import scalar_interpolate
from repro.core.cleaning import (
    drop_networks,
    fold_micro_catchments,
    interpolate_series,
    map_unmapped_states,
    nearest_viable_hop,
)
from repro.core.series import VectorSeries
from repro.core.vector import OTHER, UNKNOWN, RoutingVector, StateCatalog


def series_from(maps, networks=None, t0=datetime(2024, 1, 1)):
    networks = networks or sorted(maps[0])
    series = VectorSeries(networks, StateCatalog())
    for index, mapping in enumerate(maps):
        series.append_mapping(mapping, t0 + timedelta(days=index))
    return series


class TestMapUnmapped:
    def test_unknown_sites_fold_to_other(self):
        series = series_from([{"x": "LAX", "y": "bogus"}])
        cleaned = map_unmapped_states(series, {"LAX"})
        assert cleaned[0].state_of("y") == OTHER
        assert cleaned[0].state_of("x") == "LAX"

    def test_specials_preserved(self):
        series = series_from([{"x": UNKNOWN, "y": "err"}])
        cleaned = map_unmapped_states(series, {"LAX"})
        assert cleaned[0].state_of("x") == UNKNOWN
        assert cleaned[0].state_of("y") == "err"


class TestMicroCatchments:
    def test_folds_small_peak_sites(self):
        maps = [
            {"a": "BIG", "b": "BIG", "c": "BIG", "d": "TINY"},
            {"a": "BIG", "b": "BIG", "c": "BIG", "d": "TINY"},
        ]
        cleaned, folded = fold_micro_catchments(series_from(maps), min_networks=2)
        assert folded == ["TINY"]
        assert cleaned[0].state_of("d") == OTHER

    def test_peak_not_mean_decides(self):
        # Site spikes to 3 once: peak >= 3 keeps it even if usually 0.
        maps = [
            {"a": "SPIKE", "b": "SPIKE", "c": "SPIKE"},
            {"a": "BIG", "b": "BIG", "c": "BIG"},
        ]
        _cleaned, folded = fold_micro_catchments(series_from(maps), min_networks=3)
        assert folded == []

    def test_fraction_threshold(self):
        maps = [{"a": "BIG", "b": "BIG", "c": "BIG", "d": "SMALL"}]
        _cleaned, folded = fold_micro_catchments(
            series_from(maps), min_fraction=0.30
        )
        assert folded == ["SMALL"]

    def test_no_thresholds_keeps_everything(self):
        series = series_from([{"a": "X", "b": "Y"}])
        cleaned, folded = fold_micro_catchments(series)
        assert folded == []
        assert cleaned[0].to_mapping() == series[0].to_mapping()

    def test_empty_series(self):
        series = VectorSeries(["a"], StateCatalog(["X"]))
        cleaned, folded = fold_micro_catchments(series, min_networks=1)
        assert folded == ["X"]  # a site that never serves has no peak
        assert len(cleaned) == 0 and cleaned.networks == ("a",)


class TestDropNetworks:
    def test_drop_by_predicate(self):
        series = series_from([{"10.0.0.0/24": "A", "192.168.0.0/24": "B"}])
        cleaned = drop_networks(series, lambda n: n.startswith("192.168"))
        assert cleaned.networks == ("10.0.0.0/24",)


class TestInterpolation:
    def test_gap_split_between_neighbours(self):
        # Gap of 4 unknowns between A and B: first half takes A, second B.
        maps = (
            [{"x": "A"}]
            + [{"x": UNKNOWN}] * 4
            + [{"x": "B"}]
        )
        cleaned = interpolate_series(series_from(maps), limit=3)
        states = [cleaned[i].state_of("x") for i in range(6)]
        assert states == ["A", "A", "A", "B", "B", "B"]

    def test_tie_goes_to_earlier(self):
        maps = [{"x": "A"}, {"x": UNKNOWN}, {"x": UNKNOWN}, {"x": "B"}]
        cleaned = interpolate_series(series_from(maps), limit=3)
        states = [cleaned[i].state_of("x") for i in range(4)]
        assert states == ["A", "A", "B", "B"]

    def test_limit_respected(self):
        maps = [{"x": "A"}] + [{"x": UNKNOWN}] * 9 + [{"x": "B"}]
        cleaned = interpolate_series(series_from(maps), limit=3)
        states = [cleaned[i].state_of("x") for i in range(11)]
        assert states[:4] == ["A", "A", "A", "A"]
        assert states[4:7] == [UNKNOWN, UNKNOWN, UNKNOWN]
        assert states[7:] == ["B", "B", "B", "B"]

    def test_leading_gap_backfills_within_limit(self):
        maps = [{"x": UNKNOWN}, {"x": UNKNOWN}, {"x": "A"}]
        cleaned = interpolate_series(series_from(maps), limit=3)
        assert [cleaned[i].state_of("x") for i in range(3)] == ["A", "A", "A"]

    def test_trailing_gap_forward_fills(self):
        maps = [{"x": "A"}, {"x": UNKNOWN}, {"x": UNKNOWN}]
        cleaned = interpolate_series(series_from(maps), limit=3)
        assert [cleaned[i].state_of("x") for i in range(3)] == ["A", "A", "A"]

    def test_limit_zero_is_noop(self):
        maps = [{"x": "A"}, {"x": UNKNOWN}, {"x": "A"}]
        cleaned = interpolate_series(series_from(maps), limit=0)
        assert cleaned[1].state_of("x") == UNKNOWN

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            interpolate_series(series_from([{"x": "A"}]), limit=-1)

    def test_all_unknown_column_stays_unknown(self):
        maps = [{"x": UNKNOWN}] * 4
        cleaned = interpolate_series(series_from(maps), limit=3)
        assert all(cleaned[i].state_of("x") == UNKNOWN for i in range(4))

    def test_rows_and_handed_off_matrix_agree(self):
        # The gathered matrix becomes the cleaned series' matrix as is;
        # its rows and the matrix must stay the same codes, and an
        # append must rebuild the matrix with the new row.
        maps = [
            {"x": "A", "y": UNKNOWN},
            {"x": UNKNOWN, "y": "B"},
            {"x": "C", "y": UNKNOWN},
        ]
        cleaned = interpolate_series(series_from(maps), limit=1)
        for index in range(len(cleaned)):
            assert np.array_equal(cleaned[index].codes, cleaned.matrix[index])
        cleaned.append_mapping({"x": "B", "y": "C"}, datetime(2024, 1, 4))
        assert cleaned.matrix.shape == (4, 2)
        assert np.array_equal(cleaned.matrix[3], cleaned[3].codes)
        assert [cleaned[3].state_of(net) for net in ("x", "y")] == ["B", "C"]
        for index in range(len(cleaned)):
            assert np.array_equal(cleaned[index].codes, cleaned.matrix[index])

    @settings(max_examples=50)
    @given(
        st.lists(
            st.sampled_from(["A", "B", UNKNOWN]), min_size=1, max_size=20
        ),
        st.integers(min_value=0, max_value=5),
    )
    def test_invariants(self, column, limit):
        maps = [{"x": state} for state in column]
        series = series_from(maps)
        cleaned = interpolate_series(series, limit=limit)
        for index, original in enumerate(column):
            result = cleaned[index].state_of("x")
            if original != UNKNOWN:
                # Known observations are never rewritten.
                assert result == original
            elif result != UNKNOWN:
                # Filled values come from a known neighbour within reach.
                lo = max(0, index - limit)
                hi = min(len(column), index + limit + 1)
                window = [s for s in column[lo:hi] if s != UNKNOWN]
                assert result in window


class TestInterpolationOracle:
    """The one-gather gap fill equals a per-cell scan, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=20).flatmap(
            lambda num_times: arrays(
                np.int32,
                st.tuples(st.just(num_times), st.integers(min_value=1, max_value=6)),
                # 0 unknown, 1 err, 2 other, 3..5 sites: gap-heavy on purpose.
                elements=st.sampled_from([0, 0, 0, 1, 1, 2, 3, 4, 5]),
            )
        ),
        st.integers(min_value=0, max_value=6),
        st.booleans(),
    )
    def test_equals_per_cell_scan(self, codes, limit, repair_errors):
        catalog = StateCatalog(["A", "B", "C"])
        networks = tuple(f"n{index}" for index in range(codes.shape[1]))
        start = datetime(2024, 1, 1)
        series = VectorSeries.from_vectors(
            [
                RoutingVector(networks, row, catalog, start + timedelta(days=index))
                for index, row in enumerate(codes)
            ]
        )
        cleaned = interpolate_series(series, limit=limit, repair_errors=repair_errors)
        expected = scalar_interpolate(codes, limit, repair_errors)
        assert cleaned.matrix.dtype == expected.dtype
        assert cleaned.matrix.tobytes() == expected.tobytes()
        assert cleaned.times == series.times


class TestNearestViableHop:
    def test_present_hop_returned(self):
        assert nearest_viable_hop(["A", "B", "C"], 1) == "B"

    def test_fills_from_earlier_first(self):
        assert nearest_viable_hop(["A", None, "C"], 1) == "A"

    def test_fills_from_later_when_no_earlier(self):
        assert nearest_viable_hop([None, None, "C"], 1) == "C"

    def test_max_offset(self):
        assert nearest_viable_hop(["A", None, None, None], 3, max_offset=2) is None
        assert nearest_viable_hop(["A", None, None, None], 3, max_offset=3) == "A"

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            nearest_viable_hop(["A"], 5)
