"""Mode discovery against its reference oracles (``tests/oracles.py``).

The production kernels — single linkage from a minimum spanning tree,
nearest-neighbour-chain HAC for the other linkages, the one-pass
adaptive threshold sweep, the co-occurrence and row-block Φ paths
behind the merge of identical network columns (the co-occurrence kernel
held byte for byte to its dense per-code loop), and the vectorized step
changes — must reproduce the straightforward forms they replaced, and
the float32 count path must equal the float64 one bit for bit. Inputs are
tie-heavy on purpose: distances are ``1 - k/N`` fractions from small
integer code matrices, which is the shape real Φ has and where merge
order is most ambiguous. Single linkage is also held to scipy on
seeded tie-heavy inputs of realistic size; agreement with scipy on
tie-free inputs is checked in ``tests/test_core_cluster.py``.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.cluster.hierarchy import linkage as scipy_linkage
from scipy.spatial.distance import squareform

from oracles import (
    dense_cooccurrence,
    global_argmin_linkage,
    grid_sweep,
    pairwise_matches,
    scalar_similarity,
    scalar_step_changes,
)
from repro.core.cluster import Linkage, adaptive_clusters, cut_linkage, hac_linkage
from repro.core.compare import (
    UnknownPolicy,
    _check_weights,
    _matches_pairwise,
    _merge_identical_columns,
    cooccurrence,
    count_dtype,
    denominator,
    match_counts,
    similarity_matrix,
)
from repro.core.detect import step_changes
from repro.core.online import OnlineFenrir
from repro.core.series import VectorSeries
from repro.core.vector import RoutingVector, StateCatalog

GRID = [float(threshold) for threshold in np.arange(0.0, 1.005, 0.01)]
METHODS = ["single", "complete", "average"]
POLICIES = [UnknownPolicy.PESSIMISTIC, UnknownPolicy.EXCLUDE]


@st.composite
def code_matrices(draw, max_times=24, max_networks=8, max_states=4):
    """A small T×N matrix of state codes; code 0 is unknown."""
    num_times = draw(st.integers(min_value=1, max_value=max_times))
    num_networks = draw(st.integers(min_value=1, max_value=max_networks))
    num_states = draw(st.integers(min_value=1, max_value=max_states))
    return draw(
        arrays(
            np.int32,
            (num_times, num_networks),
            elements=st.integers(min_value=0, max_value=num_states),
        )
    )


def tie_heavy_distance(codes: np.ndarray) -> np.ndarray:
    """``1 - k/N`` with k the known matches of each pair of rows."""
    known = codes != 0
    matches = ((codes[:, None, :] == codes[None, :, :]) & known[:, None, :]).sum(-1)
    distance = 1.0 - matches / codes.shape[1]
    np.fill_diagonal(distance, 0.0)
    return distance


class TestSingleLinkageUnderTies:
    @settings(max_examples=150, deadline=None)
    @given(code_matrices())
    def test_heights_and_grid_cuts_equal_oracle(self, codes):
        distance = tie_heavy_distance(codes)
        ours = hac_linkage(distance, "single")
        oracle = global_argmin_linkage(distance, "single")
        assert ours.merges[:, 2].tobytes() == oracle.merges[:, 2].tobytes()
        for threshold in GRID:
            assert np.array_equal(
                cut_linkage(ours, threshold), cut_linkage(oracle, threshold)
            )


def recurring_codes(num_times: int, seed: int, num_networks: int = 12) -> np.ndarray:
    """Rows drawn from a few base vectors, with some cells redrawn.

    The base vectors recur like routing modes, and over few networks most
    ``1 - k/N`` distances tie with many others.
    """
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 5, (6, num_networks))
    codes = base[rng.integers(0, len(base), num_times)]
    redraw = rng.random(codes.shape) < 0.15
    codes[redraw] = rng.integers(0, 5, int(redraw.sum()))
    return codes.astype(np.int32)


class TestSingleLinkageAtRealisticSize:
    @pytest.mark.parametrize("num_times", [300, 600])
    def test_heights_and_grid_cuts_equal_scipy_and_oracle(self, num_times):
        distance = tie_heavy_distance(recurring_codes(num_times, seed=num_times))
        ours = hac_linkage(distance, "single")
        oracle = global_argmin_linkage(distance, "single")
        theirs = Linkage(
            scipy_linkage(squareform(distance, checks=False), method="single"),
            num_times,
        )
        heights = ours.merges[:, 2].tobytes()
        assert heights == oracle.merges[:, 2].tobytes()
        assert heights == theirs.merges[:, 2].tobytes()
        for threshold in GRID:
            labels = cut_linkage(ours, threshold)
            assert np.array_equal(labels, cut_linkage(oracle, threshold))
            assert np.array_equal(labels, cut_linkage(theirs, threshold))

    def test_two_blocks_at_infinite_distance_rejected(self):
        block = tie_heavy_distance(recurring_codes(150, seed=1))
        distance = np.full((300, 300), np.inf)
        distance[:150, :150] = block
        distance[150:, 150:] = block
        with pytest.raises(RuntimeError, match="finite distances"):
            hac_linkage(distance, "single")


class TestLinkageStructure:
    @settings(max_examples=60, deadline=None)
    @given(code_matrices(), st.sampled_from(METHODS))
    def test_heights_sorted_and_sizes_consistent(self, codes, method):
        linkage = hac_linkage(tie_heavy_distance(codes), method)
        heights = linkage.merges[:, 2]
        assert np.all(np.diff(heights) >= 0)
        num_points = linkage.num_points
        sizes = np.ones(2 * num_points - 1)
        for step, (a, b, _height, size) in enumerate(linkage.merges):
            assert a < b < num_points + step
            sizes[num_points + step] = sizes[int(a)] + sizes[int(b)]
            assert size == sizes[num_points + step]


class TestOnePassSweep:
    @settings(max_examples=120, deadline=None)
    @given(
        code_matrices(),
        st.sampled_from(METHODS),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([1, 2, 3, 5, 15]),
    )
    def test_equals_cut_per_threshold(
        self, codes, method, min_cluster_size, max_clusters
    ):
        distance = tie_heavy_distance(codes)
        for linkage in (
            hac_linkage(distance, method),
            global_argmin_linkage(distance, method),
        ):
            result = adaptive_clusters(
                distance,
                max_clusters=max_clusters,
                min_cluster_size=min_cluster_size,
                linkage=linkage,
            )
            labels, threshold, num_clusters = grid_sweep(
                linkage, max_clusters, min_cluster_size
            )
            assert np.array_equal(result.labels, labels)
            assert result.threshold == threshold
            assert result.num_clusters == num_clusters


class TestManyStatePhi:
    @settings(max_examples=80, deadline=None)
    @given(code_matrices(max_states=6), st.data())
    def test_bit_equal_under_integer_weights(self, codes, data):
        weights = data.draw(
            arrays(
                np.float64,
                codes.shape[1],
                elements=st.integers(min_value=0, max_value=1000).map(float),
            )
        )
        expected = pairwise_matches(codes, weights)
        known_states = np.setdiff1d(codes, [0])
        assert _matches_pairwise(codes, weights).tobytes() == expected.tobytes()
        by_state = cooccurrence(codes, known_states, weights)
        assert by_state.tobytes() == expected.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(code_matrices(max_states=6), st.data())
    def test_close_under_float_weights(self, codes, data):
        weights = data.draw(
            arrays(
                np.float64,
                codes.shape[1],
                elements=st.floats(min_value=0.0, max_value=1e3),
            )
        )
        expected = pairwise_matches(codes, weights)
        assert _matches_pairwise(codes, weights) == pytest.approx(expected)
        known_states = np.setdiff1d(codes, [0])
        assert cooccurrence(codes, known_states, weights) == pytest.approx(expected)


def golden_fractional_weights(data, count: int) -> np.ndarray:
    """Multiples of 2**-20 below 1000, as in ``test_phi_golden.py``.

    Their sums are exact in float64 in any order, so a reordered BLAS
    sum cannot move a bit.
    """
    whole = data.draw(
        arrays(np.int64, count, elements=st.integers(min_value=1, max_value=999))
    )
    fraction = data.draw(
        arrays(np.int64, count, elements=st.integers(min_value=1, max_value=2**20 - 1))
    )
    return whole + fraction / 2**20


def assert_cooccurrence_equals_dense(rows, codes, w=None) -> None:
    expected = dense_cooccurrence(rows, codes, w)
    ours = cooccurrence(rows, codes, w)
    assert ours.dtype == expected.dtype
    assert ours.tobytes() == expected.tobytes()


class TestPrunedCooccurrence:
    """``cooccurrence`` one-hots only the positions where a code occurs;
    the counts must equal the dense per-code loop byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(
        code_matrices(max_states=6),
        # Codes up to 8 against matrices up to 6: some never occur.
        st.lists(st.integers(min_value=0, max_value=8), unique=True, max_size=9),
        st.data(),
    )
    def test_equals_dense_loop(self, codes, counted, data):
        integer = data.draw(
            arrays(
                np.float64,
                codes.shape[1],
                elements=st.integers(min_value=0, max_value=1000).map(float),
            )
        )
        assume(integer.any())
        fractional = golden_fractional_weights(data, codes.shape[1])
        known = codes != 0
        for w in (None, _check_weights(integer, codes.shape[1])):
            assert w is None or w.dtype == np.float32
            assert_cooccurrence_equals_dense(codes, counted, w)
            assert_cooccurrence_equals_dense(known, (True,), w)
        w = _check_weights(fractional, codes.shape[1])
        assert w.dtype == np.float64
        assert_cooccurrence_equals_dense(codes, counted, w)
        assert_cooccurrence_equals_dense(known, (True,), w)

    def test_code_in_no_column_adds_nothing(self):
        codes = np.array([[3, 4], [4, 3]], dtype=np.int32)
        assert not cooccurrence(codes, (5, 6)).any()
        assert_cooccurrence_equals_dense(codes, (3, 5))

    def test_code_in_exactly_one_column(self):
        codes = np.array([[3, 4, 4], [3, 4, 5], [0, 5, 4]], dtype=np.int32)
        w = _check_weights(np.array([2.0, 3.0, 5.0]), 3)
        assert_cooccurrence_equals_dense(codes, (3,), w)
        assert cooccurrence(codes, (3,), w).tolist() == [
            [2.0, 2.0, 0.0],
            [2.0, 2.0, 0.0],
            [0.0, 0.0, 0.0],
        ]

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
    def test_empty_rows_or_positions(self, shape):
        codes = np.zeros(shape, dtype=np.int32)
        w = _check_weights(np.ones(shape[1]), shape[1])
        assert cooccurrence(codes, (0, 3)).shape == (shape[0], shape[0])
        assert_cooccurrence_equals_dense(codes, (0, 3))
        assert_cooccurrence_equals_dense(codes, (0, 3), w)
        assert_cooccurrence_equals_dense(codes != 0, (True,), w)


def series_of(codes: np.ndarray) -> VectorSeries:
    num_states = max(int(codes.max()), 3)
    catalog = StateCatalog(f"site{index}" for index in range(num_states))
    networks = tuple(f"n{index}" for index in range(codes.shape[1]))
    start = datetime(2024, 1, 1)
    return VectorSeries.from_vectors(
        [
            RoutingVector(networks, row, catalog, start + timedelta(days=index))
            for index, row in enumerate(codes)
        ]
    )


@st.composite
def duplicate_heavy_matrices(draw, max_base=4, max_networks=12):
    """N columns sampled with replacement from a few base columns."""
    base = draw(code_matrices(max_times=12, max_networks=max_base))
    picks = draw(
        st.lists(
            st.integers(min_value=0, max_value=base.shape[1] - 1),
            min_size=1,
            max_size=max_networks,
        )
    )
    return base[:, picks]


def assert_same_phi(ours: np.ndarray, expected: np.ndarray) -> None:
    """Equal NaN placement, and equal values elsewhere within 1e-12."""
    assert np.array_equal(np.isnan(ours), np.isnan(expected))
    assert ours[~np.isnan(ours)] == pytest.approx(
        expected[~np.isnan(expected)], rel=0, abs=1e-12
    )


class TestMergedSimilarity:
    """``similarity_matrix`` merges identical columns; Φ must not notice."""

    @settings(max_examples=80, deadline=None)
    @given(duplicate_heavy_matrices(), st.sampled_from(POLICIES), st.data())
    def test_bit_equal_to_scalar_phi_under_integer_weights(self, codes, policy, data):
        weights = data.draw(
            arrays(
                np.float64,
                codes.shape[1],
                elements=st.integers(min_value=0, max_value=1000).map(float),
            )
        )
        assume(weights.any())
        series = series_of(codes)
        expected = scalar_similarity(series, weights, policy)
        ours = similarity_matrix(series, weights, policy)
        assert ours.tobytes() == expected.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(duplicate_heavy_matrices(), st.sampled_from(POLICIES), st.data())
    def test_close_to_scalar_phi_under_float_weights(self, codes, policy, data):
        weights = data.draw(
            arrays(
                np.float64,
                codes.shape[1],
                elements=st.floats(min_value=0.01, max_value=1e3),
            )
        )
        series = series_of(codes)
        assert_same_phi(
            similarity_matrix(series, weights, policy),
            scalar_similarity(series, weights, policy),
        )

    @pytest.mark.parametrize(
        "codes",
        [
            np.array([[0, 3, 3, 4]], dtype=np.int32),  # T=1
            np.array([[3], [0], [4], [3]], dtype=np.int32),  # N=1
            np.array([[3] * 5, [0] * 5, [4] * 5], dtype=np.int32),  # all identical
            np.array([[3, 3, 0], [3, 4, 3], [0, 4, 3]], dtype=np.int32),  # all distinct
        ],
        ids=["one-step", "one-network", "all-identical", "all-distinct"],
    )
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_edges_equal_scalar_phi(self, codes, policy):
        series = series_of(codes)
        weights = np.arange(1.0, codes.shape[1] + 1)
        expected = scalar_similarity(series, weights, policy)
        ours = similarity_matrix(series, weights, policy)
        assert ours.tobytes() == expected.tobytes()

    def test_all_identical_columns_merge_to_one(self):
        codes = np.array([[3] * 5, [0] * 5, [4] * 5], dtype=np.int32)
        merged, weights = _merge_identical_columns(codes, np.arange(1.0, 6.0))
        assert merged.shape == (3, 1)
        assert weights.tolist() == [15.0]

    def test_all_distinct_columns_come_back_unchanged(self):
        codes = np.array([[3, 3, 0], [3, 4, 3], [0, 4, 3]], dtype=np.int32)
        weights = np.array([1.0, 2.0, 3.0])
        merged, merged_weights = _merge_identical_columns(codes, weights)
        assert merged is codes
        assert merged_weights is weights

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_many_states_take_the_pairwise_path(self, policy):
        # Distinct states over 3 steps exceed max(32, 2T): the row-block
        # kernel runs on the merged columns.
        rng = np.random.default_rng(5)
        base = np.arange(3, 63, dtype=np.int32).reshape(3, 20)
        base[rng.random(base.shape) < 0.2] = 0
        codes = base[:, rng.integers(0, 20, size=60)]
        assert len(np.unique(codes)) > 32
        series = series_of(codes)
        weights = rng.integers(1, 9, size=60).astype(np.float64)
        expected = scalar_similarity(series, weights, policy)
        ours = similarity_matrix(series, weights, policy)
        assert ours.tobytes() == expected.tobytes()


class TestStepChanges:
    @settings(max_examples=80, deadline=None)
    @given(
        code_matrices(),
        st.sampled_from([UnknownPolicy.PESSIMISTIC, UnknownPolicy.EXCLUDE]),
        st.data(),
    )
    def test_bit_equal_under_integer_weights(self, codes, policy, data):
        series = series_of(codes)
        weights = data.draw(
            arrays(
                np.float64,
                codes.shape[1],
                elements=st.integers(min_value=1, max_value=1000).map(float),
            )
        )
        expected = scalar_step_changes(series, weights, policy)
        assert step_changes(series, weights, policy).tobytes() == expected.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        code_matrices(),
        st.sampled_from([UnknownPolicy.PESSIMISTIC, UnknownPolicy.EXCLUDE]),
        st.data(),
    )
    def test_close_under_float_weights(self, codes, policy, data):
        series = series_of(codes)
        weights = data.draw(
            arrays(
                np.float64,
                codes.shape[1],
                elements=st.floats(min_value=0.01, max_value=1e3),
            )
        )
        assert_same_phi(
            step_changes(series, weights, policy),
            scalar_step_changes(series, weights, policy),
        )


F32 = np.dtype(np.float32)
F64 = np.dtype(np.float64)
TWO_24 = 2**24


@st.composite
def integer_weights_with_total(draw, total, max_networks=8):
    """Non-negative integer weights, as float64, summing to ``total``."""
    count = draw(st.integers(min_value=1, max_value=max_networks))
    cuts = draw(
        st.lists(
            st.integers(min_value=0, max_value=total),
            min_size=count - 1,
            max_size=count - 1,
        )
    )
    return np.diff([0, *sorted(cuts), total]).astype(np.float64)


class TestCountDtype:
    """float32 counts only where they are exact, and then bit-equal."""

    @settings(max_examples=80, deadline=None)
    @given(code_matrices(max_states=6), st.data())
    def test_float32_counts_bit_equal_float64_under_integer_weights(
        self, codes, data
    ):
        # Up to 8 networks of weight below 2**21: totals stay below
        # 2**24 while single counts use most of float32's significand.
        weights = data.draw(
            arrays(
                np.float64,
                codes.shape[1],
                elements=st.integers(min_value=0, max_value=2**21 - 1).map(float),
            )
        )
        assert count_dtype(weights) == F32
        narrow = weights.astype(F32)
        total = weights.sum()
        before, after = codes[:-1], codes[1:]
        pairs = [(before, after), (codes[0], codes)]
        for a, b in pairs:
            assert (
                match_counts(a, b, narrow).tobytes()
                == match_counts(a, b, weights).tobytes()
            )
            assert (
                denominator(a, b, narrow, total, UnknownPolicy.EXCLUDE).tobytes()
                == denominator(a, b, weights, total, UnknownPolicy.EXCLUDE).tobytes()
            )
        known_states = np.setdiff1d(codes, [0])
        assert (
            cooccurrence(codes, known_states, narrow).tobytes()
            == cooccurrence(codes, known_states, weights).tobytes()
        )
        assert (
            denominator(codes, None, narrow, total, UnknownPolicy.EXCLUDE).tobytes()
            == denominator(codes, None, weights, total, UnknownPolicy.EXCLUDE).tobytes()
        )
        # Unweighted, the kernel picks float32 itself; weights of one in
        # float64 are the same counts.
        every_code = np.unique(codes)
        ones = np.ones(codes.shape[1])
        assert (
            cooccurrence(codes, every_code).tobytes()
            == cooccurrence(codes, every_code, ones).tobytes()
        )

    @settings(max_examples=60, deadline=None)
    @given(integer_weights_with_total(TWO_24 - 1))
    def test_total_just_below_two_to_the_24_takes_float32(self, weights):
        assert count_dtype(weights) == F32
        checked = _check_weights(weights, len(weights))
        assert checked.dtype == F32
        assert checked.tobytes() == weights.astype(F32).tobytes()
        # The largest possible count, every network matching, is exact.
        codes = np.full(len(weights), 3, dtype=np.int32)
        assert match_counts(codes, codes, checked) == TWO_24 - 1

    @settings(max_examples=60, deadline=None)
    @given(integer_weights_with_total(TWO_24))
    def test_total_of_two_to_the_24_falls_back_to_float64(self, weights):
        assert count_dtype(weights) == F64
        assert _check_weights(weights, len(weights)).dtype == F64

    @settings(max_examples=60, deadline=None)
    @given(
        integer_weights_with_total(1000),
        st.data(),
        st.floats(min_value=1e-6, max_value=1 - 1e-6),
    )
    def test_non_integral_weights_take_float64(self, weights, data, fraction):
        index = data.draw(st.integers(min_value=0, max_value=len(weights) - 1))
        weights[index] += fraction
        assert count_dtype(weights) == F64
        assert _check_weights(weights, len(weights)).dtype == F64

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(min_value=1, max_value=4))
    def test_two_dimensional_weights_are_guarded_per_column(self, data, columns):
        # The bootstrap's (N, K) resampled weights: float32 only when
        # every column is integral and sums below 2**24, however large
        # the sum over all columns is.
        totals = data.draw(
            st.lists(
                st.sampled_from([1, TWO_24 // 2 + 1, TWO_24 - 1, TWO_24]),
                min_size=columns,
                max_size=columns,
            )
        )
        count = data.draw(st.integers(min_value=1, max_value=6))
        weights = np.zeros((count, columns))
        for column, total in enumerate(totals):
            share = data.draw(integer_weights_with_total(total, max_networks=count))
            weights[: len(share), column] = share
        expected = F32 if max(totals) < TWO_24 else F64
        assert count_dtype(weights) == expected
        if expected == F32:
            weights[data.draw(st.integers(0, count - 1)), 0] += 0.5
            assert count_dtype(weights) == F64

    def test_column_sums_not_the_grand_total_decide(self):
        weights = np.full((4, 3), float(TWO_24 // 4 - 1))
        assert weights.sum() >= TWO_24
        assert count_dtype(weights) == F32

    def test_validated_weights_carry_their_count_dtype(self):
        networks = ["a", "b", "c"]
        assert _check_weights(None, 3).dtype == F32
        integral = OnlineFenrir(networks=networks, weights=[1.0, 4.0, 16.0])
        assert integral._checked_weights.dtype == F32
        fractional = OnlineFenrir(networks=networks, weights=[1.0, 0.5, 2.0])
        assert fractional._checked_weights.dtype == F64
        # The tracker's own copy of the weights stays as given.
        assert integral.weights.dtype == F64
