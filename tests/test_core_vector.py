"""Tests for routing vectors and the state catalog."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.vector import (
    ERROR,
    OTHER,
    SPECIAL_STATES,
    UNKNOWN,
    RoutingVector,
    StateCatalog,
    labels_of,
)


class TestStateCatalog:
    def test_specials_have_fixed_codes(self):
        catalog = StateCatalog()
        assert catalog.code(UNKNOWN) == 0
        assert catalog.code(ERROR) == 1
        assert catalog.code(OTHER) == 2

    def test_new_labels_get_sequential_codes(self):
        catalog = StateCatalog()
        assert catalog.code("LAX") == 3
        assert catalog.code("AMS") == 4
        assert catalog.code("LAX") == 3  # idempotent

    def test_lookup_does_not_assign(self):
        catalog = StateCatalog()
        assert catalog.lookup("LAX") is None
        assert len(catalog) == 3

    def test_label_round_trip(self):
        catalog = StateCatalog(["LAX"])
        assert catalog.label(catalog.code("LAX")) == "LAX"

    def test_site_labels_excludes_specials(self):
        catalog = StateCatalog(["LAX", "AMS"])
        assert catalog.site_labels == ("LAX", "AMS")
        assert set(SPECIAL_STATES) & set(catalog.site_labels) == set()

    def test_contains(self):
        catalog = StateCatalog(["LAX"])
        assert "LAX" in catalog
        assert UNKNOWN in catalog
        assert "AMS" not in catalog

    @given(
        known=st.lists(st.sampled_from("ABCDEF"), max_size=4),
        labels=st.lists(st.sampled_from(["A", "B", "C", "D", "E", "F", UNKNOWN])),
    )
    def test_codes_assign_in_first_occurrence_order(self, known, labels):
        # The one label coding must build the very catalog that coding
        # label by label builds, or every snapshot's bytes would move.
        batch, single = StateCatalog(known), StateCatalog(known)
        codes = batch.codes(labels)
        assert codes.dtype == np.int32 and codes.shape == (len(labels),)
        assert codes.tolist() == [single.code(label) for label in labels]
        assert batch.labels == single.labels

    def test_codes_of_no_labels(self):
        assert StateCatalog().codes([]).shape == (0,)


def test_labels_of_reads_networks_in_order():
    mapping = {"b": "LAX", "x9": "AMS", "a": ERROR}
    assert labels_of(mapping, ["a", "b", "c"]) == [ERROR, "LAX", UNKNOWN]
    assert labels_of(mapping, []) == []


class TestRoutingVector:
    def test_from_mapping_sorted_networks(self):
        vector = RoutingVector.from_mapping({"b": "LAX", "a": "AMS"})
        assert vector.networks == ("a", "b")
        assert vector.state_of("a") == "AMS"

    def test_from_mapping_explicit_networks_fills_unknown(self):
        vector = RoutingVector.from_mapping({"a": "LAX"}, networks=["a", "b"])
        assert vector.state_of("b") == UNKNOWN
        assert vector.fraction_unknown() == 0.5

    def test_to_mapping_round_trip(self):
        mapping = {"a": "LAX", "b": UNKNOWN, "c": ERROR}
        vector = RoutingVector.from_mapping(mapping)
        assert vector.to_mapping() == mapping

    def test_shape_validation(self):
        catalog = StateCatalog(["LAX"])
        with pytest.raises(ValueError):
            RoutingVector(("a", "b"), np.array([0]), catalog)

    def test_code_range_validation(self):
        catalog = StateCatalog()
        with pytest.raises(ValueError):
            RoutingVector(("a",), np.array([99]), catalog)

    def test_known_mask(self):
        vector = RoutingVector.from_mapping({"a": "LAX", "b": UNKNOWN, "c": ERROR})
        assert vector.known_mask.tolist() == [True, False, True]

    def test_one_hot_shape_and_rows(self):
        vector = RoutingVector.from_mapping({"a": "LAX", "b": "AMS"})
        matrix = vector.one_hot()
        assert matrix.shape == (2, len(vector.catalog))
        assert matrix.sum() == 2
        assert (matrix.sum(axis=1) == 1).all()

    def test_aggregate_counts(self):
        vector = RoutingVector.from_mapping(
            {"a": "LAX", "b": "LAX", "c": "AMS", "d": UNKNOWN}
        )
        assert vector.aggregate() == {"LAX": 2.0, "AMS": 1.0, UNKNOWN: 1.0}

    def test_aggregate_weighted(self):
        vector = RoutingVector.from_mapping({"a": "LAX", "b": "AMS"})
        weighted = vector.aggregate(weights=np.array([10.0, 1.0]))
        assert weighted == {"LAX": 10.0, "AMS": 1.0}

    def test_aggregate_weight_shape_checked(self):
        vector = RoutingVector.from_mapping({"a": "LAX"})
        with pytest.raises(ValueError):
            vector.aggregate(weights=np.array([1.0, 2.0]))

    def test_replace_codes(self):
        vector = RoutingVector.from_mapping({"a": "LAX", "b": "AMS"})
        swapped = vector.replace_codes(vector.codes[::-1].copy())
        assert swapped.state_of("a") == "AMS"
        assert vector.state_of("a") == "LAX"  # original untouched

    def test_fraction_unknown_empty(self):
        vector = RoutingVector.from_mapping({})
        assert vector.fraction_unknown() == 0.0

    def test_catalog_shared_across_vectors(self):
        catalog = StateCatalog()
        a = RoutingVector.from_mapping({"x": "LAX"}, catalog=catalog)
        b = RoutingVector.from_mapping({"x": "AMS"}, catalog=catalog)
        assert a.catalog is b.catalog
        assert catalog.lookup("LAX") is not None and catalog.lookup("AMS") is not None
