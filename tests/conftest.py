"""Shared fixtures for the Fenrir reproduction test suite."""

from __future__ import annotations

import os
import random
from datetime import datetime, timedelta
from typing import Callable

import pytest
from hypothesis import settings

from repro.bgp.topology import ASTopology
from repro.core.series import VectorSeries
from repro.core.vector import RoutingVector, StateCatalog, UNKNOWN
from repro.net.geo import city

# CI loads the ``ci`` profile (HYPOTHESIS_PROFILE=ci): a fixed example
# sequence and no example database, so a red run replays as is, and
# every failure prints the blob that reproduces it. Local runs keep
# the default randomized profile.
settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


def pytest_collection_modifyitems(config, items) -> None:
    """Skip ``slow``-marked tests unless RUN_SLOW=1 is exported.

    Tier-1 runs stay fast and deterministic; the multi-process stress
    tests opt in via the environment (see docs/performance.md).
    """
    if os.environ.get("RUN_SLOW"):
        return
    skip_slow = pytest.mark.skip(reason="slow test: set RUN_SLOW=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


def random_routing_series(
    num_networks: int = 40,
    num_rounds: int = 12,
    num_states: int = 5,
    unknown_fraction: float = 0.1,
    churn: float = 0.05,
    seed: int = 0,
) -> VectorSeries:
    """A seeded random series: persistent assignments with churn.

    Shared by the phi property tests and the Φ cache tests so every
    randomized input is reproducible from its seed alone.
    """
    rng = random.Random(seed)
    networks = [f"n{i}" for i in range(num_networks)]
    series = VectorSeries(networks, StateCatalog())
    t0 = datetime(2024, 1, 1)

    def draw_state() -> str:
        if rng.random() < unknown_fraction:
            return UNKNOWN
        return f"s{rng.randrange(num_states)}"

    assignment = {network: draw_state() for network in networks}
    for round_index in range(num_rounds):
        if round_index:
            for network in networks:
                if rng.random() < churn:
                    assignment[network] = draw_state()
        series.append_mapping(dict(assignment), t0 + timedelta(hours=round_index))
    return series


def random_vector_pair(
    num_networks: int = 30,
    num_states: int = 4,
    unknown_fraction: float = 0.15,
    seed: int = 0,
) -> tuple[RoutingVector, RoutingVector]:
    """Two seeded random vectors over the same networks and catalog."""
    series = random_routing_series(
        num_networks=num_networks,
        num_rounds=2,
        num_states=num_states,
        unknown_fraction=unknown_fraction,
        churn=0.5,
        seed=seed,
    )
    return series[0], series[1]


@pytest.fixture
def make_series() -> Callable[..., VectorSeries]:
    return random_routing_series


@pytest.fixture
def make_vector_pair() -> Callable[..., tuple[RoutingVector, RoutingVector]]:
    return random_vector_pair


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture
def t0() -> datetime:
    return datetime(2024, 1, 1)


@pytest.fixture
def small_topology() -> ASTopology:
    """A hand-built topology with known structure::

          T1 --- T2        (tier-1 peers)
         /  \\   /  \\
        R1   R2    R3      (regional providers, customers of tier-1s)
        |    |     |
        S1   S2    S3      (stubs; S2 also buys from R1)
    """
    topo = ASTopology()
    topo.add_as(1, "T1", tier=1, location=city("NYC"))
    topo.add_as(2, "T2", tier=1, location=city("LHR"))
    topo.add_as(11, "R1", tier=2, location=city("ORD"))
    topo.add_as(12, "R2", tier=2, location=city("LAX"))
    topo.add_as(13, "R3", tier=2, location=city("FRA"))
    topo.add_as(21, "S1", tier=3, location=city("ORD"))
    topo.add_as(22, "S2", tier=3, location=city("LAX"))
    topo.add_as(23, "S3", tier=3, location=city("FRA"))
    topo.add_peer_link(1, 2)
    topo.add_customer_link(1, 11)
    topo.add_customer_link(1, 12)
    topo.add_customer_link(2, 12)
    topo.add_customer_link(2, 13)
    topo.add_customer_link(11, 21)
    topo.add_customer_link(12, 22)
    topo.add_customer_link(13, 23)
    topo.add_customer_link(11, 22)
    return topo


@pytest.fixture
def simple_series(t0: datetime) -> VectorSeries:
    """Four networks, five observations, one clear change after index 2."""
    series = VectorSeries(["n1", "n2", "n3", "n4"], StateCatalog())
    states = [
        {"n1": "A", "n2": "A", "n3": "B", "n4": "B"},
        {"n1": "A", "n2": "A", "n3": "B", "n4": "B"},
        {"n1": "A", "n2": "A", "n3": "B", "n4": "B"},
        {"n1": "B", "n2": "B", "n3": "A", "n4": "B"},
        {"n1": "B", "n2": "B", "n3": "A", "n4": "B"},
    ]
    for index, assignment in enumerate(states):
        series.append_mapping(assignment, t0 + timedelta(days=index))
    return series
