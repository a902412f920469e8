"""Scaling benchmarks: Fenrir's core computations vs study size.

Not a paper table — these document the computational envelope of the
implementation: the all-pairs Φ matrix in networks (N) and rounds (T),
HAC in T (single linkage on its minimum spanning tree, average linkage
on the nearest-neighbour chain), and the routing oracle in topology
size. The paper's full-scale studies (5M blocks, 1.9k daily rounds)
stay tractable because Φ is O(|S|·T²·N) in BLAS and everything
downstream is T-sized.
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.bgp.policy import Announcement
from repro.bgp.routing import compute_routes
from repro.bgp.topology import generate_internet_like
from repro.core.cluster import hac_linkage
from repro.core.compare import similarity_matrix
from repro.core.series import VectorSeries
from repro.core.vector import StateCatalog

T0 = datetime(2024, 1, 1)


def synthetic_series(num_networks: int, num_rounds: int, num_states: int = 8) -> VectorSeries:
    rng = random.Random(7)
    networks = [f"n{i}" for i in range(num_networks)]
    series = VectorSeries(networks, StateCatalog())
    assignment = {n: f"s{rng.randrange(num_states)}" for n in networks}
    for round_index in range(num_rounds):
        # 2% churn per round keeps the data realistic.
        for n in rng.sample(networks, max(1, num_networks // 50)):
            assignment[n] = f"s{rng.randrange(num_states)}"
        series.append_mapping(dict(assignment), T0 + timedelta(hours=round_index))
    return series


@pytest.mark.parametrize("num_networks", [1000, 5000, 20000])
def test_scaling_similarity_in_networks(benchmark, num_networks):
    series = synthetic_series(num_networks, 50)
    result = benchmark(similarity_matrix, series)
    assert result.shape == (50, 50)


@pytest.mark.parametrize("num_rounds", [50, 150, 300])
def test_scaling_similarity_in_rounds(benchmark, num_rounds):
    series = synthetic_series(2000, num_rounds)
    result = benchmark(similarity_matrix, series)
    assert result.shape == (num_rounds, num_rounds)


# Single linkage runs Prim's minimum spanning tree, average linkage the
# nearest-neighbour chain: one row per algorithm.
@pytest.mark.parametrize("method", ["single", "average"])
@pytest.mark.parametrize("num_points", [100, 300, 600])
def test_scaling_hac_in_rounds(benchmark, num_points, method):
    rng = np.random.default_rng(0)
    points = rng.uniform(0, 1, num_points)
    distance = np.abs(points[:, None] - points[None, :])
    result = benchmark(hac_linkage, distance, method)
    assert result.num_points == num_points


@pytest.mark.parametrize("num_stubs", [200, 800, 2000])
def test_scaling_routing_oracle(benchmark, num_stubs):
    rng = random.Random(1)
    topo = generate_internet_like(
        rng, num_tier1=6, num_tier2=max(20, num_stubs // 20), num_stubs=num_stubs
    )
    stubs = [asn for asn, node in topo.nodes.items() if node.tier == 3]
    announcements = [
        Announcement(origin=stubs[0], label="A"),
        Announcement(origin=stubs[1], label="B"),
        Announcement(origin=stubs[2], label="C"),
    ]
    outcome = benchmark(compute_routes, topo, announcements)
    assert len(outcome) == len(topo)
