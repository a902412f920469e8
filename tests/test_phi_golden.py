"""Golden Φ digests: the bytes of ``similarity_matrix`` and ``step_changes``.

``tests/golden/phi_digests.json`` pins a sha256 of both outputs for 16
small seeded series: each Φ kernel path (by-state co-occurrence, and
pairwise rows when distinct states exceed max(32, 2T)), each
``UnknownPolicy`` and four weightings — none, integer
``address_weights``, integers whose total passes 2**24, and non-integral
floats. A kernel change that moves one bit of one Φ changes a digest.

Every weighting is chosen so that its sums are exact in float64 in any
order: the non-integral weights are multiples of 2**-20 well below
2**33. The digests therefore do not depend on the BLAS build or on how
it blocks a sum, only on the arithmetic the kernels ask for.

Regenerate after an intentional numerical change (and bump
``KERNEL_VERSION`` in ``repro.core.phicache`` with it)::

    PYTHONPATH=src python tests/test_phi_golden.py
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from repro.core.compare import UnknownPolicy, similarity_matrix
from repro.core.detect import step_changes
from repro.core.series import VectorSeries
from repro.core.vector import RoutingVector, StateCatalog
from repro.core.weighting import address_weights

GOLDEN = Path(__file__).parent / "golden" / "phi_digests.json"

#: (kernel path, T, distinct known states): the pairwise series has
#: more states than max(32, 2T), the by-state one far fewer.
PATHS = {"by-state": (24, 6), "pairwise": (6, 60)}
WEIGHTINGS = ("none", "address", "large-integer", "fractional")
NUM_NETWORKS = 60


def golden_series(path: str) -> VectorSeries:
    """Seeded T×60 series, 30% unknown, columns drawn from 20 bases.

    Repeated columns exercise ``similarity_matrix``'s column merge.
    Networks are prefixes of mixed length so ``address_weights`` gives
    1, 4 or 16 /24 blocks per network.
    """
    num_times, num_states = PATHS[path]
    rng = np.random.default_rng(2025)
    base = rng.integers(3, 3 + num_states, size=(num_times, 20), dtype=np.int32)
    base[rng.random(base.shape) < 0.3] = 0
    codes = base[:, rng.integers(0, 20, size=NUM_NETWORKS)]
    catalog = StateCatalog(f"site{index}" for index in range(num_states))
    networks = tuple(
        f"10.{index}.0.0/{(24, 22, 20)[index % 3]}" for index in range(NUM_NETWORKS)
    )
    start = datetime(2024, 1, 1)
    return VectorSeries.from_vectors(
        [
            RoutingVector(networks, row, catalog, start + timedelta(days=index))
            for index, row in enumerate(codes)
        ]
    )


def golden_weights(series: VectorSeries, weighting: str):
    rng = np.random.default_rng(7)
    count = len(series.networks)
    if weighting == "none":
        return None
    if weighting == "address":
        return address_weights(series.networks)
    if weighting == "large-integer":
        # Odd integers near 2**20: the total passes 2**24.
        return (rng.integers(2**19, 2**20, size=count) | 1).astype(np.float64)
    whole = rng.integers(1, 1000, size=count)
    return whole + rng.integers(1, 2**20, size=count) / 2**20


CASES = [
    (path, weighting, policy)
    for path in PATHS
    for weighting in WEIGHTINGS
    for policy in UnknownPolicy
]


def case_name(path: str, weighting: str, policy: UnknownPolicy) -> str:
    return f"{path}/{weighting}/{policy.value}"


def case_digests(path: str, weighting: str, policy: UnknownPolicy) -> dict[str, str]:
    series = golden_series(path)
    weights = golden_weights(series, weighting)
    matrix = similarity_matrix(series, weights, policy)
    steps = step_changes(series, weights, policy)
    return {
        "similarity_matrix": hashlib.sha256(matrix.tobytes()).hexdigest(),
        "step_changes": hashlib.sha256(steps.tobytes()).hexdigest(),
    }


def test_cases_cover_both_kernel_paths():
    for path, (num_times, _) in PATHS.items():
        states = np.unique(golden_series(path).matrix)
        pairwise = len(states) > max(32, 2 * num_times)
        assert pairwise == (path == "pairwise")


def test_large_integer_weights_pass_two_to_the_24():
    weights = golden_weights(golden_series("by-state"), "large-integer")
    assert weights.sum() >= 2**24


@pytest.mark.parametrize(
    "path,weighting,policy", CASES, ids=[case_name(*case) for case in CASES]
)
def test_phi_bytes_match_golden(path, weighting, policy):
    recorded = json.loads(GOLDEN.read_text())
    expected = recorded[case_name(path, weighting, policy)]
    assert case_digests(path, weighting, policy) == expected


def test_golden_has_exactly_the_cases():
    recorded = json.loads(GOLDEN.read_text())
    assert sorted(recorded) == sorted(case_name(*case) for case in CASES)
    assert len(recorded) == 16


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    recorded = {case_name(*case): case_digests(*case) for case in CASES}
    GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
