"""Φ cache correctness: hits, content-keyed misses, corruption recovery.

The cache is exercised the way the pipeline uses it: ``Fenrir`` with
``FenrirConfig(cache_dir=...)`` loads, runs the kernel on a miss, and
stores. Kernel calls are counted by wrapping the ``similarity_matrix``
the pipeline module calls.
"""

from __future__ import annotations

import random
from datetime import timedelta

import numpy as np
import pytest

from repro.core import pipeline
from repro.core.compare import UnknownPolicy, similarity_matrix
from repro.core.phicache import MatrixCache, matrix_cache_key
from repro.core.pipeline import Fenrir, FenrirConfig
from repro.core.series import VectorSeries
from repro.core.vector import UNKNOWN, StateCatalog


class CachedPhi:
    """Φ through the pipeline's cache, counting kernel runs."""

    def __init__(self, directory, monkeypatch) -> None:
        self.directory = directory
        self.kernel_runs = 0

        def counting_kernel(*args, **kwargs):
            self.kernel_runs += 1
            return similarity_matrix(*args, **kwargs)

        monkeypatch.setattr(pipeline, "similarity_matrix", counting_kernel)

    def __call__(self, series, weights=None, policy=UnknownPolicy.PESSIMISTIC):
        config = FenrirConfig(cache_dir=str(self.directory), unknown_policy=policy)
        return Fenrir(config)._similarity(series, weights)


@pytest.fixture
def cached_phi(tmp_path, monkeypatch):
    return CachedPhi(tmp_path / "phi-cache", monkeypatch)


def _forbid_kernel(monkeypatch):
    def no_kernel(*args, **kwargs):
        raise AssertionError("the Φ kernel ran on a warm cache")

    monkeypatch.setattr(pipeline, "similarity_matrix", no_kernel)


class TestCacheHits:
    def test_identical_inputs_hit(self, make_series, cached_phi):
        series = make_series(seed=3)
        first = cached_phi(series)
        assert cached_phi.kernel_runs == 1
        second = cached_phi(series)
        assert cached_phi.kernel_runs == 1
        assert np.array_equal(first, second)

    def test_cache_shared_across_pipelines(self, make_series, tmp_path, monkeypatch):
        series = make_series(seed=4)
        expected = Fenrir(FenrirConfig(cache_dir=str(tmp_path)))._similarity(series, None)
        _forbid_kernel(monkeypatch)
        result = Fenrir(FenrirConfig(cache_dir=str(tmp_path)))._similarity(series, None)
        assert np.array_equal(expected, result)

    def test_cached_matrix_equals_serial_oracle(self, make_series, cached_phi):
        series = make_series(seed=12, unknown_fraction=0.25)
        cached_phi(series, policy=UnknownPolicy.EXCLUDE)
        result = cached_phi(series, policy=UnknownPolicy.EXCLUDE)
        assert cached_phi.kernel_runs == 1
        reference = similarity_matrix(series, policy=UnknownPolicy.EXCLUDE)
        assert np.array_equal(np.isnan(reference), np.isnan(result))
        finite = ~np.isnan(reference)
        assert np.array_equal(reference[finite], result[finite])


class TestCacheMisses:
    def test_different_codes_miss(self, make_series, cached_phi):
        cached_phi(make_series(seed=5))
        cached_phi(make_series(seed=6))
        assert cached_phi.kernel_runs == 2

    def test_different_weights_miss(self, make_series, cached_phi):
        series = make_series(seed=5)
        weights = np.full(len(series.networks), 2.0)
        cached_phi(series, weights=weights)
        cached_phi(series, weights=1.01 * weights)
        cached_phi(series)  # unweighted is its own key
        assert cached_phi.kernel_runs == 3

    def test_different_policy_misses(self, make_series, cached_phi):
        series = make_series(seed=5)
        cached_phi(series, policy=UnknownPolicy.PESSIMISTIC)
        cached_phi(series, policy=UnknownPolicy.EXCLUDE)
        assert cached_phi.kernel_runs == 2

    def test_key_function_is_content_addressed(self, make_series):
        series = make_series(seed=8)
        codes = series.matrix
        key = matrix_cache_key(codes, None, UnknownPolicy.PESSIMISTIC)
        assert key == matrix_cache_key(codes.copy(), None, UnknownPolicy.PESSIMISTIC)
        mutated = codes.copy()
        mutated[0, 0] += 1
        assert key != matrix_cache_key(mutated, None, UnknownPolicy.PESSIMISTIC)


class TestCacheKey:
    def test_golden_keys_keep_existing_directories_valid(self, t0):
        # Recorded before the cache moved into repro.core: a change here
        # orphans every cache directory written so far.
        series = VectorSeries(["a", "b", "c"], StateCatalog())
        series.append_mapping({"a": "X", "b": "Y", "c": UNKNOWN}, t0)
        series.append_mapping({"a": "X", "b": "X", "c": "Y"}, t0 + timedelta(days=1))
        assert series.matrix.tolist() == [[3, 4, 0], [3, 3, 4]]
        assert matrix_cache_key(series.matrix, None, UnknownPolicy.PESSIMISTIC) == (
            "3914ad979509b56e0460a0862c6dd2cf351c227be0a401b368de8770b2009cc2"
        )
        weights = np.array([1.0, 2.0, 0.5])
        assert matrix_cache_key(series.matrix, weights, UnknownPolicy.EXCLUDE) == (
            "985a9bd50dda56a9492ef46eee75ac1c36c3ddad474f1419be4b2f8545f15703"
        )


class TestCacheDirectory:
    def test_home_relative_directory_expands(self, tmp_path, monkeypatch):
        home = tmp_path / "home"
        workdir = tmp_path / "work"
        workdir.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.chdir(workdir)
        cache = MatrixCache("~/.cache/fenrir")
        assert cache.directory == home / ".cache" / "fenrir"
        assert cache.directory.is_dir()
        assert not (workdir / "~").exists()


class TestPipelineCache:
    def test_warm_run_never_calls_kernel(self, t0, tmp_path, monkeypatch):
        # Half the networks move away for rounds 8-15 and come back: two
        # modes, one recurring, and an event at each move.
        rng = random.Random(5)
        networks = [f"n{i}" for i in range(40)]
        series = VectorSeries(networks, StateCatalog())
        for round_index in range(24):
            moved = 8 <= round_index < 16
            series.append_mapping(
                {
                    network: "C" if rng.random() < 0.05
                    else "B" if moved and index < 20 else "A"
                    for index, network in enumerate(networks)
                },
                t0 + timedelta(days=round_index),
            )
        config = FenrirConfig(cache_dir=str(tmp_path))
        cold = Fenrir(config).run(series)
        assert len(list(tmp_path.glob("*.npy"))) == 1
        _forbid_kernel(monkeypatch)
        warm = Fenrir(config).run(series)
        assert warm.similarity.tobytes() == cold.similarity.tobytes()
        assert warm.modes.labels.tobytes() == cold.modes.labels.tobytes()
        assert warm.modes.threshold == cold.modes.threshold
        assert len(cold.events) == 2
        assert warm.events == cold.events


class TestCacheCorruption:
    def _entry_paths(self, cache_dir):
        matrices = list(cache_dir.glob("*.npy"))
        assert len(matrices) == 1
        return matrices[0]

    def test_truncated_file_recomputed(self, make_series, cached_phi):
        series = make_series(seed=9)
        expected = cached_phi(series)
        matrix_path = self._entry_paths(cached_phi.directory)
        matrix_path.write_bytes(matrix_path.read_bytes()[:20])  # truncate
        key = matrix_path.stem
        cache = MatrixCache(cached_phi.directory)
        assert cache.load(key, len(series)) is None
        assert cache.evictions == 1
        result = cached_phi(series)
        assert cached_phi.kernel_runs == 2
        assert np.array_equal(expected, result)
        # The recomputed entry replaced the corrupt one and hits again.
        cached_phi(series)
        assert cached_phi.kernel_runs == 2

    def test_bit_flipped_matrix_detected_by_digest(self, make_series, cached_phi):
        series = make_series(seed=10)
        expected = cached_phi(series)
        matrix_path = self._entry_paths(cached_phi.directory)
        payload = bytearray(matrix_path.read_bytes())
        payload[-1] ^= 0xFF  # flip bits inside the data section
        matrix_path.write_bytes(bytes(payload))
        result = cached_phi(series)
        assert cached_phi.kernel_runs == 2
        assert np.array_equal(expected, result)

    def test_missing_digest_sidecar_is_a_miss(self, make_series, cached_phi):
        series = make_series(seed=11)
        cached_phi(series)
        for sidecar in cached_phi.directory.glob("*.sha256"):
            sidecar.unlink()
        cached_phi(series)
        assert cached_phi.kernel_runs == 2

    def test_wrong_shape_entry_evicted(self, tmp_path):
        cache = MatrixCache(tmp_path)
        key = "deadbeef"
        cache.store(key, np.eye(4))
        assert cache.load(key, expected_size=4) is not None
        assert cache.load(key, expected_size=5) is None  # shape mismatch
        assert cache.evictions == 1
        assert cache.load(key, expected_size=4) is None  # evicted for good
        assert (cache.hits, cache.misses) == (1, 2)
