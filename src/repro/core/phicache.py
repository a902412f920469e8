"""On-disk cache for finished similarity matrices.

Benchmarks, ablations and repeated CLI runs recompute the same Φ
matrix over and over; at O(T²·N) that dominates wall time. The cache
keys a finished matrix on a content hash of *everything the result
depends on* — the code matrix bytes, the weight vector, the unknown
policy, and a kernel version stamp — so any mutation of the inputs
misses and recomputes, while byte-identical reruns load in O(T²).

Entries are a ``<key>.npy`` matrix plus a ``<key>.sha256`` digest of
the matrix bytes. Loads verify the digest, so truncated or corrupted
files are detected, evicted, and transparently recomputed instead of
poisoning downstream clustering.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..obs import get_registry
from .compare import UnknownPolicy

__all__ = ["KERNEL_VERSION", "MatrixCache", "matrix_cache_key"]

# Bump whenever the kernel's numerical behaviour changes, so stale
# entries from older kernels can never be returned.
KERNEL_VERSION = 1


def matrix_cache_key(
    codes: np.ndarray,
    weights: Optional[np.ndarray],
    policy: UnknownPolicy,
) -> str:
    """Content hash of one similarity computation's inputs."""
    digest = hashlib.sha256()
    digest.update(f"fenrir-similarity-v{KERNEL_VERSION}".encode())
    digest.update(f"|policy={policy.value}".encode())
    digest.update(f"|shape={codes.shape}|dtype={codes.dtype.str}".encode())
    digest.update(np.ascontiguousarray(codes).tobytes())
    if weights is None:
        digest.update(b"|weights=none")
    else:
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        digest.update(f"|weights={weights.shape}".encode())
        digest.update(weights.tobytes())
    return digest.hexdigest()


def _matrix_digest(matrix: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(matrix).tobytes()).hexdigest()


class MatrixCache:
    """Content-addressed store of T×T matrices under one directory.

    Counters (``hits``, ``misses``, ``evictions``) make cache behaviour
    observable to tests and benchmarks; hits and misses also go to the
    process registry as ``similarity_cache_{hits,misses}_total``.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory).expanduser()
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _matrix_path(self, key: str) -> Path:
        return self.directory / f"{key}.npy"

    def _digest_path(self, key: str) -> Path:
        return self.directory / f"{key}.sha256"

    def _miss(self) -> None:
        self.misses += 1
        get_registry().counter(
            "similarity_cache_misses_total", help="Similarity-matrix cache misses"
        ).inc()

    def load(self, key: str, expected_size: int) -> Optional[np.ndarray]:
        """The cached matrix for ``key``, or None on miss/corruption."""
        matrix_path = self._matrix_path(key)
        digest_path = self._digest_path(key)
        if not matrix_path.exists() or not digest_path.exists():
            self._miss()
            return None
        try:
            matrix = np.load(matrix_path, allow_pickle=False)
            stored_digest = digest_path.read_text().strip()
            if matrix.shape != (expected_size, expected_size):
                raise ValueError(f"cached shape {matrix.shape} != T={expected_size}")
            if _matrix_digest(matrix) != stored_digest:
                raise ValueError("cached matrix bytes do not match stored digest")
        except Exception:
            # Truncated download, torn write, or tampering: evict and
            # let the caller recompute rather than crash.
            get_registry().counter(
                "similarity_cache_corrupt_evictions_total",
                help="cache entries evicted after failing validation",
            ).inc()
            self.evict(key)
            self._miss()
            return None
        self.hits += 1
        get_registry().counter(
            "similarity_cache_hits_total", help="Similarity-matrix cache hits"
        ).inc()
        return matrix

    def store(self, key: str, matrix: np.ndarray) -> None:
        """Atomically persist ``matrix`` under ``key``."""
        descriptor, temp_name = tempfile.mkstemp(
            dir=self.directory, suffix=".npy.tmp"
        )
        try:
            with os.fdopen(descriptor, "wb") as stream:
                np.save(stream, matrix, allow_pickle=False)
            os.replace(temp_name, self._matrix_path(key))
        except Exception:
            if os.path.exists(temp_name):
                os.unlink(temp_name)
            raise
        self._digest_path(key).write_text(_matrix_digest(matrix) + "\n")

    def evict(self, key: str) -> None:
        """Drop one entry (missing files are fine)."""
        removed = False
        for path in (self._matrix_path(key), self._digest_path(key)):
            if path.exists():
                path.unlink()
                removed = True
        if removed:
            self.evictions += 1
