"""Consistent hashing: which shard owns which monitor.

The cluster partitions monitors across shards with a classic
virtual-node hash ring. Each shard contributes ``vnodes`` points on a
64-bit circle (SHA-1 of ``"shard-<id>:<vnode>"`` — a *stable* digest,
never Python's salted ``hash()``, so every router, supervisor, and
test computes the identical ring); a monitor is owned by the first
point clockwise of SHA-1 of its name.

Two properties matter operationally and are pinned by the Hypothesis
suite in ``tests/test_cluster_ring.py``:

* **balance** — with 128 vnodes per shard, shard loads stay
  within a modest factor of ideal at realistic monitor counts;
* **minimal remap** — adding or removing one shard only moves the keys
  that shard gains or loses; everyone else's monitors stay put, so a
  rebalance ships O(K/N) monitors, not O(K).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["DEFAULT_VNODES", "HashRing", "misplaced", "stable_hash"]

#: Virtual nodes per shard. 128 keeps the max/ideal load ratio around
#: 1.3 at hundreds of monitors (measured, and pinned by the balance
#: property test) while ring construction stays microseconds.
DEFAULT_VNODES = 128


def stable_hash(token: str) -> int:
    """First 8 bytes of SHA-1 as an unsigned int — stable across runs.

    Python's builtin ``hash`` is salted per process; a ring built on it
    would send each router's requests to different shards.
    """
    return int.from_bytes(hashlib.sha1(token.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """A consistent-hash ring mapping string keys to integer shard ids."""

    def __init__(self, shards: Iterable[int], vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be at least 1")
        self.vnodes = vnodes
        self._shards: Tuple[int, ...] = tuple(sorted(set(shards)))
        if not self._shards:
            raise ValueError("a ring needs at least one shard")
        points: List[Tuple[int, int]] = []
        for shard in self._shards:
            for vnode in range(vnodes):
                points.append((stable_hash(f"shard-{shard}:{vnode}"), shard))
        # Sorting on (hash, shard) makes collisions (astronomically
        # unlikely at 64 bits, but cheap to pin down) deterministic too.
        points.sort()
        self._points = points
        self._hashes = [point[0] for point in points]

    @property
    def shards(self) -> Tuple[int, ...]:
        """The shard ids on the ring, ascending."""
        return self._shards

    def owner(self, key: str) -> int:
        """The shard owning ``key``: first ring point clockwise of it."""
        index = bisect.bisect_right(self._hashes, stable_hash(key))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def ownership(self, keys: Iterable[str]) -> Dict[str, int]:
        """``{key: owning shard}`` for every key."""
        return {key: self.owner(key) for key in keys}

    def counts(self, keys: Iterable[str]) -> Dict[int, int]:
        """How many of ``keys`` each shard owns (all shards present)."""
        counts = {shard: 0 for shard in self._shards}
        for key in keys:
            counts[self.owner(key)] += 1
        return counts

    def digest(self) -> str:
        """A short stable fingerprint of the ring's shape.

        Two rings agree on every key's owner iff they were built from
        the same (shards, vnodes) pair, so the digest covers exactly
        that. Ring-aware clients compare it against the ``topology``
        response to detect drift without re-fetching the full ring.
        """
        body = f"vnodes={self.vnodes};shards={','.join(map(str, self._shards))}"
        return hashlib.sha1(body.encode("utf-8")).hexdigest()[:16]

    def with_shard(self, shard: int) -> "HashRing":
        """A new ring with ``shard`` added (no-op if present)."""
        return HashRing((*self._shards, shard), vnodes=self.vnodes)

    def without_shard(self, shard: int) -> "HashRing":
        """A new ring with ``shard`` removed."""
        remaining = tuple(s for s in self._shards if s != shard)
        return HashRing(remaining, vnodes=self.vnodes)

    @classmethod
    def for_cluster(cls, num_shards: int) -> "HashRing":
        """The ring every cluster component builds: shards ``0..N-1``."""
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        return cls(range(num_shards))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashRing):
            return NotImplemented
        return self._shards == other._shards and self.vnodes == other.vnodes

    def __hash__(self) -> int:
        return hash((self._shards, self.vnodes))

    def __repr__(self) -> str:
        return f"HashRing(shards={self._shards!r}, vnodes={self.vnodes})"


def misplaced(
    ring: HashRing, holdings: Dict[int, Sequence[str]]
) -> List[Tuple[str, int, int]]:
    """Monitors living on the wrong shard: ``(name, current, owner)``.

    ``holdings`` maps each shard id to the monitor names found in its
    data directory. Used by the supervisor's rebalance-on-start pass
    after the shard count changes between runs.
    """
    moves: List[Tuple[str, int, int]] = []
    for shard, names in sorted(holdings.items()):
        for name in sorted(names):
            target = ring.owner(name)
            if target != shard:
                moves.append((name, shard, target))
    return moves
