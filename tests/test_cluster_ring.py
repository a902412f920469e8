"""Property tests for the consistent-hash ring (``repro.serve.ring``).

The ring is the cluster's placement contract: the router, the
supervisor's rebalance pass, and any client-side sharding must all
agree on which shard owns a monitor, across processes and Python
versions. Hypothesis drives the three properties that contract rests
on: total deterministic ownership, bounded imbalance, and minimal
remapping when the shard set changes by one.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.ring import DEFAULT_VNODES, HashRing, misplaced, stable_hash

# Monitor-name-shaped keys (the ring only ever sees valid monitor names).
names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789._-", min_size=1, max_size=24
)
shard_sets = st.sets(st.integers(min_value=0, max_value=63), min_size=1, max_size=8)


class TestOwnership:
    @given(shards=shard_sets, key=names)
    def test_ownership_is_total_and_deterministic(self, shards, key):
        ring = HashRing(shards)
        owner = ring.owner(key)
        assert owner in shards
        # Same inputs, fresh ring: placement must not depend on object
        # identity, construction order, or process-salted hashing.
        assert HashRing(sorted(shards)).owner(key) == owner

    @given(key=names)
    def test_single_shard_owns_everything(self, key):
        assert HashRing([7]).owner(key) == 7

    @given(shards=shard_sets, keys=st.lists(names, max_size=50))
    def test_ownership_partitions_the_keyspace(self, shards, keys):
        ring = HashRing(shards)
        owners = ring.ownership(keys)
        assert set(owners) == set(keys)
        assert set(owners.values()) <= set(shards)
        assert all(owners[key] == ring.owner(key) for key in keys)

    def test_stable_hash_is_pinned(self):
        # The digest is part of the on-disk/cross-process contract: if
        # this changes, every existing cluster rebalances on upgrade.
        assert stable_hash("alpha") == stable_hash("alpha")
        assert stable_hash("alpha") != stable_hash("beta")
        assert stable_hash("shard-0:0") == 0x81EA1B4AE4C0690D


class TestBalance:
    @settings(deadline=None, max_examples=25)
    @given(num_shards=st.integers(min_value=1, max_value=8))
    def test_load_within_bound_of_ideal(self, num_shards):
        ring = HashRing.for_cluster(num_shards)
        keys = [f"monitor-{i:04d}" for i in range(600)]
        counts = Counter(ring.owner(key) for key in keys)
        ideal = len(keys) / num_shards
        # 128 vnodes lands max/ideal around 1.3 empirically; 1.6 gives
        # headroom without letting real imbalance regress unnoticed.
        assert max(counts.values()) <= 1.6 * ideal

    def test_counts_cover_every_shard(self):
        ring = HashRing.for_cluster(5)
        assert ring.vnodes == DEFAULT_VNODES
        keys = [f"monitor-{i:04d}" for i in range(600)]
        counts = ring.counts(keys)
        # Every shard appears (even a hypothetical zero-load one) and
        # the totals partition the keyspace exactly.
        assert set(counts) == {0, 1, 2, 3, 4}
        assert sum(counts.values()) == len(keys)


class TestMinimalRemap:
    @settings(deadline=None, max_examples=25)
    @given(num_shards=st.integers(min_value=1, max_value=7))
    def test_adding_a_shard_only_moves_keys_to_it(self, num_shards):
        before = HashRing.for_cluster(num_shards)
        after = before.with_shard(num_shards)
        keys = [f"monitor-{i:04d}" for i in range(400)]
        moved = [key for key in keys if before.owner(key) != after.owner(key)]
        # Consistent hashing's defining property: growth steals keys for
        # the new shard and disturbs nothing else.
        assert all(after.owner(key) == num_shards for key in moved)
        # And it steals roughly its fair share, not the whole keyspace.
        assert len(moved) <= 2 * len(keys) / (num_shards + 1)

    @settings(deadline=None, max_examples=25)
    @given(num_shards=st.integers(min_value=2, max_value=8), data=st.data())
    def test_removing_a_shard_only_moves_its_keys(self, num_shards, data):
        before = HashRing.for_cluster(num_shards)
        victim = data.draw(st.sampled_from(sorted(before.shards)))
        after = before.without_shard(victim)
        keys = [f"monitor-{i:04d}" for i in range(400)]
        for key in keys:
            if before.owner(key) != victim:
                assert after.owner(key) == before.owner(key)
            else:
                assert after.owner(key) != victim


class TestMisplaced:
    def test_reports_only_wrongly_placed_monitors(self):
        ring = HashRing.for_cluster(2)
        keys = [f"monitor-{i}" for i in range(20)]
        owners = ring.ownership(keys)
        shard_one_keys = sorted(k for k, s in owners.items() if s == 1)
        assert shard_one_keys, "expected some keys on shard 1"
        # Deliberately misfile every shard-1 monitor onto shard 0.
        holdings = {0: sorted(keys), 1: []}
        moves = misplaced(ring, holdings)
        assert sorted(name for name, _, _ in moves) == shard_one_keys
        assert all((source, target) == (0, 1) for _, source, target in moves)
        # Correctly placed holdings produce no moves.
        placed = {
            shard: [k for k, s in owners.items() if s == shard] for shard in (0, 1)
        }
        assert misplaced(ring, placed) == []

    def test_equality_and_repr(self):
        assert HashRing.for_cluster(3) == HashRing([0, 1, 2])
        assert HashRing.for_cluster(3) != HashRing.for_cluster(4)
        assert "shards=(0, 1, 2)" in repr(HashRing.for_cluster(3))
