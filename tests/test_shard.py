"""Tests for the sharded multi-engine layer.

The headline property: a :class:`ShardedEngine` — any shard count, hash
or range partitioned, batched or not — answers ``get``/``scan``/
``secondary_range_lookup`` byte-identically to a single
:class:`LSMEngine` fed the same operation stream. The rest covers the
partitioners, the router's barrier semantics, split/rebalance, and the
merged cluster statistics.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import lethe_config, rocksdb_config
from repro.core.engine import LSMEngine
from repro.core.errors import ConfigError, LetheError
from repro.shard.engine import ShardedEngine
from repro.shard.merge import kway_merge
from repro.shard.partitioner import (
    HashPartitioner,
    RangePartitioner,
    stable_hash,
)
from repro.shard.router import Barrier, OperationRouter, ShardBatch
from repro.workloads.multi_tenant import MultiTenantSpec, MultiTenantWorkload

from tests.conftest import TINY


def kiwi_cfg(**overrides):
    return lethe_config(1e9, delete_tile_pages=4, **{**TINY, **overrides})


KEYS = st.integers(min_value=0, max_value=60)
DKEYS = st.integers(min_value=0, max_value=400)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), KEYS, DKEYS),
        st.tuples(st.just("delete"), KEYS),
        st.tuples(st.just("delete_range"), KEYS, st.integers(1, 15)),
        st.tuples(st.just("srd"), DKEYS, st.integers(1, 120)),
        st.tuples(st.just("flush")),
    ),
    min_size=1,
    max_size=100,
)


def as_engine_ops(ops):
    """Expand the compact strategy tuples into the ingest vocabulary."""
    expanded = []
    for index, op in enumerate(ops):
        if op[0] == "put":
            expanded.append(("put", op[1], f"val{index}", op[2]))
        elif op[0] == "delete_range":
            expanded.append(("delete_range", op[1], op[1] + op[2]))
        elif op[0] == "srd":
            expanded.append(("secondary_range_delete", op[1], op[1] + op[2]))
        else:
            expanded.append(op)
    return expanded


def cluster_flavours():
    return [
        ("hash-2", lambda: ShardedEngine(kiwi_cfg(), n_shards=2)),
        ("hash-4", lambda: ShardedEngine(kiwi_cfg(), n_shards=4)),
        (
            "range-4",
            lambda: ShardedEngine(
                kiwi_cfg(), partitioner=RangePartitioner([15, 30, 45])
            ),
        ),
        (
            "hash-4-tiny-batches",
            lambda: ShardedEngine(kiwi_cfg(), n_shards=4, max_batch=3),
        ),
    ]


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(12345) == stable_hash(12345)
        assert stable_hash("abc") == stable_hash("abc")

    def test_spreads_consecutive_ints(self):
        shards = {stable_hash(i) % 8 for i in range(64)}
        assert shards == set(range(8))

    def test_known_values_are_stable_across_runs(self):
        # Golden values: placement (and every sharded experiment) must not
        # depend on PYTHONHASHSEED or the process.
        assert stable_hash(0) == 16294208416658607535
        assert stable_hash("key") == int.from_bytes(
            __import__("hashlib").blake2b(b"'key'", digest_size=8).digest(), "big"
        )


class TestHashPartitioner:
    def test_routes_in_range(self):
        partitioner = HashPartitioner(4)
        assert all(0 <= partitioner.shard_for(k) < 4 for k in range(200))

    def test_range_ops_fan_out_everywhere(self):
        partitioner = HashPartitioner(3)
        assert partitioner.shards_for_range(5, 10) == (0, 1, 2)

    def test_rejects_zero_shards(self):
        with pytest.raises(ConfigError):
            HashPartitioner(0)


class TestRangePartitioner:
    def test_split_point_goes_right(self):
        partitioner = RangePartitioner([10, 20])
        assert partitioner.shard_for(9) == 0
        assert partitioner.shard_for(10) == 1
        assert partitioner.shard_for(19) == 1
        assert partitioner.shard_for(20) == 2

    def test_shards_for_range_overlapping_only(self):
        partitioner = RangePartitioner([10, 20, 30])
        assert partitioner.shards_for_range(12, 18) == (1,)
        assert partitioner.shards_for_range(5, 25) == (0, 1, 2)
        assert partitioner.shards_for_range(30, 99) == (3,)

    def test_shard_bounds(self):
        partitioner = RangePartitioner([10, 20])
        assert partitioner.shard_bounds(0) == (None, 10)
        assert partitioner.shard_bounds(1) == (10, 20)
        assert partitioner.shard_bounds(2) == (20, None)

    def test_with_split(self):
        partitioner = RangePartitioner([10, 30]).with_split(20)
        assert partitioner.split_points == [10, 20, 30]
        with pytest.raises(ConfigError):
            partitioner.with_split(20)

    def test_uniform_and_from_keys(self):
        assert RangePartitioner.uniform(4, (0, 100)).split_points == [25, 50, 75]
        balanced = RangePartitioner.from_keys(list(range(100)), 4)
        assert balanced.n_shards == 4
        assert balanced.split_points == [25, 50, 75]

    def test_validation(self):
        with pytest.raises(ConfigError):
            RangePartitioner([])
        with pytest.raises(ConfigError):
            RangePartitioner([5, 5])
        with pytest.raises(ConfigError):
            RangePartitioner.from_keys([1, 2], 4)


class TestKwayMerge:
    def test_merges_sorted_lists(self):
        merged = kway_merge([[(1, "a"), (4, "d")], [(2, "b")], [(3, "c")]])
        assert merged == [(1, "a"), (2, "b"), (3, "c"), (4, "d")]

    def test_dedups_on_key_lowest_shard_wins(self):
        merged = kway_merge([[(1, "shard0")], [(1, "shard1"), (2, "b")]])
        assert merged == [(1, "shard0"), (2, "b")]


class TestRouter:
    def test_point_ops_batch_per_shard(self):
        router = OperationRouter(RangePartitioner([10]))
        items = list(
            router.batches([("put", 1, "a", None), ("put", 11, "b", None),
                            ("put", 2, "c", None)])
        )
        assert all(isinstance(item, ShardBatch) for item in items)
        by_shard = {item.shard: item.operations for item in items}
        assert [op[1] for op in by_shard[0]] == [1, 2]
        assert [op[1] for op in by_shard[1]] == [11]

    def test_single_shard_range_op_joins_batch(self):
        router = OperationRouter(RangePartitioner([10]))
        items = list(router.batches([("put", 1, "a", None), ("scan", 2, 5)]))
        assert len(items) == 1 and items[0].operations[1][0] == "scan"

    def test_multi_shard_op_is_barrier_after_drain(self):
        router = OperationRouter(RangePartitioner([10]))
        items = list(
            router.batches([("put", 11, "b", None), ("scan", 0, 99)])
        )
        assert isinstance(items[0], ShardBatch)
        assert isinstance(items[1], Barrier)
        assert items[1].operation == ("scan", 0, 99)

    def test_max_batch_bounds_batches(self):
        router = OperationRouter(HashPartitioner(1), max_batch=2)
        items = list(router.batches([("put", k, "v", None) for k in range(5)]))
        assert [len(item.operations) for item in items] == [2, 2, 1]

    def test_unknown_op_rejected(self):
        router = OperationRouter(HashPartitioner(2))
        with pytest.raises(LetheError):
            list(router.batches([("frobnicate", 1)]))


class TestConstruction:
    def test_exactly_one_of_n_shards_partitioner(self):
        with pytest.raises(ConfigError):
            ShardedEngine(kiwi_cfg())
        with pytest.raises(ConfigError):
            ShardedEngine(kiwi_cfg(), n_shards=2, partitioner=HashPartitioner(2))

    def test_shard_configs_length_checked(self):
        with pytest.raises(ConfigError):
            ShardedEngine(kiwi_cfg(), n_shards=3, shard_configs=[kiwi_cfg()])

    def test_per_shard_configs_apply(self):
        configs = [kiwi_cfg(), lethe_config(1e9, delete_tile_pages=2, **TINY)]
        cluster = ShardedEngine(kiwi_cfg(), n_shards=2, shard_configs=configs)
        assert cluster.shards[0].config.delete_tile_pages == 4
        assert cluster.shards[1].config.delete_tile_pages == 2

    def test_shards_share_one_clock(self):
        cluster = ShardedEngine(kiwi_cfg(), n_shards=3)
        assert all(shard.clock is cluster.clock for shard in cluster.shards)


@pytest.mark.parametrize("name,factory", cluster_flavours())
@given(ops=OPS)
@settings(max_examples=15, deadline=None)
def test_property_cluster_matches_single_engine(name, factory, ops):
    """The tentpole property: identical answers, any partitioning."""
    stream = as_engine_ops(ops)
    single = LSMEngine(kiwi_cfg())
    single.ingest(stream)
    cluster = factory()
    cluster.ingest(stream)
    for key in range(61):
        assert single.get(key) == cluster.get(key), f"[{name}] get({key})"
    assert single.scan(0, 60) == cluster.scan(0, 60), f"[{name}] scan"
    assert single.secondary_range_lookup(0, 400) == cluster.secondary_range_lookup(
        0, 400
    ), f"[{name}] secondary_range_lookup"


@pytest.mark.parametrize("name,factory", cluster_flavours())
def test_mixed_workload_equivalence(name, factory):
    """A denser deterministic stream than the hypothesis budget allows."""
    import random

    rng = random.Random(11)
    stream = []
    for index in range(1200):
        key = rng.randrange(300)
        roll = rng.random()
        if roll < 0.55:
            stream.append(("put", key, f"v{key}-{index}", index))
        elif roll < 0.7:
            stream.append(("delete", key))
        elif roll < 0.8:
            stream.append(("delete_range", key, key + rng.randrange(1, 12)))
        elif roll < 0.9:
            stream.append(("get", key))
        elif roll < 0.97:
            stream.append(("scan", key, key + 20))
        else:
            stream.append(("secondary_range_delete", max(0, index - 150), index))
    single = LSMEngine(kiwi_cfg())
    single.ingest(stream)
    cluster = factory()
    cluster.ingest(stream)
    for key in range(310):
        assert single.get(key) == cluster.get(key), f"[{name}] get({key})"
    assert single.scan(0, 320) == cluster.scan(0, 320)
    assert single.secondary_range_lookup(0, 1300) == cluster.secondary_range_lookup(
        0, 1300
    )


class TestScatterGather:
    def _loaded_cluster(self, n_shards=4):
        cluster = ShardedEngine(kiwi_cfg(), n_shards=n_shards)
        for key in range(128):
            cluster.put(key, f"v{key}", delete_key=key * 10)
        cluster.flush()
        return cluster

    def test_secondary_delete_sums_per_shard_reports(self):
        cluster = self._loaded_cluster()
        report = cluster.secondary_range_delete(100, 500)
        assert report.entries_dropped == 40
        per_shard = sum(
            stats.secondary_range_deletes for stats in cluster.shard_stats()
        )
        assert per_shard == 4  # every shard participated
        for key in range(128):
            expected = None if 100 <= key * 10 < 500 else f"v{key}"
            assert cluster.get(key) == expected

    def test_secondary_lookup_merged_in_key_order(self):
        cluster = self._loaded_cluster()
        hits = cluster.secondary_range_lookup(100, 500)
        assert [key for key, _ in hits] == list(range(10, 50))

    def test_range_delete_only_touches_overlapping_shards(self):
        cluster = ShardedEngine(
            kiwi_cfg(), partitioner=RangePartitioner([100, 200])
        )
        for key in range(0, 300, 5):
            cluster.put(key, "x")
        cluster.delete_range(10, 40)  # entirely inside shard 0
        stats = cluster.shard_stats()
        assert stats[0].range_tombstones_ingested == 1
        assert stats[1].range_tombstones_ingested == 0
        assert stats[2].range_tombstones_ingested == 0


class TestSplitAndRebalance:
    def _range_cluster(self):
        cluster = ShardedEngine(kiwi_cfg(), partitioner=RangePartitioner([100]))
        for key in range(200):
            cluster.put(key, f"v{key}", delete_key=key)
        for key in range(0, 200, 7):
            cluster.delete(key)
        return cluster

    def test_split_preserves_results(self):
        cluster = self._range_cluster()
        before = [cluster.get(key) for key in range(200)]
        left, right = cluster.split(0, 50)
        assert (left, right) == (0, 1)
        assert cluster.n_shards == 3
        assert [cluster.get(key) for key in range(200)] == before
        assert cluster.scan(0, 199) == [
            (key, value) for key, value in enumerate(before) if value is not None
        ]

    def test_split_requires_range_partitioner(self):
        cluster = ShardedEngine(kiwi_cfg(), n_shards=2)
        with pytest.raises(ConfigError):
            cluster.split(0, 10)

    def test_split_key_must_lie_inside_shard(self):
        cluster = self._range_cluster()
        with pytest.raises(ConfigError):
            cluster.split(0, 150)
        with pytest.raises(ConfigError):
            cluster.split(1, 100)  # equal to the low bound: not interior

    def test_split_keeps_cluster_counters_monotone(self):
        cluster = self._range_cluster()
        before = cluster.stats.entries_ingested
        cluster.split(0, 50)
        assert cluster.stats.entries_ingested >= before

    def test_split_refragments_straddling_range_tombstone(self):
        """An in-flight (buffered) range tombstone straddling the split
        key must be re-issued clipped into BOTH children — the split
        cannot drop delete intent, widen it, or leak a fragment across
        a child's keyspan."""
        cluster = ShardedEngine(kiwi_cfg(), partitioner=RangePartitioner([100]))
        for key in range(100):
            cluster.put(key, f"v{key}")
        cluster.delete_range(30, 70)  # buffered on shard 0, spans key 50
        left, right = cluster.split(0, 50)
        stats = cluster.shard_stats()
        assert stats[left].range_tombstones_ingested >= 1
        assert stats[right].range_tombstones_ingested >= 1
        for key in range(100):
            expected = None if 30 <= key < 70 else f"v{key}"
            assert cluster.get(key) == expected, f"key {key} after split"
        assert cluster.scan(0, 99) == [
            (key, f"v{key}") for key in range(100) if not 30 <= key < 70
        ]
        # carried fragments never cross their child's keyspan
        for index in (left, right):
            lo_bound, hi_bound = cluster.partitioner.shard_bounds(index)
            for rt in cluster.shards[index].buffer.range_tombstones:
                assert lo_bound is None or rt.start >= lo_bound
                assert hi_bound is None or rt.end <= hi_bound
        # newer puts into the deleted span still win after the split
        cluster.put(40, "reborn-left")
        cluster.put(60, "reborn-right")
        assert cluster.get(40) == "reborn-left"
        assert cluster.get(60) == "reborn-right"

    def test_rebalance_carries_inflight_range_tombstones(self):
        cluster = ShardedEngine(
            kiwi_cfg(), partitioner=RangePartitioner([1000, 2000, 3000])
        )
        for key in range(400):
            cluster.put(key, f"v{key}", delete_key=key)
        cluster.delete_range(100, 300)  # buffered when rebalance hits
        cluster.rebalance()
        for key in range(400):
            expected = None if 100 <= key < 300 else f"v{key}"
            assert cluster.get(key) == expected, f"key {key} after rebalance"

    def test_rebalance_balances_skew(self):
        cluster = ShardedEngine(
            kiwi_cfg(), partitioner=RangePartitioner([1000, 2000, 3000])
        )
        for key in range(400):  # everything lands on shard 0
            cluster.put(key, f"v{key}", delete_key=key)
        counts = cluster.shard_entry_counts()
        assert counts[1] == counts[2] == counts[3] == 0
        cluster.rebalance()
        counts = cluster.shard_entry_counts()
        assert all(count > 0 for count in counts)
        assert max(counts) <= 2 * min(counts)
        for key in range(400):
            assert cluster.get(key) == f"v{key}"

    def test_rebalance_needs_enough_keys(self):
        cluster = ShardedEngine(
            kiwi_cfg(), partitioner=RangePartitioner([10, 20, 30])
        )
        cluster.put(1, "only")
        with pytest.raises(LetheError):
            cluster.rebalance()
        # a failed rebalance must not retire live shards' counters
        assert cluster.stats.entries_ingested == 1


class TestClusterMetricsAndMaintenance:
    def test_stats_sum_over_shards(self):
        cluster = ShardedEngine(kiwi_cfg(), n_shards=4)
        for key in range(100):
            cluster.put(key, "x", delete_key=key)
        total = cluster.stats
        assert total.entries_ingested == 100
        assert total.entries_ingested == sum(
            stats.entries_ingested for stats in cluster.shard_stats()
        )

    def test_flush_and_tombstone_aggregation(self):
        cluster = ShardedEngine(kiwi_cfg(), n_shards=2)
        cluster.put(1, "x")
        cluster.put(2, "y")
        cluster.delete(1)
        cluster.delete(2)
        cluster.flush()
        assert cluster.tombstones_on_disk() >= 1
        assert all(shard.buffer.is_empty for shard in cluster.shards)

    def test_space_amplification_counts_all_shards(self):
        cluster = ShardedEngine(kiwi_cfg(), n_shards=2)
        for key in range(64):
            cluster.put(key, "a")
        cluster.flush()
        for key in range(64):
            cluster.put(key, "b")
        cluster.flush()
        assert cluster.space_amplification() >= 0.0

    def test_advance_time_advances_shared_clock_once(self):
        cluster = ShardedEngine(
            lethe_config(1.0, **TINY), n_shards=3
        )
        cluster.put(1, "x")
        start = cluster.clock.now
        cluster.advance_time(2.0)
        assert cluster.clock.now == pytest.approx(start + 2.0)

    def test_fade_persistence_holds_cluster_wide(self):
        cluster = ShardedEngine(lethe_config(1.0, **TINY), n_shards=2)
        for key in range(8):
            cluster.put(key, "x")
        for key in range(8):
            cluster.delete(key)
        cluster.flush()
        cluster.advance_time(3.0)
        assert cluster.stats.unpersisted_count() == 0

    def test_describe_mentions_every_shard(self):
        cluster = ShardedEngine(kiwi_cfg(), n_shards=2)
        cluster.put(1, "x")
        text = cluster.describe()
        assert "shard 0" in text and "shard 1" in text


class TestMultiTenantWorkload:
    def test_operations_are_valid_and_deterministic(self):
        spec = MultiTenantSpec.skewed(
            n_tenants=4, keys_per_tenant=1000, num_inserts=300, seed=3
        )
        ops_a = list(MultiTenantWorkload(spec).all_operations())
        ops_b = list(MultiTenantWorkload(spec).all_operations())
        assert ops_a == ops_b
        engine = LSMEngine(kiwi_cfg())
        engine.ingest(ops_a)  # must dispatch cleanly end to end

    def test_skew_concentrates_on_hot_tenants(self):
        spec = MultiTenantSpec.skewed(
            n_tenants=4, keys_per_tenant=1000, skew=3.0, num_inserts=600, seed=3
        )
        workload = MultiTenantWorkload(spec)
        list(workload.ingest_operations())
        inserts = [len(keys) for keys in workload.inserted]
        assert inserts[0] > inserts[-1] * 2

    def test_split_points_align_with_tenant_boundaries(self):
        spec = MultiTenantSpec.skewed(n_tenants=4, keys_per_tenant=500)
        assert spec.split_points() == [500, 1000, 1500]
        partitioner = RangePartitioner(spec.split_points())
        assert partitioner.n_shards == 4

    def test_overlapping_tenants_rejected(self):
        from repro.workloads.multi_tenant import TenantSpec

        with pytest.raises(ConfigError):
            MultiTenantSpec(
                tenants=(
                    TenantSpec("a", (0, 100)),
                    TenantSpec("b", (50, 150)),
                ),
                num_inserts=10,
            )

    def test_retention_window(self):
        spec = MultiTenantSpec.skewed(
            n_tenants=2, keys_per_tenant=1000, num_inserts=100, seed=5
        )
        workload = MultiTenantWorkload(spec)
        list(workload.ingest_operations())
        lo, hi = workload.retention_window(0.5)
        assert lo == 0 and 0 < hi <= workload.latest_timestamp
        with pytest.raises(ConfigError):
            workload.retention_window(0.0)
