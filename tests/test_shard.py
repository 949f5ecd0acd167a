"""Tests for the sharded multi-engine layer.

The headline property: a :class:`ShardedEngine` — any shard count, hash
or range partitioned, batched or not — answers ``get``/``scan``/
``secondary_range_lookup`` byte-identically to a single
:class:`LSMEngine` fed the same operation stream. The rest covers the
partitioners, the router's barrier semantics, split/rebalance, and the
merged cluster statistics.
"""

import errno
import os
import shutil
import sys
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

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
from repro.storage.persist import FaultInjector
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

    def test_carried_tombstone_stays_out_of_surviving_neighbours(self):
        """A buffered tombstone wider than its member's keyspan (a stale
        ingest session re-routes range deletes unclipped) is carried into
        the fresh members only: re-issued to a surviving neighbour it
        would get a new seqnum and delete that neighbour's later writes."""
        cluster = ShardedEngine(kiwi_cfg(), partitioner=RangePartitioner([300]))
        session = cluster.ingest_session()
        try:
            for key in (120, 160, 220):
                cluster.put(key, f"v{key}")
            cluster.split(0, 150)  # the session now routes on a stale topology
            session.submit([("delete_range", 100, 200)]).wait()
            assert any(
                rt.end > 150 for rt in cluster.shards[0].buffer.range_tombstones
            ), "precondition: shard 0 buffers the interval unclipped"
            cluster.put(180, "kept")  # shard 1, acknowledged after the delete
            cluster.split(0, 50)  # retires shard 0 only; [150, 300) survives
            assert cluster.get(180) == "kept"
            assert cluster.scan(0, 400) == [(180, "kept"), (220, "v220")]
        finally:
            session.close()
            cluster.close()

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


class _FailOnce(FaultInjector):
    """Raises ENOSPC at the ``skip + 1``-th write labelled ``label``, once."""

    def __init__(self):
        super().__init__(armed=False)
        self.label = None
        self.skip = 0

    def before_write(self, label):
        if label == self.label:
            if self.skip == 0:
                self.label = None
                raise OSError(errno.ENOSPC, "injected: no space left on device")
            self.skip -= 1
        super().before_write(label)


RESHARDS = {
    "split": lambda cluster: cluster.split(0, 150),
    "rebalance": lambda cluster: cluster.rebalance(),
}


class TestFailedReshard:
    """A reshard that fails before its commit point leaves the cluster
    whole: same members, same counters, same scheduler slots, no stray
    directory — and the same reshard then succeeds."""

    @pytest.mark.parametrize("reshard", sorted(RESHARDS))
    @pytest.mark.parametrize(
        "durable,step",
        [(False, "put"), (True, "store"), (True, "put"), (True, "topology")],
    )
    def test_cluster_stays_whole(self, tmp_path, monkeypatch, reshard, durable, step):
        injector = _FailOnce()
        cluster = ShardedEngine(
            kiwi_cfg(),
            partitioner=RangePartitioner([300]),
            scheduler="background",
            store_path=tmp_path / "cluster" if durable else None,
            injector=injector,
        )
        try:
            for key in range(600):
                cluster.put(key, f"v{key}", delete_key=key)
            # Settle, so the retiring members' own migration flush is a
            # no-op and the counters can be compared exactly.
            cluster.flush()
            cluster.scheduler.drain()
            surface = cluster.scan(0, 10_000)
            counters = cluster.stats.snapshot()
            members = list(cluster.shards)

            if step == "put":
                real_put, calls = LSMEngine.put, [0]

                def failing_put(self, *args, **kwargs):
                    calls[0] += 1
                    if calls[0] == 40:  # mid-migration, past a buffer flush
                        raise OSError(errno.ENOSPC, "injected")
                    return real_put(self, *args, **kwargs)

                monkeypatch.setattr(LSMEngine, "put", failing_put)
            else:
                # The second store, so one half-built member already
                # exists; the one topology append.
                injector.label = {"store": "config", "topology": "topology"}[step]
                injector.skip = 1 if step == "store" else 0
            with pytest.raises(OSError):
                RESHARDS[reshard](cluster)
            monkeypatch.undo()

            assert cluster.n_shards == 2 and cluster.shards == members
            assert cluster.stats.snapshot() == counters
            assert cluster.scan(0, 10_000) == surface
            self._assert_no_stray_directories(cluster)
            # Every member kept its scheduler slot: a backlog built by
            # further writes is compacted away and throttle sees it.
            for key in range(600, 900):
                cluster.put(key % 600, f"w{key}", delete_key=key)
            cluster.flush()
            cluster.scheduler.drain()
            for member in cluster.shards:
                assert cluster.scheduler._slot(member) is not None
                assert member._pending_l1_runs() < member.config.level1_run_trigger
            surface = cluster.scan(0, 10_000)

            RESHARDS[reshard](cluster)
            assert cluster.n_shards == (3 if reshard == "split" else 2)
            assert cluster.scan(0, 10_000) == surface
            self._assert_no_stray_directories(cluster)
        finally:
            cluster.close()
        if durable:
            reopened = ShardedEngine.open(tmp_path / "cluster")
            assert reopened.scan(0, 10_000) == surface
            reopened.close()

    @staticmethod
    def _assert_no_stray_directories(cluster):
        if cluster.store_path is not None:
            assert sorted(p.name for p in cluster.store_path.glob("shard-*")) == sorted(
                member.store.path.name for member in cluster.shards
            )


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="resolves fsync'd fds through /proc"
)
class TestTopologyRecordReachesMedia:
    """The topology record is the commit point of cluster creation and of
    every reshard: with ``fsync`` on, the record and the root directory
    entries it names are synced before any retired directory is removed."""

    @pytest.fixture
    def events(self, monkeypatch):
        log = []
        real_fsync, real_rmtree = os.fsync, shutil.rmtree

        def spy_fsync(fd):
            log.append(("fsync", os.path.basename(os.readlink(f"/proc/self/fd/{fd}"))))
            return real_fsync(fd)

        def spy_rmtree(path, *args, **kwargs):
            log.append(("rmtree", os.path.basename(str(path))))
            return real_rmtree(path, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(shutil, "rmtree", spy_rmtree)
        return log

    @pytest.mark.parametrize("fsync", [True, False])
    def test_record_and_root_are_synced_before_retired_dirs_go(
        self, tmp_path, events, fsync
    ):
        cluster = ShardedEngine(
            kiwi_cfg(fsync=fsync),
            partitioner=RangePartitioner([100]),
            store_path=tmp_path / "cluster",
        )
        for key in range(200):
            cluster.put(key, f"v{key}", delete_key=key)
        steps = {"create": list(events)}
        for name, reshard in (
            ("split", lambda: cluster.split(0, 50)),
            ("rebalance", cluster.rebalance),
        ):
            del events[:]
            reshard()
            steps[name] = list(events)
        cluster.close()
        for name, log in steps.items():
            synced = [target for kind, target in log if kind == "fsync"]
            if not fsync:
                assert synced == [], name
                continue
            assert "TOPOLOGY.log" in synced and "cluster" in synced, name
            removals = [i for i, (kind, _) in enumerate(log) if kind == "rmtree"]
            assert (name == "create") == (not removals)
            for target in (("fsync", "TOPOLOGY.log"), ("fsync", "cluster")):
                last = max(i for i, event in enumerate(log) if event == target)
                assert all(last < i for i in removals), name


    @pytest.mark.parametrize("reshard", sorted(RESHARDS))
    def test_record_whose_fsync_failed_is_taken_back(
        self, tmp_path, monkeypatch, reshard
    ):
        """The append can fail *behind* a whole frame (an fsync error):
        the cluster rolls back, so the record must not stay in the log —
        it names directories the rollback removes."""
        cluster = ShardedEngine(
            kiwi_cfg(fsync=True),
            partitioner=RangePartitioner([300]),
            store_path=tmp_path / "cluster",
        )
        for key in range(600):
            cluster.put(key, f"v{key}", delete_key=key)
        surface = cluster.scan(0, 10_000)
        log_path = tmp_path / "cluster" / "TOPOLOGY.log"
        committed = log_path.read_bytes()
        real_fsync, failed = os.fsync, []

        def failing_fsync(fd):
            target = os.path.basename(os.readlink(f"/proc/self/fd/{fd}"))
            if not failed and target == log_path.name:
                failed.append(os.path.getsize(log_path))
                raise OSError(errno.EIO, "injected: fsync failed")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            RESHARDS[reshard](cluster)
        monkeypatch.undo()
        assert failed[0] > len(committed), "the whole frame had reached the file"
        assert log_path.read_bytes() == committed
        TestFailedReshard._assert_no_stray_directories(cluster)

        RESHARDS[reshard](cluster)
        assert cluster.scan(0, 10_000) == surface
        cluster.close()
        reopened = ShardedEngine.open(tmp_path / "cluster")
        assert reopened.scan(0, 10_000) == surface
        reopened.close()


class ReshardMachine(RuleBasedStateMachine):
    """Writes, range deletes, flushes and reshards in any order on a small
    range-partitioned cluster, against a dict model."""

    durable = False
    DOMAIN = 60  # keys 0..59; the outer shards are unbounded beyond it

    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp() if self.durable else None
        self.cluster = ShardedEngine(
            kiwi_cfg(),
            partitioner=RangePartitioner([20, 40]),
            store_path=os.path.join(self.root, "c") if self.durable else None,
        )
        self.model: dict = {}
        self.counters = self.cluster.stats.snapshot()
        self.writes = 0

    def teardown(self):
        self.cluster.close()
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)

    def _interior_keys(self, index, margin=0):
        """Keys at which shard ``index`` may be split, at least ``margin``
        keys away from both ends of its span inside the domain."""
        low, high = self.cluster.partitioner.shard_bounds(index)
        low = 0 if low is None else low
        high = self.DOMAIN if high is None else high
        return range(low + 1 + margin, high - margin)

    def _delete_range(self, lo, hi):
        self.cluster.delete_range(lo, hi)
        for key in [k for k in self.model if lo <= k < hi]:
            del self.model[key]

    @rule(key=st.integers(0, 59), dkey=DKEYS)
    def put(self, key, dkey):
        self.writes += 1
        self.cluster.put(key, f"v{self.writes}", delete_key=dkey)
        self.model[key] = f"v{self.writes}"

    @rule(key=st.integers(0, 59))
    def delete(self, key):
        self.cluster.delete(key)
        self.model.pop(key, None)

    @rule(lo=st.integers(0, 59), width=st.integers(1, 25))
    def delete_range(self, lo, width):
        self._delete_range(lo, lo + width)

    @rule()
    def flush(self):
        self.cluster.flush()

    @precondition(lambda self: self.cluster.n_shards < 6)
    @rule(data=st.data())
    def split(self, data):
        index = data.draw(st.integers(0, self.cluster.n_shards - 1))
        keys = self._interior_keys(index)
        if keys:
            self.cluster.split(index, data.draw(st.sampled_from(keys)))

    @precondition(lambda self: self.cluster.n_shards < 6)
    @rule(data=st.data())
    def split_under_a_straddling_range_delete(self, data):
        """The un-flushed tombstone lives whole in one member's buffer
        and must reach both children, clipped, hiding exactly its keys."""
        index = data.draw(st.integers(0, self.cluster.n_shards - 1))
        keys = self._interior_keys(index, margin=1)
        if not keys:
            return
        split_key = data.draw(st.sampled_from(keys))
        span = self._interior_keys(index)
        lo = data.draw(st.integers(span[0] - 1, split_key - 1))
        hi = data.draw(st.integers(split_key + 1, span[-1] + 1))
        self._delete_range(lo, hi)
        # Still buffered unless this very write filled the buffer (a
        # flush takes every buffered tombstone with it).
        carried = bool(list(self.cluster.shards[index].buffer.range_tombstones))
        left, right = self.cluster.split(index, split_key)
        assert all(self.cluster.get(key) is None for key in range(lo, hi))
        if carried:
            stats = self.cluster.shard_stats()
            assert stats[left].range_tombstones_ingested >= 1
            assert stats[right].range_tombstones_ingested >= 1

    @rule()
    def rebalance(self):
        if len(self.model) < self.cluster.n_shards:
            with pytest.raises(LetheError):
                self.cluster.rebalance()
        else:
            self.cluster.rebalance()

    @precondition(lambda self: self.durable)
    @rule()
    def reopen(self):
        self.cluster.close()
        self.cluster = ShardedEngine.open(self.cluster.store_path)
        self.counters = self.cluster.stats.snapshot()  # counters restart

    @invariant()
    def cluster_matches_model(self):
        assert self.cluster.scan(-1, self.DOMAIN + 30) == sorted(self.model.items())
        assert sum(self.cluster.shard_entry_counts()) >= len(self.model)
        counters = self.cluster.stats.snapshot()
        shrunk = {
            name: (self.counters[name], value)
            for name, value in counters.items()
            if value < self.counters[name]
        }
        assert not shrunk, f"cluster counters went backwards: {shrunk}"
        self.counters = counters


class DurableReshardMachine(ReshardMachine):
    durable = True


_RESHARD_MACHINE_SETTINGS = settings(
    max_examples=80, stateful_step_count=30, deadline=None
)
TestReshardMachine = ReshardMachine.TestCase
TestReshardMachine.settings = _RESHARD_MACHINE_SETTINGS
TestDurableReshardMachine = DurableReshardMachine.TestCase
TestDurableReshardMachine.settings = _RESHARD_MACHINE_SETTINGS


class TestThreadSafety:
    """``LSMEngine`` is single-writer; ``ShardedEngine`` is the entry
    point many threads may share, because every member call holds that
    member's shard lock."""

    WRITERS, KEYS_EACH = 4, 300

    def test_concurrent_writers_on_a_durable_cluster(self, tmp_path):
        cluster = ShardedEngine(
            kiwi_cfg(wal_commit_policy="group(16)"),
            n_shards=2,
            scheduler="background",
            store_path=tmp_path / "cluster",
        )
        start = threading.Barrier(self.WRITERS)
        errors = []

        def write(writer: int) -> None:
            try:
                start.wait(timeout=30)
                for i in range(self.KEYS_EACH):
                    key = writer * self.KEYS_EACH + i
                    cluster.put(key, b"w%d-%d" % (writer, i), delete_key=i)
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=write, args=(w,))
                for w in range(self.WRITERS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not [t for t in threads if t.is_alive()]
        assert not errors, errors
        cluster.sync()
        cluster.close()
        recovered = ShardedEngine.open(tmp_path / "cluster")
        try:
            for writer in range(self.WRITERS):
                for i in range(self.KEYS_EACH):
                    key = writer * self.KEYS_EACH + i
                    assert recovered.get(key) == b"w%d-%d" % (writer, i)
        finally:
            recovered.close()


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
