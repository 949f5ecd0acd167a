"""Unit tests for FADE: TTL allocation, expiry, selection, guarantees."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compaction.fade import FADEPolicy, InvalidationEstimator
from repro.core.config import (
    CompactionTrigger,
    FileSelectionMode,
    lethe_config,
    rocksdb_config,
)
from repro.core.engine import LSMEngine
from repro.core.errors import ConfigError
from repro.core.stats import Statistics
from repro.lsm.sstable import build_sstable
from repro.lsm.tree import LSMTree
from repro.storage.disk import SimulatedDisk
from repro.storage.entry import EntryKind, RangeTombstone

from tests.conftest import TINY, make_entries


def fade_policy(d_th=10.0, mode=FileSelectionMode.SO, **overrides):
    config = lethe_config(d_th, file_selection=mode, **{**TINY, **overrides})
    return FADEPolicy(config), config


@pytest.fixture
def world():
    stats = Statistics()
    disk = SimulatedDisk(stats)
    config = lethe_config(10.0, **TINY)
    tree = LSMTree(config, stats)
    return tree, config, disk, stats


def add_file(world, level, keys, seq_start=0, kind=EntryKind.PUT,
             write_time=0.0, rts=()):
    tree, config, disk, stats = world
    table = build_sstable(
        make_entries(keys, seq_start=seq_start, kind=kind, write_time=write_time),
        list(rts), config, disk, stats, now=write_time, level=level,
    )
    tree.ensure_level(level).insert_into_run([table])
    return table


class TestTTLAllocation:
    """§4.1.2: d_0 = D_th·(T−1)/(T^{L−1}−1), d_i = T·d_{i−1}, Σ = D_th."""

    def test_ttls_sum_to_dth(self):
        policy, config = fade_policy(d_th=12.0)
        for height in (1, 2, 3, 4):
            ttls = policy.level_ttls(height)
            assert sum(ttls) == pytest.approx(12.0)

    def test_ttls_grow_by_t(self):
        policy, config = fade_policy(d_th=10.0)
        ttls = policy.level_ttls(3)
        t = config.size_ratio
        assert ttls[1] == pytest.approx(t * ttls[0])
        assert ttls[2] == pytest.approx(t * ttls[1])

    def test_single_level_gets_full_budget(self):
        policy, _ = fade_policy(d_th=7.0)
        assert policy.level_ttls(1) == [pytest.approx(7.0)]
        assert policy.cumulative_deadline(1, 1) == pytest.approx(7.0)

    def test_cumulative_deadline_of_second_to_last_is_dth(self):
        policy, _ = fade_policy(d_th=10.0)
        # with n disk levels, deadlines: level n-1 must equal D_th
        assert policy.cumulative_deadline(2, 3) == pytest.approx(10.0)
        assert policy.cumulative_deadline(1, 2) == pytest.approx(10.0)

    def test_deadline_capped_at_dth_past_last_level(self):
        policy, _ = fade_policy(d_th=10.0)
        assert policy.cumulative_deadline(3, 3) == pytest.approx(10.0)
        assert policy.cumulative_deadline(9, 3) == pytest.approx(10.0)

    def test_deadlines_monotone_in_level(self):
        policy, _ = fade_policy(d_th=10.0)
        deadlines = [policy.cumulative_deadline(i, 4) for i in range(1, 5)]
        assert deadlines == sorted(deadlines)

    def test_requires_dth(self):
        with pytest.raises(ConfigError):
            FADEPolicy(rocksdb_config(**TINY))


class TestExpiry:
    def test_file_without_tombstones_never_expires(self, world):
        tree, config, *_ = world
        policy = FADEPolicy(config)
        table = add_file(world, 1, range(8), write_time=0.0)
        assert not policy.is_expired(table, 1, now=1e9, height=1)

    def test_tombstone_file_expires_after_deadline(self, world):
        tree, config, *_ = world
        policy = FADEPolicy(config)  # D_th = 10
        table = add_file(world, 1, [1], kind=EntryKind.TOMBSTONE, write_time=0.0)
        tree.ensure_level(2)
        deadline = policy.cumulative_deadline(1, 2)
        assert not policy.is_expired(table, 1, now=deadline * 0.99, height=2)
        assert policy.is_expired(table, 1, now=deadline * 1.01, height=2)

    def test_range_tombstones_count_for_expiry(self, world):
        tree, config, *_ = world
        policy = FADEPolicy(config)
        rt = RangeTombstone(start=0, end=5, seqnum=9, write_time=0.0)
        table = add_file(world, 1, [10], write_time=0.0, rts=[rt])
        assert table.meta.has_tombstones
        assert policy.is_expired(table, 1, now=11.0, height=1)

    def test_arrival_variant_uses_level_age(self, world):
        tree, config, disk, stats = world
        config = config.with_updates(fade_ttl_from_level_arrival=True)
        policy = FADEPolicy(config)
        table = add_file(world, 1, [1], kind=EntryKind.TOMBSTONE, write_time=0.0)
        table.meta.level_arrival_time = 8.0  # tombstone old, arrival recent
        ttls = policy.level_ttls(1)
        assert not policy.is_expired(table, 1, now=8.0 + ttls[0] * 0.9, height=1)
        assert policy.is_expired(table, 1, now=8.0 + ttls[0] * 1.1, height=1)


class TestSelection:
    def test_dd_prefers_expired_over_saturation(self, world):
        tree, config, disk, stats = world
        policy = FADEPolicy(config)
        # saturate level 1 with plain files
        for start in range(0, 96, 32):
            add_file(world, 1, range(start, start + 32), seq_start=start)
        # and put one expired tombstone file at level 2
        expired = add_file(world, 2, [200], seq_start=900,
                           kind=EntryKind.TOMBSTONE, write_time=0.0)
        task = policy.select(tree, now=1e9)
        assert task.trigger is CompactionTrigger.TTL_EXPIRY
        assert task.source_files == [expired]

    def test_dd_tie_breaks_oldest_tombstone(self, world):
        tree, config, *_ = world
        policy = FADEPolicy(config)
        newer = add_file(world, 1, [1], kind=EntryKind.TOMBSTONE, write_time=5.0)
        older = add_file(world, 1, [50], seq_start=10, kind=EntryKind.TOMBSTONE,
                         write_time=1.0)
        task = policy.select(tree, now=1e9)
        assert task.source_files == [older]

    def test_smallest_level_chosen_on_level_tie(self, world):
        tree, config, *_ = world
        policy = FADEPolicy(config)
        upper = add_file(world, 1, [1], kind=EntryKind.TOMBSTONE, write_time=0.0)
        lower = add_file(world, 2, [60], seq_start=10, kind=EntryKind.TOMBSTONE,
                         write_time=0.0)
        task = policy.select(tree, now=1e9)
        assert task.source_level == 1

    def test_expired_last_level_file_self_compacts(self, world):
        tree, config, *_ = world
        policy = FADEPolicy(config)
        lone = add_file(world, 2, [1], kind=EntryKind.TOMBSTONE, write_time=0.0)
        task = policy.select(tree, now=1e9)
        assert task.source_level == task.target_level == 2

    def test_saturation_so_mode_min_overlap(self, world):
        tree, config, *_ = world
        policy = FADEPolicy(config)  # default SO
        for start in range(0, 96, 32):
            add_file(world, 1, range(start, start + 32), seq_start=start)
        add_file(world, 2, range(0, 32), seq_start=600)
        task = policy.select(tree, now=0.0)
        assert task.trigger is CompactionTrigger.SATURATION
        # min overlap: the files at [32..64) and [64..96) have no overlap
        chosen = task.source_files[0]
        assert chosen.min_key >= 32

    def test_saturation_sd_mode_highest_b(self, world):
        tree, config, disk, stats = world
        policy, config_sd = fade_policy(mode=FileSelectionMode.SD)
        for start in range(0, 64, 32):
            add_file(world, 1, range(start, start + 32), seq_start=start)
        laden = add_file(world, 1, range(100, 132), seq_start=700,
                         kind=EntryKind.TOMBSTONE)
        task = policy.select(tree, now=0.0)
        assert task.source_files == [laden]

    def test_nothing_to_do(self, world):
        tree, config, *_ = world
        policy = FADEPolicy(config)
        add_file(world, 1, range(8))
        assert policy.select(tree, now=1e9) is None


class TestInvalidationEstimator:
    def test_point_tombstones_exact(self, world):
        tree, config, *_ = world
        table = add_file(world, 1, [1, 2, 3], kind=EntryKind.TOMBSTONE)
        estimator = InvalidationEstimator(lambda: None, lambda: 0)
        assert estimator.estimate(table) == 3.0

    def test_range_tombstones_estimated_from_histogram(self, world):
        tree, config, *_ = world
        rt = RangeTombstone(start=0, end=50, seqnum=9)
        table = add_file(world, 1, [60], rts=[rt])
        estimator = InvalidationEstimator(
            key_bounds=lambda: (0, 100), total_entries=lambda: 1000
        )
        # selectivity 50/100 × 1000 entries = 500
        assert estimator.estimate(table) == pytest.approx(500.0)

    def test_fallback_without_bounds(self, world):
        tree, config, *_ = world
        rt = RangeTombstone(start=0, end=50, seqnum=9)
        table = add_file(world, 1, [60], rts=[rt])
        estimator = InvalidationEstimator(lambda: None, lambda: 1000)
        assert estimator.estimate(table) == pytest.approx(1.0)


class TestPersistenceGuarantee:
    """End-to-end: every tombstone persists within D_th plus the check slack.

    FADE checks expiry at flush boundaries (Fig 4: "after every flush,
    perform the following check"), so the guarantee carries one
    buffer-fill of slack per level in the worst case.
    """

    @pytest.mark.parametrize("d_th", [0.5, 1.0, 2.0])
    def test_bounded_latency(self, d_th):
        engine = LSMEngine(lethe_config(d_th, **TINY))
        import random

        rng = random.Random(7)
        inserted = []
        for i in range(1500):
            key = rng.randrange(1 << 20)
            engine.put(key, f"v{i}", delete_key=i)
            inserted.append(key)
            if i % 10 == 9:
                engine.delete(inserted[rng.randrange(len(inserted))])
        # allow in-flight tombstones to expire by idling past D_th
        buffer_seconds = engine.config.buffer_entries / engine.config.ingestion_rate
        for _ in range(4):
            engine.advance_time(d_th / 2)
            engine.flush()
        latencies = engine.stats.persisted_latencies()
        assert latencies, "no tombstone ever persisted"
        height = max(1, engine.tree.height)
        slack = (height + 2) * buffer_seconds
        assert max(latencies) <= d_th + slack
        assert engine.max_tombstone_file_age() <= d_th + slack


@given(
    d_th=st.floats(min_value=0.1, max_value=100.0),
    height=st.integers(min_value=1, max_value=8),
    t=st.integers(min_value=2, max_value=12),
)
@settings(max_examples=80, deadline=None)
def test_property_ttl_allocation(d_th, height, t):
    """TTLs are positive, exponentially increasing, and sum to D_th."""
    config = lethe_config(d_th, **{**TINY, "size_ratio": t})
    policy = FADEPolicy(config)
    ttls = policy.level_ttls(height)
    assert len(ttls) == height
    assert all(ttl > 0 for ttl in ttls)
    assert sum(ttls) == pytest.approx(d_th, rel=1e-9)
    for smaller, larger in zip(ttls, ttls[1:]):
        assert larger == pytest.approx(t * smaller, rel=1e-9)
