"""Unit tests for compaction policies and the executor."""

import pytest

from repro.compaction.base import (
    CompactionTask,
    overlap_entries,
    pick_min_overlap,
    saturated_levels,
)
from repro.compaction.executor import CompactionExecutor
from repro.compaction.full import full_tree_compaction
from repro.compaction.leveling import LeveledCompactionPolicy
from repro.core.config import CompactionTrigger, rocksdb_config
from repro.core.stats import Statistics
from repro.lsm.sstable import build_sstable
from repro.lsm.tree import LSMTree
from repro.storage.disk import SimulatedDisk
from repro.storage.entry import EntryKind

from tests.conftest import TINY, make_entries


@pytest.fixture
def world():
    stats = Statistics()
    disk = SimulatedDisk(stats)
    config = rocksdb_config(**TINY)
    tree = LSMTree(config, stats)
    executor = CompactionExecutor(config, disk, stats)
    return tree, config, disk, stats, executor


def add_file(world, level, keys, seq_start=0, kind=EntryKind.PUT,
             write_time=0.0, tiered=False):
    tree, config, disk, stats, _executor = world
    table = build_sstable(
        make_entries(keys, seq_start=seq_start, kind=kind, write_time=write_time),
        [], config, disk, stats, now=write_time, level=level,
    )
    target = tree.ensure_level(level)
    if tiered:
        target.add_run([table])
    else:
        target.insert_into_run([table])
    return table


class TestSelectionHelpers:
    def test_saturated_levels_smallest_first(self, world):
        tree, config, disk, stats, *_ = world
        # L1 capacity = 16·4 = 64 with TINY (buffer 16 × T 4)
        for start in range(0, 96, 32):
            add_file(world, 1, range(start, start + 32), seq_start=start)
        add_file(world, 2, range(200, 232), seq_start=500)
        assert saturated_levels(tree) == [1]

    def test_level1_run_trigger(self, world):
        tree, *_ = world
        add_file(world, 1, range(0, 8), tiered=True)
        add_file(world, 1, range(100, 108), seq_start=50, tiered=True)
        assert saturated_levels(tree, level1_run_trigger=2) == [1]
        assert saturated_levels(tree, level1_run_trigger=3) == []

    def test_pick_min_overlap(self, world):
        tree, *_ = world
        low_overlap = add_file(world, 1, range(0, 8))
        high_overlap = add_file(world, 1, range(100, 132, 2), seq_start=100)
        add_file(world, 2, range(100, 132), seq_start=500)
        chosen = pick_min_overlap(tree.level(1), tree.level(2))
        assert chosen is low_overlap

    def test_min_overlap_tie_breaks_on_tombstones(self, world):
        tree, *_ = world
        plain = add_file(world, 1, range(0, 8))
        laden = add_file(world, 1, range(100, 108), seq_start=100,
                         kind=EntryKind.TOMBSTONE)
        tree.ensure_level(2)
        chosen = pick_min_overlap(tree.level(1), tree.level(2))
        assert chosen is laden

    def test_overlap_entries(self, world):
        tree, *_ = world
        candidate = add_file(world, 1, range(0, 16))
        add_file(world, 2, range(8, 24), seq_start=100)
        assert overlap_entries(candidate, tree.level(2)) == 16


class TestExecutor:
    def test_merge_into_next_level(self, world):
        tree, config, disk, stats, executor = world
        upper = add_file(world, 1, range(0, 16), seq_start=100)
        lower = add_file(world, 2, range(0, 16), seq_start=0)
        task = CompactionTask(
            source_level=1, source_files=[upper], target_level=2,
            trigger=CompactionTrigger.SATURATION,
        )
        executor.execute(tree, task, now=1.0)
        assert tree.level(1).is_empty
        assert tree.level(2).num_entries == 16  # duplicates consolidated
        assert stats.invalid_entries_purged == 16
        assert stats.compactions == 1
        # the consumed victim left the tree with the source
        assert lower not in list(tree.all_files())

    def test_trivial_move_costs_no_io(self, world):
        tree, config, disk, stats, executor = world
        mover = add_file(world, 1, range(0, 8))
        add_file(world, 2, range(100, 108), seq_start=50)
        add_file(world, 3, range(200, 208), seq_start=80)
        reads_before = stats.pages_read
        task = CompactionTask(
            source_level=1, source_files=[mover], target_level=2,
            trigger=CompactionTrigger.SATURATION,
        )
        executor.execute(tree, task, now=5.0)
        assert stats.pages_read == reads_before
        assert mover.meta.level == 2
        assert mover.meta.level_arrival_time == 5.0

    def test_no_trivial_move_into_last_level_with_tombstones(self, world):
        tree, config, disk, stats, executor = world
        mover = add_file(world, 1, [5], kind=EntryKind.TOMBSTONE)
        task = CompactionTask(
            source_level=1, source_files=[mover], target_level=2,
            trigger=CompactionTrigger.SATURATION,
        )
        executor.execute(tree, task, now=1.0)
        # the tombstone must be persisted (dropped), not moved
        assert stats.tombstones_dropped == 1
        assert tree.level(2).tombstone_count() == 0

    def test_tombstone_dropped_only_at_last_level(self, world):
        tree, config, disk, stats, executor = world
        upper = add_file(world, 1, [5], seq_start=100, kind=EntryKind.TOMBSTONE)
        add_file(world, 2, [5], seq_start=0)
        add_file(world, 3, range(50, 58), seq_start=10)  # deeper data exists
        task = CompactionTask(
            source_level=1, source_files=[upper], target_level=2,
            trigger=CompactionTrigger.SATURATION,
        )
        executor.execute(tree, task, now=1.0)
        # tombstone consumed the older put but must itself survive at L2
        assert stats.tombstones_dropped == 0
        assert tree.level(2).tombstone_count() == 1
        assert stats.invalid_entries_purged == 1

    def test_self_compaction_persists_tombstones(self, world):
        tree, config, disk, stats, executor = world
        lone = add_file(world, 2, [1, 2], kind=EntryKind.TOMBSTONE)
        task = CompactionTask(
            source_level=2, source_files=[lone], target_level=2,
            trigger=CompactionTrigger.TTL_EXPIRY,
        )
        executor.execute(tree, task, now=1.0)
        assert stats.tombstones_dropped == 2
        assert tree.level(2).is_empty  # nothing left to write

    def test_persistence_callback_invoked(self, world):
        tree, config, disk, stats, _ = world
        dropped = []
        executor = CompactionExecutor(
            config, disk, stats, on_tombstone_persisted=dropped.append
        )
        lone = add_file(world, 1, [7], kind=EntryKind.TOMBSTONE)
        task = CompactionTask(
            source_level=1, source_files=[lone], target_level=2,
            trigger=CompactionTrigger.SATURATION,
        )
        executor.execute(tree, task, now=1.0)
        assert [t.key for t in dropped] == [7]

    def test_task_validation(self):
        with pytest.raises(ValueError):
            CompactionTask(source_level=0, source_files=[object()],
                           target_level=1, trigger=CompactionTrigger.SATURATION)
        with pytest.raises(ValueError):
            CompactionTask(source_level=1, source_files=[],
                           target_level=2, trigger=CompactionTrigger.SATURATION)
        with pytest.raises(ValueError):
            CompactionTask(source_level=1, source_files=[object()],
                           target_level=3, trigger=CompactionTrigger.SATURATION)


class TestLeveledPolicy:
    def test_no_task_when_nothing_saturated(self, world):
        tree, config, *_ = world
        add_file(world, 1, range(0, 8))
        policy = LeveledCompactionPolicy(config)
        assert policy.select(tree, now=0.0) is None

    def test_selects_saturated_level(self, world):
        tree, config, *_ = world
        for start in range(0, 96, 32):
            add_file(world, 1, range(start, start + 32), seq_start=start)
        policy = LeveledCompactionPolicy(config)
        task = policy.select(tree, now=0.0)
        assert task is not None
        assert task.source_level == 1
        assert task.target_level == 2


class TestFullTreeCompaction:
    def test_collapses_everything_and_persists(self, world):
        tree, config, disk, stats, _ = world
        add_file(world, 1, [5], seq_start=100, kind=EntryKind.TOMBSTONE)
        add_file(world, 2, [5, 6], seq_start=0)
        add_file(world, 3, [7], seq_start=50)
        full_tree_compaction(tree, config, disk, stats, now=1.0)
        assert stats.full_tree_compactions == 1
        survivors = sorted(e.key for f in tree.all_files() for e in f.entries())
        assert survivors == [6, 7]
        assert tree.tombstones_in_tree() == 0

    def test_drop_predicate_filters_live_entries(self, world):
        tree, config, disk, stats, _ = world
        dkeys = [10, 20, 30, 40, 50, 60, 70, 80]
        table = build_sstable(
            make_entries(range(8), delete_keys=dkeys),
            [], config, disk, stats, 0.0, 1,
        )
        tree.ensure_level(1).insert_into_run([table])
        full_tree_compaction(
            tree, config, disk, stats, now=1.0,
            drop_predicate=lambda e: e.delete_key is not None and e.delete_key < 45,
        )
        survivors = sorted(e.key for f in tree.all_files() for e in f.entries())
        assert survivors == [4, 5, 6, 7]

    def test_empty_tree_is_noop(self, world):
        tree, config, disk, stats, _ = world
        full_tree_compaction(tree, config, disk, stats, now=0.0)
        assert stats.full_tree_compactions == 1
        assert tree.total_entries == 0
