"""Unit tests for the Level abstraction (leveled and tiered organisation)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import rocksdb_config
from repro.core.errors import CompactionError
from repro.core.stats import Statistics
from repro.lsm.builder import build_run
from repro.lsm.level import Level, Run
from repro.lsm.sstable import build_sstable
from repro.storage.disk import SimulatedDisk
from repro.storage.entry import RangeTombstone

from tests.conftest import TINY, make_entries


def sstable(keys, seq_start=0, rts=()):
    stats = Statistics()
    return build_sstable(
        make_entries(keys, seq_start=seq_start),
        list(rts),
        rocksdb_config(**TINY),
        SimulatedDisk(stats),
        stats,
        now=0.0,
        level=1,
    )


class TestConstruction:
    def test_validates_number_and_capacity(self):
        with pytest.raises(ValueError):
            Level(0, 100)
        with pytest.raises(ValueError):
            Level(1, 0)

    def test_empty_level(self):
        level = Level(1, 100)
        assert level.is_empty
        assert level.num_entries == 0
        assert not level.is_saturated()


class TestLeveledRuns:
    def test_merge_into_single_run_sorts_files(self):
        level = Level(1, 1000)
        b = sstable(range(10, 20), seq_start=100)
        a = sstable(range(0, 10))
        level.merge_into_single_run([b, a])
        assert [f.min_key for f in level.files()] == [0, 10]
        assert level.run_count == 1
        assert all(f.meta.level == 1 for f in level.files())

    def test_insert_into_run_keeps_order(self):
        level = Level(1, 1000)
        level.merge_into_single_run([sstable(range(0, 10))])
        level.insert_into_run([sstable(range(20, 30), seq_start=50)])
        assert [f.min_key for f in level.files()] == [0, 20]
        assert level.run_count == 1

    def test_insert_into_multi_run_level_rejected(self):
        level = Level(1, 1000)
        level.add_run([sstable(range(0, 10))])
        level.add_run([sstable(range(0, 10), seq_start=60)])
        with pytest.raises(CompactionError):
            level.insert_into_run([sstable(range(40, 50), seq_start=99)])


class TestTieredRuns:
    def test_add_run_newest_first(self):
        level = Level(1, 1000)
        old = sstable(range(0, 10))
        new = sstable(range(0, 10), seq_start=50)
        level.add_run([old])
        level.add_run([new])
        assert level.run_count == 2
        assert next(iter(level.files())) is new

    def test_add_empty_run_is_noop(self):
        level = Level(1, 1000)
        level.add_run([])
        assert level.is_empty


class TestRemoveFiles:
    def test_remove_from_single_run(self):
        level = Level(1, 1000)
        a = sstable(range(0, 10))
        b = sstable(range(20, 30), seq_start=40)
        level.merge_into_single_run([a, b])
        level.remove_files([a])
        assert [f.min_key for f in level.files()] == [20]

    def test_remove_drops_empty_runs(self):
        level = Level(1, 1000)
        a = sstable(range(0, 10))
        level.add_run([a])
        level.remove_files([a])
        assert level.run_count == 0

    def test_remove_unknown_file_rejected(self):
        level = Level(1, 1000)
        level.add_run([sstable(range(0, 10))])
        with pytest.raises(CompactionError):
            level.remove_files([sstable(range(50, 60), seq_start=99)])


class TestQueries:
    def test_saturation(self):
        level = Level(1, 15)
        level.merge_into_single_run([sstable(range(0, 10))])
        assert not level.is_saturated()
        level.insert_into_run([sstable(range(20, 30), seq_start=40)])
        assert level.is_saturated()  # 20 entries > 15

    def test_overlapping_files(self):
        level = Level(1, 1000)
        a = sstable(range(0, 10))
        b = sstable(range(20, 30), seq_start=40)
        level.merge_into_single_run([a, b])
        assert level.overlapping_files(5, 8) == [a]
        assert level.overlapping_files(5, 25) == [a, b]
        assert level.overlapping_files(100, 200) == []

    def test_counters(self):
        level = Level(1, 1000)
        level.merge_into_single_run([sstable(range(0, 10))])
        assert level.num_entries == 10
        assert level.file_count == 1
        assert level.size_bytes > 0
        assert level.tombstone_count() == 0


# ----------------------------------------------------------------------
# File fence index: Run.overlapping (a key is lo == hi) against the linear
# bounds walk they replaced (kept here as the oracle).
# ----------------------------------------------------------------------


def assert_index_matches_linear_walk(run):
    files = list(run)
    edges = sorted({k for f in files for k in (f.min_key, f.max_key)})
    probes = sorted({k + d for k in edges for d in (-1, 0, 1)})
    for key in probes:
        assert run.overlapping(key, key) == [
            f for f in files if f.min_key <= key <= f.max_key
        ]
    for lo in probes:
        for hi in probes:
            if lo <= hi:
                assert run.overlapping(lo, hi) == [
                    f for f in files if f.overlaps_range(lo, hi)
                ]


def range_tombstone(start, length, seqnum):
    return RangeTombstone(start=start, end=start + length, seqnum=seqnum)


# One file: a key offset inside its 100-key slot, an entry count, and up
# to two range tombstones placed anywhere in the run's span — unclipped,
# so bounds may reach over any number of neighbours on either side.
_file_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=20),
        st.lists(
            st.tuples(
                st.integers(min_value=-150, max_value=950),
                st.integers(min_value=1, max_value=400),
            ),
            max_size=2,
        ),
    ),
    min_size=1,
    max_size=8,
)


@given(_file_specs)
@settings(max_examples=120, deadline=None)
def test_property_fence_index_equals_linear_walk(specs):
    """Arbitrary widening: files sorted on min_key, max_key in any order."""
    files = []
    for slot, (offset, count, rts) in enumerate(specs):
        if count == 0 and not rts:
            continue
        first = slot * 100 + offset
        files.append(
            sstable(
                range(first, first + count),
                seq_start=slot * 1000,
                rts=[
                    range_tombstone(start, length, slot * 1000 + 900 + i)
                    for i, (start, length) in enumerate(rts)
                ],
            )
        )
    run = Run(sorted(files, key=lambda f: f.min_key))
    assert list(run) == sorted(files, key=lambda f: f.min_key)
    assert_index_matches_linear_walk(run)


_batch = st.tuples(
    st.sets(st.integers(min_value=0, max_value=400), min_size=33, max_size=160),
    st.lists(
        st.tuples(
            st.integers(min_value=-20, max_value=420),
            st.integers(min_value=1, max_value=120),
        ),
        max_size=4,
    ),
)


@given(_batch, _batch, st.integers(min_value=0, max_value=300))
@settings(max_examples=80, deadline=None)
def test_property_fence_index_on_built_and_inserted_runs(first, second, gap):
    """Runs as the engine makes them: ``build_run`` clips tombstone
    fragments at file boundaries (a file's last fragment ends on its
    right neighbour's first key), and ``insert_into_run`` merges a second
    batch whose outermost fragments are unclipped."""
    stats = Statistics()
    disk = SimulatedDisk(stats)
    config = rocksdb_config(**TINY)

    def build(batch, shift, seq_start):
        keys, rts = batch
        return build_run(
            make_entries([k + shift for k in keys], seq_start=seq_start),
            [
                range_tombstone(start + shift, length, seq_start + 5000 + i)
                for i, (start, length) in enumerate(rts)
            ],
            config,
            disk,
            stats,
            now=0.0,
            level=1,
        )

    level = Level(1, 10_000)
    level.merge_into_single_run(build(first, 0, 0))
    assert_index_matches_linear_walk(level.runs[0])
    try:
        level.insert_into_run(build(second, 421 + gap, 10_000))
    except CompactionError:
        return  # the level refuses a batch whose bounds swallow a neighbour
    assert level.run_count == 1
    assert_index_matches_linear_walk(level.runs[0])
    hi = 421 + gap + 10
    assert level.overlapping_files(300, hi) == [
        f for f in level.files() if f.overlaps_range(300, hi)
    ]
