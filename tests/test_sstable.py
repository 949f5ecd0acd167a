"""Unit tests for the classic SSTable layout."""

import pytest

from repro.core.config import rocksdb_config
from repro.core.stats import Statistics
from repro.lsm.sstable import build_sstable
from repro.storage.disk import SimulatedDisk
from repro.storage.entry import EntryKind, RangeTombstone

from tests.conftest import TINY, make_entries


@pytest.fixture
def config():
    return rocksdb_config(**TINY)


def build(entries, rts=(), config=None, disk=None, stats=None, now=0.0, level=1):
    stats = stats or Statistics()
    disk = disk or SimulatedDisk(stats)
    config = config or rocksdb_config(**TINY)
    return (
        build_sstable(entries, list(rts), config, disk, stats, now, level),
        disk,
        stats,
    )


class TestBuild:
    def test_pages_and_metadata(self, config):
        entries = make_entries(range(10))
        table, _, _ = build(entries, config=config)
        assert table.num_pages == 3  # 10 entries / B=4
        assert table.meta.num_entries == 10
        assert table.min_key == 0
        assert table.max_key == 9

    def test_capacity_enforced(self, config):
        entries = make_entries(range(config.file_entries + 1))
        with pytest.raises(ValueError):
            build(entries, config=config)

    def test_tombstone_metadata(self, config):
        puts = make_entries([1, 2])
        tombs = make_entries([5], seq_start=10, kind=EntryKind.TOMBSTONE,
                             write_time=3.0)
        table, _, _ = build(puts + tombs, config=config)
        assert table.meta.num_point_tombstones == 1
        assert table.meta.oldest_tombstone_time == 3.0
        assert table.meta.amax(now=10.0) == pytest.approx(7.0)
        assert table.meta.has_tombstones

    def test_no_tombstones_amax_zero(self, config):
        table, _, _ = build(make_entries([1, 2]), config=config)
        assert table.meta.amax(now=100.0) == 0.0

    def test_range_tombstone_widens_bounds(self, config):
        entries = make_entries([10, 11])
        rt = RangeTombstone(start=0, end=100, seqnum=50, write_time=1.0)
        table, _, _ = build(entries, [rt], config=config)
        assert table.min_key == 0
        assert table.max_key == 100
        assert table.meta.num_range_tombstones == 1
        assert table.meta.oldest_tombstone_time == 1.0

    def test_empty_file_rejected(self, config):
        with pytest.raises(ValueError):
            build([], config=config)


class TestGet:
    def test_hit_costs_one_io(self, config):
        entries = make_entries(range(20))
        table, disk, stats = build(entries, config=config)
        result = table.get(7)
        assert result.entry.key == 7
        assert stats.pages_read == 1
        assert stats.lookup_pages_read == 1

    def test_bloom_negative_costs_no_io(self, config):
        entries = make_entries(range(0, 100, 7))
        table, disk, stats = build(entries, config=config)
        misses = 0
        for probe in range(1, 100, 7):  # keys not present but inside range
            result = table.get(probe)
            assert result.entry is None
            misses += 1
        # Nearly all misses should be stopped by the filter without I/O.
        assert stats.pages_read <= misses * 0.3

    def test_out_of_bounds_key_skips_filter(self, config):
        table, _, stats = build(make_entries([10, 20]), config=config)
        assert table.get(5).entry is None
        assert stats.bloom_probes == 0

    def test_uncharged_get(self, config):
        table, _, stats = build(make_entries(range(8)), config=config)
        table.get(3, charge_io=False)
        assert stats.pages_read == 0

    def test_covering_rt_reported(self, config):
        rt = RangeTombstone(start=0, end=50, seqnum=99)
        table, _, _ = build(make_entries(range(8)), [rt], config=config)
        result = table.get(3)
        assert result.covering_rt_seqnum == 99
        result = table.get(60) if table.max_key >= 60 else None
        # key 60 is outside entry bounds but rt widened max to 50 → skip

    def test_multiple_rts_reports_newest(self, config):
        rts = [
            RangeTombstone(start=0, end=50, seqnum=10),
            RangeTombstone(start=0, end=20, seqnum=30),
        ]
        table, _, _ = build(make_entries(range(8)), rts, config=config)
        assert table.get(3).covering_rt_seqnum == 30
        assert table.get(25).covering_rt_seqnum == 10


class TestScan:
    def test_scan_range(self, config):
        table, _, stats = build(make_entries(range(0, 40, 2)), config=config)
        hits = table.scan(10, 20)
        assert [e.key for e in hits] == [10, 12, 14, 16, 18, 20]
        assert stats.pages_read >= 1

    def test_scan_outside_costs_nothing(self, config):
        table, _, stats = build(make_entries(range(10)), config=config)
        assert table.scan(100, 200) == []
        assert stats.pages_read == 0


class TestIterationAndSizes:
    def test_entries_in_order(self, config):
        entries = make_entries(range(12))
        table, _, _ = build(entries, config=config)
        assert [e.key for e in table.entries()] == list(range(12))

    def test_size_bytes_counts_rts(self, config):
        entries = make_entries([1, 2], size=100)
        rt = RangeTombstone(start=0, end=9, seqnum=5, size=31)
        table, _, _ = build(entries, [rt], config=config)
        assert table.size_bytes == 231

    def test_overlaps(self, config):
        a, _, _ = build(make_entries(range(0, 10)), config=config)
        b, _, _ = build(make_entries(range(5, 15)), config=config)
        c, _, _ = build(make_entries(range(20, 30)), config=config)
        assert a.overlaps(b)
        assert not a.overlaps(c)
        assert a.overlaps_range(9, 100)
        assert not a.overlaps_range(10, 100)

    def test_might_contain(self, config):
        table, _, _ = build(make_entries(range(0, 40, 4)), config=config)
        assert table.might_contain(8)
        assert not table.might_contain(1000)  # out of bounds
