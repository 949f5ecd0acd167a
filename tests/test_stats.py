"""Unit tests for the metrics registry."""

import pytest

from repro.core.stats import PersistenceRecord, Statistics


class TestPersistenceRecord:
    def test_latency_none_until_persisted(self):
        record = PersistenceRecord(key=1, inserted_at=5.0)
        assert record.latency is None
        record.persisted_at = 8.0
        assert record.latency == pytest.approx(3.0)


class TestStatistics:
    def test_record_tombstone_insert(self):
        stats = Statistics()
        record = stats.record_tombstone_insert(key=9, now=2.0)
        assert stats.persistence_records == [record]
        assert stats.unpersisted_count() == 1
        record.persisted_at = 4.0
        assert stats.unpersisted_count() == 0
        assert stats.persisted_latencies() == [pytest.approx(2.0)]
        assert stats.max_persistence_latency() == pytest.approx(2.0)

    def test_max_latency_none_when_empty(self):
        assert Statistics().max_persistence_latency() is None

    def test_total_bytes_written(self):
        stats = Statistics()
        stats.bytes_flushed = 100
        stats.compaction_bytes_written = 250
        assert stats.total_bytes_written == 350

    def test_write_amplification_formula(self):
        """§3.2.3: wamp = (csize(N+) − csize(N)) / csize(N)."""
        stats = Statistics()
        stats.bytes_flushed = 100
        stats.compaction_bytes_written = 250
        assert stats.write_amplification(100) == pytest.approx(2.5)

    def test_write_amplification_zero_guard(self):
        stats = Statistics()
        assert stats.write_amplification(0) == 0.0
        stats.bytes_flushed = 10
        assert stats.write_amplification(100) == 0.0  # clamped at 0

    def test_average_lookup_ios(self):
        stats = Statistics()
        assert stats.average_lookup_ios() == 0.0
        stats.point_lookups = 4
        stats.lookup_pages_read = 6
        assert stats.average_lookup_ios() == pytest.approx(1.5)

    def test_simulated_times(self):
        stats = Statistics()
        stats.pages_read = 3
        stats.pages_written = 2
        stats.bloom_hash_computations = 1000
        assert stats.simulated_io_seconds() == pytest.approx(5 * 100e-6)
        assert stats.simulated_hash_seconds() == pytest.approx(8e-5)

    def test_snapshot_covers_all_counters(self):
        stats = Statistics()
        stats.compactions = 7
        snap = stats.snapshot()
        assert snap["compactions"] == 7
        assert "pages_dropped_full" in snap
        assert "srd_pages_written" in snap
        assert len(snap) >= 30

    def test_merge_sums_counters_in_place(self):
        left = Statistics()
        left.entries_ingested = 10
        left.pages_written = 3
        right = Statistics()
        right.entries_ingested = 5
        right.compactions = 2
        returned = left.merge(right)
        assert returned is left
        assert left.entries_ingested == 15
        assert left.pages_written == 3
        assert left.compactions == 2
        assert right.entries_ingested == 5  # other side untouched

    def test_merge_concatenates_persistence_records(self):
        left = Statistics()
        right = Statistics()
        record = right.record_tombstone_insert(key=1, now=2.0)
        left.merge(right)
        assert left.persistence_records == [record]
        assert left.unpersisted_count() == 1
        # the record stays shared: closing it is visible in the merged view
        record.persisted_at = 5.0
        assert left.unpersisted_count() == 0

    def test_combined_leaves_parts_unmutated(self):
        parts = []
        for value in (1, 2, 4):
            part = Statistics()
            part.entries_ingested = value
            part.bytes_flushed = value * 100
            parts.append(part)
        total = Statistics.combined(parts)
        assert total.entries_ingested == 7
        assert total.bytes_flushed == 700
        assert [p.entries_ingested for p in parts] == [1, 2, 4]
        assert Statistics.combined([]).entries_ingested == 0

    def test_combined_derived_metrics(self):
        """Cluster-level derived metrics fall out of the summed counters."""
        left = Statistics()
        left.bytes_flushed = 100
        left.compaction_bytes_written = 100
        right = Statistics()
        right.bytes_flushed = 100
        right.compaction_bytes_written = 300
        total = Statistics.combined([left, right])
        assert total.write_amplification(total.bytes_flushed) == pytest.approx(2.0)

    def test_reset_read_counters(self):
        stats = Statistics()
        stats.point_lookups = 5
        stats.lookup_pages_read = 9
        stats.bloom_probes = 3
        stats.compactions = 2  # a write counter: must survive
        stats.reset_read_counters()
        assert stats.point_lookups == 0
        assert stats.lookup_pages_read == 0
        assert stats.bloom_probes == 0
        assert stats.compactions == 2
