"""Unit tests for the memory buffer's §2 semantics."""

import gc
import sys
import threading

import pytest

from repro.storage.buffer import MemoryBuffer
from repro.storage.entry import Entry, EntryKind, RangeTombstone


def put(key, seq, delete_key=None):
    return Entry(
        key=key, seqnum=seq, kind=EntryKind.PUT, value=f"v{seq}", delete_key=delete_key
    )


def tomb(key, seq):
    return Entry(key=key, seqnum=seq, kind=EntryKind.TOMBSTONE)


class TestInPlaceSemantics:
    """§2: deletes/updates to buffered keys happen in place."""

    def test_update_replaces_in_place(self):
        buffer = MemoryBuffer(16)
        buffer.put(put(1, 0))
        buffer.put(put(1, 5))
        assert buffer.get(1).seqnum == 5
        assert len(buffer) == 1

    def test_delete_replaces_put_in_place(self):
        buffer = MemoryBuffer(16)
        buffer.put(put(1, 0))
        buffer.put(tomb(1, 3))
        assert buffer.get(1).is_tombstone
        assert len(buffer) == 1

    def test_put_replaces_tombstone_in_place(self):
        buffer = MemoryBuffer(16)
        buffer.put(tomb(1, 0))
        buffer.put(put(1, 4))
        assert not buffer.get(1).is_tombstone

    def test_stale_write_rejected(self):
        buffer = MemoryBuffer(16)
        buffer.put(put(1, 9))
        with pytest.raises(ValueError):
            buffer.put(put(1, 3))


class TestRangeTombstones:
    def test_range_tombstone_purges_covered_buffered_keys(self):
        buffer = MemoryBuffer(16)
        for key in (1, 5, 9):
            buffer.put(put(key, key))
        buffer.add_range_tombstone(RangeTombstone(start=4, end=10, seqnum=50))
        assert buffer.get(1) is not None
        assert buffer.get(5) is None
        assert buffer.get(9) is None
        assert len(buffer.range_tombstones) == 1

    def test_range_deleted_check(self):
        buffer = MemoryBuffer(16)
        buffer.add_range_tombstone(RangeTombstone(start=4, end=10, seqnum=50))
        assert buffer.range_deleted(5, 10)
        assert not buffer.range_deleted(5, 60)   # newer than tombstone
        assert not buffer.range_deleted(11, 10)  # outside range

    def test_range_tombstone_counts_toward_capacity(self):
        buffer = MemoryBuffer(2)
        buffer.put(put(1, 0))
        buffer.add_range_tombstone(RangeTombstone(start=4, end=10, seqnum=5))
        assert buffer.is_full


class TestCapacityAndDrain:
    def test_fills_at_capacity(self):
        buffer = MemoryBuffer(2)
        buffer.put(put(1, 0))
        assert not buffer.is_full
        buffer.put(put(2, 1))
        assert buffer.is_full

    def test_drain_returns_sorted_and_empties(self):
        buffer = MemoryBuffer(16)
        for seq, key in enumerate([9, 1, 5]):
            buffer.put(put(key, seq))
        buffer.add_range_tombstone(RangeTombstone(start=100, end=200, seqnum=9))
        entries, rts = buffer.drain()
        assert [e.key for e in entries] == [1, 5, 9]
        assert len(rts) == 1
        assert buffer.is_empty

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            MemoryBuffer(0)


class TestReads:
    def test_scan_ordered(self):
        buffer = MemoryBuffer(16)
        for seq, key in enumerate([7, 3, 11]):
            buffer.put(put(key, seq))
        assert [e.key for e in buffer.scan(3, 8)] == [3, 7]

    def test_iter_is_sorted_and_nondestructive(self):
        buffer = MemoryBuffer(16)
        for seq, key in enumerate([4, 2]):
            buffer.put(put(key, seq))
        assert [e.key for e in buffer] == [2, 4]
        assert len(buffer) == 2

    def test_tombstone_count(self):
        buffer = MemoryBuffer(16)
        buffer.put(put(1, 0))
        buffer.put(tomb(2, 1))
        assert buffer.tombstone_count() == 1

    def test_size_bytes(self):
        buffer = MemoryBuffer(16)
        buffer.put(Entry(key=1, seqnum=0, kind=EntryKind.PUT, value="v", size=100))
        buffer.add_range_tombstone(
            RangeTombstone(start=4, end=10, seqnum=5, size=21)
        )
        assert buffer.size_bytes() == 121


class TestSecondaryKeySupport:
    def test_purge_delete_key_range(self):
        buffer = MemoryBuffer(16)
        buffer.put(put(1, 0, delete_key=100))
        buffer.put(put(2, 1, delete_key=200))
        buffer.put(put(3, 2, delete_key=300))
        removed = buffer.purge_delete_key_range(150, 250)
        assert [entry.key for entry in removed] == [2]
        assert buffer.get(2) is None
        assert buffer.get(1) is not None

    def test_scan_delete_key_range(self):
        buffer = MemoryBuffer(16)
        buffer.put(put(1, 0, delete_key=100))
        buffer.put(put(2, 1, delete_key=200))
        hits = buffer.scan_delete_key_range(50, 150)
        assert [e.key for e in hits] == [1]

    def test_entries_without_delete_key_never_purged(self):
        buffer = MemoryBuffer(16)
        buffer.put(put(1, 0))
        assert buffer.purge_delete_key_range(0, 10**12) == []



class _Finalized:
    def __del__(self):
        pass


class TestConcurrentReaders:
    def test_scan_races_concurrent_puts_safely(self):
        """A reader thread scans while the writer inserts new keys; with
        thread switches forced every microsecond, a scan that iterated
        the live table would die with "dictionary changed size during
        iteration". The reader also leaves cyclic garbage with
        finalizers behind and the collector runs often, so a snapshot
        that allocates per item (and can collect, run a finalizer and
        switch threads mid-copy) fails too. Draining every 256 puts
        keeps each scan short."""
        buffer = MemoryBuffer(1 << 20)
        started = threading.Event()
        done = threading.Event()
        errors = []
        scans = [0]

        def reader():
            try:
                while not done.is_set():
                    for _ in range(50):
                        a, b = _Finalized(), _Finalized()
                        a.other, b.other = b, a
                    buffer.scan(0, 1 << 30)
                    scans[0] += 1
                    started.set()
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)
            finally:
                started.set()

        interval = sys.getswitchinterval()
        thresholds = gc.get_threshold()
        sys.setswitchinterval(1e-6)
        gc.set_threshold(50, 1, 1)
        thread = threading.Thread(target=reader)
        try:
            thread.start()
            started.wait(timeout=10)
            for seq in range(20_000):
                if errors:
                    break
                buffer.put(put(seq, seq))
                if seq % 256 == 255:
                    buffer.drain()
        finally:
            done.set()
            thread.join(timeout=10)
            sys.setswitchinterval(interval)
            gc.set_threshold(*thresholds)
        assert not thread.is_alive(), "reader did not finish"
        assert not errors, f"scan raced a put: {errors[0]!r}"
        assert scans[0] > 0
