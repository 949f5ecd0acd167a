"""The in-memory write buffer (memtable).

§2 of the paper ("Buffering Inserts and Updates"): inserts, updates, and
deletes are buffered in memory; a delete (update) to a key that already
exists *in the buffer* deletes (replaces) the older entry **in place**;
otherwise the tombstone is retained to invalidate older on-disk versions.
When the buffer reaches capacity, entries are sorted by key into an
immutable run and flushed to Level 1.

RocksDB implements the buffer as a skiplist; a Python ``dict`` plus a final
sort at flush time gives the same semantics (single version per key, sorted
output) with far better constants in CPython, and the flush sort is the
same ``O(n log n)`` the skiplist amortizes.

Range tombstones are accumulated in a side list, exactly as they live in a
separate range-tombstone block on disk (§3.1.1).

Concurrency: the buffer is written by exactly one thread (the engine's
write path), but under a background compaction scheduler other threads
*read* it while a flush is in progress. :meth:`begin_flush` therefore
retains the drained snapshot in a side table that every read-path method
keeps consulting until :meth:`end_flush` — a scan racing the flush sees
the entries either here or in the freshly installed Level-1 run (or,
harmlessly, in both: the merge de-duplicates by seqnum), never in
neither.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.storage.entry import Entry, RangeTombstone


class MemoryBuffer:
    """A bounded write buffer with in-place upsert semantics.

    Parameters
    ----------
    capacity_entries:
        Flush threshold in entries (``P · B``). Range tombstones count
        toward capacity as one entry each — they occupy buffer space and
        must be flushed with the run that contains them.
    """

    __slots__ = (
        "capacity_entries",
        "_table",
        "_range_tombstones",
        "_flushing_table",
        "_flushing_range_tombstones",
    )

    def __init__(self, capacity_entries: int):
        if capacity_entries < 1:
            raise ValueError(
                f"buffer capacity must be >= 1 entry, got {capacity_entries}"
            )
        self.capacity_entries = capacity_entries
        self._table: dict[Any, Entry] = {}
        self._range_tombstones: list[RangeTombstone] = []
        # The in-flight flush snapshot (see the module docstring).
        self._flushing_table: dict[Any, Entry] = {}
        self._flushing_range_tombstones: list[RangeTombstone] = []

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def put(self, entry: Entry) -> None:
        """Insert/update/point-delete a key (in-place within the buffer)."""
        existing = self._table.get(entry.key)
        if existing is not None and existing.seqnum > entry.seqnum:
            # Out-of-order application would lose the newer version; the
            # engine always applies in seqnum order, so this is a bug trap.
            raise ValueError(
                f"stale write for key {entry.key!r}: seq {entry.seqnum} "
                f"after {existing.seqnum}"
            )
        self._table[entry.key] = entry

    def add_range_tombstone(self, tombstone: RangeTombstone) -> None:
        """Buffer a range delete on the sort key.

        Keys inside the buffer that the range covers are dropped in place
        (they are strictly older than the tombstone), mirroring the
        in-place delete semantics for point operations.
        """
        covered = [
            key
            for key, entry in self._table.items()
            if tombstone.covers(key, entry.seqnum)
        ]
        for key in covered:
            del self._table[key]
        self._range_tombstones.append(tombstone)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def get(self, key: Any) -> Entry | None:
        """Most recent buffered version of ``key`` (may be a tombstone).

        Range tombstones are consulted: if a buffered range delete covers
        the buffered entry, the entry is reported as deleted (``None`` here
        means *no information*, so the caller keeps searching the tree;
        a covering range tombstone yields a synthetic ``None`` via the
        engine, which checks :meth:`range_deleted`).
        """
        entry = self._table.get(key)
        if entry is None and self._flushing_table:
            entry = self._flushing_table.get(key)
        return entry

    def range_deleted(self, key: Any, seqnum: int) -> bool:
        """True if a buffered range tombstone covers ``key``@``seqnum``."""
        if any(rt.covers(key, seqnum) for rt in self._range_tombstones):
            return True
        return any(
            rt.covers(key, seqnum) for rt in self._flushing_range_tombstones
        )

    def scan(self, lo: Any, hi: Any) -> list[Entry]:
        """Buffered entries with sort key in ``[lo, hi]``, key-ordered."""
        # Snapshot first: filtering the live dict in bytecode would race
        # a concurrent put ("dictionary changed size during iteration").
        # dict.copy() runs no Python code mid-copy; list(items()) would
        # not do: its per-item tuples can trigger a GC whose finalizers
        # let another thread run.
        table = self._table.copy()
        if self._flushing_table:
            # Mid-flush snapshot: live entries shadow flushing ones.
            table = {**self._flushing_table, **table}
        hits = [e for k, e in table.items() if lo <= k <= hi]
        hits.sort(key=lambda e: e.key)
        return hits

    # ------------------------------------------------------------------
    # Capacity & flush
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._table) + len(self._range_tombstones)

    @property
    def is_full(self) -> bool:
        return len(self) >= self.capacity_entries

    @property
    def is_empty(self) -> bool:
        return not self._table and not self._range_tombstones

    @property
    def range_tombstones(self) -> tuple[RangeTombstone, ...]:
        return tuple(self._flushing_range_tombstones + self._range_tombstones)

    def size_bytes(self) -> int:
        """Declared bytes buffered (entries plus range tombstones)."""
        return sum(e.size for e in self._table.values()) + sum(
            rt.size for rt in self._range_tombstones
        )

    def tombstone_count(self) -> int:
        """Point tombstones currently buffered."""
        return sum(1 for e in self._table.values() if e.is_tombstone)

    def oldest_tombstone_time(self) -> float | None:
        """Write time of the oldest buffered tombstone (point or range).

        FADE's level-0 TTL allowance ``d_0`` applies to the buffer: the
        engine force-flushes once this age exceeds ``d_0`` so the delete
        persistence clock keeps running during idle periods.
        """
        times = [e.write_time for e in self._table.values() if e.is_tombstone]
        times += [rt.write_time for rt in self._range_tombstones]
        return min(times) if times else None

    def purge_delete_key_range(self, d_lo: Any, d_hi: Any) -> list[Entry]:
        """Drop buffered entries whose delete key falls in ``[d_lo, d_hi)``.

        The in-memory half of a secondary range delete — buffered data has
        not reached any layout yet, so it is simply filtered. Returns the
        purged entries: the engine must know which keys lost their newest
        version, because an older on-disk version of such a key would
        otherwise resurface on reads.
        """
        victims = [
            entry
            for entry in self._table.values()
            if entry.delete_key is not None and d_lo <= entry.delete_key < d_hi
        ]
        for entry in victims:
            del self._table[entry.key]
        return victims

    def scan_delete_key_range(self, d_lo: Any, d_hi: Any) -> list[Entry]:
        """Buffered entries with delete key in ``[d_lo, d_hi)`` (unordered)."""
        candidates = list(self._table.values())
        if self._flushing_table:
            live = set(self._table)
            candidates += [
                e for k, e in self._flushing_table.items() if k not in live
            ]
        return [
            e
            for e in candidates
            if e.delete_key is not None and d_lo <= e.delete_key < d_hi
        ]

    def drain(self) -> tuple[list[Entry], list[RangeTombstone]]:
        """Sort, empty the buffer, and return (entries, range tombstones).

        The returned entries are sorted on the sort key — the immutable
        sorted run the paper's §2 describes flushing to Level 1.
        """
        entries = sorted(self._table.values(), key=lambda e: e.key)
        range_tombstones = list(self._range_tombstones)
        self._table = {}
        self._range_tombstones = []
        return entries, range_tombstones

    def begin_flush(self) -> tuple[list[Entry], list[RangeTombstone]]:
        """Like :meth:`drain`, but the snapshot stays readable.

        The drained entries and range tombstones move to the flushing
        side tables that :meth:`get`/:meth:`scan`/:meth:`range_deleted`/
        :meth:`scan_delete_key_range` keep consulting, so a reader racing
        the flush never observes the window between the buffer emptying
        and the Level-1 install. The engine calls :meth:`end_flush` once
        the run is installed in the tree.
        """
        entries = sorted(self._table.values(), key=lambda e: e.key)
        range_tombstones = list(self._range_tombstones)
        # Reference moves, not copies: the live dicts are rebound fresh,
        # so the snapshot's contents are immutable from here on.
        self._flushing_table = self._table
        self._flushing_range_tombstones = range_tombstones
        self._table = {}
        self._range_tombstones = []
        return entries, range_tombstones

    def end_flush(self) -> None:
        """Drop the flushing snapshot (its run is installed in the tree)."""
        self._flushing_table = {}
        self._flushing_range_tombstones = []

    def __iter__(self) -> Iterator[Entry]:
        """Iterate buffered entries in sort-key order (non-destructive)."""
        return iter(sorted(self._table.values(), key=lambda e: e.key))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryBuffer({len(self._table)} entries, "
            f"{len(self._range_tombstones)} range tombstones, "
            f"cap={self.capacity_entries})"
        )
