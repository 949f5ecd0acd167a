"""Metrics registry: every counter the paper's evaluation reports.

The evaluation section of the paper (§5) measures, per experiment:

* total number of compactions performed            (Fig 6B)
* total bytes compacted / written                  (Fig 6C, 6F)
* number of tombstones present and their file ages (Fig 6E)
* space amplification                              (Fig 6A, per §3.2.1)
* write amplification                              (per §3.2.3)
* read throughput / latency                        (Fig 6D, 6G)
* page I/Os and Bloom-filter hash computations     (Fig 6I–6K)
* full vs partial page drops                       (Fig 6H)

:class:`Statistics` is a single mutable registry threaded through the
storage layer, the compaction machinery, and the engine facade, so every
bench reads its series from one place.

Thread safety
-------------
Most counters are plain attributes incremented from the thread that owns
the engine, and the sharded layer keeps one registry per member engine
plus a per-shard lock around every dispatched task
(:mod:`repro.shard.engine`). Since the background compaction scheduler
(:mod:`repro.compaction.scheduler`) arrived, the counters that
*compactions* touch — bytes read/written, compaction counts, page I/O,
tombstone drops, persistence records — may also be bumped from a worker
thread while the write path keeps ingesting. Those paths funnel through
:meth:`add` (and :meth:`record_tombstone_insert`), which mutate under an
internal lock, the same treatment :class:`~repro.core.clock.
SimulatedClock` and the run-file counter already received.
Cluster-wide totals are built by :meth:`merge`/:meth:`combined` into a
fresh registry while the shard locks are held. :meth:`merge` itself
snapshots ``other.persistence_records`` before extending, so a merged
view taken concurrently with an append never observes a half-grown list.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable

from repro.core import locks

# The §4.2.4 latency model: what one simulated page I/O and one
# Bloom-filter hash cost, in seconds.
PAGE_IO_SECONDS = 100e-6  # "~100 µs" SSD page access
HASH_SECONDS = 80e-9  # measured for MurmurHash on a 64-bit key


@dataclass
class PersistenceRecord:
    """Lifecycle of one tombstone, for delete-persistence accounting.

    Attributes
    ----------
    key:
        The deleted sort key (or range start for range tombstones).
    inserted_at:
        Simulated time the tombstone entered the memory buffer.
    persisted_at:
        Simulated time the tombstone was discarded by a last-level
        compaction (i.e. the logical delete became persistent), or ``None``
        while it is still live in the tree.
    """

    key: object
    inserted_at: float
    persisted_at: float | None = None

    @property
    def latency(self) -> float | None:
        """Delete persistence latency, or ``None`` if not yet persisted."""
        if self.persisted_at is None:
            return None
        return self.persisted_at - self.inserted_at


@dataclass
class Statistics:
    """Mutable counters shared by all engine components.

    All byte counts are simulated bytes (declared entry sizes), all I/O
    counts are page-granularity, and all times are simulated seconds.
    """

    # --- write path -----------------------------------------------------
    entries_ingested: int = 0
    point_tombstones_ingested: int = 0
    range_tombstones_ingested: int = 0
    blind_deletes_skipped: int = 0
    buffer_flushes: int = 0

    # --- compaction -----------------------------------------------------
    compactions: int = 0
    ttl_triggered_compactions: int = 0
    saturation_triggered_compactions: int = 0
    full_tree_compactions: int = 0
    compaction_bytes_read: int = 0
    compaction_bytes_written: int = 0
    compaction_entries_in: int = 0
    compaction_entries_out: int = 0
    tombstones_dropped: int = 0
    invalid_entries_purged: int = 0

    # --- I/O ------------------------------------------------------------
    pages_read: int = 0
    pages_written: int = 0
    pages_dropped_full: int = 0
    pages_dropped_partial: int = 0
    bytes_flushed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    # --- reads ----------------------------------------------------------
    point_lookups: int = 0
    zero_result_lookups: int = 0
    range_lookups: int = 0
    secondary_range_lookups: int = 0
    bloom_probes: int = 0
    # The §4.2.4 model, not a count of digests computed: one hash per
    # filter probed (and per key added); a lookup digests its key once.
    bloom_hash_computations: int = 0
    bloom_false_positives: int = 0
    lookup_pages_read: int = 0
    # Lookups answered from a range-tombstone block before any Bloom
    # probe or file visit (the pre-Bloom short-circuit).
    range_tombstone_skips: int = 0

    # --- secondary range deletes ----------------------------------------
    secondary_range_deletes: int = 0
    srd_pages_read: int = 0
    srd_pages_written: int = 0

    # --- background compaction scheduling -------------------------------
    background_compactions: int = 0
    write_stalls: int = 0
    stall_seconds: float = 0.0

    # --- persistence tracking -------------------------------------------
    persistence_records: list[PersistenceRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Not a dataclass field: merge()/snapshot() iterate fields and
        # must never try to sum a lock.
        self._lock = locks.OrderedLock("stats", locks.RANK_STATS)

    def add(self, **deltas: float) -> None:
        """Atomically bump the named counters (background-worker paths).

        ``stats.pages_written += n`` is a read-modify-write the
        interpreter may preempt between a compaction worker and the
        ingest thread; every counter a worker touches goes through here
        instead.
        """
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def record_tombstone_insert(self, key: object, now: float) -> PersistenceRecord:
        """Open a persistence record when a tombstone enters the buffer."""
        record = PersistenceRecord(key=key, inserted_at=now)
        with self._lock:
            self.persistence_records.append(record)
        return record

    # ------------------------------------------------------------------
    # Aggregation (cluster-wide metrics over sharded engines)
    # ------------------------------------------------------------------

    def merge(self, other: "Statistics") -> "Statistics":
        """Fold ``other``'s counters into this registry, in place.

        Every scalar counter adds up; persistence records concatenate (the
        record objects stay shared with ``other``, so latencies recorded
        later by the owning engine are visible through the merged view).
        The record list is snapshotted via ``list()`` so merging stays
        well-defined even if ``other``'s owner appends concurrently.
        Returns ``self`` for chaining.
        """
        with self._lock:
            for spec in fields(self):
                if spec.name == "persistence_records":
                    continue
                setattr(
                    self, spec.name, getattr(self, spec.name) + getattr(other, spec.name)
                )
            self.persistence_records.extend(list(other.persistence_records))
        return self

    @classmethod
    def combined(cls, parts: Iterable["Statistics"]) -> "Statistics":
        """A fresh registry holding the sum of ``parts`` (none is mutated)."""
        total = cls()
        for part in parts:
            total.merge(part)
        return total

    # ------------------------------------------------------------------
    # Derived metrics (the formulas of §3.2)
    # ------------------------------------------------------------------

    @property
    def total_bytes_written(self) -> int:
        """All bytes written to simulated disk: flushes plus compactions."""
        return self.bytes_flushed + self.compaction_bytes_written

    def write_amplification(self, new_bytes: int) -> float:
        """``w_amp = (csize(N+) - csize(N)) / csize(N)`` from §3.2.3.

        ``new_bytes`` is ``csize(N)``: the cumulative size of entries as
        first written (flushed); everything re-written by compactions on
        top of that is amplification.
        """
        if new_bytes <= 0:
            return 0.0
        return max(0.0, (self.total_bytes_written - new_bytes) / new_bytes)

    def persisted_latencies(self) -> list[float]:
        """Latencies of all tombstones that have persisted so far."""
        return [
            r.latency for r in self.persistence_records if r.latency is not None
        ]

    def unpersisted_count(self) -> int:
        """Number of tombstones still live (not yet compacted at last level)."""
        return sum(1 for r in self.persistence_records if r.persisted_at is None)

    def max_persistence_latency(self) -> float | None:
        """Largest observed persistence latency, or ``None`` if none yet."""
        latencies = self.persisted_latencies()
        return max(latencies) if latencies else None

    def average_lookup_ios(self) -> float:
        """Mean page I/Os per point lookup issued so far."""
        if self.point_lookups == 0:
            return 0.0
        return self.lookup_pages_read / self.point_lookups

    def simulated_io_seconds(self) -> float:
        """Total simulated time spent on page I/O (reads + writes)."""
        return (self.pages_read + self.pages_written) * PAGE_IO_SECONDS

    def simulated_hash_seconds(self) -> float:
        """Total simulated time spent computing Bloom-filter hashes."""
        return self.bloom_hash_computations * HASH_SECONDS

    def snapshot(self) -> dict:
        """A plain-dict copy of all scalar counters (for bench reporting).

        Taken under the internal lock: a snapshot racing a background
        worker's :meth:`add` must reflect one moment, never a mix of the
        counters before and after the worker's atomic bump (the
        reporting paths compare counters against each other).
        """
        with self._lock:
            return {
                spec.name: getattr(self, spec.name)
                for spec in fields(self)
                if spec.name != "persistence_records"
            }

    def reset_read_counters(self) -> None:
        """Zero the read-path counters (used between load and query phases)."""
        self.point_lookups = 0
        self.zero_result_lookups = 0
        self.range_lookups = 0
        self.secondary_range_lookups = 0
        self.bloom_probes = 0
        self.bloom_hash_computations = 0
        self.bloom_false_positives = 0
        self.lookup_pages_read = 0
        self.range_tombstone_skips = 0
