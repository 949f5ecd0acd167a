"""Write-ahead log with the FADE persistence-aware rolling routine.

§4.1.5 ("Persistence Guarantees"): tombstones retained in the WAL are
consistently purged as long as the WAL rolls at a periodicity shorter than
``D_th``; otherwise FADE runs "a dedicated routine that checks all live
WALs that are older than D_th, copies all live records to a new WAL, and
discards the records in the older WAL that made it to the disk". This
module implements both the ordinary flush-driven purge and that routine.

The WAL started as an accounting structure; since the durable backend
(:mod:`repro.storage.persist`) arrived it is also the engine's redo log:
each record may carry the full operation payload (the buffered
:class:`~repro.storage.entry.Entry` or
:class:`~repro.storage.entry.RangeTombstone`), and an optional *sink*
mirrors every segment event — append, purge, D_th rewrite — to disk so a
restart can replay the un-flushed tail. Appends reach disk in batches of
one :class:`CommitPolicy` group size (``every_op`` is ``group(1)``), and
every manifest commit drains whatever is pending. Either way the module
preserves the paper's invariant that no tombstone older than ``D_th``
survives in any log segment — tested in the suite as part of the
persistence-guarantee property, including across crash recovery.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.errors import WALError
from repro.obs import NULL_OBS

_POLICY_PATTERN = re.compile(r"^(?:every_op|group\((\d+)\))$")


@dataclass(frozen=True)
class CommitPolicy:
    """When buffered WAL appends become durable (group commit, §4.1.5).

    The durable backend batches WAL records per segment and drains the
    batch to disk once ``group_size`` records are pending. Flush,
    compaction and SRD commits, ``checkpoint()``, ``sync()`` and
    ``close()`` always force a drain regardless, so the manifest commit
    protocol never outruns its WAL.

    Specs (the :class:`~repro.core.config.EngineConfig.wal_commit_policy`
    string):

    ``every_op``
        ``group(1)``: drain after every record — one durable write (and,
        with ``fsync``, one fsync) per operation. The default: nothing
        acknowledged is ever lost.
    ``group(n)``
        Drain once ``n`` records are pending. A crash may lose up to
        ``n - 1`` acknowledged operations (never a torn suffix — the
        batch is one physical append).
    """

    group_size: int = 1

    @classmethod
    def parse(cls, spec: str) -> "CommitPolicy":
        """Parse a policy spec string; raises :class:`ValueError`."""
        match = _POLICY_PATTERN.match(spec.strip())
        if match is None:
            raise ValueError(
                f"bad commit policy {spec!r}; expected every_op or group(n)"
            )
        size = match.group(1)
        if size is None:
            return cls()
        if int(size) < 1:
            raise ValueError(f"group size must be >= 1, got {size}")
        return cls(group_size=int(size))

    def should_drain(self, pending_records: int) -> bool:
        """Does the append path drain now? (Forced drains ignore this.)"""
        return pending_records >= self.group_size


@dataclass(frozen=True)
class WALRecord:
    """One logged operation.

    ``payload`` is the full buffered record (an ``Entry`` or a
    ``RangeTombstone``) when the engine runs durably; accounting-only WALs
    may leave it ``None``.
    """

    seqnum: int
    key: Any
    is_tombstone: bool
    written_at: float
    payload: Any = None


@dataclass
class WALSegment:
    """A contiguous chunk of the log, purged as a unit."""

    segment_id: int
    opened_at: float
    records: list[WALRecord] = field(default_factory=list)

    @property
    def max_seqnum(self) -> int:
        return max((r.seqnum for r in self.records), default=-1)

    @property
    def is_empty(self) -> bool:
        return not self.records


class WriteAheadLog:
    """Segmented WAL with flush-driven purge and the ``D_th`` routine.

    ``sink``, when set, is notified of every durable-relevant event:
    ``wal_append(segment, record)`` after a record lands in a segment,
    ``wal_purge(segment_ids)`` when flushed segments are discarded, and
    ``wal_rewrite(fresh_segment, dropped_ids)`` when the D_th routine
    copies live records to a new segment. The
    :class:`~repro.storage.persist.DurableStore` implements this protocol;
    accounting-only engines leave it ``None``.
    """

    def __init__(self, segment_capacity: int = 4096, sink: Any = None):
        if segment_capacity < 1:
            raise WALError(f"segment capacity must be >= 1, got {segment_capacity}")
        self.segment_capacity = segment_capacity
        self.sink = sink
        # The owning engine rebinds this to its bundle; a bare WAL keeps
        # the shared disabled one.
        self.obs = NULL_OBS
        self._segments: list[WALSegment] = []
        self._next_segment_id = 0
        self._flushed_seqnum = -1
        self.segments_purged = 0
        self.records_rewritten = 0

    # ------------------------------------------------------------------
    # Append path
    # ------------------------------------------------------------------

    def append(
        self,
        seqnum: int,
        key: Any,
        is_tombstone: bool,
        now: float,
        payload: Any = None,
    ) -> None:
        """Log one operation before it is applied to the memory buffer."""
        if seqnum <= self._flushed_seqnum:
            raise WALError(
                f"appending seqnum {seqnum} already covered by flush "
                f"watermark {self._flushed_seqnum}"
            )
        if not self._segments or len(self._segments[-1].records) >= self.segment_capacity:
            self._segments.append(WALSegment(self._next_segment_id, opened_at=now))
            self._next_segment_id += 1
        segment = self._segments[-1]
        record = WALRecord(
            seqnum=seqnum,
            key=key,
            is_tombstone=is_tombstone,
            written_at=now,
            payload=payload,
        )
        segment.records.append(record)
        if self.sink is not None:
            self.sink.wal_append(segment, record)

    def void_tombstone(self, seqnum: int) -> None:
        """Clear the tombstone flag of a superseded live record.

        A buffered point tombstone overwritten by a newer put carries no
        delete intent any more (the engine nullifies its persistence
        record at the same moment); without this, the ``D_th`` routine
        would copy the dead intent to fresh segments forever and the
        record-age half of §4.1.5's invariant could never be met. Only
        the flag flips — the payload stays, so WAL replay still
        reproduces the exact buffer history (the superseding put, which
        must also be live, lands right after it).
        """
        # Newest segments first: the superseded tombstone is still
        # buffered, so it lives near the tail of the log.
        for segment in reversed(self._segments):
            if segment.records and segment.records[0].seqnum > seqnum:
                continue
            for index, record in enumerate(segment.records):
                if record.seqnum == seqnum and record.is_tombstone:
                    segment.records[index] = replace(
                        record, is_tombstone=False
                    )
                    return

    # ------------------------------------------------------------------
    # Purge paths
    # ------------------------------------------------------------------

    def mark_flushed(self, seqnum: int) -> None:
        """Advance the flush watermark: records ≤ seqnum are on disk.

        Segments wholly below the watermark are purged (normal WAL life).
        """
        if seqnum < self._flushed_seqnum:
            raise WALError(
                f"flush watermark cannot move backwards "
                f"({seqnum} < {self._flushed_seqnum})"
            )
        self._flushed_seqnum = seqnum
        survivors = []
        purged_ids = []
        for segment in self._segments:
            if segment.max_seqnum <= seqnum and segment.records:
                self.segments_purged += 1
                purged_ids.append(segment.segment_id)
            else:
                survivors.append(segment)
        self._segments = survivors
        if purged_ids and self.sink is not None:
            self.sink.wal_purge(purged_ids)

    def enforce_persistence_threshold(self, now: float, d_th: float) -> int:
        """The FADE WAL routine: no live segment may be older than ``D_th``.

        Live records (seqnum above the flush watermark) in over-age
        segments are copied to a fresh segment; the old segments (and with
        them every flushed tombstone record) are discarded. Returns the
        number of segments rewritten.
        """
        if d_th <= 0:
            raise WALError(f"D_th must be positive, got {d_th}")
        over_age = [s for s in self._segments if now - s.opened_at > d_th]
        if not over_age:
            return 0
        with self.obs.tracer.span(
            "wal-rewrite", segments=len(over_age)
        ) as span:
            fresh = WALSegment(self._next_segment_id, opened_at=now)
            self._next_segment_id += 1
            for segment in over_age:
                for record in segment.records:
                    if record.seqnum > self._flushed_seqnum:
                        fresh.records.append(record)
                        self.records_rewritten += 1
            keep = [s for s in self._segments if now - s.opened_at <= d_th]
            if fresh.records:
                keep.append(fresh)
            self._segments = keep
            self.segments_purged += len(over_age)
            span.set(records_copied=len(fresh.records))
            if self.obs.enabled:
                registry = self.obs.registry
                registry.counter("wal_dth_segments_rewritten").inc(
                    len(over_age)
                )
                registry.counter("wal_dth_records_copied").inc(
                    len(fresh.records)
                )
            if self.sink is not None:
                self.sink.wal_rewrite(
                    fresh if fresh.records else None,
                    [s.segment_id for s in over_age],
                )
        return len(over_age)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def segments(self) -> tuple[WALSegment, ...]:
        return tuple(self._segments)

    @property
    def flushed_seqnum(self) -> int:
        """The flush watermark: records at or below it are on disk."""
        return self._flushed_seqnum

    def restore_segments(
        self, segments: list[WALSegment], flushed_seqnum: int, next_segment_id: int
    ) -> None:
        """Install recovered segments wholesale (crash-recovery path).

        Bypasses the append-path watermark check: recovered segments may
        legitimately contain records at or below the watermark (a segment
        survives whole while any of its records is un-flushed).
        """
        if next_segment_id <= max(
            (s.segment_id for s in segments), default=-1
        ):
            raise WALError("next_segment_id collides with a recovered segment")
        self._segments = list(segments)
        self._flushed_seqnum = flushed_seqnum
        self._next_segment_id = next_segment_id

    @property
    def live_records(self) -> int:
        return sum(len(s.records) for s in self._segments)

    def oldest_segment_age(self, now: float) -> float:
        """Age of the oldest live segment (0 when the log is empty)."""
        return max((now - s.opened_at for s in self._segments), default=0.0)

    def oldest_tombstone_age(self, now: float) -> float:
        """Age of the oldest tombstone record still in the log."""
        ages = [
            now - record.written_at
            for segment in self._segments
            for record in segment.records
            if record.is_tombstone
        ]
        return max(ages, default=0.0)
