"""The on-disk run file abstraction shared by the classic and KiWi layouts.

An LSM level is a sorted run partitioned into immutable *files* (§2
"Partial Compaction"); compaction operates at file granularity. Two
concrete layouts implement this interface:

* :class:`~repro.lsm.sstable.SSTable` — the classic layout: pages sorted on
  the sort key ``S`` end to end, one Bloom filter per file, fence pointers
  on ``S`` per page;
* :class:`~repro.kiwi.layout.KiWiFile` — the Key Weaving layout: delete
  tiles of ``h`` pages, per-page Bloom filters, tile fences on ``S``,
  delete fences on ``D``.

:class:`FileMeta` carries exactly the metadata FADE consumes (§4.1.3):
the file creation timestamp, entry/tombstone counts (RocksDB's
``num_entries`` / ``num_deletes``), and the write time of the oldest
tombstone, from which the file's ``amax`` (age of oldest tombstone) is
derived on demand. The estimated invalidation count ``b`` is computed
on the fly by FADE from these counts plus the tree-wide histogram, "without
needing any additional metadata".
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any

from repro.core import locks
from repro.lsm.range_tombstone import covering_seqnum
from repro.storage.entry import Entry, EntryKind, RangeTombstone

_SEQNUM = attrgetter("seqnum")

# One lock covers both allocation and the recovery-path ratchet: parallel
# shard recovery calls ensure_file_numbers_above() from pool threads while
# an SRD roll-forward on a sibling shard may be allocating, and an
# unguarded read-bump-replace could rewind the counter into numbers
# already handed out.
_counter_lock = locks.OrderedLock(
    "runfile.counter", locks.RANK_RUNFILE_COUNTER
)
_next_file_number = 0


def next_file_number() -> int:
    """Process-wide unique file number (labels files across engines)."""
    global _next_file_number
    with _counter_lock:
        number = _next_file_number
        _next_file_number += 1
        return number


def ensure_file_numbers_above(minimum: int) -> None:
    """Advance the counter past ``minimum`` (crash-recovery path).

    A recovered tree re-installs files under their original numbers; new
    files built afterwards must not collide with them. Gaps are fine —
    only uniqueness and monotonicity matter.
    """
    global _next_file_number
    with _counter_lock:
        _next_file_number = max(_next_file_number, minimum + 1)


@dataclass
class FileMeta:
    """Per-file metadata kept in memory (never costs I/O to consult).

    Attributes
    ----------
    file_number:
        Unique id, used by the manifest and for deterministic tie-breaks.
    created_at:
        Simulated time the file was written (flush or compaction output).
    level:
        Disk level the file currently resides on (1-based); mutated when a
        trivial move relocates the file without rewriting it.
    num_entries, num_point_tombstones, num_range_tombstones:
        RocksDB-style counts.
    oldest_tombstone_time:
        Write time of the oldest point/range tombstone contained, or
        ``None`` when the file holds no tombstones. ``amax`` (§4.1.3) is
        ``now - oldest_tombstone_time``.
    min_seqnum, max_seqnum:
        Sequence-number span, for diagnostics and manifest validation.
    """

    file_number: int = field(default_factory=next_file_number)
    created_at: float = 0.0
    level: int = 1
    num_entries: int = 0
    num_point_tombstones: int = 0
    num_range_tombstones: int = 0
    oldest_tombstone_time: float | None = None
    min_seqnum: int = 0
    max_seqnum: int = 0
    level_arrival_time: float = 0.0

    def __post_init__(self) -> None:
        if self.level_arrival_time == 0.0:
            self.level_arrival_time = self.created_at

    def amax(self, now: float) -> float:
        """Age of the oldest tombstone; 0 for files without tombstones."""
        if self.oldest_tombstone_time is None:
            return 0.0
        return max(0.0, now - self.oldest_tombstone_time)

    def level_age(self, now: float) -> float:
        """Time spent at the current level (reset by trivial moves too)."""
        return max(0.0, now - self.level_arrival_time)

    @property
    def has_tombstones(self) -> bool:
        return self.oldest_tombstone_time is not None


def meta_for(
    entries: list[Entry],
    range_tombstones: list[RangeTombstone],
    now: float,
    level: int,
) -> FileMeta:
    """The metadata of a new file holding ``entries`` and ``range_tombstones``."""
    tombstone_times = [
        e.write_time for e in entries if e.kind is EntryKind.TOMBSTONE
    ]
    num_point_tombstones = len(tombstone_times)
    tombstone_times += [rt.write_time for rt in range_tombstones]
    seqnums = list(map(_SEQNUM, entries)) + [rt.seqnum for rt in range_tombstones]
    return FileMeta(
        created_at=now,
        level=level,
        num_entries=len(entries),
        num_point_tombstones=num_point_tombstones,
        num_range_tombstones=len(range_tombstones),
        oldest_tombstone_time=min(tombstone_times, default=None),
        min_seqnum=min(seqnums, default=0),
        max_seqnum=max(seqnums, default=0),
    )


@dataclass(slots=True)
class LookupResult:
    """Outcome of a point lookup against one file.

    ``entry`` is the matching record (possibly a tombstone) or ``None``;
    ``covering_rt_seqnum`` is the largest seqnum among this file's range
    tombstones covering the key (or ``None``), which the engine compares
    against candidate entries found at this or deeper levels.
    """

    entry: Entry | None
    covering_rt_seqnum: int | None


class RunFile(abc.ABC):
    """Interface of an immutable on-disk run file."""

    meta: FileMeta
    range_tombstones: tuple[RangeTombstone, ...]

    # --- key range ------------------------------------------------------

    @property
    @abc.abstractmethod
    def min_key(self) -> Any:
        """Smallest sort key covered (entries and range-tombstone bounds)."""

    @property
    @abc.abstractmethod
    def max_key(self) -> Any:
        """Largest sort key covered (entries and range-tombstone bounds)."""

    @abc.abstractmethod
    def entry_bounds(self) -> tuple[Any, Any] | None:
        """(first, last) sort key among the entries, read off the layout's
        in-memory bounds; ``None`` for a file of range tombstones only."""

    def overlaps(self, other: "RunFile") -> bool:
        """True if the two files' sort-key ranges intersect."""
        return self.min_key <= other.max_key and other.min_key <= self.max_key

    def overlaps_range(self, lo: Any, hi: Any) -> bool:
        """True if this file's sort-key range intersects ``[lo, hi]``."""
        return self.min_key <= hi and lo <= self.max_key

    # --- size -------------------------------------------------------------

    @property
    @abc.abstractmethod
    def num_pages(self) -> int:
        """Live pages in this file."""

    @property
    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Declared bytes (entries plus range tombstones)."""

    @property
    def num_entries(self) -> int:
        return self.meta.num_entries

    @property
    def tombstone_count(self) -> int:
        """Point plus range tombstones — FADE's exact component of ``b``."""
        return self.meta.num_point_tombstones + self.meta.num_range_tombstones

    # --- reads ------------------------------------------------------------

    @abc.abstractmethod
    def get(
        self,
        key: Any,
        charge_io: bool = True,
        hashed: tuple[int, int] | None = None,
    ) -> LookupResult:
        """Point lookup within this file (Bloom filters + fences + pages).

        ``hashed`` is the key's :func:`~repro.filters.bloom.digest_pair`
        when the caller already computed it; it is passed down to every
        filter probed.
        """

    @abc.abstractmethod
    def scan(self, lo: Any, hi: Any, charge_io: bool = True) -> list[Entry]:
        """All entries with sort key in ``[lo, hi]`` (unresolved versions)."""

    @abc.abstractmethod
    def entries(self) -> list[Entry]:
        """All entries in sort-key order, as a list (compaction input).

        Does not charge I/O — compactions charge whole-file reads when the
        task executes, to keep read accounting in one place.
        """

    def might_contain(
        self, key: Any, hashed: tuple[int, int] | None = None
    ) -> bool:
        """In-memory membership test (Bloom filters + bounds), no I/O.

        Used by FADE's blind-delete avoidance (§4.1.5): a tombstone is
        inserted only if some filter in the tree answers "maybe". The
        default is conservative. ``hashed`` as in :meth:`get`.
        """
        return self.min_key <= key <= self.max_key

    def covering_rt_seqnum(self, key: Any) -> int | None:
        """Seqnum of the range-tombstone fragment covering ``key``, if any.

        Range-tombstone blocks are in-memory metadata (the paper's deleted
        -range histogram, §3.1.1), so this costs no I/O. The builder
        fragments every file's block into disjoint sorted pieces, so one
        bisection answers the question.
        """
        return covering_seqnum(self.range_tombstones, key)

    def shadows_whole_file(self, rt_seqnum: int | None) -> bool:
        """True when a covering tombstone of ``rt_seqnum`` outranks every
        entry this file could hold — the pre-Bloom short-circuit test.

        Seqnums are engine-unique, so ``rt_seqnum >= meta.max_seqnum``
        means every entry in the file is strictly older than the delete.
        """
        return rt_seqnum is not None and rt_seqnum >= self.meta.max_seqnum

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(#{self.meta.file_number} L{self.meta.level} "
            f"S=[{self.min_key!r}..{self.max_key!r}] n={self.num_entries} "
            f"ts={self.tombstone_count})"
        )
