"""The on-disk LSM-tree: exponentially growing levels of immutable runs.

Holds the disk-resident levels (Level 1 .. L−1 in the paper's numbering;
Level 0 is the memory buffer owned by the engine), answers point/range
lookups across levels with correct tombstone semantics, and exposes the
snapshot analytics the evaluation reports (entry counts, tombstone ages,
space amplification inputs).

Snapshot-consistent reads
-------------------------
Background compaction (:mod:`repro.compaction.scheduler`) installs merge
results from worker threads while the write path keeps serving lookups.
Every structural mutation therefore happens inside :meth:`install` — a
short critical section under the tree's install lock — and every read
first captures :meth:`read_view`, an immutable copy of the per-level run
lists taken under the same lock.
A reader never observes a half-swapped level (a file removed from its
source level but not yet installed at the target): it either sees the
complete pre-install layout or the complete post-install one. Run files
consumed by a compaction stay readable through an old view — their
in-memory pages are immutable — so a read racing an install is stale,
never wrong.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterable, Iterator

from repro.core import locks
from repro.core.config import EngineConfig
from repro.core.stats import Statistics
from repro.filters.bloom import digest_pair
from repro.lsm.iterator import merge_for_read
from repro.lsm.level import Level, Run
from repro.lsm.runfile import RunFile
from repro.storage.entry import Entry, RangeTombstone


class LSMTree:
    """Disk levels plus cross-level read logic."""

    def __init__(self, config: EngineConfig, stats: Statistics):
        self.config = config
        self.stats = stats
        self.levels: list[Level] = []
        # Guards every structural mutation (and view capture); reentrant
        # because installers call ensure_level inside their own install
        # section.
        self._install_lock = locks.OrderedRLock(
            "tree.install", locks.RANK_TREE_INSTALL
        )

    # ------------------------------------------------------------------
    # Install lock & read views
    # ------------------------------------------------------------------

    @contextmanager
    def install(self) -> Iterator[None]:
        """Critical section for a structural mutation (file install/remove).

        Every multi-level transition (a compaction removing source files
        and installing output, a flush adding a Level-1 run) runs inside
        one ``install()`` block, so :meth:`read_view` always captures a
        complete layout. Pure in-memory list surgery only — no I/O is
        performed under this lock.
        """
        with self._install_lock:
            yield

    def read_view(self) -> list[list[Run]]:
        """A consistent snapshot: per level, the list of runs (each an
        immutable :class:`~repro.lsm.level.Run` with its file fence index).

        Captured under the install lock (microseconds — metadata copies
        only), then read without it: the run lists are swapped atomically
        by :class:`~repro.lsm.level.Level` mutators and run files are
        immutable once installed, so the snapshot stays valid however
        many installs land after it.
        """
        with self._install_lock:
            return [list(level.runs) for level in self.levels]

    # ------------------------------------------------------------------
    # Level management
    # ------------------------------------------------------------------

    def ensure_level(self, number: int) -> Level:
        """Return disk level ``number`` (1-based), growing the tree if needed."""
        with self._install_lock:
            while len(self.levels) < number:
                next_number = len(self.levels) + 1
                self.levels.append(
                    Level(next_number, self.config.level_capacity_entries(next_number))
                )
            return self.levels[number - 1]

    def level(self, number: int) -> Level:
        """Existing level ``number`` (raises IndexError if absent)."""
        return self.levels[number - 1]

    @property
    def height(self) -> int:
        """Number of allocated disk levels."""
        return len(self.levels)

    def deepest_nonempty_level(self) -> int:
        """The last level that holds data (0 when the tree is empty)."""
        for level in reversed(self.levels):
            if not level.is_empty:
                return level.number
        return 0

    def is_last_level(self, number: int) -> bool:
        """True if no deeper level holds data — compactions arriving here
        may persist deletes (drop tombstones)."""
        for level in self.levels[number:]:
            if not level.is_empty:
                return False
        return True

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def lookup(self, key: Any, charge_io: bool = True) -> Entry | None:
        """Most recent on-disk version of ``key`` or ``None``.

        Descends levels smallest (newest) to largest; within a tiered
        level, most recent run first (§2 "Querying LSM-Trees"). Returns a
        tombstone entry if the key's newest version is a delete; returns
        ``None`` either when no version exists or when a newer range
        tombstone covers the newest version.

        The key is digested once, here, and the pair handed to every
        filter probed; each run's fence index names the one or two files
        whose bounds can hold the key.
        """
        hashed = digest_pair(key)  # the lookup's one digest (§4.2.4)
        max_rt_seq: int | None = None
        for level_runs in self.read_view():
            for run in level_runs:
                candidate: Entry | None = None
                for run_file in run.overlapping(key, key):
                    if run_file.shadows_whole_file(max_rt_seq):
                        # A covering fragment from a shallower (newer)
                        # level already outranks every entry this file
                        # could hold: skip its filters entirely.
                        self.stats.range_tombstone_skips += 1
                        continue
                    result = run_file.get(key, charge_io, hashed)
                    if result.covering_rt_seqnum is not None and (
                        max_rt_seq is None
                        or result.covering_rt_seqnum > max_rt_seq
                    ):
                        max_rt_seq = result.covering_rt_seqnum
                    if result.entry is not None:
                        candidate = result.entry
                if candidate is not None:
                    if max_rt_seq is not None and max_rt_seq > candidate.seqnum:
                        return None  # deleted by a newer range tombstone
                    return candidate
        return None

    def scan(
        self,
        lo: Any,
        hi: Any,
        extra_streams: list[list[Entry]] | None = None,
        extra_range_tombstones: list[RangeTombstone] | None = None,
        charge_io: bool = True,
    ) -> list[Entry]:
        """Range lookup over ``[lo, hi]``: newest live version per key.

        ``extra_streams``/``extra_range_tombstones`` inject the memory
        buffer's content so the engine gets one consistent merge.
        """
        streams: list[Iterator[Entry]] = []
        range_tombstones: list[RangeTombstone] = list(extra_range_tombstones or [])
        for batch in extra_streams or []:
            streams.append(iter(batch))
        for level_runs in self.read_view():
            for run in level_runs:
                for run_file in run.overlapping(lo, hi):
                    entries = run_file.scan(lo, hi, charge_io=charge_io)
                    if entries:
                        streams.append(iter(entries))
                    for rt in run_file.range_tombstones:
                        if rt.overlaps_keys(lo, hi):
                            range_tombstones.append(rt)
        return merge_for_read(streams, range_tombstones)

    # ------------------------------------------------------------------
    # Whole-tree iteration & analytics
    # ------------------------------------------------------------------

    def all_files(self) -> Iterator[RunFile]:
        """All files in a consistent snapshot, read order (L1 down)."""
        for level_runs in self.read_view():
            for run in level_runs:
                yield from run

    def all_range_tombstones(self) -> list[RangeTombstone]:
        return [rt for f in self.all_files() for rt in f.range_tombstones]

    @property
    def total_entries(self) -> int:
        """All physical entries on disk, valid or not (the paper's N)."""
        return sum(level.num_entries for level in self.levels)

    @property
    def total_bytes(self) -> int:
        return sum(level.size_bytes for level in self.levels)

    @property
    def total_files(self) -> int:
        return sum(level.file_count for level in self.levels)

    def tombstones_in_tree(self) -> int:
        """Point plus range tombstones currently on disk."""
        return sum(f.tombstone_count for f in self.all_files())

    def tombstone_age_distribution(self, now: float) -> list[tuple[float, int]]:
        """(tombstone age ``amax``, tombstones in file) pairs — Fig 6E's data.

        The figure plots cumulative tombstone counts against age at a
        snapshot. We age by each file's oldest-tombstone time (``amax``)
        rather than the file's creation time: compactions rewrite files
        constantly (resetting creation times) while carrying the same old
        tombstones along — ``amax`` is the quantity FADE actually bounds.
        """
        distribution: list[tuple[float, int]] = []
        for run_file in self.all_files():
            count = run_file.tombstone_count
            if count > 0:
                distribution.append((run_file.meta.amax(now), count))
        distribution.sort(key=lambda pair: pair[0])
        return distribution

    def max_tombstone_amax(self, now: float) -> float:
        """Largest ``amax`` across files — the FADE guarantee checks
        ``∀f: amax_f < D_th`` (§4.1.5)."""
        return max(
            (f.meta.amax(now) for f in self.all_files() if f.meta.has_tombstones),
            default=0.0,
        )

    def live_unique_bytes(
        self,
        buffer_entries: list[Entry] | None = None,
        buffer_range_tombstones: list[RangeTombstone] | None = None,
    ) -> tuple[int, int]:
        """(csize(N), csize(U)) for the space-amplification formula §3.2.1.

        ``csize(N)`` is the cumulative size of *everything* physically
        present (tree + buffer, tombstones included); ``csize(U)`` is the
        cumulative size of the unique *live* key-value entries (newest
        version per key, not deleted). ``samp = (N − U) / U``.
        """
        newest: dict[Any, Entry] = {}
        total_bytes = 0
        all_rts = self.all_range_tombstones() + list(buffer_range_tombstones or [])
        for source in self._entry_sources(buffer_entries):
            for entry in source:
                total_bytes += entry.size
                held = newest.get(entry.key)
                if held is None or entry.seqnum > held.seqnum:
                    newest[entry.key] = entry
        total_bytes += sum(rt.size for rt in all_rts)
        unique_bytes = 0
        for entry in newest.values():
            if entry.is_tombstone:
                continue
            if any(rt.covers(entry.key, entry.seqnum) for rt in all_rts):
                continue
            unique_bytes += entry.size
        return total_bytes, unique_bytes

    def space_amplification(
        self,
        buffer_entries: list[Entry] | None = None,
        buffer_range_tombstones: list[RangeTombstone] | None = None,
    ) -> float:
        """``samp = (csize(N) − csize(U)) / csize(U)`` (§3.2.1)."""
        total_bytes, unique_bytes = self.live_unique_bytes(
            buffer_entries, buffer_range_tombstones
        )
        if unique_bytes == 0:
            return 0.0
        return (total_bytes - unique_bytes) / unique_bytes

    def _entry_sources(
        self, buffer_entries: list[Entry] | None
    ) -> Iterator[Iterable[Entry]]:
        if buffer_entries:
            yield buffer_entries
        for run_file in self.all_files():
            yield run_file.entries()

    def describe(self) -> str:
        """Multi-line structural summary (debugging / examples)."""
        if not self.levels:
            return "LSMTree(empty)"
        lines = []
        for level in self.levels:
            lines.append(
                f"  L{level.number}: {level.file_count:3d} files "
                f"{level.num_entries:8d}/{level.capacity_entries} entries "
                f"{level.tombstone_count():5d} tombstones"
            )
        return "LSMTree(\n" + "\n".join(lines) + "\n)"
