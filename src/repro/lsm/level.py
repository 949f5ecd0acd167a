"""A disk level: one sorted run, or several at a tiered Level 1.

§2: "In leveling, each level may have at most one run." The engine is
leveled, but Level 1 may hold several runs: RocksDB's tiered Level 1
(§4.3, ``level1_tiered``), or pure leveling's transient second run
between a flush and the greedy merge that folds it in. A run is a list
of files with disjoint sort-key ranges (§2 "Partial Compaction"); runs
within a level may overlap each other and are ordered newest first for
reads.

File fence index
----------------
A run is sorted, so finding the file that may hold a key is a search,
not a walk. :class:`Run` keeps the files' ``min_key`` values as fence
pointers and the running maximum of their ``max_key`` values; two
bisections bracket the files whose closed bounds can reach a key or a
range. The bracket is usually one file. It is two or more only where
range-tombstone fragments widened a file's bounds over a neighbour's (a
clipped fragment ends on the next file's first key, which closed bounds
count as inside both; the outermost files of a built run are unclipped
on their outer sides and may reach over files already in the level), and
those neighbours are exactly the files the bounds test
``min_key <= key <= max_key`` also admits — the index changes how files
are found, never which.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from itertools import accumulate
from typing import Any, Iterable, Iterator

from repro.core.errors import CompactionError
from repro.filters.fence import FencePointers
from repro.lsm.runfile import RunFile


class Run(Sequence):
    """The files of one run, in sort-key order, with a file fence index.

    Immutable: :class:`Level` builds a new ``Run`` for every run list it
    swaps in, so a reader holding an old one keeps a consistent view.
    File bounds are fixed when a file is built (page drops never narrow
    them), so the index never goes stale.
    """

    __slots__ = ("_files", "_fences", "_max_so_far")

    def __init__(self, files: Iterable[RunFile]):
        self._files = tuple(files)
        # Rejects files that are not in sort-key order.
        self._fences = FencePointers([f.min_key for f in self._files])
        # max_key is not monotone where tombstone fragments widened a
        # file past its right neighbour; the running maximum is, and
        # every file left of its first value >= key ends before key.
        self._max_so_far = list(accumulate((f.max_key for f in self._files), max))

    def __len__(self) -> int:
        return len(self._files)

    def __getitem__(self, index):
        return self._files[index]

    def __iter__(self) -> Iterator[RunFile]:
        return iter(self._files)

    def overlapping(self, lo: Any, hi: Any) -> list[RunFile]:
        """Files whose closed bounds intersect ``[lo, hi]``, in run order;
        with ``lo == hi``, the files that may hold that key."""
        last = self._fences.locate(hi)
        if last is None:
            return []
        first = bisect_left(self._max_so_far, lo, 0, last + 1)
        return [f for f in self._files[first : last + 1] if lo <= f.max_key]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Run({list(self._files)!r})"


class Level:
    """One disk level of the tree.

    Parameters
    ----------
    number:
        1-based disk level number.
    capacity_entries:
        Nominal capacity (``M · T^number / E`` in entries); the saturation
        trigger compares against this.
    """

    def __init__(self, number: int, capacity_entries: int):
        if number < 1:
            raise ValueError(f"disk levels are 1-based, got {number}")
        if capacity_entries < 1:
            raise ValueError(f"capacity must be positive, got {capacity_entries}")
        self.number = number
        self.capacity_entries = capacity_entries
        self._runs: list[Run] = []

    @property
    def runs(self) -> list[Run]:
        """The level's runs; ``runs[0]`` is the most recent, and leveling
        keeps exactly one. Assigning a list of file sequences swaps the
        whole list in at once, each run indexed as a :class:`Run`."""
        return self._runs

    @runs.setter
    def runs(self, runs: Iterable[Sequence]) -> None:
        self._runs = [
            run if isinstance(run, Run) else Run(run) for run in runs
        ]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_run(self, files: list[RunFile]) -> None:
        """Install a new (most recent) run — the Level-1 flush path.

        Like every mutator here, the run list is rebuilt and swapped in a
        single assignment: a reader that grabbed ``self.runs`` just
        before the swap keeps a fully consistent (if momentarily stale)
        view — the contract background compaction installs rely on (see
        :meth:`~repro.lsm.tree.LSMTree.read_view`).
        """
        if not files:
            return
        for run_file in files:
            run_file.meta.level = self.number
        self.runs = [files] + self.runs

    def merge_into_single_run(self, files: list[RunFile]) -> None:
        """Replace all runs with one run — leveling ingest path."""
        for run_file in files:
            run_file.meta.level = self.number
        self.runs = [sorted(files, key=lambda f: f.min_key)] if files else []
        self._validate_single_run()

    def insert_into_run(self, files: list[RunFile]) -> None:
        """Merge files into the level's single run (partial compaction).

        The incoming files must not overlap the files that remain; the
        caller removed the overlapping victims before installing output.
        """
        if len(self.runs) > 1:
            raise CompactionError(
                f"insert_into_run on tiered level {self.number} with "
                f"{len(self.runs)} runs"
            )
        current = self.runs[0] if self.runs else ()
        for run_file in files:
            run_file.meta.level = self.number
        merged = sorted([*current, *files], key=lambda f: f.min_key)
        self.runs = [merged] if merged else []
        self._validate_single_run()

    def remove_files(self, victims: list[RunFile]) -> None:
        """Remove files (compaction inputs) from whichever runs hold them."""
        victim_ids = {id(f) for f in victims}
        new_runs: list[list[RunFile]] = []
        for run in self.runs:
            remaining = [f for f in run if id(f) not in victim_ids]
            victim_ids -= {id(f) for f in run if id(f) in victim_ids}
            if remaining:
                new_runs.append(remaining)
        if victim_ids:
            raise CompactionError(
                f"{len(victim_ids)} victim files not found in level {self.number}"
            )
        self.runs = new_runs

    def _validate_single_run(self) -> None:
        """Leveled runs must have disjoint entry ranges."""
        if not self.runs:
            return
        run = self.runs[0]
        for left, right in zip(run, run[1:]):
            if left.meta.num_entries == 0 or right.meta.num_entries == 0:
                continue
            if left.max_key >= right.min_key and left.overlaps(right):
                # Bounds widened by range tombstones may touch; entries must
                # not interleave, which builder validation already enforced.
                # Only flag clear entry-range inversions.
                if left.max_key > right.max_key:
                    raise CompactionError(
                        f"level {self.number} run out of order: "
                        f"{left!r} vs {right!r}"
                    )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def files(self) -> Iterator[RunFile]:
        """All files, most recent run first, S-order within a run."""
        for run in self.runs:
            yield from run

    @property
    def file_count(self) -> int:
        return sum(len(run) for run in self.runs)

    @property
    def run_count(self) -> int:
        return len(self.runs)

    @property
    def num_entries(self) -> int:
        return sum(f.meta.num_entries for f in self.files())

    @property
    def size_bytes(self) -> int:
        return sum(f.size_bytes for f in self.files())

    @property
    def is_empty(self) -> bool:
        return not self.runs

    def is_saturated(self) -> bool:
        """Level past its nominal capacity (§4.1.4 saturation trigger)."""
        return self.num_entries > self.capacity_entries

    def overlapping_files(self, lo: Any, hi: Any) -> list[RunFile]:
        """Files (any run) whose key range intersects ``[lo, hi]``."""
        return [f for run in self.runs for f in run.overlapping(lo, hi)]

    def tombstone_count(self) -> int:
        return sum(f.tombstone_count for f in self.files())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Level({self.number}: {self.file_count} files / {self.run_count} runs, "
            f"{self.num_entries}/{self.capacity_entries} entries)"
        )
