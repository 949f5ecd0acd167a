"""Secondary range delete execution over a Key-Weaving tree.

§4.2.2: entries targeted by a secondary range delete populate contiguous
pages of each delete tile, so most pages are *fully dropped* (released to
the file system without being read) and at most a boundary page or two per
tile is *partially dropped* (read, filtered "with a tight for-loop",
rewritten). The I/O cost is the partial drops only — compare §3.3's
``O(N/B)`` full-tree compaction for the classic layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.errors import KeyWeavingError
from repro.core.stats import Statistics
from repro.kiwi.layout import KiWiFile
from repro.lsm.tree import LSMTree


@dataclass
class SecondaryDeleteReport:
    """Outcome of one secondary range delete.

    ``full_page_drops``/``partial_page_drops`` mirror Fig. 6H's metric;
    ``pages_read``/``pages_written`` is the I/O actually paid, which Fig 6J
    and 6K compare against the classic layout's full rewrite.
    """

    entries_dropped: int = 0
    full_page_drops: int = 0
    partial_page_drops: int = 0
    pages_read: int = 0
    pages_written: int = 0
    files_emptied: int = 0


def execute_secondary_range_delete(
    tree: LSMTree,
    d_lo: Any,
    d_hi: Any,
    stats: Statistics,
    dropped_out: list | None = None,
) -> SecondaryDeleteReport:
    """Apply ``delete all entries with D in [d_lo, d_hi)`` tile by tile.

    Every file must be a :class:`KiWiFile`; classic-layout files cannot
    locate qualifying entries and must go through full-tree compaction
    instead (the engine routes accordingly). ``dropped_out`` collects the
    dropped entries so the engine can suppress older versions that would
    otherwise resurface (page drops purge by delete key, not by recency).
    """
    if not d_lo < d_hi:
        raise ValueError(f"empty delete range [{d_lo!r}, {d_hi!r})")
    report = SecondaryDeleteReport()
    before_full = stats.pages_dropped_full
    before_partial = stats.pages_dropped_partial
    before_read = stats.srd_pages_read
    before_written = stats.srd_pages_written

    emptied: list[KiWiFile] = []
    for run_file in tree.all_files():
        if not isinstance(run_file, KiWiFile):
            raise KeyWeavingError(
                "secondary range delete via page drops requires the KiWi "
                f"layout; found {type(run_file).__name__}"
            )
        report.entries_dropped += run_file.apply_secondary_delete(
            d_lo, d_hi, dropped_out=dropped_out
        )
        if run_file.is_empty:
            emptied.append(run_file)

    if emptied:
        emptied_ids = {id(f) for f in emptied}
        for level in tree.levels:
            level_victims = [f for f in level.files() if id(f) in emptied_ids]
            if level_victims:
                level.remove_files(level_victims)
        report.files_emptied = len(emptied)

    stats.secondary_range_deletes += 1
    report.full_page_drops = stats.pages_dropped_full - before_full
    report.partial_page_drops = stats.pages_dropped_partial - before_partial
    report.pages_read = stats.srd_pages_read - before_read
    report.pages_written = stats.srd_pages_written - before_written
    return report


def preview_page_drops(
    tree: LSMTree, d_lo: Any, d_hi: Any
) -> tuple[int, int, int]:
    """(full, partial, total_live_pages) without mutating the tree.

    Drives Fig 6H: the fraction of pages that can be fully dropped for a
    given delete selectivity and tile granularity.
    """
    full_total = 0
    partial_total = 0
    pages_total = 0
    for run_file in tree.all_files():
        if not isinstance(run_file, KiWiFile):
            raise KeyWeavingError(
                "page-drop preview requires the KiWi layout; found "
                f"{type(run_file).__name__}"
            )
        full, partial = run_file.preview_secondary_delete(d_lo, d_hi)
        full_total += full
        partial_total += partial
        pages_total += run_file.num_pages
    return full_total, partial_total, pages_total
