"""KiWiFile: a run file in the Key Weaving Storage Layout.

Level → file → delete tile → page (§4.2.1, Figure 5): files in a level are
sorted on ``S``; delete tiles within a file are sorted on ``S``; pages
within a tile are sorted on ``D``; entries within a page are sorted on
``S``. Fence pointers on ``S`` are kept per *tile* (not per page, which is
where KiWi's metadata savings/overheads come from, §4.2.3), delete fence
pointers on ``D`` per page, and Bloom filters per page.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Any

from repro.core.config import EngineConfig
from repro.core.stats import Statistics
from repro.filters.fence import FencePointers
from repro.kiwi.tile import DeleteTile
from repro.lsm.range_tombstone import fragment
from repro.lsm.runfile import FileMeta, LookupResult, RunFile, meta_for
from repro.storage.disk import SimulatedDisk
from repro.storage.entry import Entry, RangeTombstone

_KEY = attrgetter("key")


class KiWiFile(RunFile):
    """An immutable (except page drops) run file woven on sort & delete keys."""

    def __init__(
        self,
        tiles: list[DeleteTile],
        range_tombstones: list[RangeTombstone],
        meta: FileMeta,
        disk: SimulatedDisk,
        stats: Statistics,
    ):
        if not tiles and not range_tombstones:
            raise ValueError("a KiWiFile must contain tiles or range tombstones")
        self._tiles = tiles
        # Normalize to disjoint sorted fragments (idempotent when the
        # builder already fragmented) so the read path can bisect.
        self.range_tombstones = tuple(fragment(range_tombstones))
        self.meta = meta
        self._disk = disk
        self._stats = stats
        self._fences = FencePointers([t.min_key for t in tiles])
        entry_min = tiles[0].min_key if tiles else None
        entry_max = tiles[-1].max_key if tiles else None
        rt_min = min((rt.start for rt in range_tombstones), default=None)
        rt_max = max((rt.end for rt in range_tombstones), default=None)
        candidates_min = [k for k in (entry_min, rt_min) if k is not None]
        candidates_max = [k for k in (entry_max, rt_max) if k is not None]
        self._min_key = min(candidates_min)
        self._max_key = max(candidates_max)
        self._refresh_size()

    # ------------------------------------------------------------------
    # RunFile interface
    # ------------------------------------------------------------------

    @property
    def min_key(self) -> Any:
        return self._min_key

    @property
    def max_key(self) -> Any:
        return self._max_key

    @property
    def tiles(self) -> tuple[DeleteTile, ...]:
        return tuple(self._tiles)

    @property
    def num_pages(self) -> int:
        return sum(t.num_pages for t in self._tiles)

    @property
    def size_bytes(self) -> int:
        return self._size_bytes

    def _refresh_size(self) -> None:
        """Computed at build time and after every page drop."""
        self._size_bytes = sum(t.size_bytes for t in self._tiles) + sum(
            rt.size for rt in self.range_tombstones
        )

    def entry_bounds(self) -> tuple[Any, Any] | None:
        """Tile bounds as built; page drops never narrow them."""
        if not self._tiles:
            return None
        return self._tiles[0].min_key, self._tiles[-1].max_key

    def might_contain(
        self, key: Any, hashed: tuple[int, int] | None = None
    ) -> bool:
        """Bounds, tile fences, then the tile's per-page BFs; no I/O."""
        if not (self._min_key <= key <= self._max_key):
            return False
        tile_index = self._fences.locate(key)
        if tile_index is None or tile_index >= len(self._tiles):
            return False
        return self._tiles[tile_index].might_contain(key, hashed)

    def get(
        self,
        key: Any,
        charge_io: bool = True,
        hashed: tuple[int, int] | None = None,
    ) -> LookupResult:
        """Point lookup: RT block, tile fences on S, then per-page BFs.

        As in the classic layout, a covering range-tombstone fragment
        that outranks the file's ``max_seqnum`` answers before any tile
        fence or per-page Bloom filter is consulted.
        """
        rt_seq = self.covering_rt_seqnum(key)
        if self.shadows_whole_file(rt_seq):
            self._stats.range_tombstone_skips += 1
            return LookupResult(entry=None, covering_rt_seqnum=rt_seq)
        if not (self._min_key <= key <= self._max_key):
            return LookupResult(entry=None, covering_rt_seqnum=rt_seq)
        tile_index = self._fences.locate(key)
        if tile_index is None or tile_index >= len(self._tiles):
            return LookupResult(entry=None, covering_rt_seqnum=rt_seq)
        tile = self._tiles[tile_index]
        entry = tile.get(key, self._disk, charge_io=charge_io, hashed=hashed)
        return LookupResult(entry=entry, covering_rt_seqnum=rt_seq)

    def scan(self, lo: Any, hi: Any, charge_io: bool = True) -> list[Entry]:
        """Sort-key range scan across overlapping tiles (§4.2.5)."""
        result: list[Entry] = []
        for index in self._fences.locate_range(lo, hi):
            if index >= len(self._tiles):
                break
            tile = self._tiles[index]
            if tile.is_empty or tile.max_key < lo or tile.min_key > hi:
                continue
            result.extend(tile.scan(lo, hi, self._disk, charge_io=charge_io))
        # Keys are unique within a file, so the key alone gives the
        # ``sort_token`` order.
        result.sort(key=_KEY)
        return result

    def secondary_scan(
        self, d_lo: Any, d_hi: Any, charge_io: bool = True
    ) -> list[Entry]:
        """Delete-key range scan: every tile, but only D-overlapping pages."""
        result: list[Entry] = []
        for tile in self._tiles:
            result.extend(
                tile.secondary_scan(d_lo, d_hi, self._disk, charge_io=charge_io)
            )
        return result

    def entries(self) -> list[Entry]:
        """S-sorted entries across tiles (tiles are S-ordered and disjoint)."""
        return list(chain.from_iterable(t.entries() for t in self._tiles))

    # ------------------------------------------------------------------
    # Secondary range delete
    # ------------------------------------------------------------------

    def preview_secondary_delete(self, d_lo: Any, d_hi: Any) -> tuple[int, int]:
        """(full, partial) page-drop counts without mutating anything."""
        full_total = 0
        partial_total = 0
        for tile in self._tiles:
            full, partial = tile.classify_pages(d_lo, d_hi)
            full_total += len(full)
            partial_total += len(partial)
        return full_total, partial_total

    def apply_secondary_delete(
        self, d_lo: Any, d_hi: Any, dropped_out: list[Entry] | None = None
    ) -> int:
        """Execute a secondary range delete on this file; returns entries dropped.

        Walks every tile; full page drops release their pages with no
        I/O, partial drops read+rewrite the boundary pages (§4.2.2). File
        metadata is recomputed from the surviving pages. ``dropped_out``
        collects the dropped entries for the engine's version-shadowing
        check (see :meth:`DeleteTile.apply_secondary_delete`).
        """
        dropped_total = 0
        for tile in self._tiles:
            dropped, _full, _partial = tile.apply_secondary_delete(
                d_lo, d_hi, self._disk, self._stats, dropped_out=dropped_out
            )
            dropped_total += dropped
        # Rebuild fences even when every tile emptied: a file kept alive
        # only by its range tombstones must not retain stale tile fences
        # (scan would index tiles that no longer exist).
        self._tiles = [t for t in self._tiles if not t.is_empty]
        self._fences = FencePointers([t.min_key for t in self._tiles])
        if dropped_total > 0:
            self._recompute_meta()
            self._refresh_size()
        return dropped_total

    def _recompute_meta(self) -> None:
        """Refresh counts after page drops (in-memory, no I/O)."""
        entries = [e for t in self._tiles for p in t.pages for e in p]
        self.meta.num_entries = len(entries)
        self.meta.num_point_tombstones = sum(1 for e in entries if e.is_tombstone)
        tombstone_times = [e.write_time for e in entries if e.is_tombstone]
        tombstone_times += [rt.write_time for rt in self.range_tombstones]
        self.meta.oldest_tombstone_time = (
            min(tombstone_times) if tombstone_times else None
        )

    @property
    def is_empty(self) -> bool:
        return not self._tiles and not self.range_tombstones

    def __len__(self) -> int:
        return self.meta.num_entries


def build_kiwi_file(
    entries: list[Entry],
    range_tombstones: list[RangeTombstone],
    config: EngineConfig,
    disk: SimulatedDisk,
    stats: Statistics,
    now: float,
    level: int,
) -> KiWiFile:
    """Assemble one Key-Weaving file from a sorted entry slice.

    Consecutive ``h·B`` S-sorted entries form each tile (so tiles partition
    the file's S-range in order), then each tile weaves its pages on ``D``.
    """
    if len(entries) > config.file_entries:
        raise ValueError(
            f"{len(entries)} entries exceed file capacity {config.file_entries}"
        )
    tile_capacity = config.page_entries * config.delete_tile_pages
    tiles: list[DeleteTile] = []
    for start in range(0, len(entries), tile_capacity):
        chunk = entries[start : start + tile_capacity]
        tiles.append(
            DeleteTile(
                chunk,
                page_entries=config.page_entries,
                pages_per_tile=config.delete_tile_pages,
                bits_per_key=config.bits_per_key,
                stats=stats,
            )
        )
    return KiWiFile(
        tiles=tiles,
        range_tombstones=list(range_tombstones),
        meta=meta_for(entries, range_tombstones, now, level),
        disk=disk,
        stats=stats,
    )
