"""Delete tiles: the new layer KiWi adds to the LSM storage layout.

§4.2.1: a file consists of delete tiles; tiles contain non-overlapping
sort-key (``S``) ranges and follow ``S`` order within the file; but *pages
within a tile are sorted on the delete key* ``D``, while entries within
each page are sorted on ``S``. This weaving is what lets a secondary range
delete drop whole pages (their ``D`` spans are contiguous) while point
lookups stay fast once a page is in memory (binary search on ``S``).

Construction takes a contiguous ``S``-sorted slice of entries (the tile's
``S`` range), redistributes it into pages by ``D`` rank, then re-sorts each
page on ``S`` — producing exactly the invariants above. Both sorts are
stable C-level sorts on one attribute: ties on ``D`` keep ``S`` order.

Entries without a delete key (point tombstones) sort before all real
delete keys, so tombstones cluster in a tile's first page(s); those pages
carry ``None`` delete-fence bounds and are never full-dropped.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import attrgetter, is_, not_
from typing import Any

from repro.core.errors import KeyWeavingError
from repro.core.stats import Statistics
from repro.filters.bloom import BloomFilter, entry_digests
from repro.filters.fence import DeleteFencePointers
from repro.storage.disk import SimulatedDisk
from repro.storage.entry import Entry
from repro.storage.page import Page


_KEY = attrgetter("key")
_DELETE_KEY = attrgetter("delete_key")


def _delete_order(entries: list[Entry]) -> list[Entry]:
    """An ``S``-sorted slice in page order: entries without a delete key
    first (in ``S`` order), then the rest by ``D``, ties in ``S`` order."""
    delete_keys = list(map(_DELETE_KEY, entries))
    if None not in delete_keys:
        return sorted(entries, key=_DELETE_KEY)
    lacking = list(map(is_, delete_keys, repeat(None)))
    return list(compress(entries, lacking)) + sorted(
        compress(entries, map(not_, lacking)), key=_DELETE_KEY
    )


def _page_bounds(page: Page) -> tuple[Any, Any] | None:
    """(min D, max D) of a page, or ``None`` if any entry lacks a delete key."""
    delete_keys = list(map(_DELETE_KEY, page))
    if None in delete_keys:
        return None
    return min(delete_keys), max(delete_keys)


class DeleteTile:
    """``h`` pages woven on the delete key, searchable on the sort key.

    Parameters
    ----------
    entries:
        The tile's ``S``-sorted slice (≤ ``h · page_entries`` entries).
    page_entries:
        ``B``, entries per page.
    pages_per_tile:
        ``h``, the delete-tile granularity knob.
    bits_per_key:
        Bloom-filter budget; one filter per page (§4.2.3).
    stats:
        Shared counters (Bloom probe/hash accounting).
    """

    def __init__(
        self,
        entries: list[Entry],
        page_entries: int,
        pages_per_tile: int,
        bits_per_key: float,
        stats: Statistics,
    ):
        if not entries:
            raise KeyWeavingError("a delete tile needs at least one entry")
        if len(entries) > page_entries * pages_per_tile:
            raise KeyWeavingError(
                f"{len(entries)} entries exceed tile capacity "
                f"{page_entries * pages_per_tile} (h={pages_per_tile}, B={page_entries})"
            )
        self._stats = stats
        # S bounds are fixed at construction: later page drops may remove
        # the extreme keys, but keeping the original bounds only makes
        # fence routing conservative (a lookup may probe a tile that no
        # longer holds the key), never incorrect.
        self._min_key = entries[0].key
        self._max_key = entries[-1].key
        self._bits_per_key = bits_per_key

        by_delete_key = _delete_order(entries)
        self._pages: list[Page] = [
            Page(
                page_entries,
                sorted(by_delete_key[start : start + page_entries], key=_KEY),
            ).seal()
            for start in range(0, len(by_delete_key), page_entries)
        ]
        self._blooms = [self._filter(page) for page in self._pages]
        self._reindex()
        self._check_weave_invariant()

    @classmethod
    def from_pages(
        cls,
        page_entry_lists: list[list[Entry]],
        page_entries: int,
        bits_per_key: float,
        stats: Statistics,
        min_key: Any,
        max_key: Any,
    ) -> "DeleteTile":
        """Rebuild a tile from its exact physical pages (crash recovery).

        The normal constructor *weaves* an ``S``-sorted slice into pages;
        after partial page drops the surviving pages are ragged and
        reweaving would change the physical layout. This path installs the
        recorded pages verbatim (each already ``S``-sorted internally and
        ``D``-ordered across pages), rebuilds the per-page Bloom filters
        and delete fences, and restores the construction-time ``S`` bounds
        (which page drops never narrow).
        """
        if not page_entry_lists:
            raise KeyWeavingError("a delete tile needs at least one page")
        tile = cls.__new__(cls)
        tile._stats = stats
        tile._min_key = min_key
        tile._max_key = max_key
        tile._bits_per_key = bits_per_key
        tile._pages = [
            Page(page_entries, chunk).seal() for chunk in page_entry_lists
        ]
        tile._blooms = [tile._filter(page) for page in tile._pages]
        tile._reindex()
        tile._check_weave_invariant()
        return tile

    # ------------------------------------------------------------------
    # Invariants & metadata
    # ------------------------------------------------------------------

    def _filter(self, page: Page) -> BloomFilter:
        """The page's own Bloom filter (§4.2.3)."""
        return BloomFilter.from_digests(
            entry_digests(page), self._bits_per_key, stats=self._stats
        )

    def _reindex(self) -> None:
        """Recompute what the page list determines: delete fences, size."""
        self._delete_fences = DeleteFencePointers(
            [_page_bounds(p) for p in self._pages]
        )
        self._size_bytes = sum(p.size_bytes for p in self._pages)

    def _check_weave_invariant(self) -> None:
        """Pages must be non-decreasing in delete-key order (read off the
        delete fences, which hold each page's bounds already)."""
        previous_max: Any = None
        for bounds in self._delete_fences.bounds:
            if bounds is None:
                continue
            min_d, max_d = bounds
            if previous_max is not None and min_d < previous_max:
                raise KeyWeavingError(
                    f"pages out of delete-key order: {min_d!r} after {previous_max!r}"
                )
            previous_max = max_d

    @property
    def min_key(self) -> Any:
        return self._min_key

    @property
    def max_key(self) -> Any:
        return self._max_key

    @property
    def pages(self) -> tuple[Page, ...]:
        return tuple(self._pages)

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    @property
    def num_entries(self) -> int:
        return sum(len(p) for p in self._pages)

    @property
    def size_bytes(self) -> int:
        return self._size_bytes

    @property
    def is_empty(self) -> bool:
        return not self._pages

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def might_contain(
        self, key: Any, hashed: tuple[int, int] | None = None
    ) -> bool:
        """Any page BF answering "maybe" (bounds-checked first); no I/O."""
        if not (self._min_key <= key <= self._max_key):
            return False
        return any(bloom.might_contain(key, hashed) for bloom in self._blooms)

    def get(
        self,
        key: Any,
        disk: SimulatedDisk,
        charge_io: bool = True,
        hashed: tuple[int, int] | None = None,
    ) -> Entry | None:
        """Point lookup: probe each page's BF, read positives in order.

        §4.2.5: "Once a delete tile is located, the BF for each delete
        tile page is probed. If a probe returns positive, the page is read
        to memory and binary searched ... If not [found], the I/O was due
        to a false positive, and the next page of the tile is fetched."
        """
        if not (self._min_key <= key <= self._max_key):
            return None
        for page, bloom in zip(self._pages, self._blooms):
            if not bloom.might_contain(key, hashed):
                continue
            if charge_io and not disk.read_cached(page.uid):
                self._stats.lookup_pages_read += 1
            entry = page.find(key)
            if entry is not None:
                return entry
            self._stats.bloom_false_positives += 1
        return None

    def scan(
        self, lo: Any, hi: Any, disk: SimulatedDisk, charge_io: bool = True
    ) -> list[Entry]:
        """Sort-key range scan: every page may hold qualifying keys.

        Because pages are woven on ``D``, an ``S``-range scan must read all
        live pages of an overlapping tile — the h/2-per-terminal-tile
        overhead of §4.2.5.
        """
        result: list[Entry] = []
        for page in self._pages:
            if page.is_empty:
                continue
            if charge_io and not disk.read_cached(page.uid):
                self._stats.lookup_pages_read += 1
            result.extend(page.range(lo, hi))
        return result

    def secondary_scan(
        self, d_lo: Any, d_hi: Any, disk: SimulatedDisk, charge_io: bool = True
    ) -> list[Entry]:
        """Delete-key range scan using the delete fences (§4.2.5).

        Reads only pages whose ``D`` span intersects ``[d_lo, d_hi)`` —
        the "much lower I/O cost" secondary range lookup.
        """
        result: list[Entry] = []
        for index in self._delete_fences.pages_overlapping(d_lo, d_hi):
            page = self._pages[index]
            if charge_io and not disk.read_cached(page.uid):
                self._stats.lookup_pages_read += 1
            result.extend(page.entries_with_delete_key_in(d_lo, d_hi))
        return result

    def entries(self) -> list[Entry]:
        """The tile's entries back in ``S`` order. Keys are unique within
        a file, so one sort on the key restores it."""
        return sorted(chain.from_iterable(self._pages), key=_KEY)

    # ------------------------------------------------------------------
    # Secondary range delete support (mutation!)
    # ------------------------------------------------------------------

    def classify_pages(self, d_lo: Any, d_hi: Any) -> tuple[list[int], list[int]]:
        """(fully covered, partially covered) page indices for ``[d_lo, d_hi)``."""
        return self._delete_fences.classify(d_lo, d_hi)

    def apply_secondary_delete(
        self,
        d_lo: Any,
        d_hi: Any,
        disk: SimulatedDisk,
        stats: Statistics,
        dropped_out: list[Entry] | None = None,
    ) -> tuple[int, int, int]:
        """Drop/rewrite pages for a secondary range delete.

        Returns ``(entries_dropped, full_drops, partial_drops)``. Full
        drops cost no I/O (the page is released to the file system);
        partial drops read the boundary page, filter it "with a tight
        for-loop", and write the survivors back (§4.2.2).

        ``dropped_out``, when given, collects the dropped entries — the
        engine uses them to detect keys whose *newest* version was purged
        while an older version survives elsewhere in the tree (such keys
        must read as deleted, not resurrect). Collecting them is free
        in-memory bookkeeping, not page I/O.
        """
        full, partial = self.classify_pages(d_lo, d_hi)
        dropped_entries = 0

        surviving: list[Page] = []
        surviving_blooms: list[BloomFilter] = []
        full_set = set(full)
        partial_set = set(partial)
        full_drops = 0
        partial_drops = 0
        for index, (page, bloom) in enumerate(zip(self._pages, self._blooms)):
            if index in full_set:
                dropped_entries += len(page)
                full_drops += 1
                stats.pages_dropped_full += 1
                if dropped_out is not None:
                    dropped_out.extend(page)
                continue
            if index in partial_set:
                disk.charge_read(1)
                stats.srd_pages_read += 1
                keep = [
                    e
                    for e in page
                    if e.delete_key is None or not (d_lo <= e.delete_key < d_hi)
                ]
                removed = len(page) - len(keep)
                if dropped_out is not None and removed:
                    kept_ids = {id(e) for e in keep}
                    dropped_out.extend(
                        e for e in page if id(e) not in kept_ids
                    )
                if removed == 0:
                    # The fence span intersected but no entry actually
                    # qualified (e.g. a gap, or a None-bounds page): the
                    # read was wasted but nothing changes.
                    surviving.append(page)
                    surviving_blooms.append(bloom)
                    continue
                dropped_entries += removed
                partial_drops += 1
                stats.pages_dropped_partial += 1
                if keep:
                    new_page = Page(page.capacity, keep).seal()
                    disk.charge_write(1)
                    stats.srd_pages_written += 1
                    surviving.append(new_page)
                    surviving_blooms.append(self._filter(new_page))
                # An emptied boundary page is released like a full drop,
                # but it already cost the read.
                continue
            surviving.append(page)
            surviving_blooms.append(bloom)

        self._pages = surviving
        self._blooms = surviving_blooms
        self._reindex()
        return dropped_entries, full_drops, partial_drops

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeleteTile(h={len(self._pages)} pages, n={self.num_entries}, "
            f"S=[{self._min_key!r}..{self._max_key!r}])"
        )
