"""Merges with LSM version-resolution and tombstone semantics.

Used by compactions (§2: "entries with a matching key are consolidated and
only the most recent valid entry is retained") and by range lookups (§2:
"a range lookup returns the most recent versions of the target keys by
sort-merging the qualifying key ranges across all runs"). A compaction
holds every input entry in memory anyway, so it sorts the concatenated
runs with C-level sorts; a range lookup heap-merges its streams.

The resolution rules (§3.1.1):

* among several versions of a key, the highest seqnum wins; older versions
  are *invalid* and dropped (compaction) or skipped (reads);
* a point tombstone is itself retained by intermediate-level compactions —
  "there might be more (older) entries with the same delete key in
  subsequent compactions" — and discarded only when the compaction output
  lands in the **last level**, which is the moment the logical delete
  becomes persistent;
* a range tombstone drops every covered older entry it meets; the
  tombstone itself survives to the output's range-tombstone block except
  at the last level.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import chain, groupby
from operator import attrgetter
from typing import Any, Iterable, Iterator

from repro.storage.entry import Entry, EntryKind, RangeTombstone

_KEY = attrgetter("key")
_SEQNUM = attrgetter("seqnum")
_TOMBSTONE = EntryKind.TOMBSTONE


@dataclass
class MergeOutcome:
    """What a compaction merge produced and what it eliminated.

    ``entries`` / ``range_tombstones`` form the output run;
    ``dropped_tombstones`` are point tombstones discarded at the last
    level, ``dropped_range_tombstones`` likewise;
    ``invalid_entries_dropped`` counts superseded versions and
    range-covered entries purged.
    """

    entries: list[Entry] = field(default_factory=list)
    range_tombstones: list[RangeTombstone] = field(default_factory=list)
    dropped_tombstones: list[Entry] = field(default_factory=list)
    dropped_range_tombstones: list[RangeTombstone] = field(default_factory=list)
    invalid_entries_dropped: int = 0


def merge_sorted_streams(streams: Iterable[Iterator[Entry]]) -> Iterator[Entry]:
    """Heap-merge S-sorted streams into one stream ordered by sort token.

    For equal keys the most recent version (largest seqnum) comes first,
    which the resolution pass below relies on. Range lookups merge this
    way; compactions sort instead (:func:`merge_for_compaction`).
    """
    return heapq.merge(*streams, key=lambda e: e.sort_token())


def resolve_versions(
    merged: Iterable[Entry],
    range_tombstones: list[RangeTombstone],
) -> Iterator[Entry]:
    """Keep the newest version per key, then apply range-tombstone cover.

    Yields the survivor for each distinct key (which may be a point
    tombstone). Entries covered by a newer range tombstone are dropped
    even if they are the newest point version of their key.
    """
    current_key: Any = object()
    first_for_key = False
    for entry in merged:
        if entry.key != current_key:
            current_key = entry.key
            first_for_key = True
        else:
            first_for_key = False
        if not first_for_key:
            continue
        if any(rt.covers(entry.key, entry.seqnum) for rt in range_tombstones):
            continue
        yield entry


def merge_for_compaction(
    runs: list[list[Entry]],
    range_tombstones: list[RangeTombstone],
    into_last_level: bool,
    extra_cover_tombstones: list[RangeTombstone] | None = None,
) -> MergeOutcome:
    """Full compaction merge.

    Parameters
    ----------
    runs:
        S-sorted entry lists of the participating files.
    range_tombstones:
        Range tombstones carried by the participating files. They drop
        covered entries here and are retained in the output (unless the
        output is the last level).
    into_last_level:
        When true, surviving point tombstones and all range tombstones are
        discarded — this is delete *persistence* (§3.1.1).
    extra_cover_tombstones:
        Range tombstones from *upper* levels that are not participating in
        this compaction. They may cover entries being merged (a newer
        delete above), but they must NOT be consumed or re-emitted here —
        they still live in their own files.

    The concatenated runs go through two stable sorts, newest first and
    then by key: exactly the :meth:`~repro.storage.entry.Entry.sort_token`
    order :func:`merge_sorted_streams` yields, ties included (equal
    tokens keep run order).
    """
    outcome = MergeOutcome()
    covering = list(range_tombstones)
    if extra_cover_tombstones:
        covering += extra_cover_tombstones

    merged = list(chain.from_iterable(runs))
    merged.sort(key=_SEQNUM, reverse=True)
    merged.sort(key=_KEY)
    # The first version of each key is its newest; the rest are invalid.
    survivors = [next(versions) for _, versions in groupby(merged, _KEY)]
    outcome.invalid_entries_dropped = len(merged) - len(survivors)
    if covering:
        visible = [
            entry
            for entry in survivors
            if not any(rt.covers(entry.key, entry.seqnum) for rt in covering)
        ]
        outcome.invalid_entries_dropped += len(survivors) - len(visible)
        survivors = visible
    if into_last_level:
        # Compacted with the last level: nothing older can exist, the
        # deletes are now persistent and the tombstones themselves go away.
        outcome.dropped_tombstones = [
            entry for entry in survivors if entry.kind is _TOMBSTONE
        ]
        if outcome.dropped_tombstones:
            survivors = [
                entry for entry in survivors if entry.kind is not _TOMBSTONE
            ]
        outcome.dropped_range_tombstones.extend(range_tombstones)
    else:
        outcome.range_tombstones.extend(
            sorted(range_tombstones, key=lambda rt: (rt.start, rt.seqnum))
        )
    outcome.entries = survivors
    return outcome


def merge_for_read(
    streams: list[Iterator[Entry]],
    range_tombstones: list[RangeTombstone],
) -> list[Entry]:
    """Range-lookup merge: newest live PUT per key, tombstones suppressed.

    Range queries "have to read and discard" tombstones and invalid
    entries (§3.2.2) — the discarding happens here, after the I/O of
    fetching them was already paid by the caller.
    """
    result: list[Entry] = []
    for entry in resolve_versions(merge_sorted_streams(streams), range_tombstones):
        if entry.is_tombstone:
            continue
        result.append(entry)
    return result
