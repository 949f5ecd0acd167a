"""The compaction merge, the tile weave and the bulk Bloom build against
the straightforward code they replaced, kept here as the reference.

Each rewrite must produce the same output object for object and bit for
bit: the pinned-counter test in ``test_engine.py`` checks the totals on
one seeded workload, these properties check the pieces on arbitrary
inputs.
"""

from __future__ import annotations

import math
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import Statistics
from repro.filters.bloom import BloomFilter
from repro.kiwi.tile import DeleteTile
from repro.lsm.iterator import (
    MergeOutcome,
    merge_for_compaction,
    merge_sorted_streams,
)
from repro.storage.entry import Entry, EntryKind, RangeTombstone

# ----------------------------------------------------------------------
# (a) compaction merge
# ----------------------------------------------------------------------


def reference_merge(
    runs: list[list[Entry]],
    range_tombstones: list[RangeTombstone],
    into_last_level: bool,
    extra_cover_tombstones: list[RangeTombstone] | None = None,
) -> MergeOutcome:
    """The heap merge plus per-entry resolution the sort-based merge replaced."""
    outcome = MergeOutcome()
    covering = list(range_tombstones)
    if extra_cover_tombstones:
        covering += extra_cover_tombstones
    current_key: Any = object()
    for entry in merge_sorted_streams(iter(run) for run in runs):
        if entry.key != current_key:
            current_key = entry.key
            survivor = True
        else:
            survivor = False
        if not survivor:
            outcome.invalid_entries_dropped += 1
            continue
        if any(rt.covers(entry.key, entry.seqnum) for rt in covering):
            outcome.invalid_entries_dropped += 1
            continue
        if entry.is_tombstone and into_last_level:
            outcome.dropped_tombstones.append(entry)
            continue
        outcome.entries.append(entry)
    if into_last_level:
        outcome.dropped_range_tombstones.extend(range_tombstones)
    else:
        outcome.range_tombstones.extend(
            sorted(range_tombstones, key=lambda rt: (rt.start, rt.seqnum))
        )
    return outcome


_KEYS = st.integers(min_value=0, max_value=40)


@st.composite
def _merge_inputs(draw):
    """Runs of unique keys each, sharing keys across runs. Seqnums come
    from a narrow range, so equal sort tokens across runs occur too."""
    n_runs = draw(st.integers(min_value=1, max_value=5))
    seqnums = st.integers(min_value=0, max_value=60)
    runs = []
    for _ in range(n_runs):
        keys = sorted(draw(st.sets(_KEYS, max_size=25)))
        run = []
        for key in keys:
            seq = draw(seqnums)
            if draw(st.booleans()) and draw(st.booleans()):
                run.append(Entry(key, seq, EntryKind.TOMBSTONE))
            else:
                run.append(Entry(key, seq, EntryKind.PUT, value=seq))
        runs.append(run)

    def tombstones(limit):
        result = []
        for _ in range(draw(st.integers(min_value=0, max_value=limit))):
            start = draw(_KEYS)
            width = draw(st.integers(min_value=1, max_value=12))
            result.append(RangeTombstone(start, start + width, draw(seqnums)))
        return result

    return runs, tombstones(3), tombstones(2)


@given(inputs=_merge_inputs(), into_last_level=st.booleans())
@settings(max_examples=200, deadline=None)
def test_sorted_merge_equals_heap_merge_and_resolution(inputs, into_last_level):
    runs, range_tombstones, extra_cover = inputs
    got = merge_for_compaction(
        runs, range_tombstones, into_last_level, extra_cover or None
    )
    want = reference_merge(
        runs, range_tombstones, into_last_level, extra_cover or None
    )
    # Same objects in the same order, not merely equal records.
    assert [id(e) for e in got.entries] == [id(e) for e in want.entries]
    assert [id(e) for e in got.dropped_tombstones] == [
        id(e) for e in want.dropped_tombstones
    ]
    assert got.range_tombstones == want.range_tombstones
    assert got.dropped_range_tombstones == want.dropped_range_tombstones
    assert got.invalid_entries_dropped == want.invalid_entries_dropped


def test_equal_sort_tokens_keep_run_order():
    """Two versions with one key and one seqnum: the earlier run's wins,
    as in the heap merge."""
    first = Entry(5, 7, EntryKind.PUT, value="first")
    second = Entry(5, 7, EntryKind.PUT, value="second")
    got = merge_for_compaction([[first], [second]], [], into_last_level=False)
    want = reference_merge([[first], [second]], [], into_last_level=False)
    assert got.entries == want.entries == [first]
    assert got.entries[0] is first


# ----------------------------------------------------------------------
# (b) one-pass Bloom build
# ----------------------------------------------------------------------

_any_key = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.text(max_size=12),
    st.binary(max_size=12),
)
# Page filters hold 1..B keys (B = 4 in the benchmark, 8 in the paper
# figures), SSTable filters up to a whole file: every size below 33 at
# each budget in use gives every ``num_bits`` the builders produce.
_BITS_PER_KEY = (10.0, 5.0, 2.0, 1.0, 12.5)


@given(
    keys=st.lists(_any_key, min_size=32, max_size=32),
    bits_per_key=st.sampled_from(_BITS_PER_KEY),
)
@settings(max_examples=60, deadline=None)
def test_one_pass_bits_equal_update_at_every_size(keys, bits_per_key):
    for n in range(1, len(keys) + 1):
        page_keys = keys[:n]
        bulk = BloomFilter.from_keys(page_keys, bits_per_key=bits_per_key)
        probed = BloomFilter(n, bits_per_key=bits_per_key)
        probed.update(page_keys)
        assert bulk.num_bits == probed.num_bits == max(
            8, math.ceil(n * bits_per_key)
        )
        assert bulk._bits == probed._bits
        assert bulk.count == probed.count == n


def test_one_pass_bits_equal_update_for_a_partial_page():
    """A page of 3 keys in a filter sized for 4, as ``expected_entries``
    asks for."""
    keys = [17, "seventeen", b"\x11"]
    bulk = BloomFilter.from_keys(keys, bits_per_key=10.0, expected_entries=4)
    probed = BloomFilter(4, bits_per_key=10.0)
    probed.update(keys)
    assert bulk.num_bits == probed.num_bits == 40
    assert bulk._bits == probed._bits


# ----------------------------------------------------------------------
# (c) tile weave
# ----------------------------------------------------------------------


def _delete_order_token(entry: Entry) -> tuple:
    """The sort token the tile weave used before: no-``D`` entries first,
    then by ``D``, ties by sort key."""
    if entry.delete_key is None:
        return (0, 0, entry.key)
    return (1, entry.delete_key, entry.key)


def reference_pages(entries: list[Entry], page_entries: int) -> list[list[Entry]]:
    woven = sorted(entries, key=_delete_order_token)
    return [
        sorted(woven[start : start + page_entries], key=lambda e: e.key)
        for start in range(0, len(woven), page_entries)
    ]


@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10**6),
            st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
        ),
        min_size=1,
        max_size=32,
        unique_by=lambda row: row[0],
    ),
    page_entries=st.sampled_from([1, 2, 4, 8]),
)
@settings(max_examples=150, deadline=None)
def test_tile_pages_equal_the_token_weave(rows, page_entries):
    """Few distinct ``D`` values force ties; ``None`` marks tombstone-like
    entries without a delete key."""
    rows.sort()
    entries = [
        Entry(key, seq, EntryKind.PUT, value=seq, delete_key=delete_key)
        for seq, (key, delete_key) in enumerate(rows)
    ]
    pages_per_tile = -(-len(entries) // page_entries)
    tile = DeleteTile(entries, page_entries, pages_per_tile, 10.0, Statistics())
    got = [[id(e) for e in page] for page in tile.pages]
    want = [[id(e) for e in page] for page in reference_pages(entries, page_entries)]
    assert got == want
