"""The per-entry digest cache and the one bulk Bloom build path.

An ``Entry`` caches its key's digest pair in a private slot the first
time a filter is built over it, and every filter is then built from
cached digests by ``BloomFilter.from_digests``. These tests pin what
that buys (one digest per entry however often compaction rewrites it),
that the cache is invisible everywhere else, and that the bits equal the
probe-at-a-time reference at page and at file size.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from repro.core.config import lethe_config
from repro.core.engine import LSMEngine
from repro.core.stats import Statistics
from repro.filters import bloom as bloom_module
from repro.filters.bloom import (
    _TABLE_MAX_BITS,
    BloomFilter,
    digest_pair,
    entry_digests,
    key_digest,
    optimal_hash_count,
)
from repro.kiwi.layout import build_kiwi_file
from repro.storage.disk import SimulatedDisk
from repro.storage.entry import Entry, EntryKind
from repro.storage.serialization import decode_durable_entry, encode_durable_entry

from tests.conftest import TINY, make_entries
from tests.test_bloom import reference_bits

# ----------------------------------------------------------------------
# One digest per entry
# ----------------------------------------------------------------------


@pytest.mark.parametrize("pages_per_tile", [4, 1], ids=["kiwi_h4", "classic_h1"])
def test_each_entry_is_digested_once_however_often_it_is_rewritten(
    monkeypatch, pages_per_tile
):
    """Compaction hands the same entries on, so their cached digests ride
    along: a seeded ingest digests at most once per entry created, once
    per point lookup and once per blind-delete probe."""
    digests = []
    real_digest = key_digest
    monkeypatch.setattr(
        bloom_module, "key_digest", lambda key: digests.append(key) or real_digest(key)
    )
    engine = LSMEngine(
        lethe_config(
            delete_persistence_threshold=1e9,
            delete_tile_pages=pages_per_tile,
            **TINY,
        )
    )
    rng = random.Random(7)
    deletes = 0
    for i in range(1500):
        key = rng.randrange(600)
        roll = rng.random()
        if roll < 0.1:
            engine.delete(key)
            deletes += 1
        elif roll < 0.2:
            engine.get(key)
        else:
            engine.put(key, f"v{i}", delete_key=i)
    engine.flush()

    stats = engine.stats
    assert engine.tree.deepest_nonempty_level() >= 2
    created = stats.entries_ingested + stats.point_tombstones_ingested
    assert len(digests) <= created + stats.point_lookups + deletes
    # Each entry reached disk through several filter builds, not one.
    assert stats.compaction_entries_out > created


def test_entry_digests_fills_the_slot_once():
    entries = make_entries(range(6))
    assert all(entry._digest is None for entry in entries)
    pairs = entry_digests(entries)
    assert pairs == [digest_pair(entry.key) for entry in entries]
    assert [entry._digest for entry in entries] == pairs
    # A second build reuses the very same cached pairs.
    again = entry_digests(entries)
    assert all(a is b for a, b in zip(again, pairs))


# ----------------------------------------------------------------------
# The cache is invisible
# ----------------------------------------------------------------------


def _filled(entry: Entry) -> Entry:
    entry_digests([entry])
    assert entry._digest is not None
    return entry


def _sample_entries() -> list[Entry]:
    return [
        Entry(key=5, seqnum=3, kind=EntryKind.PUT, value="v", delete_key=9, size=7),
        Entry(key=-8, seqnum=0, kind=EntryKind.TOMBSTONE, size=2, write_time=1.5),
        Entry(key=2**40, seqnum=11, kind=EntryKind.PUT, value=b"\x01", delete_key=None),
    ]


@pytest.mark.parametrize("index", range(3))
def test_filled_entry_equals_and_hashes_like_a_fresh_one(index):
    filled = _filled(_sample_entries()[index])
    fresh = _sample_entries()[index]
    assert fresh._digest is None
    assert filled == fresh
    assert hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh)
    assert "_digest" not in repr(filled)


def test_replace_starts_with_an_empty_slot():
    filled = _filled(_sample_entries()[0])
    moved = dataclasses.replace(filled, key=6)
    assert moved._digest is None
    assert entry_digests([moved]) == [digest_pair(6)]
    same_key = dataclasses.replace(filled, seqnum=4)
    assert same_key._digest is None


@pytest.mark.parametrize("index", range(3))
def test_serialization_round_trips_filled_entries(index):
    filled = _filled(_sample_entries()[index])
    decoded, offset = decode_durable_entry(encode_durable_entry(filled))
    assert decoded == filled
    assert repr(decoded) == repr(filled)
    assert decoded._digest is None
    assert offset == len(encode_durable_entry(filled))
    assert encode_durable_entry(filled) == encode_durable_entry(_sample_entries()[index])


def test_fields_stay_frozen():
    entry = _filled(_sample_entries()[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.key = 6
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry._digest = None
    assert not hasattr(entry, "__dict__")


# ----------------------------------------------------------------------
# Bit equivalence at page and file size
# ----------------------------------------------------------------------

# ``bits_per_key`` values whose FPR-optimal ``k`` runs from 1 to 14.
_BITS_PER_KEY_BY_K = {k: round(k / math.log(2), 2) for k in range(1, 15)}


def _keys(count: int, seed: int) -> list:
    rng = random.Random(seed)
    keys: list = [rng.randrange(-(2**70), 2**70) for _ in range(count)]
    for index in range(0, count, 7):
        keys[index] = f"key-{keys[index]}"
    for index in range(3, count, 11):
        keys[index] = str(keys[index]).encode()
    return keys


def _assert_matches_reference(keys, bits_per_key, expected_entries=None):
    bulk = BloomFilter.from_keys(
        keys, bits_per_key=bits_per_key, expected_entries=expected_entries
    )
    entries = [
        Entry(key=key, seqnum=seqnum, kind=EntryKind.PUT)
        for seqnum, key in enumerate(keys)
    ]
    from_entries = BloomFilter.from_digests(
        entry_digests(entries), bits_per_key, expected_entries=expected_entries
    )
    probed = BloomFilter(
        expected_entries if expected_entries is not None else len(keys),
        bits_per_key=bits_per_key,
    )
    probed.update(keys)
    expected = reference_bits(keys, bulk.num_bits, bulk.num_hashes)
    assert bulk.num_bits == from_entries.num_bits == probed.num_bits
    assert bulk._bits == expected
    assert from_entries._bits == expected
    assert probed._bits == expected
    assert bulk.count == from_entries.count == probed.count == len(keys)
    for key in keys[:50] + list(range(50)):
        assert bulk.might_contain(key) == probed.might_contain(key)
    return bulk


@pytest.mark.parametrize("num_hashes", sorted(_BITS_PER_KEY_BY_K))
@pytest.mark.parametrize("count", [128, 1000])
def test_file_size_bits_match_reference_for_every_k(count, num_hashes):
    bits_per_key = _BITS_PER_KEY_BY_K[num_hashes]
    assert optimal_hash_count(bits_per_key) == num_hashes
    bulk = _assert_matches_reference(_keys(count, seed=count + num_hashes), bits_per_key)
    assert bulk.num_hashes == num_hashes


def test_file_sizes_cover_both_build_regimes():
    sizes = {
        math.ceil(count * bits_per_key)
        for count in (128, 1000)
        for bits_per_key in _BITS_PER_KEY_BY_K.values()
    }
    assert min(sizes) <= _TABLE_MAX_BITS < max(sizes)


@pytest.mark.parametrize(
    ("num_bits", "count"),
    [(_TABLE_MAX_BITS - 1, 89), (_TABLE_MAX_BITS, 256), (_TABLE_MAX_BITS + 1, 683)],
)
def test_bits_match_reference_at_the_regime_boundary(num_bits, count):
    """Filters sized just below, at and just above the table's limit."""
    assert num_bits % count == 0
    bulk = _assert_matches_reference(_keys(count, seed=num_bits), num_bits // count)
    assert bulk.num_bits == num_bits


def _key_with_step_zero(num_bits: int) -> int:
    """An int key whose ``h2`` is a multiple of ``num_bits``: every probe
    of it lands on ``h1``."""
    for key in range(10**6):
        if digest_pair(key)[1] % num_bits == 0:
            return key
    raise AssertionError(f"no key with h2 % {num_bits} == 0")


@pytest.mark.parametrize(
    ("count", "bits_per_key", "expected_entries"),
    [
        (1, 9.0, None),  # a page filter: m = 9
        (3, 9.25, 4),  # a partial page: m = 37
        (128, 9.0, 129),  # file size, pattern table: m = 1161
        (1000, 9.0, 1001),  # file size, probe loop: m = 9009
    ],
)
def test_a_digest_with_h2_a_multiple_of_num_bits(count, bits_per_key, expected_entries):
    """``h2`` is odd, so only an odd ``num_bits`` can divide it."""
    num_bits = max(8, math.ceil((expected_entries or count) * bits_per_key))
    assert num_bits % 2 == 1
    keys = _keys(count - 1, seed=count) + [_key_with_step_zero(num_bits)]
    bulk = _assert_matches_reference(keys, bits_per_key, expected_entries)
    assert bulk.num_bits == num_bits


# ----------------------------------------------------------------------
# KiWi scan order
# ----------------------------------------------------------------------


def test_kiwi_scan_key_order_equals_sort_token_order():
    """Keys are unique within a file, so ``KiWiFile.scan``'s sort on the
    key gives the ``sort_token`` order, here on a file holding point
    tombstones after partial page drops."""
    config = lethe_config(delete_persistence_threshold=1e9, delete_tile_pages=4, **TINY)
    puts = make_entries(
        [k for k in range(32) if k % 5], delete_keys=[(k * 13) % 50 for k in range(25)]
    )
    tombstones = make_entries(
        range(0, 32, 5), seq_start=100, kind=EntryKind.TOMBSTONE, write_time=2.0
    )
    entries = sorted(puts + tombstones, key=lambda e: e.key)
    stats = Statistics()
    kiwi_file = build_kiwi_file(
        entries, [], config, SimulatedDisk(stats), stats, 0.0, 1
    )
    kiwi_file.apply_secondary_delete(10, 23)
    assert stats.pages_dropped_partial > 0

    scanned = kiwi_file.scan(-1, 100, charge_io=False)
    assert any(e.is_tombstone for e in scanned)
    assert scanned == sorted(scanned, key=lambda e: e.sort_token())
    assert [e.key for e in scanned] == sorted(
        e.key for e in entries if e.is_tombstone or not 10 <= e.delete_key < 23
    )
