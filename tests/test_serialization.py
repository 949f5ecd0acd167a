"""Unit and property tests for the byte codec."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import PersistenceError
from repro.storage.entry import Entry, EntryKind, RangeTombstone
from repro.storage.persist import _RUN_MAGIC, _decode_run, frame_bytes
from repro.storage.serialization import (
    decode_durable_entry,
    decode_durable_range_tombstone,
    encode_durable_entry,
    encode_durable_range_tombstone,
)


def decode_all(blob):
    """Decode concatenated entry records, as a run blob's entry section."""
    entries, cursor = [], 0
    while cursor < len(blob):
        entry, cursor = decode_durable_entry(blob, cursor)
        entries.append(entry)
    return entries


def test_put_round_trip():
    entry = Entry(
        key=42, seqnum=7, kind=EntryKind.PUT, value=b"hello", delete_key=99,
        size=1, write_time=1.5,
    )
    decoded, offset = decode_durable_entry(encode_durable_entry(entry))
    assert decoded.key == 42
    assert decoded.seqnum == 7
    assert decoded.value == b"hello"
    assert decoded.delete_key == 99
    assert decoded.write_time == 1.5
    assert offset == len(encode_durable_entry(entry))


def test_tombstone_round_trip():
    entry = Entry(key=5, seqnum=1, kind=EntryKind.TOMBSTONE, write_time=0.25)
    decoded, _ = decode_durable_entry(encode_durable_entry(entry))
    assert decoded.is_tombstone
    assert decoded.key == 5
    assert decoded.write_time == 0.25


def test_tombstone_is_much_smaller_than_put():
    """The physical grounding of λ (§3.2.1): a tombstone is key+flag."""
    put = Entry(key=1, seqnum=0, kind=EntryKind.PUT, value=b"x" * 1000)
    tombstone = Entry(key=1, seqnum=0, kind=EntryKind.TOMBSTONE)
    ratio = len(encode_durable_entry(tombstone)) / len(encode_durable_entry(put))
    assert ratio < 0.05


def test_missing_delete_key_round_trips_as_none():
    entry = Entry(key=1, seqnum=0, kind=EntryKind.PUT, value=b"v")
    decoded, _ = decode_durable_entry(encode_durable_entry(entry))
    assert decoded.delete_key is None


def test_non_int_key_rejected():
    entry = Entry(key="text", seqnum=0, kind=EntryKind.PUT, value=b"v")
    with pytest.raises(TypeError):
        encode_durable_entry(entry)


def test_corrupt_kind_byte_rejected():
    entry = Entry(key=1, seqnum=0, kind=EntryKind.PUT, value=b"v")
    blob = bytearray(encode_durable_entry(entry))
    blob[0] = 99
    with pytest.raises(ValueError):
        decode_durable_entry(bytes(blob))


def test_truncated_value_rejected():
    entry = Entry(key=1, seqnum=0, kind=EntryKind.PUT, value=b"abcdef")
    blob = encode_durable_entry(entry)
    with pytest.raises(ValueError):
        decode_durable_entry(blob[:-3])


def test_range_tombstone_round_trip():
    rt = RangeTombstone(start=10, end=20, seqnum=5, write_time=2.0)
    decoded, _ = decode_durable_range_tombstone(
        encode_durable_range_tombstone(rt)
    )
    assert (decoded.start, decoded.end, decoded.seqnum) == (10, 20, 5)
    assert decoded.write_time == 2.0


def test_page_round_trip():
    entries = [
        Entry(key=i, seqnum=i, kind=EntryKind.PUT, value=bytes([i]) * i)
        for i in range(1, 5)
    ]
    decoded = decode_all(b"".join(encode_durable_entry(e) for e in entries))
    assert [e.key for e in decoded] == [1, 2, 3, 4]
    assert [e.value for e in decoded] == [e.value for e in entries]


def test_page_trailing_bytes_rejected():
    """A run blob whose entry section outlasts its declared pages is
    corrupt, not silently truncated."""
    entry = Entry(key=1, seqnum=0, kind=EntryKind.PUT, value=b"v")
    header = {"layout": "sstable", "meta": {}, "pages": [1]}
    blob = (
        _RUN_MAGIC
        + frame_bytes(json.dumps(header).encode("utf-8"))
        + frame_bytes(encode_durable_entry(entry) + b"junk")
        + frame_bytes(b"")
    )
    with pytest.raises(PersistenceError):
        _decode_run(blob)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-(2**62), max_value=2**62),
            st.integers(min_value=0, max_value=2**62),
            st.binary(max_size=64),
            st.one_of(st.none(), st.integers(min_value=0, max_value=2**62)),
        ),
        max_size=20,
    )
)
@settings(max_examples=50, deadline=None)
def test_property_page_round_trip(raw):
    entries = [
        Entry(key=key, seqnum=seq, kind=EntryKind.PUT, value=value,
              delete_key=dkey)
        for key, seq, value, dkey in raw
    ]
    decoded = decode_all(b"".join(encode_durable_entry(e) for e in entries))
    assert len(decoded) == len(entries)
    for original, got in zip(entries, decoded):
        assert got.key == original.key
        assert got.seqnum == original.seqnum
        assert got.value == bytes(original.value)
        assert got.delete_key == original.delete_key
