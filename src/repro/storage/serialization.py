"""Byte-level codec for entries and pages.

The hot simulation path moves Python objects and *counts* declared bytes
(`Entry.size`); this module provides the real encoding those declared
sizes stand in for, and the test-suite cross-checks that a round-tripped
page reports byte counts consistent with the declared accounting. It also
documents the physical record shapes of §3.1 (left part of Figure 3):

``[key | tombstone flag | delete key | value]`` for key-value pairs, and
``[key | tombstone flag]`` for point tombstones — which is precisely why
the tombstone-size ratio λ is small.

The codec is deliberately restricted to the types the experiments use:
integer sort keys, integer delete keys, and ``bytes`` values. The durable
variants at the bottom (``encode_durable_*``) extend the same wire shapes
with a declared-size field and tagged value encodings so the persistence
backend (:mod:`repro.storage.persist`) can round-trip engine state
losslessly.
"""

from __future__ import annotations

import pickle
import struct

from repro.storage.entry import Entry, EntryKind, RangeTombstone

# Record wire format (little-endian):
#   header:   kind(1B)  seqnum(8B)  key(8B)  write_time(8B as f64)
#   put only: delete_key(8B)  value_len(4B)  value(bytes)
_HEADER = struct.Struct("<BqqD".replace("D", "d"))
_PUT_TAIL = struct.Struct("<qI")
_RANGE = struct.Struct("<qqqd")

_KIND_PUT = 0
_KIND_TOMBSTONE = 1


def encode_entry(entry: Entry) -> bytes:
    """Serialize one entry. Puts require ``bytes`` values and int keys."""
    if not isinstance(entry.key, int):
        raise TypeError(f"codec supports int sort keys, got {type(entry.key)}")
    if entry.is_tombstone:
        return _HEADER.pack(_KIND_TOMBSTONE, entry.seqnum, entry.key, entry.write_time)
    if not isinstance(entry.value, (bytes, bytearray)):
        raise TypeError(f"codec supports bytes values, got {type(entry.value)}")
    delete_key = entry.delete_key if entry.delete_key is not None else -1
    if not isinstance(delete_key, int):
        raise TypeError(f"codec supports int delete keys, got {type(delete_key)}")
    value = bytes(entry.value)
    return (
        _HEADER.pack(_KIND_PUT, entry.seqnum, entry.key, entry.write_time)
        + _PUT_TAIL.pack(delete_key, len(value))
        + value
    )


def decode_entry(data: bytes, offset: int = 0) -> tuple[Entry, int]:
    """Deserialize one entry at ``offset``; returns (entry, next_offset).

    The decoded entry's ``size`` is set to the *encoded* byte length so the
    declared-size accounting can be validated against real encodings.
    """
    kind, seqnum, key, write_time = _HEADER.unpack_from(data, offset)
    cursor = offset + _HEADER.size
    if kind == _KIND_TOMBSTONE:
        entry = Entry(
            key=key,
            seqnum=seqnum,
            kind=EntryKind.TOMBSTONE,
            size=cursor - offset,
            write_time=write_time,
        )
        return entry, cursor
    if kind != _KIND_PUT:
        raise ValueError(f"corrupt record: unknown kind byte {kind}")
    delete_key, value_len = _PUT_TAIL.unpack_from(data, cursor)
    cursor += _PUT_TAIL.size
    value = bytes(data[cursor : cursor + value_len])
    if len(value) != value_len:
        raise ValueError("corrupt record: truncated value")
    cursor += value_len
    entry = Entry(
        key=key,
        seqnum=seqnum,
        kind=EntryKind.PUT,
        value=value,
        delete_key=None if delete_key == -1 else delete_key,
        size=cursor - offset,
        write_time=write_time,
    )
    return entry, cursor


def encode_range_tombstone(tombstone: RangeTombstone) -> bytes:
    """Serialize one range tombstone (start, end, seqnum, write_time)."""
    if not isinstance(tombstone.start, int) or not isinstance(tombstone.end, int):
        raise TypeError("codec supports int sort keys for range tombstones")
    return _RANGE.pack(
        tombstone.start, tombstone.end, tombstone.seqnum, tombstone.write_time
    )


def decode_range_tombstone(data: bytes, offset: int = 0) -> tuple[RangeTombstone, int]:
    """Deserialize one range tombstone; returns (tombstone, next_offset)."""
    start, end, seqnum, write_time = _RANGE.unpack_from(data, offset)
    cursor = offset + _RANGE.size
    tombstone = RangeTombstone(
        start=start, end=end, seqnum=seqnum, size=_RANGE.size, write_time=write_time
    )
    return tombstone, cursor


# ---------------------------------------------------------------------------
# Durable records
# ---------------------------------------------------------------------------
#
# The in-memory codec above is the accounting cross-check: it requires the
# restricted types the experiments use (int keys, bytes values) and reports
# *encoded* sizes. The durable backend (:mod:`repro.storage.persist`) must
# round-trip whatever the engine holds — arbitrary picklable values, point
# tombstones with their configured sizes — and must preserve each record's
# *declared* size, because space-amplification accounting is defined over
# declared bytes. The durable wire format extends the header with the
# declared size and tags the value encoding.
#
#   header:  kind(1B) seqnum(8B) key(8B) write_time(8B f64) declared_size(4B)
#   put:     dkey_tag(1B) delete_key(8B) value_tag(1B) value_len(4B) value
#   range:   start(8B) end(8B) seqnum(8B) write_time(8B f64) declared_size(4B)

_FULL_HEADER = struct.Struct("<BqqdI")
_FULL_PUT = struct.Struct("<BqBI")
_FULL_RANGE = struct.Struct("<qqqdI")

_DKEY_NONE = 0
_DKEY_INT = 1
_VALUE_NONE = 0
_VALUE_BYTES = 1
_VALUE_PICKLE = 2


def pack_value(value) -> tuple[int, bytes]:
    """Tag-encode one value: ``(tag, payload)``.

    ``None`` and ``bytes`` get dedicated tags; anything else pickles.
    Shared by the durable record codec below and the network protocol
    (:mod:`repro.net.protocol`), so a value round-trips identically
    through the WAL and over a socket.
    """
    if value is None:
        return _VALUE_NONE, b""
    if isinstance(value, (bytes, bytearray)):
        return _VALUE_BYTES, bytes(value)
    return _VALUE_PICKLE, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def unpack_value(tag: int, payload: bytes):
    """Invert :func:`pack_value`; raises ``ValueError`` on unknown tags."""
    if tag == _VALUE_NONE:
        return None
    if tag == _VALUE_BYTES:
        return bytes(payload)
    if tag == _VALUE_PICKLE:
        return pickle.loads(payload)
    raise ValueError(f"corrupt durable record: unknown value tag {tag}")


def encode_durable_entry(entry: Entry) -> bytes:
    """Serialize one entry for the durable backend (lossless round-trip)."""
    if not isinstance(entry.key, int) or isinstance(entry.key, bool):
        raise TypeError(
            f"durable codec supports int sort keys, got {type(entry.key)}"
        )
    kind = _KIND_TOMBSTONE if entry.is_tombstone else _KIND_PUT
    header = _FULL_HEADER.pack(
        kind, entry.seqnum, entry.key, entry.write_time, entry.size
    )
    if entry.is_tombstone:
        return header
    if entry.delete_key is None:
        dkey_tag, dkey = _DKEY_NONE, 0
    elif isinstance(entry.delete_key, int) and not isinstance(entry.delete_key, bool):
        dkey_tag, dkey = _DKEY_INT, entry.delete_key
    else:
        raise TypeError(
            f"durable codec supports int delete keys, got {type(entry.delete_key)}"
        )
    value_tag, payload = pack_value(entry.value)
    return header + _FULL_PUT.pack(dkey_tag, dkey, value_tag, len(payload)) + payload


def decode_durable_entry(data: bytes, offset: int = 0) -> tuple[Entry, int]:
    """Deserialize one durable entry; returns ``(entry, next_offset)``."""
    kind, seqnum, key, write_time, size = _FULL_HEADER.unpack_from(data, offset)
    cursor = offset + _FULL_HEADER.size
    if kind == _KIND_TOMBSTONE:
        entry = Entry(
            key=key,
            seqnum=seqnum,
            kind=EntryKind.TOMBSTONE,
            size=size,
            write_time=write_time,
        )
        return entry, cursor
    if kind != _KIND_PUT:
        raise ValueError(f"corrupt durable record: unknown kind byte {kind}")
    dkey_tag, dkey, value_tag, value_len = _FULL_PUT.unpack_from(data, cursor)
    cursor += _FULL_PUT.size
    payload = bytes(data[cursor : cursor + value_len])
    if len(payload) != value_len:
        raise ValueError("corrupt durable record: truncated value")
    cursor += value_len
    entry = Entry(
        key=key,
        seqnum=seqnum,
        kind=EntryKind.PUT,
        value=unpack_value(value_tag, payload),
        delete_key=dkey if dkey_tag == _DKEY_INT else None,
        size=size,
        write_time=write_time,
    )
    return entry, cursor


def encode_durable_range_tombstone(tombstone: RangeTombstone) -> bytes:
    """Serialize one range tombstone preserving its declared size."""
    if not isinstance(tombstone.start, int) or not isinstance(tombstone.end, int):
        raise TypeError("durable codec supports int sort keys for range tombstones")
    return _FULL_RANGE.pack(
        tombstone.start,
        tombstone.end,
        tombstone.seqnum,
        tombstone.write_time,
        tombstone.size,
    )


def decode_durable_range_tombstone(
    data: bytes, offset: int = 0
) -> tuple[RangeTombstone, int]:
    """Deserialize one durable range tombstone; returns ``(rt, next_offset)``."""
    start, end, seqnum, write_time, size = _FULL_RANGE.unpack_from(data, offset)
    tombstone = RangeTombstone(
        start=start, end=end, seqnum=seqnum, size=size, write_time=write_time
    )
    return tombstone, offset + _FULL_RANGE.size


def encode_page(entries: list[Entry]) -> bytes:
    """Serialize a page: a 4-byte count then the concatenated records."""
    blob = struct.pack("<I", len(entries))
    for entry in entries:
        blob += encode_entry(entry)
    return blob


def decode_page(data: bytes) -> list[Entry]:
    """Deserialize a page produced by :func:`encode_page`."""
    (count,) = struct.unpack_from("<I", data, 0)
    cursor = 4
    entries: list[Entry] = []
    for _ in range(count):
        entry, cursor = decode_entry(data, cursor)
        entries.append(entry)
    if cursor != len(data):
        raise ValueError(f"trailing bytes after page: {len(data) - cursor}")
    return entries
