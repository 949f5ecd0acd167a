"""Byte-level codec for entries and range tombstones.

The hot simulation path moves Python objects and *counts* declared bytes
(`Entry.size`); this module is the real encoding the persistence backend
(:mod:`repro.storage.persist`) writes to run blobs and WAL segments. Its
record shapes follow §3.1 (left part of Figure 3):
``[key | tombstone flag | delete key | value]`` for key-value pairs, and
``[key | tombstone flag]`` for point tombstones — which is precisely why
the tombstone-size ratio λ is small.

Records must round-trip whatever the engine holds — arbitrary picklable
values, point tombstones with their configured sizes — and must preserve
each record's *declared* size, because space-amplification accounting is
defined over declared bytes. Sort and delete keys are integers.
"""

from __future__ import annotations

import pickle
import struct

from repro.storage.entry import Entry, EntryKind, RangeTombstone

# Record wire format (little-endian):
#   header:  kind(1B) seqnum(8B) key(8B) write_time(8B f64) declared_size(4B)
#   put:     dkey_tag(1B) delete_key(8B) value_tag(1B) value_len(4B) value
#   range:   start(8B) end(8B) seqnum(8B) write_time(8B f64) declared_size(4B)

_FULL_HEADER = struct.Struct("<BqqdI")
_FULL_PUT = struct.Struct("<BqBI")
_FULL_RANGE = struct.Struct("<qqqdI")

_KIND_PUT = 0
_KIND_TOMBSTONE = 1
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

