"""Length-framed binary request protocol for the serving layer.

Every message on the wire is one *frame*::

    length(4B LE uint32) | tag(1B) | body

``length`` counts the bytes after the prefix (tag + body). Frames are
bounded by :data:`MAX_FRAME_BYTES`; a peer announcing a larger frame is
a protocol error and the connection is closed *before* any allocation
for the announced payload happens — a hostile length prefix cannot make
the server reserve gigabytes.

Request bodies (all integers little-endian)::

    PUT                    key(8B) dkey_tag(1B) dkey(8B) value_tag(1B) vlen(4B) value
    GET                    key(8B)
    DELETE                 key(8B)
    DELETE_RANGE           lo(8B) hi(8B)       # validated: lo <= hi
    SCAN                   lo(8B) hi(8B)
    SECONDARY_RANGE_LOOKUP dlo(8B) dhi(8B)
    FLUSH                  (empty)
    PING                   (empty)

Response bodies::

    OK     (empty)
    VALUE  value_tag(1B) vlen(4B) value        # found values
    MISS   (empty)                             # get() miss — no entry
    PAIRS  count(4B) then per pair: key(8B) value_tag(1B) vlen(4B) value
    PONG   (empty)
    ERROR  utf-8 message

Values reuse the tagged encoding of :func:`repro.storage.serialization.
pack_value` — the same codec the durable WAL uses — so anything the
engine can persist round-trips the socket unchanged, including ``None``
(which is why ``get()`` misses need a dedicated ``MISS`` tag: a stored
``None`` value answers with ``VALUE`` + the ``None`` tag).

Requests and responses are plain tuples mirroring the engine's
operation vocabulary: ``("put", key, value, delete_key)``, ``("get",
key)``, ``("scan", lo, hi)``, … and ``("ok",)``, ``("value", v)``,
``("miss",)``, ``("pairs", [(k, v), …])``, ``("pong",)``, ``("error",
message)``. Which operations are served, under which tag and with which
of the four body shapes, is read from :mod:`repro.core.ops`; ``ping`` is
the one request that is wire-only.
"""

from __future__ import annotations

import struct

from repro.core.ops import OPS, SERVED
from repro.storage.serialization import pack_value, unpack_value

# A frame must hold one request/response; 1 MiB comfortably covers the
# largest values the experiments move while bounding per-connection memory.
MAX_FRAME_BYTES = 1 << 20

_LEN = struct.Struct("<I")
LENGTH_PREFIX_BYTES = _LEN.size

# Request tags (low half of the byte space) belong to the rows of
# repro.core.ops; the liveness probe has no engine operation behind it.
REQ_PING = 0x08

# Response tags (high bit set).
RESP_OK = 0x81
RESP_VALUE = 0x82
RESP_MISS = 0x83
RESP_PAIRS = 0x84
RESP_PONG = 0x85
RESP_ERROR = 0xFF

_KEY = struct.Struct("<q")
_PAIR_RANGE = struct.Struct("<qq")
_PUT_HEAD = struct.Struct("<qBqBI")
_VALUE_HEAD = struct.Struct("<BI")
_PAIR_HEAD = struct.Struct("<qBI")
_COUNT = struct.Struct("<I")

_DKEY_NONE = 0
_DKEY_INT = 1


class ProtocolError(Exception):
    """The peer sent bytes that are not a well-formed frame."""


def frame(payload: bytes) -> bytes:
    """Wrap a tag+body payload in a length prefix."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LEN.pack(len(payload)) + payload


def parse_length(header: bytes) -> int:
    """Decode and bounds-check a 4-byte length prefix."""
    if len(header) != LENGTH_PREFIX_BYTES:
        raise ProtocolError("truncated length prefix")
    (length,) = _LEN.unpack(header)
    if length == 0:
        raise ProtocolError("empty frame")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"announced frame of {length} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return length


def _check_key(name: str, key) -> int:
    if not isinstance(key, int) or isinstance(key, bool):
        raise TypeError(f"protocol supports int {name}, got {type(key)}")
    return key


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

def _pack_put(op: tuple) -> bytes:
    _, key, value, *rest = op
    delete_key = rest[0] if rest else None
    if delete_key is None:
        dkey_tag, dkey = _DKEY_NONE, 0
    else:
        dkey_tag, dkey = _DKEY_INT, _check_key("delete keys", delete_key)
    value_tag, payload = pack_value(value)
    head = _PUT_HEAD.pack(
        _check_key("keys", key), dkey_tag, dkey, value_tag, len(payload)
    )
    return head + payload


def _unpack_put(body: bytes) -> tuple:
    key, dkey_tag, dkey, value_tag, vlen = _PUT_HEAD.unpack_from(body, 0)
    blob = body[_PUT_HEAD.size :]
    if len(blob) != vlen:
        raise ProtocolError(f"put value: declared {vlen} bytes, got {len(blob)}")
    if dkey_tag not in (_DKEY_NONE, _DKEY_INT):
        raise ProtocolError(f"unknown delete-key tag {dkey_tag}")
    value = unpack_value(value_tag, blob)
    return (key, value, dkey if dkey_tag == _DKEY_INT else None)


# The three body shapes that decode as a fixed run of int64 keys; "put"
# has the variable-length codec above.
_KEY_BODIES = {"key": _KEY, "range": _PAIR_RANGE, "empty": struct.Struct("<")}


def _check_interval(op: tuple) -> None:
    """``delete_range``'s ``lo <= hi``, enforced on both encode and
    decode: an inverted interval is adversarial input, not an operation
    the engine should see — fail the frame, not the server."""
    if op[0] == "delete_range" and op[1] > op[2]:
        raise ProtocolError(f"delete_range: lo {op[1]} > hi {op[2]}")


def encode_request(op: tuple) -> bytes:
    """Encode one engine-vocabulary operation tuple as a full frame."""
    kind = op[0]
    if kind == "ping":
        return frame(bytes([REQ_PING]))
    row = OPS.get(kind)
    if row is None or row.tag is None:
        raise ValueError(f"unknown request kind {kind!r}")
    if row.body == "put":
        body = _pack_put(op)
    elif row.body == "key":
        body = _KEY.pack(_check_key("keys", op[1]))
    elif row.body == "range":
        body = _PAIR_RANGE.pack(_check_key("keys", op[1]), _check_key("keys", op[2]))
        _check_interval(op)
    else:
        body = b""
    return frame(bytes([row.tag]) + body)


def decode_request(payload: bytes) -> tuple:
    """Decode a frame payload (tag + body) back into an operation tuple.

    Raises :class:`ProtocolError` on unknown tags, truncation, or
    trailing garbage — the payload must be consumed exactly.
    """
    if not payload:
        raise ProtocolError("empty frame")
    tag, body = payload[0], payload[1:]
    row = SERVED.get(tag)
    if row is not None:
        name, shape = row.name, row.body
    elif tag == REQ_PING:
        name, shape = "ping", "empty"
    else:
        raise ProtocolError(f"unknown request tag 0x{tag:02x}")
    try:
        if shape == "put":
            return (name, *_unpack_put(body))
        if len(body) != _KEY_BODIES[shape].size:
            raise ProtocolError(f"bad {shape} body length")
        op = (name, *_KEY_BODIES[shape].unpack(body))
    except ProtocolError:
        raise
    except Exception as exc:
        # struct underflow, pickle garbage, … — anything a hostile body
        # can trigger is a protocol error, never a server crash.
        raise ProtocolError(f"malformed request body: {exc}") from exc
    _check_interval(op)
    return op


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------

def encode_response(resp: tuple) -> bytes:
    """Encode one response tuple as a full frame."""
    kind = resp[0]
    if kind == "ok":
        return frame(bytes([RESP_OK]))
    if kind == "value":
        value_tag, payload = pack_value(resp[1])
        return frame(
            bytes([RESP_VALUE]) + _VALUE_HEAD.pack(value_tag, len(payload)) + payload
        )
    if kind == "miss":
        return frame(bytes([RESP_MISS]))
    if kind == "pairs":
        parts = [bytes([RESP_PAIRS]), _COUNT.pack(len(resp[1]))]
        for key, value in resp[1]:
            value_tag, payload = pack_value(value)
            parts.append(
                _PAIR_HEAD.pack(_check_key("keys", key), value_tag, len(payload))
            )
            parts.append(payload)
        return frame(b"".join(parts))
    if kind == "pong":
        return frame(bytes([RESP_PONG]))
    if kind == "error":
        return frame(bytes([RESP_ERROR]) + str(resp[1]).encode("utf-8"))
    raise ValueError(f"unknown response kind {kind!r}")


def decode_response(payload: bytes) -> tuple:
    """Decode a frame payload back into a response tuple."""
    if not payload:
        raise ProtocolError("empty frame")
    tag, body = payload[0], payload[1:]
    try:
        if tag == RESP_OK:
            if body:
                raise ProtocolError("unexpected body on OK response")
            return ("ok",)
        if tag == RESP_VALUE:
            value_tag, vlen = _VALUE_HEAD.unpack_from(body, 0)
            blob = body[_VALUE_HEAD.size :]
            if len(blob) != vlen:
                raise ProtocolError(
                    f"value: declared {vlen} bytes, got {len(blob)}"
                )
            return ("value", unpack_value(value_tag, blob))
        if tag == RESP_MISS:
            if body:
                raise ProtocolError("unexpected body on MISS response")
            return ("miss",)
        if tag == RESP_PAIRS:
            (count,) = _COUNT.unpack_from(body, 0)
            cursor = _COUNT.size
            pairs = []
            for _ in range(count):
                key, value_tag, vlen = _PAIR_HEAD.unpack_from(body, cursor)
                cursor += _PAIR_HEAD.size
                blob = body[cursor : cursor + vlen]
                if len(blob) != vlen:
                    raise ProtocolError("pairs: truncated value")
                cursor += vlen
                pairs.append((key, unpack_value(value_tag, blob)))
            if cursor != len(body):
                raise ProtocolError(f"trailing bytes after pairs: {len(body) - cursor}")
            return ("pairs", pairs)
        if tag == RESP_PONG:
            if body:
                raise ProtocolError("unexpected body on PONG response")
            return ("pong",)
        if tag == RESP_ERROR:
            return ("error", body.decode("utf-8", errors="replace"))
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"malformed response body: {exc}") from exc
    raise ProtocolError(f"unknown response tag 0x{tag:02x}")


# ---------------------------------------------------------------------------
# Incremental decoding
# ---------------------------------------------------------------------------

class FrameDecoder:
    """Incremental frame splitter for stream transports.

    Feed arbitrary byte chunks; complete frame payloads (tag + body, no
    length prefix) come back in order. Buffered bytes never exceed the
    length prefix plus one maximal frame — an oversized announced length
    raises :class:`ProtocolError` at header time, before any payload is
    accepted.
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES):
        self._buffer = bytearray()
        self._max_frame = max_frame
        self._need: int | None = None  # payload length once header parsed

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    def feed(self, data: bytes) -> list[bytes]:
        self._buffer.extend(data)
        frames: list[bytes] = []
        while True:
            if self._need is None:
                if len(self._buffer) < LENGTH_PREFIX_BYTES:
                    break
                (length,) = _LEN.unpack_from(self._buffer, 0)
                if length == 0:
                    raise ProtocolError("empty frame")
                if length > self._max_frame:
                    raise ProtocolError(
                        f"announced frame of {length} bytes exceeds {self._max_frame}"
                    )
                del self._buffer[:LENGTH_PREFIX_BYTES]
                self._need = length
            if len(self._buffer) < self._need:
                break
            frames.append(bytes(self._buffer[: self._need]))
            del self._buffer[: self._need]
            self._need = None
        return frames
