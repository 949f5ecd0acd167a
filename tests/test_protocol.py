"""Wire-protocol properties: round trips and adversarial inputs.

Round-trip coverage is exhaustive over the frame vocabulary — every
served row of the operation table (:mod:`repro.core.ops`) and every
response kind goes through ``encode → frame split → decode`` with
Hypothesis-generated contents. The adversarial half feeds the
decoder what a hostile or broken peer would: truncated frames, garbage
tags, length prefixes announcing gigabytes — and asserts the decoder
answers with :class:`ProtocolError` (the server's close-connection
signal) instead of crashing or buffering unbounded memory.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ops import OPS
from repro.net.protocol import (
    LENGTH_PREFIX_BYTES,
    MAX_FRAME_BYTES,
    FrameDecoder,
    ProtocolError,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    frame,
    parse_length,
)

KEYS = st.integers(min_value=-(2**62), max_value=2**62)
# Values cover what the engine can hold: bytes on the hot path, and a
# sample of picklables through the fallback tag.
VALUES = st.one_of(
    st.none(),
    st.binary(max_size=256),
    st.integers(),
    st.text(max_size=32),
    st.tuples(st.integers(), st.binary(max_size=16)),
)


def split_payload(wire: bytes) -> bytes:
    """Strip and validate the length prefix of one encoded frame."""
    length = parse_length(wire[:LENGTH_PREFIX_BYTES])
    payload = wire[LENGTH_PREFIX_BYTES:]
    assert len(payload) == length
    return payload


# Arguments for each body shape a served row can declare.
BODY_ARGS = {
    "put": st.tuples(KEYS, VALUES, st.one_of(st.none(), KEYS)),
    "key": st.tuples(KEYS),
    "range": st.tuples(KEYS, KEYS),
    "empty": st.just(()),
}


@st.composite
def served_requests(draw):
    row = draw(st.sampled_from([r for r in OPS.values() if r.tag is not None]))
    args = draw(BODY_ARGS[row.body])
    if row.name == "delete_range":
        # Validated frames (lo <= hi): generate ordered pairs; the
        # adversarial suite covers the inverted ones.
        args = tuple(sorted(args))
    return (row.name, *args)


REQUESTS = st.one_of(served_requests(), st.just(("ping",)))

RESPONSES = st.one_of(
    st.just(("ok",)),
    st.tuples(st.just("value"), VALUES),
    st.just(("miss",)),
    st.tuples(st.just("pairs"), st.lists(st.tuples(KEYS, VALUES), max_size=20)),
    st.just(("pong",)),
    st.tuples(st.just("error"), st.text(max_size=100)),
)


class TestRoundTrip:
    @given(op=REQUESTS, junk=st.integers(0, 255))
    def test_every_request_kind(self, op, junk):
        """Exact round trip, and the payload must be consumed exactly:
        every strict prefix and every one-byte extension is refused."""
        payload = split_payload(encode_request(op))
        assert decode_request(payload) == op
        for cut in range(len(payload)):
            with pytest.raises(ProtocolError):
                decode_request(payload[:cut])
        with pytest.raises(ProtocolError):
            decode_request(payload + bytes([junk]))

    @given(resp=RESPONSES)
    def test_every_response_kind(self, resp):
        decoded = decode_response(split_payload(encode_response(resp)))
        assert decoded == resp

    @given(ops=st.lists(REQUESTS, max_size=20), chunk=st.integers(1, 64))
    def test_frame_decoder_reassembles_any_chunking(self, ops, chunk):
        wire = b"".join(encode_request(op) for op in ops)
        decoder = FrameDecoder()
        payloads = []
        for start in range(0, len(wire), chunk):
            payloads.extend(decoder.feed(wire[start : start + chunk]))
        assert [decode_request(p) for p in payloads] == ops
        assert decoder.buffered == 0

    def test_put_without_delete_key_normalizes(self):
        wire = encode_request(("put", 7, b"x", None))
        assert decode_request(split_payload(wire)) == ("put", 7, b"x", None)


class TestAdversarial:
    def test_oversized_length_prefix_rejected_before_allocation(self):
        # 2 GiB announced; the decoder must refuse at header time — the
        # four header bytes are all it ever buffers.
        header = struct.pack("<I", 2**31)
        with pytest.raises(ProtocolError):
            parse_length(header)
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(header)
        assert decoder.buffered <= LENGTH_PREFIX_BYTES

    def test_zero_length_frame_rejected(self):
        with pytest.raises(ProtocolError):
            parse_length(struct.pack("<I", 0))
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(struct.pack("<I", 0))

    def test_frame_decoder_buffer_stays_bounded(self):
        decoder = FrameDecoder(max_frame=1024)
        # A stream of maximal legal frames: buffered bytes never exceed
        # prefix + one frame, no matter how much was fed.
        wire = (struct.pack("<I", 1024) + bytes(1024)) * 8
        for start in range(0, len(wire), 100):
            decoder.feed(wire[start : start + 100])
            assert decoder.buffered <= LENGTH_PREFIX_BYTES + 1024

    @given(tag=st.integers(0, 255), body=st.binary(max_size=64))
    @settings(max_examples=200)
    def test_garbage_tags_and_bodies_never_crash(self, tag, body):
        payload = bytes([tag]) + body
        for decode in (decode_request, decode_response):
            try:
                decode(payload)
            except ProtocolError:
                pass  # the only acceptable failure mode

    @given(resp=RESPONSES, junk=st.binary(min_size=1, max_size=16))
    def test_trailing_garbage_rejected(self, resp, junk):
        payload = split_payload(encode_response(resp))
        if resp[0] == "error":
            return  # error bodies are free-form text by design
        try:
            decoded = decode_response(payload + junk)
        except ProtocolError:
            return
        # VALUE frames carry an explicit length; junk beyond it must not
        # silently extend the value.
        assert decoded != resp or resp[0] in ("value",)

    def test_unknown_request_tag_names_the_tag(self):
        with pytest.raises(ProtocolError, match="0x7f"):
            decode_request(bytes([0x7F]) + b"junk")

    def test_retired_range_delete_tag_is_unknown(self):
        """0x04 carried the unvalidated ``range_delete``; it is retired,
        never reused, and a well-formed body does not bring it back."""
        with pytest.raises(ProtocolError, match="unknown request tag 0x04"):
            decode_request(bytes([0x04]) + struct.pack("<qq", 1, 5))
        assert 0x04 not in {row.tag for row in OPS.values()}

    def test_empty_payload_rejected(self):
        with pytest.raises(ProtocolError):
            decode_request(b"")
        with pytest.raises(ProtocolError):
            decode_response(b"")

    def test_frame_larger_than_limit_cannot_be_encoded(self):
        with pytest.raises(ProtocolError):
            frame(bytes(MAX_FRAME_BYTES + 1))

    @given(lo=KEYS, width=st.integers(1, 2**32))
    def test_inverted_delete_range_rejected_on_encode(self, lo, width):
        with pytest.raises(ProtocolError, match="delete_range"):
            encode_request(("delete_range", lo, lo - width))

    @given(lo=KEYS, width=st.integers(1, 2**32))
    def test_inverted_delete_range_raw_frame_rejected_on_decode(self, lo, width):
        """A hostile peer can still put lo > hi on the wire by writing
        the bytes directly; the decoder must refuse the frame."""
        payload = bytes([OPS["delete_range"].tag]) + struct.pack(
            "<qq", lo, lo - width
        )
        with pytest.raises(ProtocolError, match="delete_range"):
            decode_request(payload)

    def test_empty_delete_range_is_legal_on_the_wire(self):
        """lo == hi encodes the empty interval — a valid no-op frame."""
        wire = encode_request(("delete_range", 5, 5))
        assert decode_request(split_payload(wire)) == ("delete_range", 5, 5)


class TestServerClosesOnProtocolError:
    """The live-server half of the adversarial contract."""

    def test_garbage_stream_gets_error_frame_then_close(self, tiny_config):
        import socket

        from repro.net.protocol import decode_response as dr
        from repro.shard.engine import ShardedEngine
        from repro.net.server import LetheServer

        cluster = ShardedEngine(tiny_config, n_shards=2)
        try:
            with LetheServer(cluster) as server:
                with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=10
                ) as sock:
                    # Announce 512 MiB: the server must answer with an
                    # ERROR frame and hang up without allocating it.
                    sock.sendall(struct.pack("<I", 512 * 1024 * 1024))
                    chunks = b""
                    while True:
                        chunk = sock.recv(4096)
                        if not chunk:
                            break
                        chunks += chunk
                    length = parse_length(chunks[:LENGTH_PREFIX_BYTES])
                    response = dr(chunks[LENGTH_PREFIX_BYTES:][:length])
                    assert response[0] == "error"
                assert server.protocol_errors == 1
        finally:
            cluster.close()

    def test_valid_requests_before_garbage_still_answered(self, tiny_config):
        import socket

        from repro.net.client import LetheClient
        from repro.shard.engine import ShardedEngine
        from repro.net.server import LetheServer

        cluster = ShardedEngine(tiny_config, n_shards=2)
        try:
            with LetheServer(cluster) as server:
                with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=10
                ) as sock:
                    good = encode_request(("put", 5, b"kept", None))
                    bad = frame(bytes([0x7E]))  # unknown tag
                    sock.sendall(good + bad)
                    chunks = b""
                    while True:
                        chunk = sock.recv(4096)
                        if not chunk:
                            break
                        chunks += chunk
                # Two frames came back: OK for the put, ERROR for the
                # garbage — pipelined order holds right up to the close.
                decoder = FrameDecoder()
                frames = decoder.feed(chunks)
                assert [decode_response(p)[0] for p in frames] == ["ok", "error"]
                # ...and the put really landed.
                with LetheClient("127.0.0.1", server.port) as client:
                    assert client.get(5) == b"kept"
        finally:
            cluster.close()

    def test_inverted_delete_range_frame_gets_error_then_close(
        self, tiny_config
    ):
        """A raw lo > hi DELETE_RANGE frame — unbuildable through the
        client codec — reaches the server's decoder and must be answered
        with ERROR and a hang-up, leaving earlier writes intact."""
        import socket

        from repro.net.client import LetheClient
        from repro.net.server import LetheServer
        from repro.shard.engine import ShardedEngine

        cluster = ShardedEngine(tiny_config, n_shards=2)
        try:
            with LetheServer(cluster) as server:
                with LetheClient("127.0.0.1", server.port) as client:
                    client.put(1, b"one")
                    client.put(2, b"two")
                    client.delete_range(2, 9)  # the valid spelling works
                with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=10
                ) as sock:
                    body = bytes([OPS["delete_range"].tag]) + struct.pack(
                        "<qq", 9, 2
                    )
                    sock.sendall(frame(body))
                    chunks = b""
                    while True:
                        chunk = sock.recv(4096)
                        if not chunk:
                            break
                        chunks += chunk
                    length = parse_length(chunks[:LENGTH_PREFIX_BYTES])
                    response = decode_response(
                        chunks[LENGTH_PREFIX_BYTES:][:length]
                    )
                    assert response[0] == "error"
                    assert "delete_range" in response[1]
                assert server.protocol_errors == 1
                with LetheClient("127.0.0.1", server.port) as client:
                    assert client.get(1) == b"one"
                    assert client.get(2) is None  # the valid delete held
        finally:
            cluster.close()
