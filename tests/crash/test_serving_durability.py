"""Crash durability at the network boundary.

PR 4's acknowledged-prefix oracle, lifted to the serving layer: a client
pipelines writes at a durable cluster, the server is killed mid-stream
(``LetheServer.abort()`` — queued batches dropped, stores left exactly
as a process kill would), and the store is reopened. The contract at the
ack boundary:

* every write the client saw an ``OK`` for is recovered — the server
  syncs the cluster WAL before acknowledging, so group-commit batching
  can never lose an acked write;
* an *unacknowledged* write may have landed (it was in flight) or not,
  but if present it is intact — never torn, never reordered against the
  acked prefix of its key.

Each operation uses a distinct key and value, so the oracle is a simple
per-key membership check rather than a sequence prefix match.
"""

from __future__ import annotations

import socket
import tempfile

import pytest

from repro.core.config import lethe_config
from repro.net.protocol import (
    LENGTH_PREFIX_BYTES,
    decode_response,
    encode_request,
    parse_length,
)
from repro.net.server import LetheServer
from repro.shard.engine import ShardedEngine

from tests.conftest import TINY

FLAVOURS = [
    ("every_op", {}),
    ("group4", {"wal_commit_policy": "group(4)"}),
]

TOTAL_OPS = 120


def durable_config(**overrides):
    return lethe_config(0.5, delete_tile_pages=4, **{**TINY, **overrides})


def value_for(i: int) -> bytes:
    return b"value-%04d" % i


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("closed")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def stream_and_kill(tmp: str, config_overrides: dict, kill_after: int) -> int:
    """Pipeline TOTAL_OPS puts, abort the server after ``kill_after``
    acks, and return how many acks the client actually observed."""
    cluster = ShardedEngine(
        durable_config(**config_overrides),
        n_shards=2,
        ingest_queue_depth=4,
        store_path=tmp,
    )
    server = LetheServer(cluster, batch_max=8).start()
    acked = 0
    try:
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=30
        ) as sock:
            sock.sendall(
                b"".join(
                    encode_request(("put", i, value_for(i), i % 13))
                    for i in range(TOTAL_OPS)
                )
            )
            while acked < kill_after:
                try:
                    header = _recv_exact(sock, LENGTH_PREFIX_BYTES)
                    payload = _recv_exact(sock, parse_length(header))
                except (ConnectionError, socket.timeout):
                    break
                response = decode_response(payload)
                assert response == ("ok",), f"ack {acked} was {response!r}"
                acked += 1
    finally:
        # The kill: loop torn down, queued-but-unapplied batches
        # dropped, member stores NOT closed and NOT drained.
        server.abort()
    return acked


@pytest.mark.parametrize("name,config_overrides", FLAVOURS)
@pytest.mark.parametrize("kill_after", [1, 17, 60, 111])
def test_acknowledged_writes_survive_server_kill(
    name, config_overrides, kill_after
):
    with tempfile.TemporaryDirectory() as tmp:
        acked = stream_and_kill(tmp, config_overrides, kill_after)
        assert acked >= min(kill_after, 1), f"[{name}] no writes acked"
        recovered = ShardedEngine.open(tmp)
        try:
            for i in range(acked):
                got = recovered.get(i)
                assert got == value_for(i), (
                    f"[{name}@{kill_after}] acked write {i} lost or torn: "
                    f"{got!r}"
                )
            for i in range(acked, TOTAL_OPS):
                got = recovered.get(i)
                assert got in (None, value_for(i)), (
                    f"[{name}@{kill_after}] unacked write {i} recovered "
                    f"torn: {got!r}"
                )
        finally:
            recovered.close()


def mixed_stream() -> list[tuple[tuple, tuple]]:
    """TOTAL_OPS puts, each third one followed by a get of an earlier key
    and each fifth by a get of a key not yet written, paired with the
    reply the dict model gives at that position."""
    stream = []
    for i in range(TOTAL_OPS):
        stream.append((("put", i, value_for(i), i % 13), ("ok",)))
        if i % 3 == 2:
            stream.append((("get", i - 2), ("value", value_for(i - 2))))
        if i % 5 == 4:
            stream.append((("get", i + 1), ("miss",)))
    return stream


@pytest.mark.parametrize("name,config_overrides", FLAVOURS)
@pytest.mark.parametrize("kill_after", [1, 17, 60, 111])
def test_mixed_windows_survive_server_kill(name, config_overrides, kill_after):
    """Pipelined puts interleaved with gets, so the server drains windows
    that mix write runs and reads: every reply the client saw equals the
    model at its position, and every acked put survives the kill."""
    stream = mixed_stream()
    with tempfile.TemporaryDirectory() as tmp:
        cluster = ShardedEngine(
            durable_config(**config_overrides),
            n_shards=2,
            ingest_queue_depth=4,
            store_path=tmp,
        )
        server = LetheServer(cluster, batch_max=8).start()
        replies = []
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=30
            ) as sock:
                sock.sendall(b"".join(encode_request(op) for op, _ in stream))
                while len(replies) < kill_after:
                    try:
                        header = _recv_exact(sock, LENGTH_PREFIX_BYTES)
                        payload = _recv_exact(sock, parse_length(header))
                    except (ConnectionError, socket.timeout):
                        break
                    replies.append(decode_response(payload))
        finally:
            server.abort()
        assert len(replies) >= min(kill_after, 1), f"[{name}] no replies"
        for position, reply in enumerate(replies):
            op, model = stream[position]
            assert reply == model, (
                f"[{name}@{kill_after}] reply {position} to {op[:2]} was "
                f"{reply!r}, model {model!r}"
            )
        acked = {op[1] for (op, _), _ in zip(stream, replies) if op[0] == "put"}
        recovered = ShardedEngine.open(tmp)
        try:
            for i in range(TOTAL_OPS):
                got = recovered.get(i)
                if i in acked:
                    assert got == value_for(i), (
                        f"[{name}@{kill_after}] acked put {i} lost or torn: "
                        f"{got!r}"
                    )
                else:
                    assert got in (None, value_for(i)), (
                        f"[{name}@{kill_after}] unacked put {i} recovered "
                        f"torn: {got!r}"
                    )
        finally:
            recovered.close()


DR_LO, DR_HI = 10, 30
DR_PRELOAD = 40       # puts 0..39 precede the range delete
DR_TAIL_BASE = 50     # unacked tail keys stay clear of the deleted span


def rangedel_stream() -> list[tuple]:
    """Puts, one mid-stream ``delete_range``, then a disjoint tail."""
    ops: list[tuple] = [
        ("put", i, value_for(i), i % 13) for i in range(DR_PRELOAD)
    ]
    ops.append(("delete_range", DR_LO, DR_HI))
    ops.extend(
        ("put", DR_TAIL_BASE + i, value_for(DR_TAIL_BASE + i), None)
        for i in range(40)
    )
    return ops


def stream_ops_and_kill(tmp: str, config_overrides: dict,
                        ops: list[tuple], kill_after: int) -> int:
    """Pipeline ``ops``, abort the server after ``kill_after`` acks."""
    cluster = ShardedEngine(
        durable_config(**config_overrides),
        n_shards=2,
        ingest_queue_depth=4,
        store_path=tmp,
    )
    server = LetheServer(cluster, batch_max=8).start()
    acked = 0
    try:
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=30
        ) as sock:
            sock.sendall(b"".join(encode_request(op) for op in ops))
            while acked < kill_after:
                try:
                    header = _recv_exact(sock, LENGTH_PREFIX_BYTES)
                    payload = _recv_exact(sock, parse_length(header))
                except (ConnectionError, socket.timeout):
                    break
                response = decode_response(payload)
                assert response == ("ok",), f"ack {acked} was {response!r}"
                acked += 1
    finally:
        server.abort()
    return acked


@pytest.mark.parametrize("name,config_overrides", FLAVOURS)
def test_acked_range_delete_survives_server_kill(name, config_overrides):
    """Kill the server right after the ``delete_range`` ack: the single
    range tombstone is an acknowledged write like any other, so recovery
    must show the whole span deleted — never a partially deleted range,
    never a resurrected key."""
    ops = rangedel_stream()
    kill_after = DR_PRELOAD + 1  # the delete_range ack is the last one
    with tempfile.TemporaryDirectory() as tmp:
        acked = stream_ops_and_kill(tmp, config_overrides, ops, kill_after)
        assert acked >= kill_after, f"[{name}] stream died before the ack"
        recovered = ShardedEngine.open(tmp)
        try:
            for i in range(DR_PRELOAD):
                got = recovered.get(i)
                if DR_LO <= i < DR_HI:
                    assert got is None, (
                        f"[{name}] key {i} survived an acked delete_range"
                    )
                else:
                    assert got == value_for(i), (
                        f"[{name}] acked put {i} lost or torn: {got!r}"
                    )
            # Unacked tail writes may or may not have landed — whole only.
            for i in range(40):
                key = DR_TAIL_BASE + i
                assert recovered.get(key) in (None, value_for(key))
        finally:
            recovered.close()


def test_unsynced_server_can_lose_acked_writes_documenting_why_sync_matters():
    """Control experiment: with ``sync_writes=False`` under a batched
    commit policy the same kill *may* lose acked writes — the forced
    sync before the ack is what turns the OK frame into a durability
    boundary. (May, not must: a batch boundary can land anywhere, so
    this only asserts recovery yields a clean prefix-or-present state.)
    """
    with tempfile.TemporaryDirectory() as tmp:
        cluster = ShardedEngine(
            durable_config(wal_commit_policy="group(16)"),
            n_shards=2,
            ingest_queue_depth=4,
            store_path=tmp,
        )
        server = LetheServer(cluster, batch_max=8, sync_writes=False).start()
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=30
            ) as sock:
                sock.sendall(
                    b"".join(
                        encode_request(("put", i, value_for(i), None))
                        for i in range(TOTAL_OPS)
                    )
                )
                for _ in range(TOTAL_OPS):
                    header = _recv_exact(sock, LENGTH_PREFIX_BYTES)
                    decode_response(
                        _recv_exact(sock, parse_length(header))
                    )
        finally:
            server.abort()
        recovered = ShardedEngine.open(tmp)
        try:
            # No torn values, ever — only whole writes may be missing.
            for i in range(TOTAL_OPS):
                assert recovered.get(i) in (None, value_for(i))
        finally:
            recovered.close()


def test_clean_stop_then_close_loses_nothing():
    """The graceful path: stop() drains the shared session, close()
    drains the WAL — every acked write and every in-flight write that
    got applied is present after reopen."""
    with tempfile.TemporaryDirectory() as tmp:
        cluster = ShardedEngine(
            durable_config(wal_commit_policy="group(4)"),
            n_shards=2,
            ingest_queue_depth=4,
            store_path=tmp,
        )
        from repro.net.client import LetheClient

        with LetheServer(cluster) as server:
            with LetheClient("127.0.0.1", server.port) as client:
                client.execute(
                    [("put", i, value_for(i), None) for i in range(60)]
                )
        cluster.close()
        recovered = ShardedEngine.open(tmp)
        try:
            for i in range(60):
                assert recovered.get(i) == value_for(i)
        finally:
            recovered.close()
