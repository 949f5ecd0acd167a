"""End-to-end serving-layer tests: ordering, concurrency, backpressure,
and clean shutdown.

These drive a real :class:`LetheServer` over loopback sockets — no
mocked transports — because the properties under test (pipelined
response order, TCP-level backpressure, thread hygiene) live exactly at
the socket boundary.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading
import time

import pytest

from repro.core.config import EngineConfig
from repro.core.ops import OPS
from repro.net import AsyncLetheClient, ClientPool, LetheClient, LetheServer
from repro.net.protocol import FrameDecoder, decode_response, encode_request, frame
from repro.obs import reset_global_tracer
from repro.shard.engine import ShardedEngine
from repro.shard.partitioner import RangePartitioner

from tests.conftest import TINY


def tiny_cluster(**kwargs) -> ShardedEngine:
    defaults = dict(n_shards=3, ingest_queue_depth=4)
    defaults.update(kwargs)
    return ShardedEngine(EngineConfig(**TINY), **defaults)


def surface(cluster: ShardedEngine) -> list[tuple]:
    return cluster.scan(-(10**9), 10**9)


@pytest.fixture
def cluster():
    cluster = tiny_cluster()
    yield cluster
    cluster.close()


class TestPipelinedOrdering:
    def test_responses_match_request_order_on_one_connection(self, cluster):
        with LetheServer(cluster) as server:
            with LetheClient("127.0.0.1", server.port) as client:
                ops = []
                expected = []
                # Interleave writes and reads of the same keys: only
                # strict in-order application can produce this result
                # vector.
                for k in range(30):
                    ops.append(("put", k, b"a%d" % k, None))
                    expected.append(None)
                    ops.append(("get", k))
                    expected.append(b"a%d" % k)
                    ops.append(("put", k, b"b%d" % k, None))
                    expected.append(None)
                    ops.append(("get", k))
                    expected.append(b"b%d" % k)
                    if k % 3 == 0:
                        ops.append(("delete", k))
                        expected.append(None)
                        ops.append(("get", k))
                        expected.append(None)
                assert client.execute(ops) == expected

    def test_scan_sees_every_earlier_pipelined_write(self, cluster):
        with LetheServer(cluster) as server:
            with LetheClient("127.0.0.1", server.port) as client:
                ops = [("put", k, b"v", None) for k in range(40)]
                ops.append(("scan", 0, 39))
                results = client.execute(ops)
                assert [k for k, _ in results[-1]] == list(range(40))


class TestConcurrentClients:
    N_CLIENTS = 8
    KEYS = 240

    def _operations_for(self, client_id: int) -> list[tuple]:
        # Each client owns a disjoint key slice, so per-key order is
        # preserved no matter how the server interleaves connections.
        ops = []
        for k in range(client_id, self.KEYS, self.N_CLIENTS):
            ops.append(("put", k, b"first-%d" % k, k % 17))
            ops.append(("put", k, b"final-%d" % k, k % 17))
            if k % 5 == 0:
                ops.append(("delete", k))
        return ops

    def _reference_surface(self) -> list[tuple]:
        reference = tiny_cluster()
        try:
            for client_id in range(self.N_CLIENTS):
                reference.ingest(self._operations_for(client_id))
            return surface(reference)
        finally:
            reference.close()

    def test_threaded_clients_match_in_process_ingest(self, cluster):
        errors = []
        with LetheServer(cluster) as server:
            with ClientPool("127.0.0.1", server.port, size=self.N_CLIENTS) as pool:

                def run(client_id: int) -> None:
                    try:
                        with pool.connection() as client:
                            client.execute(self._operations_for(client_id))
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)

                threads = [
                    threading.Thread(target=run, args=(i,))
                    for i in range(self.N_CLIENTS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        assert not errors
        assert surface(cluster) == self._reference_surface()

    def test_async_clients_match_in_process_ingest(self, cluster):
        async def drive() -> None:
            clients = [
                await AsyncLetheClient.connect("127.0.0.1", server.port)
                for _ in range(self.N_CLIENTS)
            ]

            async def run(client_id: int) -> None:
                client = clients[client_id]
                futures = [
                    await client.submit(op)
                    for op in self._operations_for(client_id)
                ]
                await asyncio.gather(*futures)

            try:
                await asyncio.gather(*[run(i) for i in range(self.N_CLIENTS)])
            finally:
                for client in clients:
                    await client.close()

        with LetheServer(cluster) as server:
            asyncio.run(drive())
        assert surface(cluster) == self._reference_surface()


class TestManyConcurrentClients(TestConcurrentClients):
    """The same contract at fan-in scale: over a hundred connections
    pipelining at one server at once."""

    N_CLIENTS = 128
    KEYS = 1024


class TestServerObservability:
    def test_every_request_is_timed_and_traced(self):
        """With observability on, the request-latency histogram counts
        every request the server parsed, and parsing and dispatch leave
        spans in the trace ring."""
        reset_global_tracer()
        cluster = ShardedEngine(
            EngineConfig(**TINY, observability=True, obs_sample_interval_ms=0.0),
            n_shards=3,
            ingest_queue_depth=4,
        )
        try:
            with LetheServer(cluster) as server:
                with LetheClient("127.0.0.1", server.port) as client:
                    client.execute(
                        [("put", k, b"v%d" % k, None) for k in range(50)]
                    )
                    for k in range(10):
                        assert client.get(k) == b"v%d" % k
                assert server.requests_received == 60
                assert server.request_latency.count == server.requests_received
            names = {event["name"] for event in cluster.obs.tracer.events()}
            assert {"net:parse", "net:dispatch"} <= names, names
        finally:
            cluster.close()


class TestBackpressure:
    def test_stalled_engine_suspends_socket_reads(self, cluster):
        """With the engine wedged, the server must stop *reading*, not
        buffer: parsed-request count stays inside the in-flight window
        while thousands of requests sit unread in the socket."""
        window, batch_max = 8, 4
        flood = 1500
        with LetheServer(
            cluster, inflight_window=window, batch_max=batch_max
        ) as server:
            wire = b"".join(
                encode_request(("put", k, b"x" * 32, None)) for k in range(flood)
            )
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=30
            ) as sock:
                # Wedge every engine operation: the topology gate held
                # exclusively blocks all dispatch, exactly like a
                # write-stall (scheduler.throttle) blocking the batch
                # worker — but deterministic.
                gate = cluster._gate.exclusive()
                gate.__enter__()
                try:
                    sender = threading.Thread(
                        target=lambda: sock.sendall(wire), daemon=True
                    )
                    sender.start()
                    # Wait for the parsed-request count to stop moving —
                    # a real quiescence window over a real socket.
                    last, stable_since = -1, time.monotonic()  # lint: allow(deterministic-clock)
                    while time.monotonic() - stable_since < 0.5:  # lint: allow(deterministic-clock)
                        now = server.requests_received
                        if now != last:
                            last, stable_since = now, time.monotonic()  # lint: allow(deterministic-clock)
                        time.sleep(0.02)
                    # window queued + one batch in dispatch + the one
                    # blocked in queue.put + one carry. Everything else
                    # stays in kernel socket buffers, unread — asyncio's
                    # own stream buffer is capped (64 KiB), so bounded
                    # parsed-count here means bounded server memory.
                    bound = window + batch_max + 2
                    assert server.requests_received <= bound
                finally:
                    gate.__exit__(None, None, None)
                # Released: everything drains and every write acks.
                sender.join(timeout=60)
                assert not sender.is_alive()
                sock.settimeout(60)
                from repro.net.protocol import FrameDecoder, decode_response

                decoder = FrameDecoder()
                responses = []
                while len(responses) < flood:
                    chunk = sock.recv(1 << 16)
                    assert chunk, "server closed before all acks"
                    for payload in decoder.feed(chunk):
                        responses.append(decode_response(payload))
                assert all(r == ("ok",) for r in responses)
        assert cluster.get(flood - 1) == b"x" * 32


def _wait_until(predicate, what: str) -> None:
    for _ in range(2000):
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out waiting for {what}")


def _read_responses(sock: socket.socket, count: int | None = None) -> list[tuple]:
    """Decode responses until ``count`` arrived (or, with ``None``, until
    the server hangs up)."""
    decoder = FrameDecoder()
    responses = []
    while count is None or len(responses) < count:
        chunk = sock.recv(1 << 16)
        if not chunk:
            assert count is None, "server closed before every response"
            break
        responses.extend(decode_response(p) for p in decoder.feed(chunk))
    return responses


def _count_pool_calls(server: LetheServer, monkeypatch) -> list:
    """Record every call the server hands its dispatch pool."""
    calls = []
    submit = server._pool.submit

    def counting(fn, *args, **kwargs):
        calls.append(fn)
        return submit(fn, *args, **kwargs)

    monkeypatch.setattr(server._pool, "submit", counting)
    return calls


class TestWindowDrain:
    """Each dispatcher wake-up drains the whole window: one pool call and
    (on durable clusters) one sync per drain, responses in request order,
    each read after every earlier write of its window."""

    def _one_window(self, server, cluster, sock, calls, ops) -> list[tuple]:
        """Apply ``ops`` as one drained window and return their responses.

        A get sent first, with every engine call wedged on the topology
        gate, holds the dispatcher in the pool while ``ops`` are parsed
        into the window behind it; releasing the gate lets the next
        drain take them all at once.
        """
        parsed = server.requests_received
        with cluster._gate.exclusive():
            sock.sendall(encode_request(("get", -1)))
            _wait_until(lambda: len(calls) == 1, "the wedged pool call")
            sock.sendall(b"".join(encode_request(op) for op in ops))
            _wait_until(
                lambda: server.requests_received == parsed + 1 + len(ops),
                "the window to fill",
            )
        responses = _read_responses(sock, 1 + len(ops))
        assert responses[0] == ("miss",)
        return responses[1:]

    def test_mixed_window_is_one_pool_call_answered_in_order(
        self, cluster, monkeypatch
    ):
        ops = [
            ("put", 1, b"one", None),
            ("get", 1),
            ("put", 2, b"two", None),
            ("put", 3, b"three", None),
            ("scan", 0, 9),
            ("delete", 2),
            ("get", 2),
            ("ping",),
            ("scan", 0, 9),
            ("put", 2, b"again", None),
            ("get", 2),
            ("get", 3),
        ]
        expected = [
            ("ok",),
            ("value", b"one"),
            ("ok",),
            ("ok",),
            ("pairs", [(1, b"one"), (2, b"two"), (3, b"three")]),
            ("ok",),
            ("miss",),
            ("pong",),
            ("pairs", [(1, b"one"), (3, b"three")]),
            ("ok",),
            ("value", b"again"),
            ("value", b"three"),
        ]
        with LetheServer(cluster) as server:
            calls = _count_pool_calls(server, monkeypatch)
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=30
            ) as sock:
                assert self._one_window(
                    server, cluster, sock, calls, ops
                ) == expected
            assert len(calls) == 2  # the wedged get, then the whole window

    def test_flood_costs_one_pool_call_per_window(self, cluster, monkeypatch):
        window, flood = 8, 400
        ops = []
        for k in range(flood // 2):
            ops += [("put", k, b"v%d" % k, None), ("get", k)]
        with LetheServer(cluster, inflight_window=window) as server:
            calls = _count_pool_calls(server, monkeypatch)
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=30
            ) as sock:
                with cluster._gate.exclusive():
                    sender = threading.Thread(
                        target=lambda: sock.sendall(
                            b"".join(encode_request(op) for op in ops)
                        ),
                        daemon=True,
                    )
                    sender.start()
                    _wait_until(
                        lambda: server.requests_received >= 2 * window,
                        "the window to fill",
                    )
                responses = _read_responses(sock, flood)
                sender.join(timeout=30)
                assert not sender.is_alive()
        assert responses == [
            ("ok",) if op[0] == "put" else ("value", b"v%d" % op[1])
            for op in ops
        ]
        assert len(calls) <= -(-flood // window) + 2

    def test_failed_sync_errors_every_write_of_its_window(
        self, cluster, monkeypatch
    ):
        failures = ["injected sync failure"]
        original_sync = cluster.sync

        def sync_failing_once():
            if failures:
                raise OSError(failures.pop())
            original_sync()

        monkeypatch.setattr(cluster, "sync", sync_failing_once)
        ops = [
            ("put", 1, b"one", None),
            ("get", 1),
            ("delete", 1),
            ("put", 2, b"two", None),
            ("get", 2),
        ]
        with LetheServer(cluster, sync_writes=True) as server:
            calls = _count_pool_calls(server, monkeypatch)
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=30
            ) as sock:
                responses = self._one_window(server, cluster, sock, calls, ops)
                error = ("error", "OSError: injected sync failure")
                assert responses == [
                    error, ("value", b"one"), error, error, ("value", b"two"),
                ]
                assert not failures
                # The next window syncs and acks normally.
                sock.sendall(
                    encode_request(("put", 3, b"three", None))
                    + encode_request(("get", 3))
                )
                assert _read_responses(sock, 2) == [
                    ("ok",), ("value", b"three"),
                ]

    def test_protocol_error_after_pipelined_requests_comes_last(self, cluster):
        ops = []
        for k in range(10):
            ops += [("put", k, b"v%d" % k, None), ("get", k)]
        with LetheServer(cluster) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=30
            ) as sock:
                sock.sendall(
                    b"".join(encode_request(op) for op in ops)
                    + frame(bytes([0x04]) + struct.pack("<qq", 1, 2))
                )
                responses = _read_responses(sock)
            assert server.protocol_errors == 1
        assert responses[:-1] == [
            ("ok",) if op[0] == "put" else ("value", b"v%d" % op[1])
            for op in ops
        ]
        assert responses[-1][0] == "error"


class TestBadRangeDeleteFrames:
    """An inverted range delete from the wire costs its sender an error
    frame and nothing else. Before tag 0x04 was retired such a frame was
    decoded unchecked, raised on the shard worker of any cluster that
    maps the interval to one shard, and the ingest queue's sticky error
    then failed every later write from every connection."""

    @pytest.mark.parametrize(
        "topology",
        [dict(n_shards=1), dict(n_shards=None, partitioner=RangePartitioner([100]))],
        ids=["one-shard-hash", "range-split-at-100"],
    )
    def test_only_the_sending_connection_pays(self, topology):
        cluster = tiny_cluster(**topology)
        server = LetheServer(cluster).start()
        try:
            # Hand-built frames: the client codec refuses to encode these.
            for tag in (0x04, OPS["delete_range"].tag):
                with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=10
                ) as sock:
                    sock.sendall(frame(bytes([tag]) + struct.pack("<qq", 9, 5)))
                    received = b""
                    while chunk := sock.recv(4096):  # until the hang-up
                        received += chunk
                answers = [
                    decode_response(payload)[0]
                    for payload in FrameDecoder().feed(received)
                ]
                assert answers == ["error"]
            with LetheClient("127.0.0.1", server.port) as other:
                other.put(2, b"two")
                other.put(150, b"far")
                assert other.get(2) == b"two"
                other.delete_range(1, 3)
                other.delete_range(4, 4)
                assert other.get(2) is None
                assert other.get(150) == b"far"
            assert server.protocol_errors == 2
        finally:
            server.stop()  # re-raises a poisoned session's error
            cluster.close()


class TestShutdownHygiene:
    SERVING_THREADS = ("net-server", "net-dispatch", "ingest-shard")

    def _serving_threads(self) -> list[str]:
        return [
            t.name
            for t in threading.enumerate()
            if t.name.startswith(self.SERVING_THREADS)
        ]

    def test_stop_leaves_no_threads_or_tasks(self, cluster):
        server = LetheServer(cluster).start()
        with LetheClient("127.0.0.1", server.port) as client:
            client.execute(
                [("put", k, b"v", None) for k in range(50)] + [("flush",)]
            )
            assert self._serving_threads()  # sanity: they exist while up
            server.stop()  # stop with the client still connected
        assert self._serving_threads() == []
        # The cluster survives its server and still answers in-process.
        assert cluster.get(0) == b"v"

    def test_stop_is_idempotent_and_restartable_cluster_close(self):
        cluster = tiny_cluster()
        server = LetheServer(cluster).start()
        server.stop()
        server.stop()
        cluster.close()
        assert self._serving_threads() == []
        assert not any(
            t.name == "obs-sampler" for t in threading.enumerate()
        )

    def test_cluster_close_is_exception_safe(self, monkeypatch):
        """A failing member close must not leak the other members or
        the cluster-owned background scheduler's threads."""
        cluster = tiny_cluster(scheduler="background")
        workers = list(cluster.scheduler._threads)
        assert workers and all(t.is_alive() for t in workers)
        closed = []
        shard0 = cluster.shards[0]
        original_close = type(shard0).close

        def failing_close(self):
            if self is shard0:
                raise RuntimeError("injected close failure")
            closed.append(self)
            original_close(self)

        monkeypatch.setattr(type(shard0), "close", failing_close)
        with pytest.raises(RuntimeError, match="injected close failure"):
            cluster.close()
        # Every *other* member still closed, and no worker thread leaks.
        assert len(closed) == cluster.n_shards - 1
        monkeypatch.undo()
        shard0.close()
        assert not [t.name for t in workers if t.is_alive()]


class TestIngestSession:
    def test_session_submits_are_ordered_and_awaitable(self, cluster):
        with cluster.ingest_session() as session:
            first = session.submit(
                [("put", k, b"one", None) for k in range(20)]
            )
            second = session.submit(
                [("put", k, b"two", None) for k in range(20)]
            )
            second.wait(timeout=30)
            first.wait(timeout=30)
        assert all(cluster.get(k) == b"two" for k in range(20))

    def test_session_barrier_drains_before_running(self, cluster):
        with cluster.ingest_session() as session:
            session.submit(
                [("put", k, b"v", None) for k in range(30)]
                + [("scan", 0, 29)]  # barrier: must see all 30
            )
        assert len(surface(cluster)) == 30

    def test_ticket_reports_handler_failure(self, cluster, monkeypatch):
        original = type(cluster)._apply_batch

        def exploding(self, routed, index, batch_ops):
            if any(op[1] == 666 for op in batch_ops):
                raise RuntimeError("injected batch failure")
            return original(self, routed, index, batch_ops)

        monkeypatch.setattr(type(cluster), "_apply_batch", exploding)
        with cluster.ingest_session() as session:
            good = session.submit([("put", 1, b"ok", None)])
            good.wait(timeout=30)
            bad = session.submit([("put", 666, b"boom", None)])
            with pytest.raises(RuntimeError, match="injected batch failure"):
                bad.wait(timeout=30)
            session.abort()  # the failed shard lane stays poisoned
        assert cluster.get(1) == b"ok"
