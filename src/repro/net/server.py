"""Asyncio socket server exposing a :class:`ShardedEngine` cluster.

Architecture (one connection, left to right)::

    socket ── reader task ──> bounded queue ──> dispatcher task ──> socket
               (parse)       (in-flight window)   (apply + respond)

* **Pipelining** — clients may send many requests before reading any
  response; each connection's dispatcher applies them strictly in
  arrival order and writes responses in that same order, so a client can
  match responses to requests positionally (the Redis pipelining
  contract).

* **Backpressure** — the queue between reader and dispatcher is bounded
  (``inflight_window``). When the engine stalls a write (the PR 5
  write-stall policy blocks inside the dispatch thread), the dispatcher
  stops draining, the window fills, the reader task blocks in
  ``queue.put`` and therefore stops reading the socket — the kernel's
  TCP window then pushes the stall back to the client. A slow shard
  costs bounded server memory per connection, never an unbounded
  buffer.

* **Batched hand-off** — consecutive write requests already waiting in
  the window are grouped (up to ``batch_max``) into a single
  :meth:`~repro.shard.engine.IngestSession.submit`, so a pipelined
  write burst reaches the member engines as router-batched ingest
  instead of one engine call per request. All connections share one
  :class:`~repro.shard.engine.IngestSession` (one bounded per-shard
  pipeline for the whole server).

* **Durability at the ack boundary** — on durable clusters (built with
  ``store_path``) the server forces a cluster-wide WAL sync after
  applying a write batch and *before* acknowledging it, so an ``OK``
  the client has seen is recoverable after a crash. See
  ``tests/crash/test_serving_durability.py``.

Blocking engine calls run on a private thread pool (``net-dispatch-*``
threads) via ``run_in_executor``; the event loop itself never touches
the engine. The loop runs on one dedicated ``net-server`` thread so the
server embeds in synchronous tests and benchmarks.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Any

from repro.core.ops import OPS, SERVED
from repro.net.protocol import (
    LENGTH_PREFIX_BYTES,
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_request,
    encode_response,
    parse_length,
)

# Request kinds that flow through the shared ingest session: the served
# operations that are acknowledged rather than answered (everything the
# router can put in a stream without needing a value back).
_WRITE_KINDS = frozenset(
    row.name for row in SERVED.values() if row.reply == "ok"
)

_EOF = ("__eof__",)


class LetheServer:
    """Serve a :class:`~repro.shard.engine.ShardedEngine` over TCP.

    Parameters
    ----------
    cluster:
        The engine to expose. The server does not own it: ``stop()``
        leaves the cluster open (callers close it), and ``abort()``
        leaves it exactly as a crash would.
    host, port:
        Bind address; port 0 picks a free port (read ``server.port``
        after ``start()``).
    inflight_window:
        Per-connection bound on parsed-but-unanswered requests. This is
        the backpressure knob: the reader stops reading the socket once
        the window is full.
    batch_max:
        Maximum consecutive write requests folded into one ingest
        submit.
    dispatch_workers:
        Threads applying engine calls. Defaults to ``n_shards + 2``.
    sync_writes:
        Force a cluster WAL sync before acknowledging writes. Defaults
        to ``True`` iff the cluster is durable (``store_path`` set).
    """

    def __init__(
        self,
        cluster,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        inflight_window: int = 32,
        batch_max: int = 64,
        dispatch_workers: int | None = None,
        sync_writes: bool | None = None,
        max_frame: int = MAX_FRAME_BYTES,
    ):
        if inflight_window < 1:
            raise ValueError(f"inflight_window must be >= 1, got {inflight_window}")
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        self.cluster = cluster
        self.host = host
        self.port = port
        self.inflight_window = inflight_window
        self.batch_max = batch_max
        self.max_frame = max_frame
        self._sync_writes = (
            sync_writes
            if sync_writes is not None
            else cluster.store_path is not None
        )
        workers = dispatch_workers or cluster.n_shards + 2
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="net-dispatch"
        )
        self._session = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._aborted = False
        # Counters (written from the loop thread / pool threads; reads
        # are monitoring-only).
        self.connections_accepted = 0
        self.requests_received = 0
        self.requests_completed = 0
        self.write_batches = 0
        self.protocol_errors = 0
        obs = cluster.obs
        self._obs = obs
        self.request_latency = obs.registry.histogram(
            "net_request_latency_seconds"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "LetheServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._session = self.cluster.ingest_session()
        self._thread = threading.Thread(
            target=self._run_loop, name="net-server", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join()
            self._thread = None
            self._session.close()
            raise error
        return self

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, drop connections, drain
        the shared ingest session. The cluster stays open."""
        if self._thread is None:
            return
        assert self._loop is not None and self._stop_event is not None
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join()
        self._thread = None
        self._pool.shutdown(wait=True)
        if not self._aborted:
            self._session.close()

    def abort(self) -> None:
        """Crash-style shutdown for fault-injection tests.

        Discards queued-but-unacknowledged write batches (their clients
        never got an OK), kills the loop, and leaves the cluster's
        stores exactly as a process kill would: open, un-drained, with
        only what already reached the WAL.
        """
        if self._thread is None:
            return
        self._aborted = True
        self._session.abort()
        assert self._loop is not None and self._stop_event is not None
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join()
        self._thread = None
        # Waiting is safe: the session abort already failed every
        # ticket, so no dispatch thread can still be blocked — and it
        # must finish before a crash test reopens the store files.
        self._pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "LetheServer":
        return self.start()

    def __exit__(self, *_exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Event loop plumbing
    # ------------------------------------------------------------------

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()
            elif not self._aborted:
                raise
        finally:
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    # ------------------------------------------------------------------
    # Per-connection tasks
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self.connections_accepted += 1
        if self._obs.enabled:
            with self._obs.tracer.span(
                "net:accept", connection=self.connections_accepted
            ):
                pass
        window: asyncio.Queue = asyncio.Queue(maxsize=self.inflight_window)
        dispatcher = asyncio.ensure_future(self._dispatch(window, writer))
        try:
            await self._read_frames(reader, window)
            await dispatcher
        except asyncio.CancelledError:
            # Server shutdown cancelled us; finish cleanly — the streams
            # module inspects this task's result once the transport
            # drops, and an unconsumed cancellation shows up as a
            # spurious "Exception in callback" log line.
            task.uncancel()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            if not dispatcher.done():
                dispatcher.cancel()
                try:
                    await dispatcher
                except (asyncio.CancelledError, Exception):
                    pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._conn_tasks.discard(task)

    async def _read_frames(self, reader, window: asyncio.Queue) -> None:
        """Parse frames into the in-flight window until EOF or error.

        ``window.put`` blocking is the whole backpressure story: while
        the dispatcher is wedged behind a stalled shard, this coroutine
        stops pulling bytes off the socket.
        """
        obs = self._obs
        while True:
            try:
                header = await reader.readexactly(LENGTH_PREFIX_BYTES)
            except (asyncio.IncompleteReadError, ConnectionResetError):
                await window.put(_EOF)
                return
            try:
                length = parse_length(header)
                try:
                    payload = await reader.readexactly(length)
                except asyncio.IncompleteReadError as exc:
                    raise ProtocolError("truncated frame") from exc
                with obs.tracer.span("net:parse", bytes=length):
                    request = decode_request(payload)
            except ProtocolError as exc:
                self.protocol_errors += 1
                await window.put(("__protocol_error__", str(exc)))
                return
            self.requests_received += 1
            await window.put(("req", request, perf_counter()))

    async def _dispatch(self, window: asyncio.Queue, writer) -> None:
        """Apply requests in arrival order; respond in the same order."""
        loop = asyncio.get_running_loop()
        carry = None
        try:
            while True:
                item = carry if carry is not None else await window.get()
                carry = None
                kind = item[0]
                if kind == "__eof__":
                    return
                if kind == "__protocol_error__":
                    # Answer everything already applied, then report the
                    # broken frame and hang up.
                    writer.write(encode_response(("error", item[1])))
                    await writer.drain()
                    return
                _, request, started = item
                if request[0] in _WRITE_KINDS:
                    batch = [item]
                    while len(batch) < self.batch_max:
                        try:
                            peeked = window.get_nowait()
                        except asyncio.QueueEmpty:
                            break
                        if peeked[0] == "req" and peeked[1][0] in _WRITE_KINDS:
                            batch.append(peeked)
                        else:
                            carry = peeked
                            break
                    responses = await loop.run_in_executor(
                        self._pool, self._apply_writes, [b[1] for b in batch]
                    )
                    now = perf_counter()
                    for (_, _, batch_started), response in zip(batch, responses):
                        self.request_latency.record(now - batch_started)
                        writer.write(encode_response(response))
                    self.requests_completed += len(batch)
                    await writer.drain()
                else:
                    if request[0] == "ping":
                        response = ("pong",)
                    else:
                        response = await loop.run_in_executor(
                            self._pool, self._apply_read, request
                        )
                    self.request_latency.record(perf_counter() - started)
                    self.requests_completed += 1
                    writer.write(encode_response(response))
                    await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            return

    # ------------------------------------------------------------------
    # Engine calls (pool threads)
    # ------------------------------------------------------------------

    def _apply_writes(self, requests: list[tuple]) -> list[tuple]:
        """Apply one batch of write requests through the shared session.

        The whole batch acks (or errors) together: the session ticket
        completes only when every routed sub-batch landed, and durable
        clusters additionally sync the WAL before the first OK leaves.
        """
        try:
            with self._obs.tracer.span("net:dispatch", ops=len(requests)):
                ticket = self._session.submit(requests)
                ticket.wait()
                if self._sync_writes:
                    self.cluster.sync()
            self.write_batches += 1
            return [("ok",)] * len(requests)
        except Exception as exc:  # noqa: BLE001 - reported to the client
            message = f"{type(exc).__name__}: {exc}"
            return [("error", message)] * len(requests)

    def _apply_read(self, request: tuple) -> tuple:
        """Answer one read: the cluster method of the request's name,
        its result shaped by the operation's ``reply`` column."""
        kind, *args = request
        try:
            with self._obs.tracer.span("net:dispatch", op=kind):
                result = getattr(self.cluster, kind)(*args)
            if OPS[kind].reply == "pairs":
                return ("pairs", result)
            return ("miss",) if result is None else ("value", result)
        except Exception as exc:  # noqa: BLE001 - reported to the client
            return ("error", f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "connections_accepted": self.connections_accepted,
            "requests_received": self.requests_received,
            "requests_completed": self.requests_completed,
            "write_batches": self.write_batches,
            "protocol_errors": self.protocol_errors,
        }
