"""Client library for the serving layer: sync, pooled, and async.

Three shapes, one protocol (:mod:`repro.net.protocol`):

* :class:`LetheClient` — one blocking socket, one request per round
  trip, plus an explicit :meth:`LetheClient.pipeline` that batches many
  requests into one write and reads all responses back in order.
* :class:`ClientPool` — a bounded pool of :class:`LetheClient`
  connections for multi-threaded callers (borrow with
  :meth:`ClientPool.connection`).
* :class:`AsyncLetheClient` — an asyncio client where every request
  returns a future resolved in order by a background reader task; this
  is what lets one benchmark process drive hundreds of concurrent
  pipelined connections.

Server ``ERROR`` responses raise :class:`ServerError`; a ``get`` miss
returns ``None``.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any, Iterable

from repro.core import locks

from repro.net.protocol import (
    LENGTH_PREFIX_BYTES,
    ProtocolError,
    decode_response,
    encode_request,
    parse_length,
)


class ServerError(Exception):
    """The server answered a request with an ERROR frame."""


def _result(response: tuple) -> Any:
    kind = response[0]
    if kind == "ok":
        return None
    if kind == "value":
        return response[1]
    if kind == "miss":
        return None
    if kind == "pairs":
        return response[1]
    if kind == "pong":
        return "pong"
    if kind == "error":
        raise ServerError(response[1])
    raise ProtocolError(f"unexpected response kind {kind!r}")


class LetheClient:
    """Blocking one-socket client."""

    def __init__(self, host: str, port: int, timeout: float | None = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)

    # -- transport -----------------------------------------------------

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        while n:
            chunk = self._sock.recv(n)
            if not chunk:
                raise ConnectionError("server closed the connection")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def _recv_response(self) -> tuple:
        length = parse_length(self._recv_exact(LENGTH_PREFIX_BYTES))
        return decode_response(self._recv_exact(length))

    def _call(self, op: tuple) -> Any:
        self._sock.sendall(encode_request(op))
        return _result(self._recv_response())

    # -- operations ----------------------------------------------------

    def put(self, key: int, value: Any = None, delete_key: int | None = None) -> None:
        self._call(("put", key, value, delete_key))

    def get(self, key: int) -> Any:
        return self._call(("get", key))

    def delete(self, key: int) -> None:
        self._call(("delete", key))

    def delete_range(self, lo: int, hi: int) -> None:
        """Validated range delete over ``[lo, hi)`` (``lo <= hi`` enforced
        client-side by the codec, again server-side on decode)."""
        self._call(("delete_range", lo, hi))

    def scan(self, lo: int, hi: int) -> list[tuple[int, Any]]:
        return self._call(("scan", lo, hi))

    def secondary_range_lookup(self, d_lo: int, d_hi: int) -> list[tuple[int, Any]]:
        return self._call(("secondary_range_lookup", d_lo, d_hi))

    def flush(self) -> None:
        self._call(("flush",))

    def ping(self) -> str:
        return self._call(("ping",))

    def execute(self, operations: Iterable[tuple]) -> list[Any]:
        """Pipelined bulk call: send every request, then read every
        response (in order). One syscall-sized write per call, one
        round trip for the whole stream."""
        operations = list(operations)
        if not operations:
            return []
        self._sock.sendall(b"".join(encode_request(op) for op in operations))
        return [_result(self._recv_response()) for _ in operations]

    def pipeline(self) -> "Pipeline":
        return Pipeline(self)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "LetheClient":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()


class Pipeline:
    """Deferred-call recorder for :meth:`LetheClient.pipeline`.

    Method calls queue requests locally; :meth:`execute` ships them in
    one pipelined burst and returns results positionally.
    """

    def __init__(self, client: LetheClient):
        self._client = client
        self._ops: list[tuple] = []

    def put(self, key: int, value: Any = None, delete_key: int | None = None) -> "Pipeline":
        self._ops.append(("put", key, value, delete_key))
        return self

    def get(self, key: int) -> "Pipeline":
        self._ops.append(("get", key))
        return self

    def delete(self, key: int) -> "Pipeline":
        self._ops.append(("delete", key))
        return self

    def delete_range(self, lo: int, hi: int) -> "Pipeline":
        self._ops.append(("delete_range", lo, hi))
        return self

    def scan(self, lo: int, hi: int) -> "Pipeline":
        self._ops.append(("scan", lo, hi))
        return self

    def execute(self) -> list[Any]:
        ops, self._ops = self._ops, []
        return self._client.execute(ops)

    def __len__(self) -> int:
        return len(self._ops)


class ClientPool:
    """Thread-safe bounded pool of :class:`LetheClient` connections."""

    def __init__(self, host: str, port: int, size: int = 8, timeout: float | None = 30.0):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self._host, self._port, self._timeout = host, port, timeout
        self._size = size
        self._lock = locks.OrderedLock(
            "client-pool.state", locks.RANK_CLIENT_POOL_STATE
        )
        self._idle: list[LetheClient] = []
        self._created = 0
        self._available = locks.OrderedSemaphore(
            "client-pool.permits", locks.RANK_CLIENT_POOL_PERMITS, size
        )
        self._closed = False

    def _acquire(self) -> LetheClient:
        # Permit first, then pool state. Every exit that does not hand
        # a client to the caller must give the permit back — a leaked
        # permit permanently shrinks the pool and eventually deadlocks
        # every borrower.
        self._available.acquire()
        try:
            with self._lock:
                if self._closed:
                    raise RuntimeError("acquire on a closed ClientPool")
                if self._idle:
                    return self._idle.pop()
                self._created += 1
            try:
                return LetheClient(
                    self._host, self._port, timeout=self._timeout
                )
            except BaseException:
                with self._lock:
                    self._created -= 1
                raise
        except BaseException:
            self._available.release()
            raise

    def _release(self, client: LetheClient, broken: bool = False) -> None:
        try:
            with self._lock:
                if broken or self._closed:
                    client.close()
                    self._created -= 1
                else:
                    self._idle.append(client)
        finally:
            self._available.release()

    class _Lease:
        def __init__(self, pool: "ClientPool"):
            self._pool = pool
            self._client: LetheClient | None = None

        def __enter__(self) -> LetheClient:
            self._client = self._pool._acquire()
            return self._client

        def __exit__(self, exc_type, *_rest) -> None:
            assert self._client is not None
            # A connection that saw a transport/protocol failure may
            # have unread bytes in flight; retire it rather than hand
            # desynchronized state to the next borrower.
            broken = exc_type is not None and not issubclass(
                exc_type, ServerError
            )
            self._pool._release(self._client, broken=broken)

    def connection(self) -> "ClientPool._Lease":
        """``with pool.connection() as client: ...``"""
        return ClientPool._Lease(self)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
            self._created -= len(idle)
        for client in idle:
            client.close()

    def __enter__(self) -> "ClientPool":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()


class AsyncLetheClient:
    """Asyncio client: submit returns a future, responses resolve in
    send order via one background reader task per connection."""

    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer
        self._pending: asyncio.Queue = asyncio.Queue()
        self._reader_task = asyncio.ensure_future(self._read_responses())
        self._closed = False

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncLetheClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read_responses(self) -> None:
        try:
            while True:
                future = await self._pending.get()
                if future is None:
                    return
                header = await self._reader.readexactly(LENGTH_PREFIX_BYTES)
                length = parse_length(header)
                payload = await self._reader.readexactly(length)
                response = decode_response(payload)
                if not future.cancelled():
                    if response[0] == "error":
                        future.set_exception(ServerError(response[1]))
                    else:
                        future.set_result(_result(response))
        except BaseException as exc:  # noqa: BLE001 - fan the failure out
            while not self._pending.empty():
                future = self._pending.get_nowait()
                if future is not None and not future.done():
                    future.set_exception(exc)
            if not isinstance(exc, asyncio.CancelledError):
                return
            raise

    async def submit(self, op: tuple) -> asyncio.Future:
        """Send one request; returns the future of its response."""
        if self._closed:
            raise RuntimeError("submit on a closed AsyncLetheClient")
        future = asyncio.get_running_loop().create_future()
        await self._pending.put(future)
        self._writer.write(encode_request(op))
        await self._writer.drain()
        return future

    async def call(self, op: tuple) -> Any:
        return await (await self.submit(op))

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        await self._pending.put(None)
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
