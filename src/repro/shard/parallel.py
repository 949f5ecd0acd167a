"""Parallel shard execution: pooled fan-out and the async ingest pipeline.

Sharding makes per-shard *work* smaller; this module is what turns that
into wall-clock speedup:

* **Executors** — a :class:`ShardExecutor` strategy with two
  implementations: :class:`SerialExecutor` (a plain loop, the default)
  and :class:`PooledExecutor` (a shared thread pool). Every
  multi-shard operation on the cluster (``scan``, ``secondary_range_
  lookup``, ``secondary_range_delete``, ``flush``, ``force_full_
  compaction``, idle checks, reshard collection) builds one task per
  shard and hands the list to the executor, which returns results in
  shard order. Member trees share no mutable state except the cluster
  clock (itself thread-safe, see :mod:`repro.core.clock`), and the
  sharded engine serializes access to each member behind a per-shard
  lock, so pooled dispatch needs no further coordination.

* **The async ingest queue** — :class:`AsyncIngestQueue` turns the
  router's per-shard batches into a bounded pipeline: one worker thread
  per shard drains a depth-limited queue, so a hot shard lags behind its
  backlog without stalling the rest of the stream, and the producer only
  blocks when that hot shard is ``depth`` batches behind (backpressure
  instead of unbounded memory). Barriers (multi-shard operations) call
  :meth:`AsyncIngestQueue.drain` so they observe every earlier write —
  the same ordering contract the serial path honours.

* **Ingest sessions** — :class:`IngestSession` holds one such queue open
  on a :class:`~repro.shard.engine.ShardedEngine` across many submits,
  each acknowledged through an :class:`IngestTicket`.

Why threads help a GIL-bound interpreter at all: an LSM engine is
I/O-bound, and I/O waits release the GIL. The simulated disk can inject
*real* per-page device latency (``EngineConfig.real_io_seconds``), which
it serves with ``time.sleep`` — exactly the wait a real storage stack
would park on — so pooled fan-out overlaps the shards' device time the
way a deployment overlaps requests to independent disks. The in-Python
bookkeeping (merges, Bloom probes) stays serialized by the GIL, so a
speed-up measured with those sleeps on is mostly overlapped waiting, not
a result; ``benchmarks/perf`` measures the sharded path without them.
"""

from __future__ import annotations

import queue
import threading
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor, wait
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.core import locks
from repro.core.errors import ConfigError
from repro.obs import NULL_OBS
from repro.shard.router import Barrier, ShardBatch

if TYPE_CHECKING:
    from repro.shard.engine import ShardedEngine


class ShardExecutor(ABC):
    """Strategy for dispatching one task per shard.

    ``run`` takes zero-argument callables (one per participating shard)
    and returns their results *in task order* — callers rely on result
    position matching shard position for k-way merges and report sums.
    The first task exception propagates to the caller.
    """

    @abstractmethod
    def run(self, tasks: Sequence[Callable[[], Any]]) -> list[Any]:
        """Execute every task; return results in task order."""

    def close(self) -> None:
        """Release any pooled resources (idempotent; no-op by default)."""

    def describe(self) -> str:
        return type(self).__name__


class SerialExecutor(ShardExecutor):
    """The original behaviour: run each shard's task in a plain loop.

    Default because it is deterministic down to the interleaving of
    clock ticks, adds zero overhead for single-shard clusters, and is
    the right choice whenever per-shard work is pure CPU (the GIL would
    serialize a pool anyway).
    """

    def run(self, tasks: Sequence[Callable[[], Any]]) -> list[Any]:
        return [task() for task in tasks]


class PooledExecutor(ShardExecutor):
    """Fan shard tasks out to a shared :class:`ThreadPoolExecutor`.

    Parameters
    ----------
    max_workers:
        Pool width. ``None`` (default) sizes the pool to the widest
        fan-out seen so far, so an 8-shard cluster gets 8 workers and
        every shard's device wait overlaps.
    """

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1, got {max_workers}")
        self._requested = max_workers
        self._pool: ThreadPoolExecutor | None = None
        self._pool_width = 0
        self._lock = locks.OrderedLock(
            "parallel.executor-pool", locks.RANK_EXECUTOR_POOL
        )

    def _pool_for(self, width: int) -> ThreadPoolExecutor:
        """Current pool, grown to ``width`` if auto-sized. Caller holds
        ``_lock`` — growth replaces the pool, and submitting under the
        same lock is what keeps a concurrent ``run`` from holding a
        just-shut-down pool reference."""
        wanted = self._requested or max(width, 2)
        if self._pool is None or (
            self._requested is None and wanted > self._pool_width
        ):
            if self._pool is not None:
                # No new submits can race us (they need _lock); let the
                # old pool finish its in-flight work and retire without
                # blocking the grower.
                self._pool.shutdown(wait=False)
            self._pool = ThreadPoolExecutor(
                max_workers=wanted, thread_name_prefix="shard"
            )
            self._pool_width = wanted
        return self._pool

    def run(self, tasks: Sequence[Callable[[], Any]]) -> list[Any]:
        if len(tasks) <= 1:
            # No fan-out to overlap; skip the submit/wakeup round trip.
            return [task() for task in tasks]
        with self._lock:
            pool = self._pool_for(len(tasks))
            futures = [pool.submit(task) for task in tasks]
        # Wait for EVERY task before propagating the first failure: the
        # sharded engine's gate treats a returned fan-out as "no task in
        # flight", so leaving stragglers running after an early raise
        # would let a subsequent reshard race them.
        wait(futures)
        return [future.result() for future in futures]

    def close(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
                self._pool_width = 0

    def describe(self) -> str:
        width = self._requested if self._requested is not None else "auto"
        return f"PooledExecutor(max_workers={width})"


def make_executor(spec: ShardExecutor | str | None) -> ShardExecutor:
    """Resolve an executor choice: instance, name, or ``None`` (serial).

    Accepts the strings ``"serial"`` and ``"pooled"`` so the choice can
    be threaded through configs and the CLI without importing classes.
    """
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, ShardExecutor):
        return spec
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name == "serial":
            return SerialExecutor()
        if name == "pooled":
            return PooledExecutor()
        raise ConfigError(
            f"unknown executor {spec!r}; expected 'serial' or 'pooled'"
        )
    raise ConfigError(f"cannot build an executor from {spec!r}")


_STOP = object()


class IngestAborted(RuntimeError):
    """A queued batch was discarded by :meth:`AsyncIngestQueue.abort`."""


class AsyncIngestQueue:
    """Bounded per-shard pipeline between the router and the members.

    One worker thread per shard pulls batches off a ``Queue(maxsize=
    depth)`` and applies them through the shard's handler. The producer
    (the thread iterating ``router.batches``) blocks **only** when the
    shard it is enqueueing to is ``depth`` batches behind — other shards
    keep receiving work, which is how a hot shard lags without stalling
    the stream.

    Ordering: batches for one shard are applied in enqueue order (one
    FIFO queue, one worker per shard), which preserves per-key order —
    the only order the router guarantees in the first place.

    Errors: a handler exception is recorded, the worker keeps draining
    (so the producer never deadlocks against a full queue), and the
    exception re-raises on the next :meth:`enqueue`, :meth:`drain`, or
    :meth:`close`. Batches behind a failed one on the same shard are
    discarded — their writes may depend on the failed batch's state.

    Completion callbacks: ``enqueue(..., on_done=fn)`` registers a
    per-batch callback invoked by the worker after the batch is applied
    (``fn(None)``), fails (``fn(exc)``), or is discarded behind an
    earlier failure or an :meth:`abort` (``fn(error)``). This is the ack
    hook the serving layer's :class:`IngestSession` tickets hang off.
    """

    def __init__(
        self,
        handlers: Sequence[Callable[[list], None]],
        depth: int = 4,
        obs: Any = None,
    ):
        if depth < 1:
            raise ConfigError(f"ingest queue depth must be >= 1, got {depth}")
        if not handlers:
            raise ConfigError("AsyncIngestQueue needs at least one handler")
        self.depth = depth
        self.obs = obs if obs is not None else NULL_OBS
        self._queues: list[queue.Queue] = [
            queue.Queue(maxsize=depth) for _ in handlers
        ]
        self._errors: list[BaseException | None] = [None] * len(handlers)
        self._closed = False
        self._aborted = False
        self._threads = [
            threading.Thread(
                target=self._worker,
                args=(index, handler),
                name=f"ingest-shard-{index}",
                daemon=True,
            )
            for index, handler in enumerate(handlers)
        ]
        for thread in self._threads:
            thread.start()

    def _worker(self, index: int, handler: Callable[[list], None]) -> None:
        pending = self._queues[index]
        while True:
            item = pending.get()
            outcome: BaseException | None = None
            try:
                if item is _STOP:
                    return
                operations, on_done = item
                try:
                    if self._aborted:
                        outcome = IngestAborted("ingest queue aborted")
                    elif self._errors[index] is not None:
                        outcome = self._errors[index]
                    else:
                        handler(operations)
                except BaseException as exc:  # noqa: BLE001 - re-raised to producer
                    self._errors[index] = exc
                    outcome = exc
                if on_done is not None:
                    on_done(outcome)
            finally:
                pending.task_done()

    def _raise_pending(self) -> None:
        for error in self._errors:
            if error is not None:
                raise error

    def enqueue(
        self,
        shard: int,
        operations: list,
        on_done: Callable[[BaseException | None], None] | None = None,
    ) -> None:
        """Queue one batch for ``shard``; blocks at ``depth`` backlog."""
        if self._closed:
            raise ConfigError("enqueue on a closed AsyncIngestQueue")
        self._raise_pending()
        pending = self._queues[shard]
        if self.obs.enabled:
            # Depth *before* the put: what the producer saw when it
            # decided to enqueue (and possibly block) on this shard.
            self.obs.ingest_queue_depth.record(pending.qsize())
        pending.put((operations, on_done))
        if self._aborted:
            # Raced an abort(): the workers may already be gone, so this
            # item would never be consumed. Sweep it (and anything else
            # left) ourselves so its on_done callback always fires.
            self._discard_pending()

    def drain(self) -> None:
        """Block until every queued batch has been applied (a barrier)."""
        for pending in self._queues:
            pending.join()
        self._raise_pending()

    def backlog(self) -> list[int]:
        """Approximate queued batches per shard (monitoring/tests)."""
        return [pending.qsize() for pending in self._queues]

    def close(self) -> None:
        """Stop the workers and re-raise any pending handler error."""
        if self._closed:
            return
        self._closed = True
        for pending in self._queues:
            pending.put(_STOP)
        for thread in self._threads:
            thread.join()
        self._raise_pending()

    def abort(self) -> None:
        """Stop the workers WITHOUT applying still-queued batches.

        Models a hard kill for the serving layer's crash tests: batches
        already mid-handler finish (a write in flight may land), queued
        batches are discarded with :class:`IngestAborted` delivered to
        their ``on_done`` callbacks, and no pending error is re-raised.
        """
        if self._closed:
            return
        self._aborted = True
        self._closed = True
        for pending in self._queues:
            pending.put(_STOP)
        for thread in self._threads:
            thread.join()
        # A producer's put may still land after the workers exited (it
        # was blocked on a full queue while we drained); sweep leftovers
        # so every batch's callback fires exactly once.
        self._discard_pending()

    def _discard_pending(self) -> None:
        for pending in self._queues:
            while True:
                try:
                    item = pending.get_nowait()
                except queue.Empty:
                    break
                try:
                    if item is not _STOP:
                        _, on_done = item
                        if on_done is not None:
                            on_done(IngestAborted("ingest queue aborted"))
                finally:
                    pending.task_done()

    def __enter__(self) -> "AsyncIngestQueue":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()


class IngestTicket:
    """Completion handle for one :meth:`IngestSession.submit`.

    Counts down as the submit's per-shard batches are applied by the
    queue workers; :meth:`wait` blocks until all of them finished and
    re-raises the first failure. Tickets are what lets the serving layer
    acknowledge a client's writes only once they actually landed in the
    member engines (and, for durable clusters, survived a WAL sync).
    """

    def __init__(self) -> None:
        # A leaf: completion callbacks fire from queue workers that may
        # hold a member engine's locks, never the other way around.
        self._cv = locks.OrderedCondition(
            "shard.ingest-ticket", locks.RANK_INGEST_TICKET
        )
        self._outstanding = 0
        self._sealed = False
        self._error: BaseException | None = None

    def _register(self) -> None:
        with self._cv:
            self._outstanding += 1

    def _seal(self) -> None:
        # Submit finished enqueueing; without this a ticket could look
        # complete between two of its own batches.
        with self._cv:
            self._sealed = True
            if self._outstanding == 0:
                self._cv.notify_all()

    def _done(self, error: BaseException | None) -> None:
        with self._cv:
            if error is not None and self._error is None:
                self._error = error
            self._outstanding -= 1
            if self._sealed and self._outstanding == 0:
                self._cv.notify_all()

    def done(self) -> bool:
        with self._cv:
            return self._sealed and self._outstanding == 0

    def wait(self, timeout: float | None = None) -> None:
        """Block until every batch of this submit completed; re-raise
        the first batch failure."""
        with self._cv:
            finished = self._cv.wait_for(
                lambda: self._sealed and self._outstanding == 0, timeout
            )
            if not finished:
                raise TimeoutError("ingest ticket not complete in time")
            if self._error is not None:
                raise self._error


class IngestSession:
    """A long-lived pipelined ingest handle on a :class:`ShardedEngine`.

    Holds one :class:`AsyncIngestQueue` (one
    worker thread per shard, bounded depth) across many :meth:`submit`
    calls, so concurrent producers — e.g. every connection of the
    serving layer — share a single bounded pipeline instead of paying
    per-call worker churn. Each submit returns an :class:`IngestTicket`
    that completes when that submit's batches have been applied.

    Ordering: submits are serialized by an internal lock, and each
    shard's batches apply in enqueue order, so two submits' writes to
    one key land in submit order. Barrier operations inside a stream
    (``scan``, ``secondary_*``, ``flush``, …) drain the queue first and
    run inline, exactly like :meth:`ShardedEngine.ingest`; their errors
    raise out of :meth:`submit` directly.

    A reshard may land between batches — each batch then re-routes
    through the current topology (see :meth:`ShardedEngine._apply_batch`),
    so sessions stay correct across a split or rebalance.
    """

    def __init__(self, cluster: "ShardedEngine", depth: int):
        self._cluster = cluster
        # Outermost rank: submit holds it across barrier drains that
        # descend through the gate, member locks, and engine internals.
        self._lock = locks.OrderedLock(
            "shard.ingest-session", locks.RANK_INGEST_SESSION
        )
        self._closed = False
        topology = cluster._topology
        self._topology = topology

        def handler_for(index: int) -> Callable[[list], None]:
            return lambda batch_ops: cluster._apply_batch(
                topology, index, batch_ops
            )

        self._queue = AsyncIngestQueue(
            [handler_for(index) for index in range(topology.partitioner.n_shards)],
            depth=depth,
            obs=cluster.obs,
        )
        cluster._active_ingest_queue = self._queue

    def submit(self, operations: Iterable[tuple]) -> IngestTicket:
        """Route and enqueue a stream; returns its completion ticket."""
        ticket = IngestTicket()
        with self._lock:
            if self._closed:
                raise ConfigError("submit on a closed IngestSession")
            for item in self._topology.router.batches(operations):
                if isinstance(item, ShardBatch):
                    ticket._register()
                    self._queue.enqueue(
                        item.shard, item.operations, on_done=ticket._done
                    )
                elif isinstance(item, Barrier):
                    self._queue.drain()
                    self._cluster._run_barrier(item)
        ticket._seal()
        return ticket

    def drain(self) -> None:
        """Block until every enqueued batch applied; re-raise failures."""
        self._queue.drain()

    def backlog(self) -> list[int]:
        return self._queue.backlog()

    def close(self) -> None:
        """Drain remaining batches, stop the workers, re-raise errors."""
        self._shut(self._queue.close)

    def abort(self) -> None:
        """Hard-stop the workers, discarding still-queued batches.

        Crash-test hook: already-running batches finish, queued ones are
        dropped (their tickets fail with ``IngestAborted``), and member
        stores are left exactly as a kill -9 would — not closed, not
        drained.
        """
        self._shut(self._queue.abort)

    def _shut(self, stop_queue: Callable[[], None]) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            stop_queue()
        finally:
            if self._cluster._active_ingest_queue is self._queue:
                self._cluster._active_ingest_queue = None

    def __enter__(self) -> "IngestSession":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()
