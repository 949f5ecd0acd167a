"""The shard ingest pipeline: a bounded per-shard queue and the session
that holds it open.

Every other multi-shard operation on the cluster runs as a plain loop
over the members (see :meth:`~repro.shard.engine.ShardedEngine._fan_out`);
this module is the one write path that applies shard batches on worker
threads of their own:

* **The async ingest queue** — :class:`AsyncIngestQueue` turns the
  router's per-shard batches into a bounded pipeline: one worker thread
  per shard drains a depth-limited queue, so a hot shard lags behind its
  backlog without stalling the rest of the stream, and the producer only
  blocks when that hot shard is ``depth`` batches behind (backpressure
  instead of unbounded memory). Barriers (multi-shard operations) call
  :meth:`AsyncIngestQueue.drain` so they observe every earlier write —
  the same ordering contract :meth:`~repro.shard.engine.ShardedEngine.
  ingest` honours.

* **Ingest sessions** — :class:`IngestSession` holds one such queue open
  on a :class:`~repro.shard.engine.ShardedEngine` across many submits,
  each acknowledged through an :class:`IngestTicket`. It is the cluster's
  only pipelined write path; the serving layer keeps one per server.
"""

from __future__ import annotations

import queue
import threading
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.core import locks
from repro.core.errors import ConfigError
from repro.obs import NULL_OBS
from repro.shard.router import Barrier, ShardBatch

if TYPE_CHECKING:
    from repro.shard.engine import ShardedEngine


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

    Holds one :class:`AsyncIngestQueue` (one worker thread per shard,
    bounded at the cluster's ``ingest_queue_depth``) across many
    :meth:`submit` calls, so concurrent producers — e.g. every
    connection of the serving layer — share a single bounded pipeline.
    Each submit returns an :class:`IngestTicket` that completes when
    that submit's batches have been applied.

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

    def __init__(self, cluster: "ShardedEngine"):
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
            depth=cluster.ingest_queue_depth,
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
