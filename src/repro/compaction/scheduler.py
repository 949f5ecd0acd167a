"""Compaction scheduling: when FADE's merges run, inline or off the write path.

A :class:`CompactionScheduler` decides *when* an engine's compactions
execute; *how* one runs is always :meth:`LSMEngine.run_one_compaction`.
Two implementations:

* :class:`SerialScheduler` (the default): a notification drains the
  engine's pending tasks inline, deterministically, on the calling
  thread, so a flush returns with the tree converged.
* :class:`BackgroundScheduler` owns a FADE-priority queue of engines
  with pending work and a pool of worker threads — selection happens at
  dequeue time (never against a stale tree), the merge runs off the
  write path under the engine's compaction mutex (one merge per engine
  at a time), and only selection and the final install take the
  engine's commit lock, so flushes keep landing beside a long merge.
  One scheduler may be shared by every member of a
  :class:`~repro.shard.engine.ShardedEngine`, making cluster-wide
  compaction concurrency a single tunable (``workers``).

Priority (§4.1 FADE): engines whose files have outlived their
delete-persistence deadline sort first, ordered by how far past the
deadline the oldest tombstone is — the scheduler spends its workers
where ``D_th`` is most at risk; saturation-only backlogs sort after, by
fill pressure. Priorities are computed *fresh at every dequeue* (a
worker ranks all queued engines just before picking one), so a
long-queued engine whose deadline overshoot grew while it waited is
never dispatched behind a merely-full one.

Backpressure: one hard stall. Once a background engine's Level 1 holds
``EngineConfig.stall_l1_runs`` pending runs, each writer blocks until a
worker brings the backlog below it (RocksDB's
``level0_stop_writes_trigger``), which bounds Level 1's memory and the
runs a lookup may probe. Stalls are counted in
:class:`~repro.core.stats.Statistics` (``write_stalls``/
``stall_seconds``).

Determinism contract
--------------------
Serial mode is bit-for-bit the pre-scheduler engine. Background mode
guarantees *logical* equivalence — the read surface after
:meth:`drain` equals serial mode's, and FADE's ``D_th`` invariant holds
at every drain barrier — but not physical equality (file boundaries and
merge timing depend on interleaving). ``deterministic_commits=True``
additionally drains the queue at every barrier point (before each
manifest commit and after each maintenance section), which serializes
the durable write-boundary stream: compactions still run on worker
threads (exercising the cross-thread commit path), but crash-point
enumeration sees the exact same boundary sequence as serial mode. See
``docs/compaction.md``.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from typing import Any

from repro.compaction.fade import FADEPolicy
from repro.core import locks
from repro.core.errors import ConfigError


def fade_priority(engine: Any) -> tuple[int, float]:
    """The engine's compaction urgency; smaller tuples schedule first.

    ``(0, -overshoot)`` when any file has outlived its cumulative FADE
    deadline (``overshoot`` = seconds past it — the delete-persistence
    emergency lane); otherwise ``(1, -pressure)`` where ``pressure`` is
    the worst level-fill ratio, with a tiered Level 1's run backlog
    folded in. Reads only consistent snapshots, so it is safe to call
    from any thread.
    """
    now = engine.clock.now
    tree = engine.tree
    policy = engine.policy
    view = tree.read_view()
    if isinstance(policy, FADEPolicy):
        height = max(1, tree.deepest_nonempty_level())
        worst = 0.0
        for index, level_runs in enumerate(view):
            deadline = policy.cumulative_deadline(index + 1, height)
            for run in level_runs:
                for run_file in run:
                    if not run_file.meta.has_tombstones:
                        continue
                    over = run_file.meta.amax(now) - deadline
                    if over > worst:
                        worst = over
        if worst > 0.0:
            return (0, -worst)
    pressure = 0.0
    for index, level_runs in enumerate(view):
        capacity = engine.config.level_capacity_entries(index + 1)
        entries = sum(f.meta.num_entries for run in level_runs for f in run)
        pressure = max(pressure, entries / capacity)
        if index == 0 and engine.config.level1_run_trigger > 0:
            pressure = max(
                pressure, len(level_runs) / engine.config.level1_run_trigger
            )
    return (1, -pressure)


class CompactionScheduler(ABC):
    """Strategy deciding when and where an engine's compactions execute.

    The engine calls exactly four hooks:

    * :meth:`notify` — compaction work may exist (after a flush or an
      idle TTL check);
    * :meth:`barrier` — the engine is about to append a manifest commit
      record (drains first under ``deterministic_commits``);
    * :meth:`throttle` — once per write operation, for backpressure;
    * :meth:`after_maintenance` — an exclusive section (secondary range
      delete, forced full compaction, checkpoint) just released the
      engine's compaction mutex.
    """

    @abstractmethod
    def notify(self, engine: Any) -> None:
        """Signal that ``engine`` may have pending compaction work."""

    def register(self, engine: Any) -> None:
        """Start tracking ``engine`` (engines call this at construction)."""

    def unregister(self, engine: Any) -> None:
        """Stop tracking a retired engine (shard splits/rebalances)."""

    def barrier(self, engine: Any) -> None:
        """Pre-commit drain point (no-op unless deterministic commits)."""

    def throttle(self, engine: Any) -> None:
        """Write-path backpressure hook (no-op for inline scheduling)."""

    def after_maintenance(self, engine: Any) -> None:
        """Hook after an exclusive maintenance section releases its lock."""

    def drain(self) -> None:
        """Block until every queued/in-flight task has completed."""

    def close(self) -> None:
        """Stop any workers (idempotent; no-op for inline scheduling)."""

    def describe(self) -> str:
        return type(self).__name__


class SerialScheduler(CompactionScheduler):
    """Inline scheduling: the engine's original, deterministic behaviour.

    ``notify`` drains the policy's task queue to convergence on the
    calling thread before returning — compactions stay on the write
    path, interleavings are reproducible down to each durable write
    boundary, and the crash-point enumeration suites hold exactly.
    """

    def notify(self, engine: Any) -> None:
        engine.run_pending_compactions()


class _EngineSlot:
    """Scheduler-side state for one registered engine."""

    __slots__ = ("engine", "queued", "retired", "error", "seq")

    def __init__(self, engine: Any):
        self.engine = engine
        self.queued = False
        self.retired = False
        self.error: BaseException | None = None
        self.seq = 0  # FIFO tie-break among equal dequeue priorities


class BackgroundScheduler(CompactionScheduler):
    """Worker-pool scheduling off the write path.

    Parameters
    ----------
    workers:
        Worker thread count — the cluster-wide compaction concurrency
        when the scheduler is shared by a sharded engine's members.
        Workers parallelize across engines, never within one: an
        engine's compaction mutex admits one merge, and a second worker
        dispatched to a merging engine blocks on that mutex until the
        merge installs (selection against a stale tree is impossible —
        it happens under the engine's commit lock at dequeue).
    deterministic_commits:
        Drain at every :meth:`barrier`/:meth:`notify`/
        :meth:`after_maintenance` point, serializing the durable write
        stream for crash-point enumeration (see the module docstring's
        determinism contract). Compactions still execute on worker
        threads.

    Worker errors are recorded per engine and re-raised on the next
    :meth:`notify`/:meth:`throttle`/:meth:`barrier`/:meth:`drain` — a
    :class:`~repro.storage.persist.SimulatedCrash` in a background
    commit therefore kills the write path, exactly like an inline crash.
    """

    def __init__(self, workers: int = 2, deterministic_commits: bool = False):
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.deterministic_commits = deterministic_commits
        # Ranked above the commit lock: deterministic-commit mode drains
        # the queue from under the engine's commit section.
        self._cv = locks.OrderedCondition(
            "scheduler.queue", locks.RANK_SCHEDULER_CV
        )
        # Queued slots keyed by engine id. Not a heap: priorities are
        # computed fresh at dequeue (a heap would freeze each entry's
        # priority at enqueue time — exactly the staleness bug this
        # replaces), and the queue is small (one entry per engine).
        self._queue: dict[int, _EngineSlot] = {}
        self._slots: dict[int, _EngineSlot] = {}
        self._seq = 0
        self._active = 0
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"compaction-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, engine: Any) -> None:
        with self._cv:
            self._slots.setdefault(id(engine), _EngineSlot(engine))

    def unregister(self, engine: Any) -> None:
        with self._cv:
            slot = self._slots.pop(id(engine), None)
            if slot is not None:
                slot.retired = True

    def _slot(self, engine: Any) -> _EngineSlot | None:
        """The engine's slot, or ``None`` for unregistered/retired
        engines — their hooks degrade to no-ops (a shard being retired
        by a split must not be re-enqueued by its own migration flush)."""
        return self._slots.get(id(engine))

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------

    def notify(self, engine: Any) -> None:
        slot = self._slot(engine)
        if slot is None:
            return
        self._reraise(slot)
        if self._from_maintenance(engine):
            # A flush inside an exclusive maintenance section (SRD, full
            # compaction, checkpoint): the caller already holds the
            # engine's compaction mutex, so no worker could take this
            # work anyway — converge inline (the mutex is reentrant),
            # which also preserves serial mode's exact operation order
            # inside those sections.
            engine.run_pending_compactions()
            return
        with self._cv:
            self._enqueue_locked(slot)
        if self.deterministic_commits:
            self.drain()

    def barrier(self, engine: Any) -> None:
        slot = self._slot(engine)
        if slot is None:
            return
        self._reraise(slot)
        if self.deterministic_commits and not self._from_maintenance(engine):
            self.drain()

    def after_maintenance(self, engine: Any) -> None:
        self.notify(engine)

    def throttle(self, engine: Any) -> None:
        slot = self._slot(engine)
        if slot is None:
            return
        self._reraise(slot)
        if self.deterministic_commits:
            return  # every barrier drained; Level 1 cannot back up
        stall_at = engine.config.stall_l1_runs
        if stall_at and (pending := engine._pending_l1_runs()) >= stall_at:
            # lint: allow(deterministic-clock) — stall_seconds reports
            # how long the writer *really* blocked; simulated time does
            # not advance while a thread waits on the cv.
            started = time.perf_counter()
            with engine.obs.tracer.span("write-stall", l1_runs=pending):
                with self._cv:
                    self._enqueue_locked(slot)
                    while (
                        not self._closed
                        and slot.error is None
                        and engine._pending_l1_runs() >= stall_at
                    ):
                        self._cv.wait(timeout=0.02)
                        if (
                            not self._queue
                            and not self._active
                            and not slot.queued
                        ):
                            # The scheduler went idle with the backlog
                            # still above the threshold: the policy has
                            # no task that could shrink Level 1 (e.g.
                            # the stall threshold sits below the merge
                            # trigger), so stalling further would hang
                            # the writer forever.
                            break
            engine.stats.add(
                # lint: allow(deterministic-clock) — pairs with the
                # wall-clock stamp above.
                write_stalls=1, stall_seconds=time.perf_counter() - started
            )
            self._reraise(slot)

    def drain(self) -> None:
        """Barrier: wait until the queue is empty and all workers idle."""
        with self._cv:
            while (self._queue or self._active) and not self._closed:
                self._cv.wait(timeout=0.05)
            for slot in self._slots.values():
                if slot.error is not None:
                    raise slot.error

    def close(self) -> None:
        """Stop the workers. Pending errors stay retrievable via drain()
        until then; close itself never raises."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._cv.notify_all()
        for thread in self._threads:
            thread.join(timeout=5.0)

    def describe(self) -> str:
        mode = ", deterministic" if self.deterministic_commits else ""
        return f"BackgroundScheduler(workers={self.workers}{mode})"

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _from_maintenance(engine: Any) -> bool:
        """True when the calling thread holds the engine's compaction
        mutex (an SRD/checkpoint/worker frame): draining would deadlock
        against a worker waiting for that same mutex."""
        return engine._maintenance_thread == threading.get_ident()

    def _reraise(self, slot: _EngineSlot) -> None:
        if slot.error is not None:
            raise slot.error

    def _enqueue_locked(self, slot: _EngineSlot) -> None:
        """Queue a slot (caller holds ``_cv``); dedup via ``queued``.

        No priority argument: priorities are computed fresh by the
        worker at dequeue time, so enqueue only records *membership*
        plus an arrival sequence number for FIFO tie-breaking.
        """
        if slot.queued or slot.retired or self._closed:
            return
        slot.queued = True
        self._seq += 1
        slot.seq = self._seq
        self._queue[id(slot.engine)] = slot
        self._cv.notify_all()

    def _pick(self) -> _EngineSlot | None:
        """Dequeue the most urgent queued slot, or ``None`` to retry.

        Priorities are evaluated *here*, against each engine's current
        tree — never the tree as it stood at enqueue time. The ranking
        walk (:func:`fade_priority` takes the tree's install lock, which
        ranks *below* the scheduler cv) happens between two cv critical
        sections: snapshot the queued slots, rank outside the lock, then
        claim the best slot that is still queued. A slot dequeued by a
        rival worker in the window simply falls through to the next
        candidate; if every candidate is gone the caller loops and waits.
        """
        with self._cv:
            candidates = []
            for slot in list(self._queue.values()):
                if slot.retired or slot.error is not None:
                    del self._queue[id(slot.engine)]
                    slot.queued = False
                    continue
                candidates.append(slot)
            if not candidates:
                self._cv.notify_all()
                return None
            if len(candidates) == 1:
                # Ranking a single candidate decides nothing — skip the
                # priority walk (it reads every file's metadata) so a
                # lone busy engine's dispatch path costs no tree scan.
                slot = candidates[0]
                del self._queue[id(slot.engine)]
                slot.queued = False
                self._active += 1
                return slot
        ranked = sorted(
            candidates, key=lambda s: (fade_priority(s.engine), s.seq)
        )
        with self._cv:
            for slot in ranked:
                if slot.queued and not slot.retired and slot.error is None:
                    del self._queue[id(slot.engine)]
                    slot.queued = False
                    self._active += 1
                    return slot
        return None

    def _worker_loop(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._closed:
                    self._cv.wait()
                if self._closed:
                    return
            slot = self._pick()
            if slot is None:
                continue
            progressed = False
            try:
                progressed = slot.engine.run_one_compaction()
                if progressed:
                    slot.engine.stats.add(background_compactions=1)
            except BaseException as exc:  # noqa: BLE001 - surfaced to writers
                with self._cv:
                    slot.error = exc
                    self._active -= 1
                    self._cv.notify_all()
                continue
            with self._cv:
                self._active -= 1
                if progressed:
                    # More work may remain; membership only — priority is
                    # re-evaluated when a worker picks it up.
                    self._enqueue_locked(slot)
                self._cv.notify_all()


def make_scheduler(
    spec: CompactionScheduler | str | None, workers: int = 2
) -> CompactionScheduler:
    """Resolve a scheduler choice: instance, name, or ``None`` (serial).

    Accepts ``"serial"`` and ``"background"`` so the choice threads
    through configs and the CLI without importing classes.
    """
    if spec is None:
        return SerialScheduler()
    if isinstance(spec, CompactionScheduler):
        return spec
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name == "serial":
            return SerialScheduler()
        if name == "background":
            return BackgroundScheduler(workers=workers)
        raise ConfigError(
            f"unknown scheduler {spec!r}; expected 'serial' or 'background'"
        )
    raise ConfigError(f"cannot build a scheduler from {spec!r}")
