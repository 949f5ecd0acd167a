"""The sharded engine: N Lethe engines behind one keyspace-partitioned API.

:class:`ShardedEngine` exposes the complete :class:`~repro.core.engine.
LSMEngine` surface — ``put``/``delete``/``delete_range``/
``secondary_range_delete``/``get``/``scan``/``secondary_range_lookup``/
``flush``/``advance_time``/``ingest`` — over a cluster of member engines:

* **point operations** route to the single owning shard;
* **sort-key range operations** fan out to the overlapping shards only
  (all shards under hash partitioning) and k-way-merge the results;
* **secondary (delete-key) operations** are scatter-gather: the secondary
  key is not the partition key, so every shard participates and the
  per-shard :class:`SecondaryDeleteReport`s sum into the cluster bill —
  exactly the cost the paper's model predicts per tree, times the fan-out.

All members share one :class:`~repro.core.clock.SimulatedClock`, so FADE
TTLs and persistence latencies stay on a single cluster-wide timeline;
per-shard *configs* may still differ (per-tenant ``D_th`` or KiWi ``h``).
Range-partitioned clusters additionally support :meth:`split` (divide a
hot shard at a key) and :meth:`rebalance` (recut all split points at the
observed key quantiles).

Execution model (since PR 2): every multi-shard operation builds one task
per participating shard and hands the list to a pluggable
:class:`~repro.shard.parallel.ShardExecutor` — the serial loop by default,
a thread pool with ``executor="pooled"``. ``ingest`` additionally supports
a pipelined mode (``ingest_queue_depth > 0``) where the router's per-shard
batches flow through a bounded :class:`~repro.shard.parallel.
AsyncIngestQueue` and barriers drain it before executing.

Concurrency model — three pieces, nothing else shared:

1. **One immutable topology snapshot** (:class:`_Topology`: partitioner,
   router, member engines, per-shard locks), swapped in a single
   assignment by resharding, so every reader observes a mutually
   consistent routing state.
2. **One reader-writer gate**: every cluster operation holds the gate
   *shared* for its whole duration; :meth:`split`/:meth:`rebalance` hold
   it *exclusive*. The topology therefore never changes under an
   in-flight operation — no operation can act on a retired member, and a
   mutating fan-out never needs to retry or re-route mid-flight. An
   operation that routed its work before a reshard (pipelined ingest
   batches) re-routes per key when it observes the snapshot changed.
3. **One lock per member engine**: every dispatched task holds its
   shard's lock for its duration, so shards are internally serial,
   mutually parallel, and ``Statistics`` registries are only ever
   mutated single-threaded. (The shared clock has its own internal
   lock — see :mod:`repro.core.clock`.) Background *compactions* are
   the exception to "internally serial": a shared
   :class:`~repro.compaction.scheduler.BackgroundScheduler`'s workers
   compact members without taking shard locks (one merge per member
   at a time, under that member's compaction mutex) — the counters
   those merges touch go through the locked ``Statistics.add`` path,
   and installs serialize on the member's commit/install locks, not
   the shard lock.

Gate discipline: shared acquisition happens only in the public entry
points, never nested (a barrier inside ``ingest`` releases and
re-acquires through the public method it dispatches), because the
writer-preferring gate would deadlock a reader that re-enters while a
writer waits.

Durability (since PR 3): constructing with ``store_path`` gives every
member engine a :class:`~repro.storage.persist.DurableStore` under a
private subdirectory and commits the cluster topology to an append-only
``TOPOLOGY.log``; :meth:`ShardedEngine.open` recovers the whole cluster,
and :meth:`split`/:meth:`rebalance` are crash-atomic (migrate into new
directories, publish one topology record, only then delete the retired
ones). See ``docs/durability.md``.
"""

from __future__ import annotations

import json
import shutil
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.compaction.scheduler import CompactionScheduler, make_scheduler
from repro.core import locks
from repro.core.clock import SimulatedClock
from repro.core.config import EngineConfig
from repro.core.engine import LSMEngine
from repro.core.errors import ConfigError, LetheError, PersistenceError
from repro.core.stats import Statistics
from repro.kiwi.range_delete import SecondaryDeleteReport
from repro.obs import Observability
from repro.shard.merge import combine_reports, kway_merge
from repro.shard.parallel import AsyncIngestQueue, ShardExecutor, make_executor
from repro.shard.partitioner import HashPartitioner, Partitioner, RangePartitioner
from repro.shard.router import Barrier, OperationRouter, ShardBatch
from repro.storage.entry import Entry
from repro.storage.persist import (
    DurableStore,
    FaultInjector,
    frame_bytes,
    read_frames,
)

# Queue bound used when ``ingest(..., pipelined=True)`` is requested on a
# cluster constructed with ``ingest_queue_depth=0`` (i.e. pipelining was
# not pre-configured but is explicitly asked for on this call).
DEFAULT_PIPELINE_DEPTH = 4


def _partitioner_to_dict(partitioner: Partitioner) -> dict:
    if isinstance(partitioner, HashPartitioner):
        return {"kind": "hash", "n_shards": partitioner.n_shards}
    if isinstance(partitioner, RangePartitioner):
        return {"kind": "range", "split_points": list(partitioner.split_points)}
    raise PersistenceError(
        f"cannot persist partitioner type {type(partitioner).__name__}"
    )


def _partitioner_from_dict(payload: dict) -> Partitioner:
    if payload["kind"] == "hash":
        return HashPartitioner(payload["n_shards"])
    if payload["kind"] == "range":
        return RangePartitioner(payload["split_points"])
    raise PersistenceError(f"unknown partitioner kind {payload['kind']!r}")


class _Topology:
    """One immutable routing snapshot: partitioner, router, members, locks.

    Replaced wholesale (a single attribute assignment, atomic under the
    interpreter) by :meth:`ShardedEngine.split` / :meth:`~ShardedEngine.
    rebalance` while they hold the topology gate exclusively, so any
    operation holding the gate shared observes one stable, mutually
    consistent (partitioner, shards, locks) triple for its whole run.
    """

    __slots__ = ("partitioner", "router", "shards", "locks")

    def __init__(
        self,
        partitioner: Partitioner,
        shards: Sequence[LSMEngine],
        max_batch: int,
    ):
        if len(shards) != partitioner.n_shards:
            raise ConfigError(
                f"{len(shards)} member engines for "
                f"{partitioner.n_shards} shards"
            )
        self.partitioner = partitioner
        self.router = OperationRouter(partitioner, max_batch=max_batch)
        self.shards: list[LSMEngine] = list(shards)
        # Per-index ranks: the write path holds one member at a time,
        # but quiescent readers (_locked_view) take all of them nested
        # in ascending index order — which these ranks make the only
        # legal order.
        self.locks: list[Any] = [
            locks.OrderedRLock(
                f"shard.member[{i}]", locks.RANK_SHARD_MEMBER + i
            )
            for i in range(len(self.shards))
        ]


class _TopologyGate:
    """A small writer-preferring reader-writer gate.

    Cluster operations hold it shared (many at once); resharding holds
    it exclusive. A waiting writer blocks new readers, so a reshard
    cannot be starved by a stream of operations. Not reentrant — see the
    gate discipline note in the module docstring.
    """

    def __init__(self) -> None:
        self._condition = locks.OrderedCondition(
            "shard.topology-gate", locks.RANK_TOPOLOGY_GATE
        )
        self._readers = 0
        self._writer = False

    @contextmanager
    def shared(self) -> Iterator[None]:
        with self._condition:
            while self._writer:
                self._condition.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._condition:
                self._readers -= 1
                if self._readers == 0:
                    self._condition.notify_all()

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        with self._condition:
            while self._writer:
                self._condition.wait()
            self._writer = True
            while self._readers:
                self._condition.wait()
        try:
            yield
        finally:
            with self._condition:
                self._writer = False
                self._condition.notify_all()


class ShardedEngine:
    """A partitioned cluster of LSM engines with a single-engine API.

    Parameters
    ----------
    config:
        Configuration applied to every shard (unless ``shard_configs``
        overrides it per shard).
    n_shards:
        Convenience: build a :class:`HashPartitioner` of this size.
        Mutually exclusive with ``partitioner``.
    partitioner:
        Explicit placement policy (hash or range).
    shard_configs:
        Optional per-shard configs (length must equal the shard count) —
        the tunability axis: each partition may run its own FADE
        ``D_th``/KiWi ``h``.
    clock:
        Optional externally-owned clock shared with other engines under
        comparison.
    executor:
        How multi-shard work is dispatched: a
        :class:`~repro.shard.parallel.ShardExecutor` instance, the string
        ``"serial"`` / ``"pooled"``, or ``None`` for the serial default.
    scheduler:
        How member compactions execute: a :class:`~repro.compaction.
        scheduler.CompactionScheduler` instance, ``"serial"`` /
        ``"background"``, or ``None`` for per-member inline compaction
        (the original behaviour). One scheduler instance is shared by
        **every** member engine, so its worker count is the single
        cluster-wide compaction-concurrency tunable; its FADE-priority
        queue sends workers to whichever shard's delete-persistence
        deadline is most at risk. The cluster owns a scheduler it
        constructed from a string and closes it in :meth:`close`; a
        caller-supplied instance is the caller's to close.
    ingest_queue_depth:
        When > 0, :meth:`ingest` pipelines per-shard batches through an
        :class:`~repro.shard.parallel.AsyncIngestQueue` bounded at this
        many batches per shard; 0 (default) keeps the synchronous path.
    store_path:
        When set, the cluster is durable: each member engine gets a
        :class:`~repro.storage.persist.DurableStore` under a private
        subdirectory, and the cluster topology (partitioner kind, split
        points, shard directories) is committed to an append-only
        ``TOPOLOGY.log`` whose last intact record is authoritative —
        :meth:`split`/:meth:`rebalance` migrate into *new* directories
        and publish the swap as one record, so a crash mid-reshard
        recovers the old consistent cluster. Reopen with :meth:`open`.
    injector:
        Fault-injection hook shared by every member store and the
        topology log (the crash-test harness counts cluster-wide write
        boundaries through it).
    """

    def __init__(
        self,
        config: EngineConfig,
        n_shards: int | None = None,
        partitioner: Partitioner | None = None,
        shard_configs: Sequence[EngineConfig] | None = None,
        clock: SimulatedClock | None = None,
        max_batch: int = 1024,
        executor: ShardExecutor | str | None = None,
        scheduler: CompactionScheduler | str | None = None,
        ingest_queue_depth: int = 0,
        store_path: str | Path | None = None,
        injector: FaultInjector | None = None,
        _members: Sequence[LSMEngine] | None = None,
    ):
        if (n_shards is None) == (partitioner is None):
            raise ConfigError("pass exactly one of n_shards / partitioner")
        if partitioner is None:
            partitioner = HashPartitioner(n_shards)
        if ingest_queue_depth < 0:
            raise ConfigError(
                f"ingest_queue_depth must be >= 0, got {ingest_queue_depth}"
            )
        self.config = config
        self.clock = clock or SimulatedClock(config.ingestion_rate)
        self.executor = make_executor(executor)
        # One scheduler for every member: cluster-wide compaction
        # concurrency is its worker count. Close it only if we built it.
        self._owns_scheduler = not isinstance(scheduler, CompactionScheduler)
        self.scheduler = make_scheduler(scheduler)
        self.ingest_queue_depth = ingest_queue_depth
        if shard_configs is None:
            configs = [config] * partitioner.n_shards
        else:
            configs = list(shard_configs)
            if len(configs) != partitioner.n_shards:
                raise ConfigError(
                    f"shard_configs has {len(configs)} entries for "
                    f"{partitioner.n_shards} shards"
                )
        self._gate = _TopologyGate()
        self._store_path = Path(store_path) if store_path is not None else None
        self._injector = injector if injector is not None else FaultInjector(armed=False)
        self._epoch = 0
        self._dir_seq = 0
        self._shard_dirs: list[str] = []
        if _members is not None:
            # Recovery path (ShardedEngine.open): members arrive prebuilt
            # (recovered under the serial scheduler); rebind them to the
            # cluster's shared scheduler before they serve traffic.
            for member in _members:
                member.scheduler = self.scheduler
                member._owns_scheduler = False  # cluster-owned, see close()
                self.scheduler.register(member)
            self._topology = _Topology(partitioner, list(_members), max_batch)
        elif self._store_path is None:
            self._topology = _Topology(
                partitioner,
                [
                    LSMEngine(
                        shard_config, clock=self.clock, scheduler=self.scheduler
                    )
                    for shard_config in configs
                ],
                max_batch,
            )
        else:
            if (self._store_path / "TOPOLOGY.log").exists():
                raise PersistenceError(
                    f"{self._store_path} already holds a cluster; use "
                    "ShardedEngine.open()"
                )
            self._store_path.mkdir(parents=True, exist_ok=True)
            members = []
            for shard_config in configs:
                dirname = self._next_shard_dir()
                store = DurableStore.create(
                    self._store_path / dirname, shard_config, self._injector
                )
                members.append(
                    LSMEngine(
                        shard_config,
                        clock=self.clock,
                        store=store,
                        scheduler=self.scheduler,
                    )
                )
                self._shard_dirs.append(dirname)
            self._topology = _Topology(partitioner, members, max_batch)
            self._append_topology(partitioner, self._shard_dirs)
        # Counters of shards retired by split/rebalance, so cluster totals
        # never go backwards when members are replaced.
        self._retired_stats = Statistics()
        self.obs = Observability.from_config(config)
        # The pipelined ingest queue is per-call; the sampler reads the
        # live one (if any) through this slot.
        self._active_ingest_queue: AsyncIngestQueue | None = None
        self.obs.start_sampler(self._obs_sample)

    # ------------------------------------------------------------------
    # Durable topology
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str | Path,
        max_batch: int = 1024,
        executor: ShardExecutor | str | None = None,
        scheduler: CompactionScheduler | str | None = None,
        ingest_queue_depth: int = 0,
        injector: FaultInjector | None = None,
    ) -> "ShardedEngine":
        """Recover a durable cluster from its topology log.

        Reads the last intact ``TOPOLOGY.log`` record, recovers every
        member engine from its shard directory (manifest + WAL replay,
        see :mod:`repro.lsm.recovery`), and rebuilds the partitioner.
        Member recoveries dispatch through the chosen executor — shard
        directories share nothing, so ``executor="pooled"`` overlaps
        their device waits and recovers the cluster in parallel. Each
        member recovers on a private clock; after the join the clocks
        are *reconciled* deterministically: one shared clock advances to
        the latest recovered instant (a max — independent of dispatch
        order), every member rebinds to it, and FADE members re-run the
        ``D_th`` WAL routine at the shared instant so §4.1.5 holds
        against the cluster clock, not each shard's private one. Shard
        directories not referenced by the record — orphans of a reshard
        that crashed before its topology commit — are ignored and
        removed.
        """
        from repro.lsm.recovery import recover_engine  # local to avoid cycle

        root = Path(path)
        log = root / "TOPOLOGY.log"
        if not log.exists():
            raise PersistenceError(f"{root} holds no cluster topology log")
        blob = log.read_bytes()
        records = [
            json.loads(payload.decode("utf-8"))
            for payload in read_frames(blob)
        ]
        if not records:
            raise PersistenceError(f"{log} holds no intact topology record")
        # A torn tail (real mid-write crash) must be truncated, not just
        # skipped: _append_topology resumes at end-of-file, and a reshard
        # record appended behind the damage would be unreadable to the
        # next open — with the retired shard dirs already deleted.
        DurableStore._truncate_torn_tail(log, blob, 0)
        topology_record = records[-1]
        partitioner = _partitioner_from_dict(topology_record["partitioner"])
        shard_dirs = list(topology_record["shard_dirs"])

        executor_obj = make_executor(executor)
        members: list[LSMEngine] = executor_obj.run(
            [
                (
                    lambda dirname=dirname: recover_engine(
                        root / dirname, injector=injector
                    )
                )
                for dirname in shard_dirs
            ]
        )
        clock = SimulatedClock(members[0].config.ingestion_rate)
        recovered_now = max(member.clock.now for member in members)
        if recovered_now > 0:
            clock.advance(recovered_now)
        for member in members:
            member.clock = clock
            # The full §4.1.5 pair at the *shared* clock: a member whose
            # private recovered clock trailed the cluster may hold a
            # buffered tombstone or WAL segment that is over-age only at
            # the reconciled instant (d_0 flush included — the WAL
            # routine alone would copy a live over-age tombstone forward
            # instead of persisting it).
            member.enforce_delete_persistence()

        cluster = cls(
            members[0].config,
            partitioner=partitioner,
            clock=clock,
            max_batch=max_batch,
            executor=executor_obj,
            scheduler=scheduler,
            ingest_queue_depth=ingest_queue_depth,
            injector=injector,
            _members=members,
        )
        cluster._store_path = root
        cluster._epoch = topology_record["epoch"] + 1
        cluster._dir_seq = topology_record["dir_seq"]
        cluster._shard_dirs = shard_dirs
        for orphan in root.glob("shard-*"):
            if orphan.is_dir() and orphan.name not in shard_dirs:
                shutil.rmtree(orphan, ignore_errors=True)
        return cluster

    @property
    def store_path(self) -> Path | None:
        """The cluster's durable root directory, or ``None``."""
        return self._store_path

    def _next_shard_dir(self) -> str:
        dirname = f"shard-{self._dir_seq:05d}"
        self._dir_seq += 1
        return dirname

    def _append_topology(
        self, partitioner: Partitioner, shard_dirs: list[str]
    ) -> None:
        """Append one topology record — the reshard commit point.

        Callers append *before* publishing the new in-memory topology,
        so a failed append (out of disk, injected crash) leaves memory
        and disk agreeing on the old cluster — a cluster serving on a
        topology the log does not name would lose every acknowledged
        write at the next reopen.
        """
        record = {
            "epoch": self._epoch,
            "dir_seq": self._dir_seq,
            "partitioner": _partitioner_to_dict(partitioner),
            "shard_dirs": list(shard_dirs),
        }
        self._injector.before_write("topology")
        # lint: allow(crash-boundary) — the write sits directly behind
        # the injector's "topology" label above; crash enumeration sees
        # it even though it lives outside storage/persist.py.
        with open(self._store_path / "TOPOLOGY.log", "ab") as handle:
            handle.write(
                frame_bytes(json.dumps(record, sort_keys=True).encode("utf-8"))
            )
            handle.flush()
        self._epoch += 1

    def checkpoint(self) -> None:
        """Checkpoint every member store (flush + manifest snapshot)."""
        with self._gate.shared():
            topology = self._topology
            self._fan_out(
                topology,
                topology.partitioner.all_shards(),
                lambda shard: shard.checkpoint(),
            )

    def sync(self) -> None:
        """Force-drain every member's pending WAL batches.

        The cluster-wide durability barrier for group-committed commit
        policies (see :class:`~repro.lsm.wal.CommitPolicy`); a no-op for
        in-memory clusters.
        """
        with self._gate.shared():
            topology = self._topology
            self._fan_out(
                topology,
                topology.partitioner.all_shards(),
                lambda shard: shard.sync(),
            )

    def close(self) -> None:
        """Drain and close every member store, then retire the executor
        and (when cluster-owned) the compaction scheduler.

        Background compaction work is drained *before* the stores close,
        so every acknowledged merge is durably committed. Exiting
        *without* closing models a crash: each member's un-drained WAL
        batch is lost, exactly as its commit policy documents.

        Shutdown is exception-safe: every step below (sampler, scheduler
        drain, each member store, executor, owned scheduler) runs even
        when an earlier one raises, so a failing member cannot leak the
        sampler/scheduler/worker daemon threads of the others. The first
        exception re-raises once teardown completes. Member stores close
        serially (not through the executor) so a broken executor cannot
        block store shutdown.
        """
        errors: list[BaseException] = []

        def step(fn: Callable[[], Any]) -> None:
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        step(self.obs.close)
        step(self.scheduler.drain)
        try:
            with self._gate.shared():
                topology = self._topology
                for index in topology.partitioner.all_shards():
                    lock, shard = topology.locks[index], topology.shards[index]

                    def close_shard(lock=lock, shard=shard) -> None:
                        with lock:
                            shard.close()

                    step(close_shard)
        except BaseException as exc:  # noqa: BLE001 - gate itself failed
            errors.append(exc)
        step(self.executor.close)
        if self._owns_scheduler:
            step(self.scheduler.close)
        if errors:
            raise errors[0]

    # ------------------------------------------------------------------
    # Topology access
    # ------------------------------------------------------------------

    @property
    def partitioner(self) -> Partitioner:
        return self._topology.partitioner

    @property
    def router(self) -> OperationRouter:
        return self._topology.router

    @property
    def shards(self) -> list[LSMEngine]:
        return self._topology.shards

    @property
    def n_shards(self) -> int:
        return self._topology.partitioner.n_shards

    def shard_for(self, key: Any) -> LSMEngine:
        """The member engine owning ``key`` (for inspection/debugging)."""
        topology = self._topology
        return topology.shards[topology.partitioner.shard_for(key)]

    def _obs_sample(self) -> dict:
        """Cluster-level background-sampler snapshot.

        Reads only atomically swapped state (the topology reference, each
        member's tree view, queue sizes), so it never takes the gate or a
        shard lock — safe from the sampler thread while a reshard runs.
        """
        topology = self._topology
        l1_runs = [shard._pending_l1_runs() for shard in topology.shards]
        ingest_queue = self._active_ingest_queue
        return {
            "n_shards": len(topology.shards),
            "l1_pending_runs": l1_runs,
            "l1_pending_runs_max": max(l1_runs, default=0),
            "ingest_backlog": (
                sum(ingest_queue.backlog()) if ingest_queue is not None else 0
            ),
            "entries_ingested": sum(
                shard.stats.entries_ingested for shard in topology.shards
            ),
        }

    def merged_op_histogram(self, which: str = "write"):
        """Cluster-wide op-latency histogram: per-shard histograms merged
        via :meth:`~repro.obs.LatencyHistogram.combined` (the same fold
        :meth:`Statistics.merge` applies to counters)."""
        from repro.obs import LatencyHistogram

        attr = "op_write_latency" if which == "write" else "op_read_latency"
        parts = [getattr(shard.obs, attr) for shard in self._topology.shards]
        return LatencyHistogram.combined(
            parts, name=f"cluster_{attr}_seconds"
        )

    # ------------------------------------------------------------------
    # Dispatch plumbing
    # ------------------------------------------------------------------

    def _fan_out(
        self,
        topology: _Topology,
        indexes: Sequence[int],
        call: Callable[[LSMEngine], Any],
    ) -> list[Any]:
        """Run ``call(member)`` per shard index through the executor.

        Results come back in ``indexes`` order. The caller holds the
        gate shared, so ``topology`` is stable for the whole fan-out;
        each task holds its shard's lock for its whole duration, so
        pooled execution never interleaves two tasks on one member.
        """

        def task_for(index: int) -> Callable[[], Any]:
            lock = topology.locks[index]
            shard = topology.shards[index]

            def task() -> Any:
                with lock:
                    return call(shard)

            return task

        return self.executor.run([task_for(index) for index in indexes])

    # ------------------------------------------------------------------
    # Write path (routed)
    # ------------------------------------------------------------------

    def put(self, key: Any, value: Any = None, delete_key: Any = None) -> None:
        with self._gate.shared():
            topology = self._topology
            index = topology.partitioner.shard_for(key)
            with topology.locks[index]:
                topology.shards[index].put(key, value, delete_key=delete_key)

    def delete(self, key: Any) -> bool:
        with self._gate.shared():
            topology = self._topology
            index = topology.partitioner.shard_for(key)
            with topology.locks[index]:
                return topology.shards[index].delete(key)

    def delete_range(self, lo: Any, hi: Any) -> None:
        """Sort-key range delete ``[lo, hi)`` on every overlapping shard.

        Validated like :meth:`LSMEngine.delete_range`: ``lo > hi`` is a
        caller error, ``lo == hi`` an empty-interval no-op.

        The interval is *clipped* to each shard's keyspan before dispatch
        (:meth:`~repro.shard.partitioner.Partitioner.clip_range`): a range
        partitioner's members record tombstones only over keys they own,
        so a cluster-wide delete does not leave every member dragging a
        full-width fragment through its compactions. Hash placement
        scatters keys, so there the whole interval goes to every shard.
        """
        if lo > hi:
            raise LetheError(f"delete_range: lo {lo!r} > hi {hi!r}")
        if lo == hi:
            return
        with self._gate.shared():
            topology = self._topology
            partitioner = topology.partitioner
            tasks: list[Callable[[], Any]] = []
            for index in partitioner.shards_for_range(lo, hi):
                start, end = partitioner.clip_range(index, lo, hi)
                if start >= end:
                    continue  # routed over-inclusively; nothing owned here
                lock = topology.locks[index]
                shard = topology.shards[index]

                def task(lock=lock, shard=shard, start=start, end=end) -> None:
                    with lock:
                        shard.delete_range(start, end)

                tasks.append(task)
            self.executor.run(tasks)

    def secondary_range_delete(self, d_lo: Any, d_hi: Any) -> SecondaryDeleteReport:
        """Scatter-gather delete on the secondary key: all shards, summed bill."""
        with self._gate.shared():
            topology = self._topology
            return combine_reports(
                self._fan_out(
                    topology,
                    topology.partitioner.all_shards(),
                    lambda shard: shard.secondary_range_delete(d_lo, d_hi),
                )
            )

    # ------------------------------------------------------------------
    # Read path (routed + merged)
    # ------------------------------------------------------------------

    def get(self, key: Any) -> Any:
        with self._gate.shared():
            topology = self._topology
            index = topology.partitioner.shard_for(key)
            with topology.locks[index]:
                return topology.shards[index].get(key)

    def scan(self, lo: Any, hi: Any) -> list[tuple[Any, Any]]:
        """Merged range lookup: k-way merge of the overlapping shards' scans."""
        with self._gate.shared():
            topology = self._topology
            results = self._fan_out(
                topology,
                topology.partitioner.shards_for_range(lo, hi),
                lambda shard: shard.scan(lo, hi),
            )
        if len(results) == 1:
            return results[0]
        return kway_merge(results)

    def secondary_range_lookup(self, d_lo: Any, d_hi: Any) -> list[tuple[Any, Any]]:
        """Scatter-gather lookup on the delete key, merged in sort-key order."""
        with self._gate.shared():
            topology = self._topology
            results = self._fan_out(
                topology,
                topology.partitioner.all_shards(),
                lambda shard: shard.secondary_range_lookup(d_lo, d_hi),
            )
        return kway_merge(results)

    # ------------------------------------------------------------------
    # Maintenance (broadcast)
    # ------------------------------------------------------------------

    def flush(self) -> None:
        with self._gate.shared():
            topology = self._topology
            self._fan_out(
                topology,
                topology.partitioner.all_shards(),
                lambda shard: shard.flush(),
            )

    def advance_time(self, seconds: float, check_interval: float | None = None) -> None:
        """Simulate idle time once, cluster-wide.

        The shared clock advances a single step at a time and every shard
        runs its TTL/compaction check at the same instant — advancing each
        member independently would multiply idle time by the shard count.
        """
        with self._gate.shared():
            topology = self._topology
            if check_interval is None:
                check_interval = min(
                    shard.config.buffer_entries / shard.config.ingestion_rate
                    for shard in topology.shards
                )
            remaining = float(seconds)
            while remaining > 0:
                step = min(check_interval, remaining)
                remaining -= step
                self.clock.advance(step)
                self._fan_out(
                    topology,
                    topology.partitioner.all_shards(),
                    lambda shard: shard.idle_check(lookahead=check_interval),
                )
            # Idle time leaves no per-shard WAL record; persist the
            # shared clock on every durable member (cluster analogue of
            # LSMEngine.advance_time's clock write).
            for shard in topology.shards:
                if shard.store is not None:
                    shard.store.write_clock(self.clock.now)

    def force_full_compaction(self) -> None:
        with self._gate.shared():
            topology = self._topology
            self._fan_out(
                topology,
                topology.partitioner.all_shards(),
                lambda shard: shard.force_full_compaction(),
            )

    # ------------------------------------------------------------------
    # Batched ingest
    # ------------------------------------------------------------------

    def ingest(
        self, operations: Iterable[tuple], pipelined: bool | None = None
    ) -> None:
        """Apply a workload stream, grouped per shard before dispatch.

        Point operations accumulate into per-shard batches (one
        :meth:`LSMEngine.ingest` call per batch); any multi-shard
        operation acts as a barrier that drains the batches first, so
        scatter-gather deletes and cross-shard scans observe every
        earlier write. Per-key operation order is always preserved.

        ``pipelined`` selects the asynchronous path (default: on iff the
        cluster was built with ``ingest_queue_depth > 0``): batches are
        enqueued to per-shard workers through a bounded
        :class:`~repro.shard.parallel.AsyncIngestQueue`, so a hot shard
        works through its backlog while the stream keeps feeding the
        others; barriers drain the queue before executing, preserving
        exactly the serial path's visibility guarantees. Passing
        ``pipelined=True`` on a cluster configured with depth 0 uses
        :data:`DEFAULT_PIPELINE_DEPTH` as the per-shard bound. The queue
        (and its one worker thread per shard) lives for this call only —
        per-call lifetime keeps error isolation simple; amortize the
        thread churn by feeding large streams, not per-operation calls.

        The stream is routed against the topology current at call time;
        the gate is taken per batch (not for the whole stream), so a
        reshard may land between batches — each batch then re-routes its
        operations through the new topology (see :meth:`_apply_batch`).
        """
        if pipelined is None:
            pipelined = self.ingest_queue_depth > 0

        if not pipelined:
            topology = self._topology
            for item in topology.router.batches(operations):
                if isinstance(item, ShardBatch):
                    self._apply_batch(topology, item.shard, item.operations)
                elif isinstance(item, Barrier):
                    self._run_barrier(item)
            return

        # The pipelined path is a single-submit ingest session: the same
        # machinery the serving layer holds open across many submits.
        with self.ingest_session() as session:
            session.submit(operations)
            session.drain()

    def _run_barrier(self, item: Barrier) -> None:
        """Dispatch one multi-shard (barrier) operation from a stream."""
        name, *args = item.operation
        getattr(self, name)(*args)

    def ingest_session(self, depth: int | None = None) -> "IngestSession":
        """Open a long-lived pipelined ingest handle on this cluster.

        Unlike :meth:`ingest` (which builds and tears down its per-shard
        worker threads per call), a session keeps one
        :class:`~repro.shard.parallel.AsyncIngestQueue` alive across many
        :meth:`IngestSession.submit` calls — the shape the serving layer
        needs, where every connection's write batches feed one shared
        pipeline. ``depth`` defaults to the cluster's configured
        ``ingest_queue_depth`` (or :data:`DEFAULT_PIPELINE_DEPTH`).
        """
        return IngestSession(
            self, depth or self.ingest_queue_depth or DEFAULT_PIPELINE_DEPTH
        )

    def _apply_batch(
        self, routed: _Topology, index: int, batch_ops: list
    ) -> None:
        """Apply one routed batch under the gate.

        ``index`` is only meaningful against the topology the stream was
        routed with; if a reshard replaced it between batches, every
        operation re-routes individually through the current topology —
        a shard index must never be reinterpreted against a different
        partitioner.
        """
        with self._gate.shared():
            topology = self._topology
            if topology is routed:
                with topology.locks[index]:
                    topology.shards[index].ingest(batch_ops)
                return
            for op in batch_ops:
                for target in topology.router.shards_for(op):
                    with topology.locks[target]:
                        topology.shards[target].ingest([op])

    # ------------------------------------------------------------------
    # Resharding (range partitioning only)
    # ------------------------------------------------------------------

    def split(self, shard_index: int, split_key: Any) -> tuple[int, int]:
        """Divide shard ``shard_index`` at ``split_key`` into two shards.

        The retiring engine's live contents (newest version per key, via a
        full scan) migrate into two fresh engines; its counters fold into
        the cluster's retired-stats bucket so aggregate metrics stay
        monotone. Migration re-ingests entries through the normal write
        path — ticking the shared clock and paying flush I/O, as a real
        shard split pays its copy cost. Returns the two new shard indexes.

        Concurrency: holds the topology gate exclusively (no cluster
        operation is in flight) and publishes the new topology as one
        snapshot swap, so concurrent callers see either the old cluster
        or the new one — never a half-retired shard or double-counted
        counters. Operations arriving during the split block at the gate
        and route through the new topology once it is published.
        """
        with self._gate.exclusive():
            # No user operation is in flight (exclusive gate); wait out
            # any background compaction still merging a member before
            # its engine is retired.
            self.scheduler.drain()
            topology = self._topology
            partitioner = self._require_range_partitioner(
                "split", topology.partitioner
            )
            low, high = partitioner.shard_bounds(shard_index)
            if (low is not None and not low < split_key) or (
                high is not None and not split_key < high
            ):
                raise ConfigError(
                    f"split key {split_key!r} outside shard {shard_index} "
                    f"bounds [{low!r}, {high!r})"
                )
            retiring = topology.shards[shard_index]
            # Retire from the scheduler before migrating: the migration
            # flush must not re-enqueue an engine whose directory is
            # about to be deleted (its hooks become no-ops).
            self.scheduler.unregister(retiring)
            # The migration flush consumes the buffer, and the full scan
            # applies (then discards) any in-flight range tombstones.
            # Snapshot them first: their delete *intent* — FADE aging,
            # persistence accounting, cover for anything re-introduced
            # later — must survive into the children, re-fragmented at
            # the split key.
            pending_rts = list(retiring.buffer.range_tombstones)
            survivors = _live_entries(retiring)
            self._retired_stats.merge(retiring.stats)

            # Durable clusters migrate into *new* shard directories; the
            # retiring directory stays intact until the topology record
            # commits, so a crash anywhere in the migration recovers the
            # old cluster unharmed.
            left_store = right_store = None
            new_dirs: list[str] = []
            if self._store_path is not None:
                new_dirs = [self._next_shard_dir(), self._next_shard_dir()]
                left_store = DurableStore.create(
                    self._store_path / new_dirs[0], retiring.config, self._injector
                )
                right_store = DurableStore.create(
                    self._store_path / new_dirs[1], retiring.config, self._injector
                )
            left = LSMEngine(
                retiring.config,
                clock=self.clock,
                store=left_store,
                scheduler=self.scheduler,
            )
            right = LSMEngine(
                retiring.config,
                clock=self.clock,
                store=right_store,
                scheduler=self.scheduler,
            )
            # Re-issue the snapshotted tombstones *before* the entry
            # migration: each child records its clipped piece with a
            # seqnum older than every migrated put, so carried intent
            # can never delete the survivors re-ingested after it.
            for rt in pending_rts:
                left_hi = rt.end if rt.end < split_key else split_key
                if rt.start < left_hi:
                    left.delete_range(rt.start, left_hi)
                right_lo = rt.start if rt.start > split_key else split_key
                if right_lo < rt.end:
                    right.delete_range(right_lo, rt.end)
            # Migrate into the fresh engines before publishing them: the
            # new members enter the topology fully populated.
            for entry in survivors:
                target = left if entry.key < split_key else right
                target.put(entry.key, entry.value, delete_key=entry.delete_key)
            new_shards = (
                topology.shards[:shard_index]
                + [left, right]
                + topology.shards[shard_index + 1 :]
            )
            new_partitioner = partitioner.with_split(split_key)
            # Durable commit point first, then the in-memory swap: once
            # the record is down, memory and disk flip to the new cluster
            # together; if the append fails, both keep the old one.
            if self._store_path is not None:
                retired_dir = self._shard_dirs[shard_index]
                new_shard_dirs = (
                    self._shard_dirs[:shard_index]
                    + new_dirs
                    + self._shard_dirs[shard_index + 1 :]
                )
                self._append_topology(new_partitioner, new_shard_dirs)
                self._shard_dirs = new_shard_dirs
            self._topology = _Topology(
                new_partitioner,
                new_shards,
                topology.router.max_batch,
            )
            if self._store_path is not None:
                shutil.rmtree(self._store_path / retired_dir, ignore_errors=True)
        return shard_index, shard_index + 1

    def rebalance(self) -> list[Any]:
        """Recut every split point at the observed live-key quantiles.

        Collects all live entries, chooses balanced split points, rebuilds
        every member engine, and re-ingests — the heavyweight cluster-wide
        analogue of :meth:`split`. The quantile collection (a full scan of
        every member) dispatches through the executor; the exclusive gate
        already guarantees nothing else touches the members, and results
        come back in shard order, so the chosen split points do not depend
        on the dispatch strategy. Publishes the new topology as one
        snapshot swap, like :meth:`split`. Returns the new split points.
        """
        with self._gate.exclusive():
            self.scheduler.drain()  # as in split(): no merges mid-retire
            topology = self._topology
            self._require_range_partitioner("rebalance", topology.partitioner)
            # Retire every member from the scheduler before the
            # collection flushes re-enqueue them (see split()); undone if
            # validation keeps the old cluster.
            for shard in topology.shards:
                self.scheduler.unregister(shard)
            # As in split(): snapshot in-flight range tombstones before
            # the collection flushes consume them.
            pending_rts = [
                rt
                for shard in topology.shards
                for rt in shard.buffer.range_tombstones
            ]
            survivors: list[Entry] = []
            per_shard = self.executor.run(
                [
                    (lambda shard=shard: _live_entries(shard))
                    for shard in topology.shards
                ]
            )
            for shard_entries in per_shard:
                survivors.extend(shard_entries)
            n_shards = topology.partitioner.n_shards
            if len(set(e.key for e in survivors)) < n_shards:
                # Validate before retiring anything: the shards stay live
                # on this path, so folding their counters into the retired
                # bucket would double-count every cluster metric from here
                # on — and they must keep their scheduler slots.
                for shard in topology.shards:
                    self.scheduler.register(shard)
                raise LetheError(
                    f"cannot rebalance {n_shards} shards over "
                    f"{len(survivors)} live keys"
                )
            for shard in topology.shards:
                self._retired_stats.merge(shard.stats)
            new_partitioner = RangePartitioner.from_keys(
                [entry.key for entry in survivors], n_shards
            )
            new_dirs: list[str] = []
            new_shards: list[LSMEngine] = []
            for shard in topology.shards:
                store = None
                if self._store_path is not None:
                    dirname = self._next_shard_dir()
                    new_dirs.append(dirname)
                    store = DurableStore.create(
                        self._store_path / dirname, shard.config, self._injector
                    )
                new_shards.append(
                    LSMEngine(
                        shard.config,
                        clock=self.clock,
                        store=store,
                        scheduler=self.scheduler,
                    )
                )
            # Carried tombstones first (older seqnums than every migrated
            # put), clipped to each new owner's keyspan — as in split().
            for rt in pending_rts:
                for index in new_partitioner.shards_for_range(rt.start, rt.end):
                    lo, hi = new_partitioner.clip_range(index, rt.start, rt.end)
                    if lo < hi:
                        new_shards[index].delete_range(lo, hi)
            # Migrate before publishing, as in split().
            for entry in survivors:
                new_shards[new_partitioner.shard_for(entry.key)].put(
                    entry.key, entry.value, delete_key=entry.delete_key
                )
            # Commit point before the in-memory swap, as in split().
            retired_dirs: list[str] = []
            if self._store_path is not None:
                retired_dirs = self._shard_dirs
                self._append_topology(new_partitioner, new_dirs)
                self._shard_dirs = new_dirs
            self._topology = _Topology(
                new_partitioner, new_shards, topology.router.max_batch
            )
            for dirname in retired_dirs:
                shutil.rmtree(self._store_path / dirname, ignore_errors=True)
            return list(new_partitioner.split_points)

    def _require_range_partitioner(
        self, operation: str, partitioner: Partitioner | None = None
    ) -> RangePartitioner:
        partitioner = partitioner if partitioner is not None else self.partitioner
        if not isinstance(partitioner, RangePartitioner):
            raise ConfigError(
                f"{operation}() requires a RangePartitioner, cluster uses "
                f"{partitioner.describe()}"
            )
        return partitioner

    # ------------------------------------------------------------------
    # Cluster metrics
    # ------------------------------------------------------------------

    @contextmanager
    def _locked_view(self) -> Iterator[_Topology]:
        """Gate (shared) plus every shard lock: a quiescent read view.

        Metric readers use this so a monitoring thread never walks a
        tree or buffer that a concurrent flush/compaction is
        restructuring. Acquired only from public entry points, never
        nested (gate discipline).
        """
        with self._gate.shared():
            topology = self._topology
            with ExitStack() as stack:
                for lock in topology.locks:
                    stack.enter_context(lock)
                yield topology

    @property
    def stats(self) -> Statistics:
        """Cluster-wide counters: live shards plus retired ones.

        Takes every shard lock (index order) so the merged registry is a
        consistent snapshot even while pooled work is in flight.
        """
        with self._locked_view() as topology:
            return Statistics.combined(
                [self._retired_stats]
                + [shard.stats for shard in topology.shards]
            )

    def shard_stats(self) -> list[Statistics]:
        """Per-shard counter registries (live members only)."""
        with self._locked_view() as topology:
            return [shard.stats for shard in topology.shards]

    def space_amplification(self) -> float:
        """Cluster ``samp``: summed over shards, not averaged — a bloated
        shard cannot hide behind an empty one (§3.2.1 applied to ΣN, ΣU)."""
        total = 0
        unique = 0
        with self._locked_view() as topology:
            for shard in topology.shards:
                shard_total, shard_unique = shard.tree.live_unique_bytes(
                    buffer_entries=list(shard.buffer),
                    buffer_range_tombstones=list(shard.buffer.range_tombstones),
                )
                total += shard_total
                unique += shard_unique
        if unique == 0:
            return 0.0
        return (total - unique) / unique

    def write_amplification(self) -> float:
        combined = self.stats
        return combined.write_amplification(combined.bytes_flushed)

    def tombstones_on_disk(self) -> int:
        with self._locked_view() as topology:
            return sum(
                shard.tombstones_on_disk() for shard in topology.shards
            )

    def shard_entry_counts(self) -> list[int]:
        """Physical entries per shard (tree + buffer) — the balance view."""
        with self._locked_view() as topology:
            return _entry_counts(topology)

    def describe(self) -> str:
        with self._locked_view() as topology:
            lines = [
                f"ShardedEngine({topology.partitioner.describe()}, "
                f"executor={self.executor.describe()}, "
                f"entries/shard={_entry_counts(topology)})"
            ]
            for index, shard in enumerate(topology.shards):
                lines.append(
                    f"shard {index}: " + shard.describe().replace("\n", "\n  ")
                )
        return "\n".join(lines)


def _entry_counts(topology: _Topology) -> list[int]:
    """Physical entries per member (tree + buffer); caller holds the view."""
    return [
        shard.tree.total_entries + len(shard.buffer)
        for shard in topology.shards
    ]


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

    Holds one :class:`~repro.shard.parallel.AsyncIngestQueue` (one
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
    so sessions stay correct across :meth:`split`/:meth:`rebalance`.
    """

    def __init__(self, cluster: ShardedEngine, depth: int):
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
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._queue.close()
        finally:
            if self._cluster._active_ingest_queue is self._queue:
                self._cluster._active_ingest_queue = None

    def abort(self) -> None:
        """Hard-stop the workers, discarding still-queued batches.

        Crash-test hook: already-running batches finish, queued ones are
        dropped (their tickets fail with ``IngestAborted``), and member
        stores are left exactly as a kill -9 would — not closed, not
        drained.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._queue.abort()
        finally:
            if self._cluster._active_ingest_queue is self._queue:
                self._cluster._active_ingest_queue = None

    def __enter__(self) -> "IngestSession":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()


def _live_entries(engine: LSMEngine) -> list[Entry]:
    """Newest live version of every key in ``engine``, by full scan.

    Flushes first so the tree alone holds the truth; reads are not
    charged to the retiring engine (its accounting is frozen into the
    retired bucket) — the migration cost shows up as the new engines'
    flush/compaction work.
    """
    engine.flush()
    bounds = engine.key_bounds
    if bounds is None:
        return []
    low, high = bounds
    return engine.tree.scan(low, high, charge_io=False)
