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

Concurrency model — three pieces, nothing else shared: one immutable
topology snapshot and one reader-writer gate that every operation holds
*shared* and a reshard *exclusive* (both explained in
:mod:`repro.shard.topology`), and **one lock per member engine**: every
call on a member holds its shard's lock for its duration, so shards are
internally serial, mutually parallel across caller threads (and the
:class:`~repro.shard.parallel.IngestSession` workers), and
``Statistics`` registries are only ever mutated single-threaded.
Multi-shard operations visit their members in a plain loop, one member
lock at a time. (The shared clock has its own internal lock — see
:mod:`repro.core.clock`.) Background *compactions* are the exception
to "internally serial": a shared
:class:`~repro.compaction.scheduler.BackgroundScheduler`'s workers
compact members without taking shard locks (one merge per member at a
time, under that member's compaction mutex) — the counters those merges
touch go through the locked ``Statistics.add`` path, and installs
serialize on the member's commit/install locks, not the shard lock.

Gate discipline: shared acquisition happens only in the public entry
points, never nested (a barrier inside ``ingest`` releases and
re-acquires through the public method it dispatches), because the
writer-preferring gate would deadlock a reader that re-enters while a
writer waits.

Durability: see the ``store_path`` parameter, :meth:`ShardedEngine.open`
and ``docs/durability.md``.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.compaction.scheduler import CompactionScheduler, make_scheduler
from repro.core.clock import SimulatedClock
from repro.core.config import EngineConfig
from repro.core.engine import LSMEngine
from repro.core.errors import ConfigError, LetheError
from repro.core.stats import Statistics
from repro.kiwi.range_delete import SecondaryDeleteReport
from repro.obs import Observability
from repro.shard.merge import combine_reports, kway_merge
from repro.shard.parallel import (  # IngestSession/-Ticket: re-exported
    AsyncIngestQueue,
    IngestSession,
    IngestTicket,
)
from repro.shard.partitioner import HashPartitioner, Partitioner, RangePartitioner
from repro.shard.router import Barrier, OperationRouter, ShardBatch
from repro.shard.topology import TopologyLog, _Topology, _TopologyGate
from repro.storage.entry import Entry
from repro.storage.persist import FaultInjector, SimulatedCrash


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
        Per-shard batch bound of every :meth:`ingest_session` pipeline
        (default 4): a producer blocks once a shard is this many
        batches behind.
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
        scheduler: CompactionScheduler | str | None = None,
        ingest_queue_depth: int = 4,
        store_path: str | Path | None = None,
        injector: FaultInjector | None = None,
        _recovered: tuple[TopologyLog, Sequence[LSMEngine]] | None = None,
    ):
        if (n_shards is None) == (partitioner is None):
            raise ConfigError("pass exactly one of n_shards / partitioner")
        if partitioner is None:
            partitioner = HashPartitioner(n_shards)
        if ingest_queue_depth < 1:
            raise ConfigError(
                f"ingest_queue_depth must be >= 1, got {ingest_queue_depth}"
            )
        self.config = config
        self.clock = clock or SimulatedClock(config.ingestion_rate)
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
        # The durable half of the topology; ``None`` for in-memory clusters.
        self._log: TopologyLog | None = None
        if _recovered is not None:
            # Recovery path (ShardedEngine.open): members arrive prebuilt
            # (recovered under the serial scheduler); rebind them to the
            # cluster's shared scheduler before they serve traffic.
            self._log, members = _recovered
            for member in members:
                member.scheduler = self.scheduler
                member._owns_scheduler = False  # cluster-owned, see close()
                self.scheduler.register(member)
            self._topology = _Topology(partitioner, members, max_batch)
        else:
            if store_path is not None:
                self._log = TopologyLog.create(store_path, injector)
            self._topology = _Topology(
                partitioner,
                [self._new_member(shard_config) for shard_config in configs],
                max_batch,
            )
            self._commit_topology(self._topology)
        # Counters of shards retired by split/rebalance, so cluster totals
        # never go backwards when members are replaced.
        self._retired_stats = Statistics()
        self.obs = Observability.from_config(config)
        # The open ingest session's queue (if any); the sampler reads
        # its backlog through this slot.
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
        scheduler: CompactionScheduler | str | None = None,
        ingest_queue_depth: int = 4,
        injector: FaultInjector | None = None,
    ) -> "ShardedEngine":
        """Recover a durable cluster from its topology log.

        Reads the last intact ``TOPOLOGY.log`` record, recovers every
        member engine from its shard directory (manifest + WAL replay,
        see :mod:`repro.lsm.recovery`), and rebuilds the partitioner.
        Members recover one after another, each on a private clock;
        afterwards the clocks are *reconciled*: one shared clock
        advances to the latest recovered instant (a max — independent
        of recovery order), every member rebinds to it, and FADE members
        re-run the ``D_th`` WAL routine at the shared instant so §4.1.5
        holds against the cluster clock, not each shard's private one.
        Shard directories not referenced by the record — orphans of a
        reshard that crashed before its topology commit — are ignored
        and removed.
        """
        from repro.lsm.recovery import recover_engine  # local to avoid cycle

        log, partitioner = TopologyLog.load(path, injector)
        members = [
            recover_engine(log.root / dirname, injector=injector)
            for dirname in log.shard_dirs
        ]
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
            scheduler=scheduler,
            ingest_queue_depth=ingest_queue_depth,
            _recovered=(log, members),
        )
        log.sweep_orphans()
        return cluster

    @property
    def store_path(self) -> Path | None:
        """The cluster's durable root directory, or ``None``."""
        return self._log.root if self._log is not None else None

    def _new_member(self, config: EngineConfig) -> LSMEngine:
        """The one place a member engine is built: on the cluster clock
        and scheduler, over an empty store in a fresh shard directory
        when the cluster is durable."""
        store = self._log.create_store(config) if self._log is not None else None
        return LSMEngine(
            config, clock=self.clock, store=store, scheduler=self.scheduler
        )

    def _commit_topology(self, topology: _Topology) -> None:
        """Durable clusters: commit ``topology`` to the log (the members'
        directories in shard order). Must precede its publication."""
        if self._log is not None:
            self._log.commit(
                topology.partitioner,
                [member.store.path.name for member in topology.shards],
                self.config.fsync,
            )

    def checkpoint(self) -> None:
        """Checkpoint every member store (flush + manifest snapshot)."""
        self._broadcast(lambda shard: shard.checkpoint())

    def sync(self) -> None:
        """Force-drain every member's pending WAL batches.

        The cluster-wide durability barrier for group-committed commit
        policies (see :class:`~repro.lsm.wal.CommitPolicy`); a no-op for
        in-memory clusters.
        """
        self._broadcast(lambda shard: shard.sync())

    def close(self) -> None:
        """Drain and close every member store, then retire the compaction
        scheduler when cluster-owned.

        Background compaction work is drained *before* the stores close,
        so every acknowledged merge is durably committed. Exiting
        *without* closing models a crash: each member's un-drained WAL
        batch is lost, exactly as its commit policy documents.

        Shutdown is exception-safe: every step below (sampler, scheduler
        drain, each member store, owned scheduler) runs even when an
        earlier one raises, so a failing member cannot leak the
        sampler/scheduler daemon threads or the other members' stores.
        The first exception re-raises once teardown completes.
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
        """Run ``call(member)`` per shard index, in a loop.

        Results come back in ``indexes`` order. The caller holds the
        gate shared, so ``topology`` is stable for the whole fan-out;
        each call holds its shard's lock, so no other thread's work
        interleaves with it on that member.
        """
        results = []
        for index in indexes:
            with topology.locks[index]:
                results.append(call(topology.shards[index]))
        return results

    def _broadcast(self, call: Callable[[LSMEngine], Any]) -> list[Any]:
        """``call(member)`` on every shard, under the gate held shared;
        results in shard order."""
        with self._gate.shared():
            topology = self._topology
            return self._fan_out(
                topology, topology.partitioner.all_shards(), call
            )

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
            for index in partitioner.shards_for_range(lo, hi):
                start, end = partitioner.clip_range(index, lo, hi)
                if start >= end:
                    continue  # routed over-inclusively; nothing owned here
                with topology.locks[index]:
                    topology.shards[index].delete_range(start, end)

    def secondary_range_delete(self, d_lo: Any, d_hi: Any) -> SecondaryDeleteReport:
        """Scatter-gather delete on the secondary key: all shards, summed bill."""
        return combine_reports(
            self._broadcast(
                lambda shard: shard.secondary_range_delete(d_lo, d_hi)
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
        return kway_merge(
            self._broadcast(
                lambda shard: shard.secondary_range_lookup(d_lo, d_hi)
            )
        )

    # ------------------------------------------------------------------
    # Maintenance (broadcast)
    # ------------------------------------------------------------------

    def flush(self) -> None:
        self._broadcast(lambda shard: shard.flush())

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
        self._broadcast(lambda shard: shard.force_full_compaction())

    # ------------------------------------------------------------------
    # Batched ingest
    # ------------------------------------------------------------------

    def ingest(self, operations: Iterable[tuple]) -> None:
        """Apply a workload stream, grouped per shard before dispatch.

        Point operations accumulate into per-shard batches (one
        :meth:`LSMEngine.ingest` call per batch, applied in the calling
        thread); any multi-shard operation acts as a barrier that
        drains the batches first, so scatter-gather deletes and
        cross-shard scans observe every earlier write. Per-key operation
        order is always preserved. For a pipelined stream, open an
        :meth:`ingest_session`.

        The stream is routed against the topology current at call time;
        the gate is taken per batch (not for the whole stream), so a
        reshard may land between batches — each batch then re-routes its
        operations through the new topology (see :meth:`_apply_batch`).
        """
        topology = self._topology
        for item in topology.router.batches(operations):
            if isinstance(item, ShardBatch):
                self._apply_batch(topology, item.shard, item.operations)
            elif isinstance(item, Barrier):
                self._run_barrier(item)

    def _run_barrier(self, item: Barrier) -> None:
        """Dispatch one multi-shard (barrier) operation from a stream."""
        name, *args = item.operation
        getattr(self, name)(*args)

    def ingest_session(self) -> "IngestSession":
        """Open a long-lived pipelined ingest handle on this cluster: one
        worker thread per shard, each bounded at ``ingest_queue_depth``
        batches (see :class:`IngestSession`)."""
        return IngestSession(self)

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

        The retiring engine's live contents migrate into two fresh
        engines running its config (see :meth:`_reshard`, the mechanism
        shared with :meth:`rebalance`). Returns the two new shard indexes.
        """

        def retire(old: RangePartitioner) -> slice:
            low, high = old.shard_bounds(shard_index)
            if (low is not None and not low < split_key) or (
                high is not None and not split_key < high
            ):
                raise ConfigError(
                    f"split key {split_key!r} outside shard {shard_index} "
                    f"bounds [{low!r}, {high!r})"
                )
            return slice(shard_index, shard_index + 1)

        self._reshard(
            "split", retire, lambda old, survivors: old.with_split(split_key)
        )
        return shard_index, shard_index + 1

    def rebalance(self) -> list[Any]:
        """Recut every split point at the observed live-key quantiles.

        The heavyweight cluster-wide reshard: every member retires, and
        the new split points are the quantiles of all live keys.
        Returns the new split points.
        """

        def recut(old: RangePartitioner, survivors: list[Entry]) -> RangePartitioner:
            keys = [entry.key for entry in survivors]
            if len(set(keys)) < old.n_shards:
                raise LetheError(
                    f"cannot rebalance {old.n_shards} shards over "
                    f"{len(survivors)} live keys"
                )
            return RangePartitioner.from_keys(keys, old.n_shards)

        return list(
            self._reshard(
                "rebalance", lambda old: slice(0, old.n_shards), recut
            ).split_points
        )

    def _reshard(
        self, operation: str, retire: Callable, choose: Callable
    ) -> RangePartitioner:
        """Replace a contiguous run of members — the one way the
        cluster's shape changes.

        ``retire(old)`` validates the request against the current
        partitioner and returns the slice of members that retire;
        ``choose(old, survivors)`` picks the new partitioner once their
        live entries are known (and may still refuse). Each fresh member
        runs the config of the retiring member whose place it takes — a
        split's second child its parent's. Returns the new partitioner.

        Migration re-ingests the survivors through the normal write path
        — ticking the shared clock and paying flush I/O, as a real
        reshard pays its copy cost.

        Concurrency: holds the topology gate exclusively and publishes
        the new topology as one snapshot swap, so concurrent callers see
        either the old cluster or the new one — never a half-retired
        shard or double-counted counters.

        Failure: any step before the topology commit may raise (a
        refused request, a full disk) and leaves the cluster whole — the
        old members keep their scheduler slots and are counted once, the
        half-built ones are closed and their directories removed.
        """
        with self._gate.exclusive():
            # No user operation is in flight (exclusive gate); wait out
            # any background compaction still merging a member before
            # its engine is retired.
            self.scheduler.drain()
            topology = self._topology
            old = topology.partitioner
            if not isinstance(old, RangePartitioner):
                raise ConfigError(
                    f"{operation}() requires a RangePartitioner, cluster "
                    f"uses {old.describe()}"
                )
            span = retire(old)
            retiring = topology.shards[span]
            fresh: list[LSMEngine] = []
            try:
                # Off the scheduler before migrating: the migration flush
                # must not enqueue an engine whose directory is about to
                # be deleted (its hooks become no-ops).
                for member in retiring:
                    self.scheduler.unregister(member)
                # The migration flush consumes the buffer, and the full
                # scan applies (then discards) any in-flight range
                # tombstones. Snapshot them first: their delete *intent*
                # — FADE aging, persistence accounting, cover for
                # anything re-introduced later — must survive into the
                # fresh members, re-fragmented at the new split points.
                pending_rts = [
                    rt for member in retiring for rt in member.buffer.range_tombstones
                ]
                survivors = [
                    entry for member in retiring for entry in _live_entries(member)
                ]
                partitioner = choose(old, survivors)
                # Durable clusters migrate into *new* shard directories;
                # the retiring ones stay intact until the topology record
                # commits, so a crash anywhere in the migration recovers
                # the old cluster unharmed.
                n_fresh = len(retiring) + partitioner.n_shards - old.n_shards
                fresh.extend(
                    self._new_member(retiring[min(i, len(retiring) - 1)].config)
                    for i in range(n_fresh)
                )
                members = (
                    topology.shards[: span.start] + fresh + topology.shards[span.stop :]
                )
                # Carried tombstones *before* the entries: each new owner
                # records its clipped piece with a seqnum older than
                # every migrated put, so carried intent can never delete
                # the survivors re-ingested after it. Fresh members only:
                # a buffered tombstone may be wider than its member's
                # keyspan (a stale ingest session re-routes them
                # unclipped), and re-issuing the overhang to a surviving
                # neighbour — under a new seqnum — would delete writes
                # that neighbour acknowledged after the original.
                fresh_span = range(span.start, span.start + n_fresh)
                for rt in pending_rts:
                    for index in partitioner.shards_for_range(rt.start, rt.end):
                        lo, hi = partitioner.clip_range(index, rt.start, rt.end)
                        if index in fresh_span and lo < hi:
                            members[index].delete_range(lo, hi)
                # Migrate before publishing: the fresh members enter the
                # topology fully populated.
                for entry in survivors:
                    members[partitioner.shard_for(entry.key)].put(
                        entry.key, entry.value, delete_key=entry.delete_key
                    )
                new_topology = _Topology(
                    partitioner, members, topology.router.max_batch
                )
                # Durable commit point first, then the in-memory swap:
                # once the record is down, memory and disk flip to the
                # new cluster together; if the append fails, both keep
                # the old one.
                self._commit_topology(new_topology)
            except SimulatedCrash:
                # Process death, not a failure to handle: memory and the
                # directory stay exactly as the crash left them (open()'s
                # orphan sweep deals with the leftovers).
                raise
            except BaseException:
                for member in fresh:
                    self.scheduler.unregister(member)
                    try:
                        # Waits out a background merge already running
                        # on the member, then releases its store handles.
                        member.close()
                    except Exception:  # noqa: BLE001 - best effort: the
                        pass  # reshard's own error is the one to surface
                for member in retiring:
                    self.scheduler.register(member)
                if self._log is not None:
                    self._log.sweep_orphans()
                raise
            # Past the commit point: bookkeeping only. The retired
            # members' counters fold into the retired bucket (cluster
            # totals stay monotone) and their directories go.
            self._topology = new_topology
            for member in retiring:
                self._retired_stats.merge(member.stats)
            if self._log is not None:
                self._log.sweep_orphans()
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
        consistent snapshot even while other threads' work is in flight.
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
