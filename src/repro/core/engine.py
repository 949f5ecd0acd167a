"""The engine facade: Lethe and the state-of-the-art baseline in one class.

:class:`LSMEngine` wires together the memory buffer, the simulated disk,
the LSM-tree, the WAL, and a compaction policy chosen from the
configuration:

* ``delete_persistence_threshold`` set → **FADE** (Lethe's compaction);
* ``delete_tile_pages > 1``          → **KiWi** layout (Lethe's storage);
* neither                            → the RocksDB-like baseline.

Write operations advance the simulated clock at the configured ingestion
rate, so FADE's TTLs, file ages, and persistence latencies all follow the
paper's ingestion-driven notion of time.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter as _perf_counter
from contextlib import contextmanager
from typing import Any, Iterable, Iterator

from repro.compaction.base import CompactionPolicy, CompactionTask
from repro.compaction.executor import CompactionExecutor
from repro.compaction.fade import FADEPolicy, InvalidationEstimator
from repro.compaction.full import full_tree_compaction
from repro.compaction.leveling import LeveledCompactionPolicy
from repro.compaction.scheduler import CompactionScheduler, make_scheduler
from repro.core import locks
from repro.core.clock import SimulatedClock
from repro.core.config import (
    CompactionTrigger,
    EngineConfig,
    lethe_config,
    rocksdb_config,
)
from repro.core.errors import CompactionError, LetheError
from repro.core.ops import OPS, unknown_operation
from repro.core.stats import PersistenceRecord, Statistics
from repro.filters.bloom import digest_pair
from repro.kiwi.range_delete import (
    SecondaryDeleteReport,
    execute_secondary_range_delete,
    preview_page_drops,
)
from repro.lsm.builder import build_run
from repro.lsm.tree import LSMTree
from repro.lsm.wal import WriteAheadLog
from repro.obs import Observability
from repro.storage.buffer import MemoryBuffer
from repro.storage.cache import LRUPageCache
from repro.storage.disk import SimulatedDisk
from repro.storage.entry import (
    Entry,
    EntryKind,
    RangeTombstone,
    SequenceGenerator,
)

_COMPACTION_LOOP_LIMIT = 10_000

_TIMED_OP = """\
def {name}({params}):
    obs = self.obs
    if not obs.enabled:
        return body({params})
    started = perf_counter()
    try:
        return body({params})
    finally:
        obs.{histogram}.record(perf_counter() - started)
"""


def _timed(histogram: str):
    """Method decorator: when observability is on, record the call's
    wall time in ``self.obs.<histogram>``.

    The wrapper is generated with the body's own parameter list, so the
    disabled path costs what a hand-written forwarding method costs: one
    attribute load, one flag check, one positional call. A generic
    ``*args, **kwargs`` closure measured two to three times that on
    ``put``, which callers invoke with ``delete_key=`` by keyword.
    """

    def decorate(body):
        name, code = body.__name__, body.__code__
        params = ", ".join(code.co_varnames[: code.co_argcount])
        source = _TIMED_OP.format(name=name, params=params, histogram=histogram)
        namespace = {"body": body, "perf_counter": _perf_counter}
        exec(source, namespace)
        op = functools.wraps(body)(namespace[name])
        op.__defaults__ = body.__defaults__
        return op

    return decorate


class LSMEngine:
    """A complete simulated LSM key-value engine.

    One writer at a time: the engine does not lock its write path, so
    callers must serialize every operation on it (two threads writing
    one durable engine can move its WAL flush watermark backwards).
    Background compaction workers are the only other threads it admits.
    :class:`~repro.shard.engine.ShardedEngine` is the thread-safe entry
    point: it holds the owning shard's lock around every member call.

    Parameters
    ----------
    config:
        All tuning knobs; see :class:`~repro.core.config.EngineConfig`.
        Use :func:`repro.core.config.lethe_config` /
        :func:`repro.core.config.rocksdb_config` for the two named setups.
    clock:
        Optional externally-owned clock (experiments share one clock
        between engines to compare them under identical timelines).
    store:
        Optional :class:`~repro.storage.persist.DurableStore`. When set,
        every WAL append is mirrored to disk and every flush/compaction/
        secondary-delete commits the tree state durably, so
        :meth:`open` can rebuild an equivalent engine after a crash.
        ``None`` (default) keeps the engine purely in-memory.
    scheduler:
        How compactions execute: a :class:`~repro.compaction.scheduler.
        CompactionScheduler` instance, the string ``"serial"`` /
        ``"background"``, or ``None`` for the serial (inline,
        deterministic) default. A shared instance may serve many engines
        (a sharded cluster's members); the engine never closes it.
    """

    def __init__(
        self,
        config: EngineConfig,
        clock: SimulatedClock | None = None,
        store=None,
        scheduler: CompactionScheduler | str | None = None,
    ):
        self.config = config
        self.stats = Statistics()
        self.obs = Observability.from_config(config)
        self.obs.registry.attach_stats("engine", self.stats)
        self.clock = clock or SimulatedClock(config.ingestion_rate)
        cache = LRUPageCache(config.cache_pages) if config.cache_pages else None
        self.cache = cache
        self.disk = SimulatedDisk(
            self.stats, cache=cache, real_io_seconds=config.real_io_seconds
        )
        self.seq = SequenceGenerator()
        self.buffer = MemoryBuffer(config.buffer_entries)
        self.tree = LSMTree(config, self.stats)
        self._store = store
        self.wal = WriteAheadLog(sink=store)
        self.wal.obs = self.obs
        if store is not None:
            store.attach(self)
        self._key_bounds: tuple[Any, Any] | None = None
        self._persistence_index: dict[tuple, PersistenceRecord] = {}
        # Concurrency (see docs/compaction.md):
        # _compaction_mutex — one compaction cycle (select -> merge ->
        #   install) or one maintenance section (SRD, full compaction,
        #   checkpoint) at a time per engine.
        # _commit_lock — serializes {tree install + durable commit}
        #   transactions between the flush path and the compaction
        #   path; held only around those short sections, never across
        #   a merge, so a flush never waits for one.
        # _persistence_lock — the tombstone persistence index, mutated
        #   by the write path and by worker-side persistence callbacks.
        # Lock order: _compaction_mutex -> _commit_lock -> tree install
        # lock; _persistence_lock is a leaf. The ranks encode exactly
        # this order and lockdep enforces it (docs/static_analysis.md).
        self._compaction_mutex = locks.OrderedRLock(
            "engine.compaction", locks.RANK_ENGINE_COMPACTION
        )
        self._commit_lock = locks.OrderedRLock(
            "engine.commit", locks.RANK_ENGINE_COMMIT
        )
        self._persistence_lock = locks.OrderedLock(
            "engine.persistence-index", locks.RANK_PERSISTENCE_INDEX
        )
        self._maintenance_thread: int | None = None

        self.policy = self._build_policy()
        self.executor = CompactionExecutor(
            config=config,
            disk=self.disk,
            stats=self.stats,
            on_tombstone_persisted=self._on_tombstone_persisted,
            obs=self.obs,
        )
        # Close the scheduler only if this engine built it (a string or
        # None spec); a caller-supplied instance may be shared with
        # other engines (a cluster's members) and is the caller's to
        # close.
        self._owns_scheduler = not isinstance(scheduler, CompactionScheduler)
        self.scheduler = make_scheduler(scheduler)
        self.scheduler.register(self)
        self.obs.start_sampler(self._obs_sample)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _build_policy(self) -> CompactionPolicy:
        if self.config.fade_enabled:
            estimator = InvalidationEstimator(
                key_bounds=lambda: self._key_bounds,
                total_entries=lambda: self.tree.total_entries,
            )
            return FADEPolicy(self.config, estimator)
        return LeveledCompactionPolicy(self.config)

    @classmethod
    def lethe(
        cls,
        delete_persistence_threshold: float,
        delete_tile_pages: int = 1,
        **overrides,
    ) -> "LSMEngine":
        """Construct a Lethe engine (FADE, optionally + KiWi)."""
        return cls(
            lethe_config(
                delete_persistence_threshold, delete_tile_pages, **overrides
            )
        )

    @classmethod
    def rocksdb_baseline(cls, **overrides) -> "LSMEngine":
        """Construct the state-of-the-art baseline engine."""
        return cls(rocksdb_config(**overrides))

    @classmethod
    def open(
        cls,
        path,
        config: EngineConfig | None = None,
        clock: SimulatedClock | None = None,
        injector=None,
        scheduler: CompactionScheduler | str | None = None,
    ) -> "LSMEngine":
        """Open a durable engine at ``path``: recover it or create it.

        An existing store is recovered from its manifest and WAL (see
        :mod:`repro.lsm.recovery`); a fresh directory needs ``config``.
        ``injector`` is the fault-injection hook the crash-test harness
        uses to kill the durable backend at chosen write boundaries;
        ``scheduler`` is the compaction scheduler the opened engine runs
        under (recovery itself always converges inline).
        """
        from repro.lsm.recovery import open_engine  # local to avoid cycle

        return open_engine(
            path, config=config, clock=clock, injector=injector,
            scheduler=scheduler,
        )

    @property
    def store(self):
        """The attached durable store, or ``None`` for in-memory engines."""
        return self._store

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    @_timed("op_write_latency")
    def put(self, key: Any, value: Any = None, delete_key: Any = None) -> None:
        """Insert or update ``key``; ``delete_key`` is the secondary key D."""
        self.scheduler.throttle(self)
        self.clock.tick()
        now = self.clock.now
        seqnum = self.seq.next()
        entry = Entry(
            key=key,
            seqnum=seqnum,
            kind=EntryKind.PUT,
            value=value,
            delete_key=delete_key,
            size=self.config.entry_size,
            write_time=now,
        )
        self.wal.append(seqnum, key, is_tombstone=False, now=now, payload=entry)
        overwritten = self.buffer.get(key)
        if overwritten is not None and overwritten.is_tombstone:
            self._nullify_tombstone_record(("p", key, overwritten.seqnum), now)
            self.wal.void_tombstone(overwritten.seqnum)
        self.buffer.put(entry)
        self._note_key(key)
        self.stats.entries_ingested += 1
        self._maybe_flush()

    @_timed("op_write_latency")
    def delete(self, key: Any) -> bool:
        """Logical point delete: insert a tombstone (§3.1.1).

        Returns ``False`` when blind-delete avoidance suppressed the
        tombstone because no filter in the tree could contain the key
        (§4.1.5 "Blind Deletes").
        """
        self.scheduler.throttle(self)
        self.clock.tick()
        now = self.clock.now
        if self.config.avoid_blind_deletes and not self._may_contain(key):
            self.stats.blind_deletes_skipped += 1
            return False
        seqnum = self.seq.next()
        tombstone = Entry(
            key=key,
            seqnum=seqnum,
            kind=EntryKind.TOMBSTONE,
            size=self.config.tombstone_size,
            write_time=now,
        )
        self.wal.append(seqnum, key, is_tombstone=True, now=now, payload=tombstone)
        record = self.stats.record_tombstone_insert(key, now)
        self._track_persistence(("p", key, seqnum), record)
        overwritten = self.buffer.get(key)
        if overwritten is not None and overwritten.is_tombstone:
            # The older buffered tombstone will never reach disk as
            # itself (the buffer keeps one entry per key); the fresh
            # tombstone carries the delete intent from here on, so the
            # old WAL record must stop counting as a tombstone or the
            # D_th routine drags a dead intent through every rewrite.
            self.wal.void_tombstone(overwritten.seqnum)
        self.buffer.put(tombstone)
        self.stats.point_tombstones_ingested += 1
        self._maybe_flush()
        return True

    @_timed("op_write_latency")
    def delete_range(self, lo: Any, hi: Any) -> None:
        """Range delete on the *sort* key over ``[lo, hi)`` (§3.1.1).

        ``lo > hi`` is a caller error (the network protocol rejects such
        frames before they reach an engine) and ``lo == hi`` denotes the
        empty interval, a no-op that consumes no seqnum and writes
        nothing.
        """
        if lo > hi:
            raise LetheError(f"delete_range: lo {lo!r} > hi {hi!r}")
        if lo == hi:
            return
        self.scheduler.throttle(self)
        self.clock.tick()
        now = self.clock.now
        seqnum = self.seq.next()
        tombstone = RangeTombstone(
            start=lo,
            end=hi,
            seqnum=seqnum,
            size=2 * self.config.key_size + 1,
            write_time=now,
        )
        self.wal.append(seqnum, lo, is_tombstone=True, now=now, payload=tombstone)
        record = self.stats.record_tombstone_insert((lo, hi), now)
        self._track_persistence(("r", lo, hi, seqnum), record)
        self.buffer.add_range_tombstone(tombstone)
        self.stats.range_tombstones_ingested += 1
        self._maybe_flush()

    def secondary_range_delete(self, d_lo: Any, d_hi: Any) -> SecondaryDeleteReport:
        """Delete every entry whose *delete* key D lies in ``[d_lo, d_hi)``.

        KiWi layout (``h > 1``): tile-wise page drops, no tree rewrite.
        Classic layout: the state of the art's only option — a full-tree
        compaction that reads and rewrites all ``N/B`` pages (§3.3).
        """
        self.scheduler.barrier(self)
        with self._exclusive_maintenance():
            self.clock.tick()
            now = self.clock.now
            # Durable engines sequence the SRD and commit an *intent*
            # record before touching anything: a crash anywhere inside
            # the SRD then leaves a durable not-done entry that recovery
            # rolls forward, and WAL replay can place the purge
            # correctly in history.
            srd_seq = None
            if self._store is not None:
                srd_seq = self.seq.next()
                self._store.register_srd(srd_seq, d_lo, d_hi)
                self._commit("srd-begin")
            report = self._apply_secondary_range_delete(d_lo, d_hi, now, srd_seq)
        self.scheduler.after_maintenance(self)
        return report

    def _apply_secondary_range_delete(
        self, d_lo: Any, d_hi: Any, now: float, srd_seq: int | None = None
    ) -> SecondaryDeleteReport:
        """The SRD body, also invoked (against the already-registered
        intent, without creating a new one) by crash recovery's
        roll-forward path. Idempotent: re-running it on a state where the
        work partially or wholly happened only completes it."""
        if self.config.kiwi_enabled:
            dropped: list[Entry] = list(
                self.buffer.purge_delete_key_range(d_lo, d_hi)
            )
            report = execute_secondary_range_delete(
                self.tree,
                d_lo,
                d_hi,
                self.stats,
                dropped_out=dropped,
            )
            self._suppress_resurrected_versions(dropped, now)
            self._complete_srd(srd_seq)
            self._commit("srd")
            self._maybe_flush()
            return report
        # Classic layout: flush whatever is buffered, then rewrite the
        # tree. The buffered entries are *not* pre-filtered: supersession
        # must reach the merge (which resolves versions before the drop
        # predicate applies), or purging a buffered newest version would
        # resurrect an older on-disk one — the exact torn state a crash
        # between the flush and the rewrite would otherwise expose.
        before_read = self.stats.pages_read
        before_written = self.stats.pages_written
        self.flush()
        full_tree_compaction(
            self.tree,
            self.config,
            self.disk,
            self.stats,
            now,
            on_tombstone_persisted=self._on_tombstone_persisted,
            drop_predicate=lambda e: (
                e.delete_key is not None and d_lo <= e.delete_key < d_hi
            ),
        )
        self._complete_srd(srd_seq)
        self._commit("srd-classic")
        self.stats.secondary_range_deletes += 1
        report = SecondaryDeleteReport(
            pages_read=self.stats.pages_read - before_read,
            pages_written=self.stats.pages_written - before_written,
        )
        self.stats.srd_pages_read += report.pages_read
        self.stats.srd_pages_written += report.pages_written
        return report

    def _suppress_resurrected_versions(
        self, dropped: list[Entry], now: float
    ) -> None:
        """Tombstone keys whose *newest* version a page drop purged.

        KiWi purges by delete key, not by recency: when the newest
        version of a key falls in the delete range but an older version
        (with an out-of-range delete key) survives elsewhere in the tree
        or buffer, that stale version would resurface on reads. Such keys
        get a point tombstone through the ordinary write path (WAL'd, so
        crash recovery preserves the suppression), which compaction
        eventually persists like any other delete.
        """
        newest_dropped: dict[Any, int] = {}
        for entry in dropped:
            held = newest_dropped.get(entry.key)
            if held is None or entry.seqnum > held:
                newest_dropped[entry.key] = entry.seqnum
        for key in sorted(newest_dropped):
            survivor = self._lookup_entry(key, charge_io=False)
            if (
                survivor is None
                or survivor.is_tombstone
                or survivor.seqnum > newest_dropped[key]
            ):
                continue
            seqnum = self.seq.next()
            tombstone = Entry(
                key=key,
                seqnum=seqnum,
                kind=EntryKind.TOMBSTONE,
                size=self.config.tombstone_size,
                write_time=now,
            )
            self.wal.append(
                seqnum, key, is_tombstone=True, now=now, payload=tombstone
            )
            record = self.stats.record_tombstone_insert(key, now)
            self._track_persistence(("p", key, seqnum), record)
            self.buffer.put(tombstone)
            self.stats.point_tombstones_ingested += 1

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    @_timed("op_read_latency")
    def get(self, key: Any) -> Any:
        """Point lookup: the most recent live value, or ``None``."""
        self.stats.point_lookups += 1
        entry = self._lookup_entry(key)
        if entry is None or entry.is_tombstone:
            self.stats.zero_result_lookups += 1
            return None
        return entry.value

    def _lookup_entry(self, key: Any, charge_io: bool = True) -> Entry | None:
        """Newest version of ``key`` across buffer and tree (tombstones
        included). ``charge_io=False`` validates a candidate already in
        memory: same answer, no page reads counted."""
        buffered = self.buffer.get(key)
        if buffered is not None:
            if self.buffer.range_deleted(key, buffered.seqnum):
                return None
            return buffered
        on_disk = self.tree.lookup(key, charge_io)
        if on_disk is not None and self.buffer.range_deleted(key, on_disk.seqnum):
            return None
        return on_disk

    @_timed("op_read_latency")
    def scan(self, lo: Any, hi: Any) -> list[tuple[Any, Any]]:
        """Range lookup on the sort key: live (key, value) pairs in order."""
        self.stats.range_lookups += 1
        buffered = self.buffer.scan(lo, hi)
        entries = self.tree.scan(
            lo,
            hi,
            extra_streams=[buffered] if buffered else None,
            extra_range_tombstones=list(self.buffer.range_tombstones),
        )
        return [(e.key, e.value) for e in entries]

    def secondary_range_lookup(self, d_lo: Any, d_hi: Any) -> list[tuple[Any, Any]]:
        """Range lookup on the *delete* key D (§4.2.5).

        KiWi reads only the D-overlapping pages of each tile; the classic
        layout has no delete-key metadata and must scan every page.
        Version resolution: each candidate is kept only if it is the
        currently live version of its key (validated against the tree
        without charging I/O — the validation reads no new pages in a real
        system because candidates are already in memory).
        """
        self.stats.secondary_range_lookups += 1
        candidates: list[Entry] = list(self.buffer.scan_delete_key_range(d_lo, d_hi))
        for run_file in self.tree.all_files():
            if hasattr(run_file, "secondary_scan"):
                candidates.extend(run_file.secondary_scan(d_lo, d_hi))
            else:
                self.disk.charge_read(run_file.num_pages)
                self.stats.lookup_pages_read += run_file.num_pages
                candidates.extend(
                    e
                    for e in run_file.entries()
                    if e.delete_key is not None and d_lo <= e.delete_key < d_hi
                )
        live: list[tuple[Any, Any]] = []
        seen: set[Any] = set()
        for entry in sorted(candidates, key=lambda e: (e.key, -e.seqnum)):
            if entry.key in seen:
                continue
            seen.add(entry.key)
            current = self._lookup_entry(entry.key, charge_io=False)
            if (
                current is not None
                and not current.is_tombstone
                and current.seqnum == entry.seqnum
            ):
                live.append((entry.key, entry.value))
        return live

    # ------------------------------------------------------------------
    # Flush & compaction
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Drain the buffer into Level 1, then hand off compaction work.

        Under the default :class:`~repro.compaction.scheduler.
        SerialScheduler` the notification drains the policy's task queue
        to convergence inline — the original write-path semantics. Under
        a background scheduler the flush returns as soon as the buffer
        is installed; workers converge the tree off the write path and
        the throttle hook's hard stall at ``stall_l1_runs`` bounds how
        far Level 1 may back up.
        """
        if self.flush_buffer():
            self.scheduler.notify(self)

    def flush_buffer(self) -> bool:
        """The buffer→Level-1 half of a flush; no compaction runs.

        Returns ``True`` when something was flushed. The tree install,
        durable commit, WAL watermark, and FADE TTL recomputation form
        one transaction under the commit lock, so a background worker's
        install/commit can never interleave with a half-installed flush.
        """
        if self.buffer.is_empty:
            return False
        with self.obs.tracer.span("flush", entries=len(self.buffer)):
            return self._flush_buffer_impl()

    def _flush_buffer_impl(self) -> bool:
        self.scheduler.barrier(self)
        now = self.clock.now
        # begin_flush keeps the drained snapshot readable until the run
        # is installed in the tree: a reader racing this flush sees the
        # entries in the buffer's flushing table or in Level 1, never in
        # neither (the snapshot-consistency contract of docs/compaction.md).
        entries, range_tombstones = self.buffer.begin_flush()
        try:
            max_seq = max(
                [e.seqnum for e in entries] + [rt.seqnum for rt in range_tombstones],
                default=-1,
            )
            files = build_run(
                entries,
                range_tombstones,
                config=self.config,
                disk=self.disk,
                stats=self.stats,
                now=now,
                level=1,
            )
            pages = sum(f.num_pages for f in files)
            size_bytes = sum(f.size_bytes for f in files)
            self.disk.charge_write(pages)
            self.stats.add(bytes_flushed=size_bytes, buffer_flushes=1)

            with self._commit_lock:
                level1 = self.tree.ensure_level(1)
                with self.tree.install():
                    if not self.config.level1_tiered and level1.is_empty:
                        level1.merge_into_single_run(files)
                    else:
                        # A tiered Level 1 keeps every flushed run. Under
                        # pure leveling (§2) the flushed run is greedily
                        # sort-merged with Level 1's run: model it as a
                        # one-off tiered install that the next compaction
                        # step resolves (see _next_compaction_task);
                        # installing as a transient second run keeps the
                        # merge inside the executor.
                        level1.add_run(files)

                # Durable commit precedes the WAL purge: the manifest
                # record that carries the new watermark (and the flushed
                # files) must be on disk before the WAL segments it
                # supersedes are deleted.
                self._commit(
                    "flush", watermark=max(max_seq, self.wal.flushed_seqnum)
                )
                if max_seq >= 0:
                    self.wal.mark_flushed(max_seq)
                if self.config.fade_enabled and self.config.delete_persistence_threshold:
                    self.wal.enforce_persistence_threshold(
                        now, self.config.delete_persistence_threshold
                    )
        finally:
            self.buffer.end_flush()
        return True

    def _maybe_flush(self) -> None:
        if self.buffer.is_full:
            self.flush()

    @contextmanager
    def _exclusive_maintenance(self) -> Iterator[None]:
        """Whole-tree exclusion: the engine's compaction mutex.

        Compaction cycles and maintenance sections (SRD, full
        compaction, checkpoint) all run under it, so its holder is the
        only thread removing or rewriting files — a concurrent flush can
        only add a new Level-1 run. The thread marker lets the scheduler
        detect re-entrant notifications (a flush inside an SRD, a
        deterministic worker's own commit) and skip drain barriers that
        would deadlock against a worker waiting for this very mutex.
        """
        with self._compaction_mutex:
            previous = self._maintenance_thread
            self._maintenance_thread = threading.get_ident()
            try:
                yield
            finally:
                self._maintenance_thread = previous

    def _pending_l1_runs(self) -> int:
        """Level 1's run backlog — the write-stall policy's input."""
        levels = self.tree.levels
        return levels[0].run_count if levels else 0

    def _next_compaction_task(self, now: float) -> CompactionTask | None:
        """The next unit of compaction work, freshest-tree selection.

        Pure leveling consolidates a multi-run Level 1 first (the greedy
        merge the flush path used to run inline); otherwise the policy
        chooses. Called under the commit lock so selection never sees a
        half-installed layout.
        """
        if not self.config.level1_tiered and self.tree.height >= 1:
            level1 = self.tree.level(1)
            if level1.run_count > 1:
                return CompactionTask(
                    source_level=1,
                    source_files=list(level1.files()),
                    target_level=1,
                    trigger=CompactionTrigger.SATURATION,
                    whole_level=True,
                    description="greedy L1 merge (pure leveling)",
                )
        task = self.policy.select(self.tree, now)
        if task is not None:
            self._expand_multi_run_source(task)
        return task

    def run_one_compaction(self) -> bool:
        """Select and execute one compaction task; ``False`` when idle.

        The one dispatch path — inline convergence, background workers
        and re-entrant maintenance frames all call it the same way. The
        whole cycle holds the compaction mutex (one merge per engine at
        a time; a second caller blocks until it installs). Selection and
        the final install + durable commit additionally take the commit
        lock; the merge itself (``executor.prepare``) runs with the
        commit lock dropped, which is why the write path keeps flushing
        new Level-1 runs beside a long merge.
        """
        with self._exclusive_maintenance():
            with self._commit_lock:
                now = self.clock.now
                task = self._next_compaction_task(now)
                peers = None
                if task is not None:
                    # Snapshot the source level's non-source files *in
                    # the same locked section as selection*: a flush
                    # landing after the lock drops must be classified as
                    # racing (newer data), not as a prepare-time peer.
                    peers = self._source_peers(task)
            if task is None:
                return False
            with self.obs.tracer.span(
                "compaction",
                level=task.source_level,
                target=task.target_level,
                trigger=task.trigger.value,
                files=len(task.source_files),
            ):
                prepared = self.executor.prepare(
                    self.tree, task, now, source_peer_ids=peers
                )
                with self._commit_lock:
                    self.executor.install_prepared(
                        self.tree, task, prepared, now
                    )
                    self._commit("compaction")
        return True

    def _source_peers(self, task: CompactionTask) -> frozenset:
        source_ids = {id(f) for f in task.source_files}
        return frozenset(
            id(f)
            for f in self.tree.level(task.source_level).files()
            if id(f) not in source_ids
        )

    def run_pending_compactions(self) -> int:
        """Drain the policy's task queue inline; returns tasks executed."""
        for executed in range(_COMPACTION_LOOP_LIMIT):
            if not self.run_one_compaction():
                return executed
        raise CompactionError(
            f"compaction loop did not converge in {_COMPACTION_LOOP_LIMIT} steps"
        )

    def _expand_multi_run_source(self, task) -> None:
        """Sourcing from a multi-run (tiered L1) level must take every
        overlapping file in that level, or dropped tombstones could
        resurrect older versions living in sibling runs."""
        level = self.tree.level(task.source_level)
        if level.run_count <= 1 or task.whole_level:
            return
        chosen = list(task.source_files)
        chosen_ids = {id(f) for f in chosen}
        changed = True
        while changed:
            changed = False
            lo = min(f.min_key for f in chosen)
            hi = max(f.max_key for f in chosen)
            for run_file in level.files():
                if id(run_file) not in chosen_ids and run_file.overlaps_range(lo, hi):
                    chosen.append(run_file)
                    chosen_ids.add(id(run_file))
                    changed = True
        task.source_files = chosen

    def advance_time(self, seconds: float, check_interval: float | None = None) -> None:
        """Simulate idle time, honouring TTLs as they expire along the way.

        Idle time is consumed in ``check_interval`` steps (default: one
        buffer-fill period, the cadence at which a busy system would run
        the Fig. 4 check anyway); each step re-evaluates TTL expiry, so
        idle periods add at most one interval of persistence slack.

        Buffered tombstones age too: once the oldest exceeds the buffer's
        TTL allowance ``d_0`` (§4.1.2 assigns Level 0 — the buffer — the
        smallest slice of ``D_th``), the buffer is force-flushed so its
        tombstones enter the tree and keep propagating.
        """
        if check_interval is None:
            check_interval = self.config.buffer_entries / self.config.ingestion_rate
        remaining = float(seconds)
        while remaining > 0:
            step = min(check_interval, remaining)
            remaining -= step
            self.clock.advance(step)
            self.idle_check(lookahead=check_interval)
        # Idle time leaves no WAL record; persist the clock so recovery
        # does not travel back to the last write's timestamp.
        if self._store is not None:
            self._store.write_clock(self.clock.now)

    def idle_check(self, lookahead: float = 0.0) -> None:
        """One TTL-expiry/compaction check at the current simulated time.

        Factored out of :meth:`advance_time` so a sharded cluster sharing
        one clock can advance it once and then run every member engine's
        check at the same instant. ``lookahead`` is the caller's check
        cadence: the buffer's ``d_0`` force-flush must fire at the last
        check *before* the deadline, or a buffered tombstone would
        always overstay its allowance by one interval (when the tree is
        empty, ``d_0 = D_th``, so firing late breaks §4.1.5 outright).
        """
        self.enforce_delete_persistence(lookahead=lookahead)
        self.scheduler.notify(self)

    def enforce_delete_persistence(self, lookahead: float = 0.0) -> None:
        """Re-establish §4.1.5 at the current clock (no-op without FADE).

        Two pieces: over-age *buffered* tombstones — past the buffer's
        ``d_0`` allowance — force a flush so they enter the tree and
        leave the log; then the ``D_th`` WAL routine drops or copies the
        log segments themselves. Shared by the idle check, single-engine
        crash recovery, and cluster clock reconciliation (a member
        rebound to a later shared clock must re-run both at that clock).
        """
        if not self.config.fade_enabled:
            return
        if isinstance(self.policy, FADEPolicy):
            oldest = self.buffer.oldest_tombstone_time()
            if oldest is not None:
                height = max(1, self.tree.deepest_nonempty_level())
                d0 = self.policy.level_ttls(height)[0]
                if self.clock.now - oldest > max(0.0, d0 - lookahead):
                    self.flush()
        # §4.1.5's WAL routine runs periodically, not only at flush:
        # idle time must not leave any live log segment older than
        # D_th (live records are copied forward, flushed ones drop).
        if self.config.delete_persistence_threshold:
            self.wal.enforce_persistence_threshold(
                self.clock.now, self.config.delete_persistence_threshold
            )

    def force_full_compaction(self) -> None:
        """The state of the art's forced persistence (full-tree compaction)."""
        self.scheduler.barrier(self)
        with self._exclusive_maintenance():
            self.flush()
            with self._commit_lock:
                full_tree_compaction(
                    self.tree,
                    self.config,
                    self.disk,
                    self.stats,
                    self.clock.now,
                    on_tombstone_persisted=self._on_tombstone_persisted,
                )
                self._commit("full-compaction")
        self.scheduler.after_maintenance(self)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def _commit(self, reason: str, watermark: int | None = None) -> None:
        """Commit the current tree state durably (no-op without a store).

        Under ``deterministic_commits`` the scheduler drains before the
        manifest record is appended — the barrier that keeps the durable
        write-boundary stream enumerable by the crash suites (a no-op
        when the caller already holds the compaction mutex).
        """
        if self._store is not None:
            self.scheduler.barrier(self)
            self._store.commit(reason, watermark=watermark)

    def _complete_srd(self, srd_seq: int | None) -> None:
        if self._store is not None and srd_seq is not None:
            self._store.complete_srd(srd_seq)

    def checkpoint(self) -> None:
        """Flush, then compact the durable manifest to one snapshot.

        Bounds recovery time: after a checkpoint the WAL tail is empty up
        to the watermark and the manifest is a single record. Requires a
        durable store.
        """
        if self._store is None:
            raise LetheError("checkpoint() requires a durable store")
        self.scheduler.barrier(self)
        with self._exclusive_maintenance():
            self.flush()
            with self._commit_lock:
                self._store.checkpoint()
        self.scheduler.after_maintenance(self)

    def sync(self) -> None:
        """Force-drain group-committed WAL batches (no-op without a store).

        Under a ``group(n)`` commit policy with ``n > 1``,
        acknowledged operations may sit in the store's pending
        batch; ``sync()`` is the explicit durability barrier that puts
        them on disk (the analogue of a client-requested fsync).
        """
        if self._store is not None:
            self._store.wal_sync()

    def close(self) -> None:
        """Drain pending durable state and release open file handles.

        Background compaction work drains first, so every merge that
        already committed — or is mid-commit on a worker — reaches the
        store before its handles close; an engine-owned scheduler (built
        from a string spec) is then stopped, while a caller-supplied one
        is left running and merely forgets this engine — a shared
        scheduler's ``drain()`` re-raises the error of any registered
        engine, so a closed engine that stayed registered would poison
        every other member's drain and close. Purely in-memory engines
        have nothing to release. A process that exits *without* closing
        models a crash: whatever the commit policy had not yet drained
        is lost, which is exactly the trade-off the policy spec names.

        Every step runs even when an earlier one raises (the first
        exception re-raises at the end), so a failing store cannot leak
        the sampler or scheduler worker threads into the process.
        """
        errors: list[BaseException] = []
        steps = [self.obs.close, self.scheduler.drain]
        if not self._owns_scheduler:
            steps.append(lambda: self.scheduler.unregister(self))
        if self._store is not None:
            steps.append(self._store.close)
        if self._owns_scheduler:
            steps.append(self.scheduler.close)
        for fn in steps:
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
        if errors:
            raise errors[0]

    # ------------------------------------------------------------------
    # Bulk loading convenience
    # ------------------------------------------------------------------

    def ingest(self, operations: Iterable[tuple]) -> None:
        """Apply a stream of workload operations.

        Each operation is a tuple ``(name, *args)`` whose name is a
        row of :data:`repro.core.ops.OPS` — the vocabulary
        :mod:`repro.workloads.generator` produces and the sharded
        engine's router splits across shards — and whose remaining
        elements are the arguments of the method of that name.
        """
        for operation in operations:
            name = operation[0]
            if name not in OPS:
                raise unknown_operation(name)
            getattr(self, name)(*operation[1:])

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def _obs_sample(self) -> dict:
        """One background-sampler snapshot of live engine pressure.

        Runs on the sampler thread: reads only atomically swapped or
        monotonically growing state (tree views, stats counters, WAL
        segment list), so no engine lock is taken.
        """
        stats = self.stats
        cache_probes = stats.cache_hits + stats.cache_misses
        return {
            "l1_pending_runs": self._pending_l1_runs(),
            "buffer_fill": len(self.buffer) / max(1, self.buffer.capacity_entries),
            "entries_ingested": stats.entries_ingested,
            "write_stalls": stats.write_stalls,
            "stall_seconds": stats.stall_seconds,
            "cache_hit_rate": (
                stats.cache_hits / cache_probes if cache_probes else 0.0
            ),
            "wal_live_records": self.wal.live_records,
            "background_compactions": stats.background_compactions,
        }

    def space_amplification(self) -> float:
        """Current ``samp`` over tree plus buffer (§3.2.1)."""
        return self.tree.space_amplification(
            buffer_entries=list(self.buffer),
            buffer_range_tombstones=list(self.buffer.range_tombstones),
        )

    def write_amplification(self) -> float:
        """``wamp`` = compaction rewrites over freshly flushed bytes (§3.2.3)."""
        return self.stats.write_amplification(self.stats.bytes_flushed)

    def tombstones_on_disk(self) -> int:
        return self.tree.tombstones_in_tree()

    def tombstone_age_distribution(self) -> list[tuple[float, int]]:
        """Fig 6E raw data: (file age, tombstone count) at this snapshot."""
        return self.tree.tombstone_age_distribution(self.clock.now)

    def max_tombstone_file_age(self) -> float:
        return self.tree.max_tombstone_amax(self.clock.now)

    def preview_secondary_delete(self, d_lo: Any, d_hi: Any) -> tuple[int, int, int]:
        """(full, partial, total pages) a secondary delete would touch."""
        return preview_page_drops(self.tree, d_lo, d_hi)

    def describe(self) -> str:
        """Human-readable engine snapshot (examples/debugging)."""
        return (
            f"{type(self).__name__}(policy={type(self.policy).__name__}, "
            f"h={self.config.delete_tile_pages}, "
            f"D_th={self.config.delete_persistence_threshold})\n"
            f"{self.tree.describe()}\n"
            f"buffer: {len(self.buffer)}/{self.buffer.capacity_entries} entries"
        )

    @property
    def key_bounds(self) -> tuple[Any, Any] | None:
        """Inclusive (min, max) sort-key bounds ever written, or ``None``.

        Shard migration (split/rebalance) scans this range to extract the
        live contents of an engine.
        """
        return self._key_bounds

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _note_key(self, key: Any) -> None:
        if self._key_bounds is None:
            self._key_bounds = (key, key)
        else:
            lo, hi = self._key_bounds
            if key < lo:
                self._key_bounds = (key, hi)
            elif key > hi:
                self._key_bounds = (lo, key)

    def _may_contain(self, key: Any) -> bool:
        """Membership pre-check for blind-delete avoidance (no I/O)."""
        if self.buffer.get(key) is not None:
            return True
        hashed = digest_pair(key)
        for level_runs in self.tree.read_view():
            for run in level_runs:
                for run_file in run.overlapping(key, key):
                    if run_file.might_contain(key, hashed):
                        return True
        return False

    def _on_tombstone_persisted(self, tombstone: object) -> None:
        """Close the persistence record of a dropped tombstone.

        Invoked from compaction installs — under a background scheduler
        that is a worker thread, so the index mutates under its lock.
        """
        if isinstance(tombstone, Entry):
            index_key = ("p", tombstone.key, tombstone.seqnum)
            with self._persistence_lock:
                record = self._persistence_index.pop(index_key, None)
        elif isinstance(tombstone, RangeTombstone):
            index_key = ("r", tombstone.start, tombstone.end, tombstone.seqnum)
            with self._persistence_lock:
                record = self._persistence_index.pop(index_key, None)
                if record is None:
                    # Fragmentation rewrites a tombstone's bounds at every
                    # flush/compaction; the seqnum it carries stays
                    # engine-unique, so fall back to matching on it.
                    for key in self._persistence_index:
                        if key[0] == "r" and key[3] == tombstone.seqnum:
                            record = self._persistence_index.pop(key)
                            break
        else:  # pragma: no cover - defensive
            return
        if record is not None and record.persisted_at is None:
            record.persisted_at = self.clock.now

    def _nullify_tombstone_record(self, index_key: tuple, now: float) -> None:
        """A buffered tombstone overwritten by a newer put never reaches
        disk: its delete intent is void, so its record closes immediately."""
        with self._persistence_lock:
            record = self._persistence_index.pop(index_key, None)
        if record is not None and record.persisted_at is None:
            record.persisted_at = now

    def _track_persistence(self, index_key: tuple, record) -> None:
        """Register a tombstone's persistence record (locked, see above)."""
        with self._persistence_lock:
            self._persistence_index[index_key] = record
