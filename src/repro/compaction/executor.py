"""Compaction executor: performs the merge a policy chose.

Responsibilities: select the overlapping victim files in the target level,
run the k-way merge with tombstone semantics, materialize the output run
in the active layout, install it in place of the consumed files, charge
all I/O and byte counters, and notify the engine of every tombstone that
became persistent (for delete-persistence-latency accounting).

Execution is split into two phases so the background compaction
scheduler (:mod:`repro.compaction.scheduler`) can run the expensive part
off the write path:

* :meth:`CompactionExecutor.prepare` — victim selection, the k-way
  merge, output materialization, and all I/O charging. No tree mutation;
  a worker thread runs this while the ingest thread keeps flushing.
  Counter bumps go through the locked :meth:`~repro.core.stats.
  Statistics.add`, and tombstone-persistence callbacks are deferred to
  the install phase, so nothing here races the write path.
* :meth:`CompactionExecutor.install_prepared` — the structural swap
  (remove sources/victims, install output) inside one
  :meth:`~repro.lsm.tree.LSMTree.install` section, plus the persistence
  callbacks. Short, in-memory only; the caller holds the engine's commit
  lock so the subsequent durable commit snapshots exactly this layout.

:meth:`execute` chains the two for inline (serial) callers and preserves
the original single-call semantics exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.config import CompactionTrigger, EngineConfig
from repro.core.stats import Statistics
from repro.lsm.builder import build_run
from repro.lsm.iterator import merge_for_compaction
from repro.lsm.runfile import RunFile
from repro.lsm.tree import LSMTree
from repro.obs import NULL_OBS
from repro.storage.disk import SimulatedDisk
from repro.storage.entry import RangeTombstone

from repro.compaction.base import CompactionTask

# Callback invoked once per point/range tombstone that left the system —
# either persisted at the last level or superseded during a merge.
TombstoneCallback = Callable[[object], None]


@dataclass
class PreparedCompaction:
    """The merge result of one task, ready to install.

    ``trivial`` marks a metadata-only move (no merge ran, no output was
    built); otherwise ``output_files`` holds the materialized run and
    ``dropped_tombstones``/``dropped_range_tombstones`` the tombstones
    whose persistence callbacks fire at install time.
    ``source_peer_ids`` records which non-source files lived in the
    source level at prepare time: at install, any file *not* in that set
    is a run flushed concurrently with the merge — strictly newer data
    the output must never be merged into.
    """

    victims: list[RunFile]
    trivial: bool = False
    output_files: list[RunFile] = field(default_factory=list)
    dropped_tombstones: list = field(default_factory=list)
    dropped_range_tombstones: list = field(default_factory=list)
    source_peer_ids: frozenset = frozenset()


class CompactionExecutor:
    """Stateless executor bound to one engine's shared components."""

    def __init__(
        self,
        config: EngineConfig,
        disk: SimulatedDisk,
        stats: Statistics,
        on_tombstone_persisted: TombstoneCallback | None = None,
        obs=None,
    ):
        self.config = config
        self.disk = disk
        self.stats = stats
        self.on_tombstone_persisted = on_tombstone_persisted
        self.obs = obs if obs is not None else NULL_OBS

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def execute(self, tree: LSMTree, task: CompactionTask, now: float) -> list[RunFile]:
        """Run one compaction task inline; returns the files it produced."""
        prepared = self.prepare(tree, task, now)
        return self.install_prepared(tree, task, prepared, now)

    def prepare(
        self,
        tree: LSMTree,
        task: CompactionTask,
        now: float,
        source_peer_ids: frozenset | None = None,
    ) -> PreparedCompaction:
        """Phase 1: merge and materialize, charging all I/O. No mutation
        beyond growing empty levels (which readers never observe).

        ``source_peer_ids`` is the source level's non-source file-id set
        captured *at selection time, under the engine's commit lock* —
        any file not in it at install time is a concurrently flushed run
        (see :class:`PreparedCompaction`). Inline callers may omit it
        (no concurrency: the snapshot taken here is equivalent).
        """
        tree.ensure_level(task.target_level)
        victims = self._victims(tree, task)
        participants = task.source_files + victims
        if source_peer_ids is None:
            source_ids = {id(f) for f in task.source_files}
            source_peer_ids = frozenset(
                id(f)
                for f in tree.level(task.source_level).files()
                if id(f) not in source_ids
            )

        if self._is_trivial_move(tree, task, victims):
            return PreparedCompaction(victims=victims, trivial=True)

        into_last_level = self._lands_in_last_level(tree, task, victims)

        runs = [f.entries() for f in participants]
        range_tombstones = [
            rt for f in participants for rt in f.range_tombstones
        ]
        eager_dropped: list[RangeTombstone] = []
        if not into_last_level:
            range_tombstones, eager_dropped = self._split_eager_droppable(
                tree, task, participants, range_tombstones
            )
        # Eagerly dropped tombstones still act as *cover* for this merge —
        # they delete older participant entries — but are not re-emitted.
        extra_cover = (
            self._upper_level_cover(tree, task, participants) + eager_dropped
        )

        with self.obs.tracer.span(
            "compaction:merge",
            level=task.source_level,
            inputs=len(participants),
        ):
            outcome = merge_for_compaction(
                runs,
                range_tombstones,
                into_last_level=into_last_level,
                extra_cover_tombstones=extra_cover,
            )

        # --- I/O and byte accounting -----------------------------------
        pages_in = sum(f.num_pages for f in participants)
        bytes_in = sum(f.size_bytes for f in participants)
        self.disk.charge_read(pages_in)
        self.stats.add(
            compaction_bytes_read=bytes_in,
            compaction_entries_in=sum(f.meta.num_entries for f in participants),
        )

        with self.obs.tracer.span(
            "compaction:materialize",
            level=task.target_level,
            entries=len(outcome.entries),
        ):
            output_files = build_run(
                outcome.entries,
                outcome.range_tombstones,
                config=self.config,
                disk=self.disk,
                stats=self.stats,
                now=now,
                level=task.target_level,
            )
        pages_out = sum(f.num_pages for f in output_files)
        bytes_out = sum(f.size_bytes for f in output_files)
        self.disk.charge_write(pages_out)
        self.stats.add(
            compaction_bytes_written=bytes_out,
            compaction_entries_out=len(outcome.entries),
            invalid_entries_purged=outcome.invalid_entries_dropped,
            tombstones_dropped=len(outcome.dropped_tombstones)
            + len(outcome.dropped_range_tombstones)
            + len(eager_dropped),
        )
        return PreparedCompaction(
            victims=victims,
            output_files=output_files,
            dropped_tombstones=list(outcome.dropped_tombstones),
            dropped_range_tombstones=list(outcome.dropped_range_tombstones)
            + eager_dropped,
            source_peer_ids=source_peer_ids,
        )

    def install_prepared(
        self,
        tree: LSMTree,
        task: CompactionTask,
        prepared: PreparedCompaction,
        now: float,
    ) -> list[RunFile]:
        """Phase 2: swap the tree layout."""
        with self.obs.tracer.span(
            "compaction:install",
            level=task.source_level,
            trivial=prepared.trivial,
        ):
            if prepared.trivial:
                return self._trivial_move(tree, task, now)

            if self.on_tombstone_persisted is not None:
                for tombstone in prepared.dropped_tombstones:
                    self.on_tombstone_persisted(tombstone)
                for rt in prepared.dropped_range_tombstones:
                    self.on_tombstone_persisted(rt)

            self._install(
                tree,
                task,
                prepared.victims,
                prepared.output_files,
                prepared.source_peer_ids,
            )
            self._account_trigger(task)
            return prepared.output_files

    # ------------------------------------------------------------------
    # Pieces
    # ------------------------------------------------------------------

    def _victims(self, tree: LSMTree, task: CompactionTask) -> list[RunFile]:
        """Overlapping files in the target level that must join the merge."""
        if task.target_level == task.source_level:
            return []  # self-compaction rewrites the chosen files alone
        target = tree.ensure_level(task.target_level)
        source_ids = {id(f) for f in task.source_files}
        lo = min(f.min_key for f in task.source_files)
        hi = max(f.max_key for f in task.source_files)
        return [
            f
            for f in target.overlapping_files(lo, hi)
            if id(f) not in source_ids
        ]

    def _is_trivial_move(
        self, tree: LSMTree, task: CompactionTask, victims: list[RunFile]
    ) -> bool:
        """A file can move down without rewriting when nothing overlaps it
        and no tombstone work is due (§4.1.3 "when there are no overlapping
        keys ... b remains unchanged").

        Moving into the last level must rewrite files that carry
        tombstones: a trivial move would never drop them.
        """
        if task.whole_level or victims or task.target_level == task.source_level:
            return False
        if len(task.source_files) != 1:
            return False
        source = task.source_files[0]
        lands_last = self._lands_in_last_level(tree, task, victims)
        if lands_last and source.meta.has_tombstones:
            return False
        target = tree.level(task.target_level)
        if target.run_count > 1:
            return False
        return True

    def _trivial_move(
        self, tree: LSMTree, task: CompactionTask, now: float
    ) -> list[RunFile]:
        """Relocate the file's metadata; no page I/O at all."""
        source = task.source_files[0]
        with tree.install():
            tree.level(task.source_level).remove_files([source])
            tree.level(task.target_level).insert_into_run([source])
        # §4.1.3: for moved files "amax is recalculated based on the time
        # of the latest compaction" — the level clock restarts.
        source.meta.level_arrival_time = now
        self.stats.add(compactions=1)
        self._account_trigger(task, count_compaction=False)
        return [source]

    def _lands_in_last_level(
        self, tree: LSMTree, task: CompactionTask, victims: list[RunFile]
    ) -> bool:
        """True when the output may drop tombstones: no data lives deeper
        than the target, and (for a multi-run target) no *other* run at the
        target level could hold older versions.

        Evaluated at prepare time; a flush racing the merge only adds
        *newer* Level-1 runs, which can never hide older versions of the
        merged keys, so the answer cannot be invalidated mid-merge.
        """
        target_number = task.target_level
        if not tree.is_last_level(target_number):
            return False
        target = tree.level(target_number)
        participating = {id(f) for f in task.source_files} | {id(f) for f in victims}
        non_participating = [
            f for f in target.files() if id(f) not in participating
        ]
        if not non_participating:
            return True
        # Leveled single-run target: non-participating files are disjoint
        # from the merged key range (they were not selected as victims), so
        # they cannot hide older versions. Multi-run targets can.
        return target.run_count == 1

    def _split_eager_droppable(
        self,
        tree: LSMTree,
        task: CompactionTask,
        participants: list[RunFile],
        range_tombstones: list[RangeTombstone],
    ) -> tuple[list[RangeTombstone], list[RangeTombstone]]:
        """Partition participant tombstones into (keep, eagerly droppable).

        A range tombstone only exists to delete *older* versions of keys
        in its span, and older versions live at the tombstone's level or
        deeper. When no file outside this merge — at the source level or
        below — overlaps the tombstone's span, everything the tombstone
        could ever delete is inside this merge, so covering the merge is
        the tombstone's last act and it need not be rewritten into the
        output (RocksDB drops DeleteRange fragments the same way).

        Evaluated at prepare time against a consistent read view; flushes
        racing the merge only add strictly *newer* Level-1 runs above the
        source level, which a participant tombstone can never cover, so
        the answer cannot be invalidated mid-merge.
        """
        participant_ids = {id(f) for f in participants}
        outside: list[RunFile] = []
        for level_runs in tree.read_view()[task.source_level - 1 :]:
            for run in level_runs:
                outside.extend(
                    f for f in run if id(f) not in participant_ids
                )
        keep: list[RangeTombstone] = []
        droppable: list[RangeTombstone] = []
        for rt in range_tombstones:
            if any(rt.overlaps_keys(f.min_key, f.max_key) for f in outside):
                keep.append(rt)
            else:
                droppable.append(rt)
        return keep, droppable

    def _upper_level_cover(
        self, tree: LSMTree, task: CompactionTask, participants: list[RunFile]
    ) -> list[RangeTombstone]:
        """Range tombstones above the source level covering the merged range.

        They are newer than anything being merged, so any covered entry can
        be purged now; the tombstones themselves stay in their own files.
        """
        lo = min(f.min_key for f in participants)
        hi = max(f.max_key for f in participants)
        cover: list[RangeTombstone] = []
        for level_runs in tree.read_view()[: task.source_level - 1]:
            for run in level_runs:
                for run_file in run:
                    for rt in run_file.range_tombstones:
                        if rt.overlaps_keys(lo, hi):
                            cover.append(rt)
        return cover

    def _install(
        self,
        tree: LSMTree,
        task: CompactionTask,
        victims: list[RunFile],
        output_files: list[RunFile],
        source_peer_ids: frozenset = frozenset(),
    ) -> None:
        with tree.install():
            source_level = tree.level(task.source_level)
            target_level = tree.level(task.target_level)

            source_level.remove_files(task.source_files)
            if victims:
                target_level.remove_files(victims)

            if task.source_level == task.target_level:
                racing = any(
                    id(f) not in source_peer_ids for f in target_level.files()
                )
                if racing and output_files:
                    # One or more flushes landed newer runs while this
                    # self-compaction merged in the background (any file
                    # that was not a peer at prepare time). The output
                    # holds strictly older data, so it must never be
                    # merged into those runs — it installs as the
                    # *oldest* run and the scheduler's next pass merges
                    # the level again.
                    for run_file in output_files:
                        run_file.meta.level = target_level.number
                    target_level.runs = target_level.runs + [list(output_files)]
                elif not racing:
                    # Self-compaction: output replaces the sources in
                    # place, next to its surviving (disjoint) run peers.
                    target_level.insert_into_run(output_files)
            else:
                target_level.insert_into_run(output_files)

    def _account_trigger(
        self, task: CompactionTask, count_compaction: bool = True
    ) -> None:
        deltas = {"compactions": 1} if count_compaction else {}
        if task.trigger is CompactionTrigger.TTL_EXPIRY:
            deltas["ttl_triggered_compactions"] = 1
        else:
            deltas["saturation_triggered_compactions"] = 1
        self.stats.add(**deltas)
