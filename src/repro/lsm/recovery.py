"""Crash recovery: rebuild a live engine from a durable store directory.

Recovery replays the two durable logs in their commit order:

1. **Manifest** — the last intact record names the authoritative tree:
   levels → runs → ``(file_number, generation, level_arrival_time)``.
   Each referenced run blob is decoded and reconstructed *physically*:
   the classic layout gets its pages, per-file Bloom filter, and fence
   pointers back; KiWi files get their delete tiles — surviving pages
   after partial drops included — per-page Bloom filters, tile fences on
   ``S``, and delete fences on ``D``. File metadata (``created_at``,
   tombstone counts, ``oldest_tombstone_time`` feeding FADE's ``amax``,
   seqnum spans, level-arrival times) is restored verbatim, so FADE's
   TTL clocks keep running across the restart rather than resetting.
2. **WAL** — segments above the flush watermark are replayed into the
   memory buffer in sequence-number order, de-duplicated (a crash between
   the D_th rewrite's copy and its delete legitimately duplicates
   records), with completed-but-unflushed secondary range deletes
   interleaved at their sequence position so a purge is never undone by
   replaying older puts — and never applied to puts that came after it.
   A secondary range delete whose durable intent was never marked done
   (the crash hit mid-SRD) is instead rolled forward wholesale after
   replay, idempotently.

Afterwards the engine's sequence generator, clock, key bounds, and WAL
segments are rebuilt, the process-wide file-number counter is advanced
past every recovered file, and — when FADE is active — the ``D_th`` WAL
routine runs once so the recovered log re-satisfies §4.1.5's invariant
at the recovered clock.

Statistics start fresh: counters are a property of a process lifetime,
not of the database (documented in ``docs/durability.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.clock import SimulatedClock
from repro.core.engine import LSMEngine
from repro.core.errors import PersistenceError
from repro.core.stats import Statistics
from repro.kiwi.layout import KiWiFile
from repro.kiwi.tile import DeleteTile
from repro.lsm.runfile import FileMeta, RunFile, ensure_file_numbers_above
from repro.lsm.sstable import SSTable
from repro.lsm.wal import WALRecord, WALSegment
from repro.storage.disk import SimulatedDisk
from repro.storage.entry import Entry, RangeTombstone
from repro.storage.page import Page
from repro.storage.persist import (
    DurableStore,
    FaultInjector,
    RecoveredRun,
    StoreState,
)


@dataclass
class RecoveryInfo:
    """What one recovery pass did (drives the ``recovery`` experiment)."""

    files_loaded: int = 0
    wal_records_replayed: int = 0
    wal_segments_read: int = 0
    manifest_records_read: int = 0
    recovered_now: float = 0.0
    recovered_seqnum: int = 0


def open_engine(
    path: str | Path,
    config=None,
    clock: SimulatedClock | None = None,
    injector: FaultInjector | None = None,
    scheduler=None,
) -> LSMEngine:
    """Open a durable engine at ``path``: recover it, or create it fresh.

    ``config`` is required (and only consulted) when the directory holds
    no store yet; an existing store carries its own ``CONFIG.json``.
    ``scheduler`` is the compaction scheduler the engine runs under once
    open (recovery's own convergence always happens inline).
    """
    target = Path(path)
    if (target / "CONFIG.json").exists():
        return recover_engine(
            target, clock=clock, injector=injector, scheduler=scheduler
        )
    if config is None:
        raise PersistenceError(
            f"{target} holds no durable store and no config was given"
        )
    store = DurableStore.create(target, config, injector)
    return LSMEngine(config, clock=clock, store=store, scheduler=scheduler)


def recover_engine(
    path: str | Path,
    clock: SimulatedClock | None = None,
    injector: FaultInjector | None = None,
    scheduler=None,
) -> LSMEngine:
    """Rebuild the engine persisted at ``path`` (see module docstring).

    The engine recovers under the serial scheduler — SRD roll-forward
    and the closing ``D_th`` enforcement must not race background
    workers against a half-rebuilt engine; ``scheduler`` is swapped in
    as the last step, once the engine is consistent.
    """
    store = DurableStore.open(path, injector)
    state = store.load()
    config = state.config

    engine = LSMEngine(config, clock=clock)
    info = RecoveryInfo(
        wal_segments_read=len(state.wal_segments),
        manifest_records_read=state.manifest_records,
    )

    manifest = state.manifest
    layout = manifest["layout"] if manifest else []
    watermark = manifest["watermark"] if manifest else -1
    pending_srds = list(manifest["pending_srds"]) if manifest else []

    tracer = engine.obs.tracer
    with tracer.span("recovery:rebuild-tree", files=len(layout)):
        max_file_number = _rebuild_tree(engine, store, layout, info)
    with tracer.span(
        "recovery:replay-wal", segments=len(state.wal_segments)
    ) as span:
        _restore_wal(engine, state, watermark)
        info.wal_records_replayed = _replay_wal(
            engine, watermark, pending_srds
        )
        span.set(records=info.wal_records_replayed)

    # Sequence numbers: past everything ever handed out, wherever recorded.
    next_seq = manifest["next_seq"] if manifest else 0
    max_wal_seq = max(
        (r.seqnum for s in state.wal_segments for r in s.records), default=-1
    )
    max_file_seq = max(
        (f.meta.max_seqnum for f in engine.tree.all_files()), default=-1
    )
    engine.seq._next = max(next_seq, max_wal_seq + 1, max_file_seq + 1)
    info.recovered_seqnum = engine.seq.current

    # Clock: the latest instant any durable artifact records.
    recovered_now = max(
        manifest["now"] if manifest else 0.0,
        state.clock_now,
        max(
            (r.written_at for s in state.wal_segments for r in s.records),
            default=0.0,
        ),
    )
    if recovered_now > engine.clock.now:
        engine.clock.advance(recovered_now - engine.clock.now)
    info.recovered_now = engine.clock.now

    ensure_file_numbers_above(max_file_number)

    # Wire the store in only once the structure is rebuilt, so the
    # reconstruction itself logs nothing.
    engine._store = store
    engine.wal.sink = store
    store.attach(engine)
    store.mark_recovered(layout, pending_srds)

    # Roll *in-flight* secondary range deletes forward. An SRD commits a
    # durable not-done intent before executing and flips it done after:
    # a not-done entry therefore means the crash interrupted that SRD
    # (there can be at most one — nothing is acknowledged after it), and
    # its work may be torn between a durable flush and the not-yet-
    # durable purge. Re-executing through the internal entry point (no
    # new intent is registered) is idempotent when the work had in fact
    # finished, completes it when it had not, and marks the intent done —
    # so subsequent reopens are quiescent. Done entries are left alone;
    # they only serve WAL-replay interleaving until the watermark passes.
    for srd in sorted(pending_srds, key=lambda entry: entry["seq"]):
        if not srd["done"]:
            with tracer.span("recovery:srd-rollforward", seq=srd["seq"]):
                engine._apply_secondary_range_delete(
                    srd["d_lo"], srd["d_hi"], engine.clock.now,
                    srd_seq=srd["seq"],
                )

    # §4.1.5 across restarts: the recovered WAL must re-satisfy the D_th
    # invariant at the recovered clock before the engine serves traffic —
    # over-age tombstones in the replayed buffer tail force a flush (the
    # buffer's d_0 allowance), then the WAL routine drops or copies the
    # log segments themselves.
    with tracer.span("recovery:enforce-dth"):
        engine.enforce_delete_persistence()

    if scheduler is not None:
        from repro.compaction.scheduler import (  # local: cycle
            CompactionScheduler,
            make_scheduler,
        )

        engine._owns_scheduler = not isinstance(scheduler, CompactionScheduler)
        engine.scheduler = make_scheduler(scheduler)
        engine.scheduler.register(engine)

    engine.last_recovery = info
    return engine


# ---------------------------------------------------------------------------
# Tree reconstruction
# ---------------------------------------------------------------------------


def _rebuild_tree(
    engine: LSMEngine, store: DurableStore, layout: list, info: RecoveryInfo
) -> int:
    max_file_number = -1
    for level_index, level_runs in enumerate(layout):
        number = level_index + 1
        level = engine.tree.ensure_level(number)
        runs = []
        for run_spec in level_runs:
            files = []
            for file_number, generation, arrival in run_spec:
                blob = store.read_run(file_number, generation)
                run_file = _rebuild_run_file(
                    blob,
                    engine.config,
                    engine.disk,
                    engine.stats,
                    level=number,
                    level_arrival_time=arrival,
                )
                # The restart waits on the device for every page it
                # loads (uncharged: recovered stats start fresh).
                engine.disk.device_wait(run_file.num_pages)
                files.append(run_file)
                info.files_loaded += 1
                max_file_number = max(max_file_number, file_number)
            if files:
                runs.append(files)
        level.runs = runs
    for run_file in engine.tree.all_files():
        engine._note_key(run_file.min_key)
        engine._note_key(run_file.max_key)
    return max_file_number


def _rebuild_run_file(
    blob: RecoveredRun,
    config,
    disk: SimulatedDisk,
    stats: Statistics,
    level: int,
    level_arrival_time: float,
) -> RunFile:
    meta_fields = dict(blob.meta)
    meta_fields["level"] = level
    meta_fields["level_arrival_time"] = level_arrival_time
    meta = FileMeta(**meta_fields)

    if blob.layout == "sstable":
        return SSTable(
            pages=[
                Page(config.page_entries, chunk).seal() for chunk in blob.pages
            ],
            range_tombstones=list(blob.range_tombstones),
            meta=meta,
            bits_per_key=config.bits_per_key,
            disk=disk,
            stats=stats,
        )

    if blob.layout == "kiwi":
        tiles = []
        for min_key, max_key, page_lists in blob.tiles:
            tiles.append(
                DeleteTile.from_pages(
                    page_lists,
                    page_entries=config.page_entries,
                    bits_per_key=config.bits_per_key,
                    stats=stats,
                    min_key=min_key,
                    max_key=max_key,
                )
            )
        return KiWiFile(
            tiles=tiles,
            range_tombstones=list(blob.range_tombstones),
            meta=meta,
            disk=disk,
            stats=stats,
        )

    raise PersistenceError(f"unknown run layout {blob.layout!r}")


# ---------------------------------------------------------------------------
# WAL restore & replay
# ---------------------------------------------------------------------------


def _restore_wal(engine: LSMEngine, state: StoreState, watermark: int) -> None:
    segments = [
        WALSegment(
            segment_id=recovered.segment_id,
            opened_at=recovered.opened_at,
            records=list(recovered.records),
        )
        for recovered in state.wal_segments
    ]
    next_segment_id = max((s.segment_id for s in segments), default=-1) + 1
    engine.wal.restore_segments(segments, watermark, next_segment_id)


def _replay_wal(
    engine: LSMEngine, watermark: int, pending_srds: list[dict]
) -> int:
    """Replay the un-flushed WAL tail into the memory buffer.

    Records are applied in seqnum order with *completed* secondary range
    deletes interleaved at their own seqnums: a put older than an SRD is
    purged by it, a put younger than it survives — exactly the pre-crash
    buffer evolution. A not-done SRD is deliberately not interleaved:
    the roll-forward re-executes it wholesale afterwards, and it must
    observe the replayed victims itself for version-shadow suppression
    to work.
    """
    live: list[WALRecord] = []
    seen: set[int] = set()
    for segment in engine.wal.segments:
        for record in segment.records:
            if record.seqnum <= watermark or record.seqnum in seen:
                continue
            seen.add(record.seqnum)
            live.append(record)
    live.sort(key=lambda r: r.seqnum)
    pending = sorted(
        (entry for entry in pending_srds if entry["done"]),
        key=lambda entry: entry["seq"],
    )

    def apply_srds_before(seqnum: int) -> None:
        while pending and pending[0]["seq"] < seqnum:
            srd = pending.pop(0)
            engine.buffer.purge_delete_key_range(srd["d_lo"], srd["d_hi"])

    replayed = 0
    for record in live:
        apply_srds_before(record.seqnum)
        payload = record.payload
        if isinstance(payload, RangeTombstone):
            persistence = engine.stats.record_tombstone_insert(
                (payload.start, payload.end), payload.write_time
            )
            engine._persistence_index[
                ("r", payload.start, payload.end, payload.seqnum)
            ] = persistence
            engine.buffer.add_range_tombstone(payload)
        elif isinstance(payload, Entry):
            if payload.is_tombstone:
                persistence = engine.stats.record_tombstone_insert(
                    payload.key, payload.write_time
                )
                engine._persistence_index[
                    ("p", payload.key, payload.seqnum)
                ] = persistence
                overwritten = engine.buffer.get(payload.key)
                if overwritten is not None and overwritten.is_tombstone:
                    # Tombstone over tombstone: re-void the superseded
                    # record, as LSMEngine.delete did pre-crash.
                    engine.wal.void_tombstone(overwritten.seqnum)
            else:
                overwritten = engine.buffer.get(payload.key)
                if overwritten is not None and overwritten.is_tombstone:
                    engine._nullify_tombstone_record(
                        ("p", payload.key, overwritten.seqnum),
                        payload.write_time,
                    )
                    # Re-void the superseded tombstone's recovered WAL
                    # record: the durable segment file resurrects the
                    # flag, and the D_th routine must not carry the dead
                    # delete intent forward (mirrors LSMEngine.put).
                    engine.wal.void_tombstone(overwritten.seqnum)
            engine.buffer.put(payload)
            engine._note_key(payload.key)
        else:
            raise PersistenceError(
                f"WAL record {record.seqnum} has no replayable payload"
            )
        replayed += 1
    apply_srds_before(float("inf"))
    return replayed
