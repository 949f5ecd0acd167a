"""Compaction scheduler: units, equivalence, backpressure, and stress.

Covers the scheduler strategy objects themselves (resolution, priority
ordering, error propagation), the serial/background equivalence contract
(identical logical tree state after drain), the hard write stall (its
counters and each of its exits: backlog drained, worker error,
scheduler closed, scheduler idle), and a reader/writer stress test
asserting snapshot-consistent reads while background merges install.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.compaction.scheduler import (
    BackgroundScheduler,
    SerialScheduler,
    fade_priority,
    make_scheduler,
)
from repro.core.config import lethe_config, rocksdb_config
from repro.core.engine import LSMEngine
from repro.core.errors import ConfigError

from tests.conftest import TINY


def make_engine(scheduler=None, d_th=0.5, **overrides):
    config = dict(TINY, level1_tiered=True)
    config.update(overrides)
    return LSMEngine(
        lethe_config(d_th, delete_tile_pages=4, **config), scheduler=scheduler
    )


def ingest_stream(engine, n, key_space=97):
    for i in range(n):
        engine.put(i % key_space, f"v{i}", delete_key=i % 50)
        if i % 7 == 3:
            engine.delete((i * 3) % key_space)
        if i % 131 == 99:
            engine.delete_range(5, 9)


def surface(engine, key_space=97):
    return (
        tuple(engine.scan(0, key_space + 1)),
        tuple(sorted(engine.secondary_range_lookup(0, 60))),
    )


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------


def test_make_scheduler_resolution():
    assert isinstance(make_scheduler(None), SerialScheduler)
    assert isinstance(make_scheduler("serial"), SerialScheduler)
    background = make_scheduler("background", workers=3)
    try:
        assert isinstance(background, BackgroundScheduler)
        assert background.workers == 3
        assert make_scheduler(background) is background
    finally:
        background.close()
    with pytest.raises(ConfigError):
        make_scheduler("inline-ish")
    with pytest.raises(ConfigError):
        BackgroundScheduler(workers=0)


def test_serial_scheduler_notify_drains_inline(lethe_engine):
    """notify() under the default scheduler == run_pending_compactions."""
    for i in range(200):
        lethe_engine.put(i, f"v{i}")
    lethe_engine.flush()
    # Converged: another notification finds nothing to do.
    assert lethe_engine.run_pending_compactions() == 0


def test_fade_priority_orders_expired_before_saturated():
    expired = make_engine(d_th=0.05)
    saturated = make_engine(d_th=1e9)
    try:
        for engine in (expired, saturated):
            for i in range(120):
                engine.put(i, f"v{i}", delete_key=i)
            engine.delete(3)
            engine.flush_buffer()  # install L1 without converging
        # Age the expired engine's tombstone far past every deadline.
        expired.clock.advance(10.0)
        pri_expired = fade_priority(expired)
        pri_saturated = fade_priority(saturated)
        assert pri_expired[0] == 0, "expired files must use the urgent lane"
        assert pri_saturated[0] == 1
        assert pri_expired < pri_saturated
    finally:
        pass


def test_background_scheduler_unregistered_engine_hooks_are_noops():
    scheduler = BackgroundScheduler(workers=1)
    try:
        engine = make_engine()  # registered with its own serial scheduler
        # Never registered with `scheduler`: all hooks degrade to no-ops.
        scheduler.notify(engine)
        scheduler.throttle(engine)
        scheduler.barrier(engine)
        scheduler.drain()
    finally:
        scheduler.close()


def test_background_worker_error_reaches_the_write_path():
    scheduler = BackgroundScheduler(workers=1)
    engine = make_engine(scheduler=scheduler)
    try:
        boom = RuntimeError("merge exploded")

        def exploding_run_one(**kwargs):
            raise boom

        engine.run_one_compaction = exploding_run_one
        with pytest.raises(RuntimeError, match="merge exploded"):
            for i in range(200):
                engine.put(i, f"v{i}")
                time.sleep(0.001)
            engine.flush()
            scheduler.drain()
    finally:
        scheduler.close()


def test_closed_engine_does_not_poison_a_shared_scheduler():
    """close() on a caller-supplied scheduler unregisters the engine:
    drain() re-raises the error of any *registered* slot, so a failed
    engine that stayed registered after its own close() would fail every
    other member's drain and close forever."""
    scheduler = BackgroundScheduler(workers=1)
    a = make_engine(scheduler=scheduler)
    b = make_engine(scheduler=scheduler)
    try:
        def exploding_prepare(*args, **kwargs):
            raise RuntimeError("merge exploded")

        a.executor.prepare = exploding_prepare
        with pytest.raises(RuntimeError, match="merge exploded"):
            ingest_stream(a, 400)
            a.flush()
            scheduler.drain()
        with pytest.raises(RuntimeError, match="merge exploded"):
            a.close()  # its own error, reported once more — correctly
        assert list(scheduler._slots) == [id(b)]
        scheduler.drain()
        ingest_stream(b, 400)
        b.flush()
        scheduler.drain()
        assert b.stats.background_compactions > 0
        b.close()
        assert not scheduler._slots
    finally:
        scheduler.close()


def test_priority_is_rescored_at_dequeue_not_enqueue():
    """Regression for the frozen-priority bug: an engine whose urgency
    *grows while queued* (its simulated clock passes a FADE deadline)
    must be dispatched ahead of an engine that outranked it at enqueue
    time. A heap keyed at enqueue would dispatch in arrival order here;
    the dequeue-time re-scoring must flip it."""
    scheduler = BackgroundScheduler(workers=1)
    order: list[str] = []
    merging = threading.Event()
    gate = threading.Event()
    try:
        # Pin the single worker inside a blocker engine so the queue can
        # be staged deterministically behind it.
        blocker = make_engine(scheduler=scheduler)

        def block_once(**kwargs):
            merging.set()
            gate.wait(5.0)
            return False

        blocker.run_one_compaction = block_once

        saturated = make_engine(d_th=1e9)
        expired = make_engine(d_th=0.05)
        for engine, name in ((saturated, "saturated"), (expired, "expired")):
            for i in range(120):
                engine.put(i, f"v{i}", delete_key=i)
            engine.delete(3)
            engine.flush_buffer()
            engine.run_one_compaction = (
                lambda name=name, **kwargs: order.append(name) or False
            )
            scheduler.register(engine)

        scheduler.notify(blocker)
        assert merging.wait(5.0), "worker never picked up the blocker"
        # Enqueue order: saturated first. At this instant the expired
        # engine's tombstone is *not* yet past its deadline, so an
        # enqueue-time ranking would also put saturated first.
        scheduler.notify(saturated)
        scheduler.notify(expired)
        assert fade_priority(expired)[0] == 1, "not urgent while enqueued"
        # The deadline passes while both engines sit in the queue.
        expired.clock.advance(10.0)
        assert fade_priority(expired)[0] == 0
        gate.set()
        scheduler.drain()
        assert order[0] == "expired", (
            f"dequeue must re-score priorities; dispatch order was {order}"
        )
    finally:
        gate.set()
        scheduler.close()


# ---------------------------------------------------------------------------
# Equivalence: background drains to the serial logical state
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 3])
def test_background_matches_serial_read_surface(workers):
    serial = make_engine()
    ingest_stream(serial, 2500)
    serial.flush()

    scheduler = BackgroundScheduler(workers=workers)
    try:
        background = make_engine(scheduler=scheduler)
        ingest_stream(background, 2500)
        background.flush()
        scheduler.drain()
        assert surface(background) == surface(serial)
        # Converged FADE tree: the D_th guarantee holds at the drain.
        d_th = background.config.delete_persistence_threshold
        assert background.max_tombstone_file_age() <= d_th + 1e-9
        assert background.stats.background_compactions > 0
    finally:
        scheduler.close()


def test_background_baseline_engine_matches_serial():
    """The scheduler is policy-agnostic: works for the RocksDB baseline."""
    config = dict(TINY, level1_tiered=True)
    serial = LSMEngine(rocksdb_config(**config))
    scheduler = BackgroundScheduler(workers=2)
    try:
        background = LSMEngine(rocksdb_config(**config), scheduler=scheduler)
        for engine in (serial, background):
            for i in range(1500):
                engine.put(i % 61, f"v{i}")
            engine.flush()
        scheduler.drain()
        assert tuple(background.scan(0, 62)) == tuple(serial.scan(0, 62))
    finally:
        scheduler.close()


def test_deterministic_commits_match_serial_boundary_free():
    """deterministic_commits drains at every barrier: convergence after
    each flush, exactly like serial mode — observable via Level 1 never
    holding a backlog once a flush returns."""
    scheduler = BackgroundScheduler(workers=2, deterministic_commits=True)
    try:
        engine = make_engine(scheduler=scheduler)
        ingest_stream(engine, 1200)
        engine.flush()
        serial = make_engine()
        ingest_stream(serial, 1200)
        serial.flush()
        # Every flush drained the queue: the tree converged exactly as
        # far as serial mode's inline loop did (tiered L1 may keep up to
        # trigger-1 runs in both).
        assert engine._pending_l1_runs() == serial._pending_l1_runs()
        assert surface(engine) == surface(serial)
    finally:
        scheduler.close()


# ---------------------------------------------------------------------------
# Write-stall policy
# ---------------------------------------------------------------------------


def _stall_engine(scheduler):
    return make_engine(scheduler=scheduler, d_th=1e9, stall_l1_runs=4)


def _fill_to_stall(engine):
    """Put keys until the next write hard-stalls. The caller holds the
    compaction mutex, so the worker cannot shrink Level 1 meanwhile."""
    i = 0
    while engine._pending_l1_runs() < engine.config.stall_l1_runs:
        engine.put(i, f"v{i}")
        i += 1


def _start_stalled_writer(engine):
    """Start a thread whose put hard-stalls; returns the thread and a
    list that receives the exception the put raised, if any."""
    raised = []
    started = threading.Event()

    def writer():
        started.set()
        try:
            engine.put(10**6, "stall-probe")  # must block, then finish
        except Exception as exc:  # handed to the test
            raised.append(exc)

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    assert started.wait(5.0)
    time.sleep(0.1)  # give the writer time to enter the stall
    assert thread.is_alive(), "writer should be hard-stalled"
    return thread, raised


def test_stall_fires_under_backlog_and_releases():
    """Block the worker, build an L1 backlog up to the stall threshold,
    and watch a writer hard-stall, then release once the worker drains
    the backlog below the threshold."""
    scheduler = BackgroundScheduler(workers=1)
    engine = _stall_engine(scheduler)
    try:
        # Hold the engine's compaction mutex so the worker cannot run.
        gate = engine._compaction_mutex
        blocked = True
        gate.acquire()
        try:
            _fill_to_stall(engine)
            thread, raised = _start_stalled_writer(engine)
            gate.release()
            blocked = False
            thread.join(timeout=10.0)
            assert not thread.is_alive(), "stall never released"
            assert raised == []
            assert engine._pending_l1_runs() < engine.config.stall_l1_runs
            assert engine.stats.write_stalls >= 1
            assert engine.stats.stall_seconds > 0.0
        finally:
            if blocked:
                gate.release()
    finally:
        scheduler.close()


def test_stalled_writer_gets_the_worker_error(monkeypatch):
    """A compaction that raises while a writer is hard-stalled ends the
    stall with that error on the writer's thread: the writer neither
    hangs waiting for a drain that will never come nor swallows it."""
    scheduler = BackgroundScheduler(workers=1)
    engine = _stall_engine(scheduler)

    class MergeFailed(RuntimeError):
        pass

    def failing_prepare(*args, **kwargs):
        raise MergeFailed("merge failed mid-stall")

    try:
        gate = engine._compaction_mutex
        blocked = True
        gate.acquire()
        try:
            _fill_to_stall(engine)
            thread, raised = _start_stalled_writer(engine)
            # The worker is parked on the mutex inside run_one_compaction;
            # once it gets the mutex, its merge raises.
            monkeypatch.setattr(engine.executor, "prepare", failing_prepare)
            gate.release()
            blocked = False
            thread.join(timeout=10.0)
            assert not thread.is_alive(), "stalled writer hung on a failed worker"
        finally:
            if blocked:
                gate.release()
        assert len(raised) == 1 and isinstance(raised[0], MergeFailed)
        assert engine._pending_l1_runs() >= engine.config.stall_l1_runs
    finally:
        scheduler.close()


def test_stalled_writer_returns_when_the_scheduler_closes():
    """Closing the scheduler releases a hard-stalled writer even though
    no worker drained Level 1 (the backlog is still at the threshold)."""
    scheduler = BackgroundScheduler(workers=1)
    engine = _stall_engine(scheduler)
    closer = threading.Thread(target=scheduler.close, daemon=True)
    gate = engine._compaction_mutex
    gate.acquire()
    try:
        _fill_to_stall(engine)
        thread, raised = _start_stalled_writer(engine)
        # close() joins the worker, which waits on the mutex this thread
        # holds, so it runs on a thread of its own.
        closer.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "stalled writer outlived close()"
        assert raised == []
        assert engine._pending_l1_runs() >= engine.config.stall_l1_runs
    finally:
        gate.release()
        closer.join(timeout=10.0)
    assert not closer.is_alive()


def test_stall_gives_up_when_no_task_can_shrink_l1():
    """A stall threshold below the policy's merge trigger must not hang
    writers forever: once the scheduler goes idle with the backlog still
    above the threshold (the policy has no selectable task), the stall
    releases."""
    scheduler = BackgroundScheduler(workers=1)
    engine = make_engine(
        scheduler=scheduler,
        d_th=1e9,
        level1_run_trigger=50,  # the policy will never merge 3 runs
        stall_l1_runs=3,
    )
    try:
        for i in range(48):  # 3 flushes of the 16-entry TINY buffer
            engine.put(i, f"v{i}")
        scheduler.drain()
        assert engine._pending_l1_runs() >= 3
        done = threading.Event()

        def writer():
            engine.put(10**6, "x")
            done.set()

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        assert done.wait(5.0), (
            "writer hung in a stall no compaction could ever release"
        )
        assert engine.stats.write_stalls >= 1
    finally:
        scheduler.close()


def test_flushes_proceed_and_maintenance_waits_while_a_merge_is_parked(tmp_path):
    """The two halves of the compaction mutex / commit lock split, with
    one merge parked inside ``executor.prepare``: the write path keeps
    flushing (Level 1's run count grows — a flush only ever takes the
    commit lock, which the merge does not hold), while maintenance
    sections, which need the mutex, wait for the merge to install and
    then run — ending on the serial engine's read surface."""
    config = dict(TINY, level1_tiered=True, stall_l1_runs=0)
    key_space = 97

    def put_rounds(engine, start, stop):
        for i in range(start, stop):
            engine.put(i % key_space, f"v{i}", delete_key=i % 50)

    scheduler = BackgroundScheduler(workers=1)
    engine = LSMEngine.open(
        tmp_path / "db",
        config=lethe_config(1e9, delete_tile_pages=4, **config),
        scheduler=scheduler,
    )
    parked, release = threading.Event(), threading.Event()
    real_prepare = engine.executor.prepare

    def parked_prepare(*args, **kwargs):
        parked.set()
        assert release.wait(10.0), "test never released the parked merge"
        return real_prepare(*args, **kwargs)

    engine.executor.prepare = parked_prepare
    try:
        written = 0
        while not parked.is_set():
            assert written < 2000, "no merge was ever dispatched"
            put_rounds(engine, written, written + 16)
            written += 16
            parked.wait(0.05)
        runs_when_parked = engine._pending_l1_runs()
        put_rounds(engine, written, written + 96)  # six more buffers
        written += 96
        assert engine._pending_l1_runs() >= runs_when_parked + 6, (
            "flushes must keep installing Level-1 runs beside a merge"
        )

        finished: list[str] = []

        def maintain():
            engine.secondary_range_delete(0, 10)
            finished.append("srd")
            engine.checkpoint()
            finished.append("checkpoint")

        thread = threading.Thread(target=maintain, daemon=True)
        thread.start()
        time.sleep(0.1)
        assert thread.is_alive() and not finished, (
            "maintenance ran through while a merge held the mutex"
        )
        release.set()
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "maintenance never got the mutex"
        assert finished == ["srd", "checkpoint"]
        scheduler.drain()

        serial = make_engine(d_th=1e9)
        put_rounds(serial, 0, written)
        serial.secondary_range_delete(0, 10)
        serial.flush()
        assert surface(engine) == surface(serial)
    finally:
        release.set()
        engine.close()
        scheduler.close()


def test_self_compaction_racing_one_flush_installs_output_as_oldest_run():
    """A whole-level self-compaction whose merge raced exactly one flush
    must install its (strictly older) output as the *oldest* run — never
    merge it into the newer flushed run, which would let stale values
    shadow fresh ones or trip the single-run order validator."""
    engine = LSMEngine(
        lethe_config(1e9, **TINY)  # pure leveling: greedy L1 merges exist
    )
    # 15 puts per round: stay below the 16-entry TINY buffer so the
    # engine's own full-buffer flush (which converges inline) never
    # fires — each round lands as one un-merged L1 run.
    for value_round in ("a", "b"):
        for i in range(15):
            engine.put(i, f"{value_round}{i}")
        engine.flush_buffer()
    now = engine.clock.now
    task = engine._next_compaction_task(now)
    assert task is not None and task.whole_level and task.source_level == 1
    prepared = engine.executor.prepare(engine.tree, task, now)
    # The racing flush: newer values land in L1 while the merge was out.
    for i in range(15):
        engine.put(i, f"c{i}")
    engine.flush_buffer()
    engine.executor.install_prepared(engine.tree, task, prepared, now)
    level1 = engine.tree.level(1)
    assert level1.run_count == 2, "output must be its own (oldest) run"
    for i in range(15):
        assert engine.get(i) == f"c{i}", (
            f"stale pre-compaction value shadowed the racing flush at {i}"
        )
    # And the scheduler's next pass converges the level normally.
    engine.run_pending_compactions()
    assert engine.tree.level(1).run_count <= 1
    for i in range(15):
        assert engine.get(i) == f"c{i}"


def test_engine_close_stops_an_owned_background_scheduler(tmp_path):
    """close() drains in-flight merges into the store and stops the
    worker threads of a scheduler the engine built from a string spec."""
    engine = LSMEngine.open(
        tmp_path / "db",
        config=lethe_config(1e9, **dict(TINY, level1_tiered=True)),
        scheduler="background",
    )
    owned = engine.scheduler
    assert isinstance(owned, BackgroundScheduler)
    for i in range(200):
        engine.put(i, f"v{i}")
    engine.close()
    assert owned._closed, "engine-owned scheduler must stop with close()"
    recovered = LSMEngine.open(tmp_path / "db")
    assert recovered.get(150) == "v150"
    recovered.close()


# ---------------------------------------------------------------------------
# Stress: snapshot-consistent reads under background installs
# ---------------------------------------------------------------------------


def test_reads_are_snapshot_consistent_during_background_compaction():
    """One thread ingests (flushes + background merges install), another
    scans continuously: every scan must be sorted, duplicate-free, and
    monotone (a key observed live with no later delete never vanishes) —
    the observable contract of the versioned level file-lists."""
    scheduler = BackgroundScheduler(workers=2)
    engine = make_engine(scheduler=scheduler, d_th=1e9)
    errors: list[str] = []
    scans = [0]
    stop = threading.Event()
    # Writer inserts strictly increasing keys, never deleted: the live
    # key set only grows, so any scan that loses a previously seen key
    # observed a half-swapped level.

    def reader():
        best: set[int] = set()
        try:
            while not stop.is_set():
                rows = engine.scan(0, 10**9)
                scans[0] += 1
                keys = [k for k, _v in rows]
                if keys != sorted(keys):
                    errors.append("scan out of order")
                    return
                if len(keys) != len(set(keys)):
                    errors.append("scan produced duplicate keys")
                    return
                current = set(keys)
                missing = best - current
                if missing:
                    errors.append(f"scan lost live keys: {sorted(missing)[:5]}")
                    return
                best = current
                for key, value in rows:
                    if value != f"v{key}":
                        errors.append(f"key {key} has torn value {value!r}")
                        return
        except BaseException as exc:  # noqa: BLE001 - asserted below
            errors.append(f"reader raised {exc!r}")

    thread = threading.Thread(target=reader, daemon=True)
    try:
        thread.start()
        for i in range(4000):
            engine.put(i, f"v{i}")
        engine.flush()
        scheduler.drain()
    finally:
        stop.set()
        thread.join(timeout=10.0)
        scheduler.close()
    assert not thread.is_alive(), "reader did not finish"
    assert not errors, errors[0]
    assert scans[0] > 0, "reader never completed a scan"
    assert len(engine.scan(0, 10**9)) == 4000


def test_shared_scheduler_across_cluster_members():
    from repro.shard.engine import ShardedEngine

    config = lethe_config(1e9, delete_tile_pages=4, **dict(TINY, level1_tiered=True))
    cluster = ShardedEngine(config, n_shards=3, scheduler="background")
    serial = ShardedEngine(config, n_shards=3)
    try:
        ops = [("put", i % 211, f"v{i}", i % 97) for i in range(3000)]
        cluster.ingest(ops)
        serial.ingest(ops)
        cluster.flush()
        serial.flush()
        cluster.scheduler.drain()
        assert cluster.scan(0, 212) == serial.scan(0, 212)
        # One scheduler instance is shared by every member.
        assert all(
            shard.scheduler is cluster.scheduler for shard in cluster.shards
        )
    finally:
        cluster.close()
        serial.close()
