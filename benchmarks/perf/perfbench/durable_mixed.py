"""``durable_mixed``: the ingest write path used differently.

One durable engine from ``LSMEngine.open(tmpdir, config)``: real files,
``group(16)`` commit, ``fsync=True``, a block cache that holds
everything, compaction on two background workers under leases. A
single-thread closed loop of the put/update/delete stream with a ``get``
of an already-acknowledged key after every third write and a 100-key
scan after every fiftieth: reads beside writes on a tree that is
mid-compaction. Then ``sync()``, ``scheduler.drain()``, the durability
check, ``close()``, and ``LSMEngine.open`` timed on fresh copies of the
closed directory.

``storage.persist``, ``lsm.wal``, ``compaction.scheduler``/``leases``
and ``lsm.recovery`` do the work ``ingest_inline`` bypasses; ``net`` and
``shard`` do none. One generator thread only: a second Python generator
thread would measure the interpreter's switch interval, not the engine.
"""

from __future__ import annotations

import random
import shutil
import statistics
import tempfile

from repro import BackgroundScheduler, LSMEngine

from perfbench import gen, layers
from perfbench.ingest_inline import end_state
from perfbench.measure import (
    HostSpeed,
    Latencies,
    WorkloadResult,
    engine_config,
    matches_expected,
    quiesce,
    report_timings,
    scaled,
    timed_ops,
)

NAME = "durable_mixed"
WHY = (
    "durable engine, group commit with fsync, background compaction, reads "
    "beside writes: persist, wal, scheduler, leases and recovery do the work"
)

INSERTS_AT_REFERENCE = 25_000
GET_EVERY = 3
SCAN_EVERY = 50
CACHE_PAGES = 16_384
COMPACTION_WORKERS = 2
UNSYNCED_PUTS = 15
RECOVERY_OPENS = 5
SETUP_REPEATS = 3


def _ops(seed: int, seconds: float, speed: HostSpeed):
    rng = random.Random(seed)
    model = gen.Model()
    ops = []
    writes = 0
    stream = gen.write_stream(
        rng, model, scaled(INSERTS_AT_REFERENCE, seconds, 50),
        range_deletes=False, secondary_deletes=False,
    )
    for op in speed.watch(stream):
        ops.append(op)
        writes += 1
        if writes % GET_EVERY == 0:
            key = gen.acked_key(rng, model)
            ops.append(("get", key, model.get(key)))
        if writes % SCAN_EVERY == 0:
            start, end = gen.scan_window(rng, model, gen.SCAN_WIDTH)
            lo, hi = model.keys[start], model.keys[end - 1]
            ops.append(("scan", lo, hi, model.scan(lo, hi)))
    return rng, model, ops, writes


def _set_up(seed: int, seconds: float, workdir: str, speed: HostSpeed):
    rng, model, ops, writes = _ops(seed, seconds, speed)
    config = engine_config(
        writes, wal_commit_policy="group(16)", fsync=True, cache_pages=CACHE_PAGES
    )
    path = tempfile.mkdtemp(prefix="durable-", dir=workdir)
    scheduler = BackgroundScheduler(workers=COMPACTION_WORKERS)
    engine = LSMEngine.open(path, config, scheduler=scheduler)
    return rng, model, ops, config, path, scheduler, engine


def _tear_down(engine, scheduler, path: str) -> None:
    """Closing twice is harmless: a closed store has nothing left to drain."""
    try:
        engine.close()
    finally:
        scheduler.close()
        shutil.rmtree(path, ignore_errors=True)


def _reopened_pairs(source: str, workdir: str, speed: HostSpeed):
    """Copy ``source`` as it is on disk, open the copy, read everything:
    ``(the pairs, how long the open took)``."""
    copy = tempfile.mkdtemp(prefix="copy-", dir=workdir)
    shutil.rmtree(copy)
    shutil.copytree(source, copy)
    try:
        reopened, took = speed.timed(lambda: LSMEngine.open(copy))
        try:
            return reopened.scan(0, gen.DOMAIN), took
        finally:
            reopened.close()
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def _durability_check(engine, scheduler, model, rng, path, workdir, speed, result) -> None:
    """Every acknowledged and synced op must be on disk *now*.

    After ``sync()`` the model is the acknowledged prefix. Fifteen more
    puts of fresh keys are issued and not synced: under ``group(16)`` they
    sit in the store's user-space batch (unless a buffer flush forced the
    batch out). The directory is copied without ``close()``, so the copy
    holds only what was flushed; reopened, it must hold the whole prefix,
    and of the fifteen nothing but their own keys.
    """
    acked = model.pairs()
    unsynced = {}
    for i in range(UNSYNCED_PUTS):
        key = model.fresh_key(rng)
        unsynced[key] = b"unsynced.%d" % i
        engine.put(key, unsynced[key], 0)
    scheduler.drain()  # no worker may be writing files while they are copied
    found, _ = _reopened_pairs(path, workdir, speed)
    survivors = [(k, v) for k, v in found if k not in unsynced]
    strays = [(k, v) for k, v in found if k in unsynced and unsynced[k] != v]
    result.check(
        survivors == acked and not strays,
        "durability: an acknowledged op is missing from the un-closed copy",
    )
    for key, value in unsynced.items():
        model.put(key, value, 0)


def run(seed: int, seconds: float, tracer, workdir: str) -> WorkloadResult:
    result = WorkloadResult(NAME)
    speed = HostSpeed()
    setups = []
    for repeat in range(1 if tracer else SETUP_REPEATS):
        if repeat:
            _tear_down(engine, scheduler, path)
        (rng, model, ops, config, path, scheduler, engine), took = speed.timed(
            lambda: _set_up(seed, seconds, workdir, speed)
        )
        setups.append(took)
    result.note_config("engine", config)
    result.count_ops(ops)

    write_lat, get_lat, scan_lat = Latencies(), Latencies(), Latencies()
    handlers = {
        "put": (engine.put, 3, None),
        "delete": (engine.delete, 1, None),
        "get": (engine.get, 1, matches_expected),
        "scan": (engine.scan, 2, matches_expected),
    }
    latencies = {"put": write_lat, "delete": write_lat,
                 "get": get_lat, "scan": scan_lat}
    try:
        quiesce()
        loop = timed_ops(handlers, ops, result, latencies, speed)
        engine.sync()
        scheduler.drain()
        counts = engine.stats.snapshot()
        amplification = end_state(engine, config.delete_persistence_threshold)
        shape = layers.tree_shape([engine])
        _durability_check(
            engine, scheduler, model, rng, path, workdir, speed, result
        )
        engine.close()
        scheduler.close()

        recoveries: list[float] = []
        for _ in range(RECOVERY_OPENS):
            found, took = _reopened_pairs(path, workdir, speed)
            recoveries.append(took)
            result.check(
                found == model.pairs(),
                "recovery: the reopened store differs from the model",
            )
        on_disk = layers.directory_bytes(path)
    finally:
        _tear_down(engine, scheduler, path)

    loop.add_to(result)
    result.host_slow_share = speed.slow_share
    report_timings(
        result, setups, len(ops), loop.wall, write_lat, get_lat, scan_lat,
        *amplification,
    )
    result.untraced["lsm.recovery.median_s"] = statistics.median(recoveries)
    result.untraced["storage.persist.bytes_on_disk_per_user_byte"] = (
        on_disk / model.user_bytes()
    )
    if tracer:
        extras = {**shape, **result.untraced}
        extras["compaction.scheduler.concurrent_peak"] = tracer.peak_overlap(
            "compaction.prepare"
        )
        # Gets and scans are interleaved with writes here, so the per-get
        # figures cover every lookup of the run, not gets alone.
        result.per_layer = layers.layer_metrics(
            counts, counts, tracer.totals(), extras
        )
    return result
