"""``ingest_inline``: the paper's own experiment shape.

One in-memory ``LSMEngine``, inline ``SerialScheduler``, FADE ``D_th`` a
quarter of the simulated run time; a single-thread closed loop over the
ingest stream (fresh puts, updates, point deletes, primary range deletes,
secondary retention cuts), each op timed. ``core``, ``storage.buffer``,
``compaction`` and ``kiwi`` do all the work; ``storage.persist``,
``shard`` and ``net`` do none. Single-threaded on a simulated clock, so
write amplification, space amplification, delete persistence and every
``Statistics`` counter repeat exactly for one seed.

A short read-back phase on the tree as the ingest left it (buffer part
full, no flush) gives the read metrics and checks what was written.
"""

from __future__ import annotations

import random

from repro import LSMEngine

from perfbench import gen, layers
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

NAME = "ingest_inline"
WHY = (
    "paper's ingest shape on one in-memory engine with inline compaction: "
    "core, buffer, compaction and kiwi do the work; persist, shard, net none"
)

INSERTS_AT_REFERENCE = 55_000
READBACK_GETS_AT_REFERENCE = 40_000
READBACK_SCANS_AT_REFERENCE = 4_000
SETUP_REPEATS = 3


def _set_up(seed: int, seconds: float, speed: HostSpeed):
    """Inputs from the seed, and a fresh engine."""
    rng = random.Random(seed)
    model = gen.Model()
    writes = list(speed.watch(
        gen.write_stream(rng, model, scaled(INSERTS_AT_REFERENCE, seconds, 50))
    ))
    gets = gen.point_reads(
        rng, model, scaled(READBACK_GETS_AT_REFERENCE, seconds, 50)
    )
    speed.probe()
    scans = gen.scan_reads(
        rng, model, scaled(READBACK_SCANS_AT_REFERENCE, seconds, 10), gen.SCAN_WIDTH
    )
    config = engine_config(len(writes))
    return model, writes, gets, scans, config, LSMEngine(config)


def write_handlers(engine) -> dict:
    return {
        "put": (engine.put, 3, None),
        "delete": (engine.delete, 1, None),
        "delete_range": (engine.delete_range, 2, None),
        "secondary_range_delete": (engine.secondary_range_delete, 2, None),
    }


def read_handlers(engine) -> dict:
    return {
        "get": (engine.get, 1, matches_expected),
        "scan": (engine.scan, 2, matches_expected),
    }


def end_state(engine, d_th: float) -> tuple[float, float, float]:
    """Write amplification, space amplification, and the worst delete
    persistence latency over ``D_th`` (at most 1 is the paper's contract),
    read off the public API."""
    worst = engine.stats.max_persistence_latency() or 0.0
    return (
        engine.write_amplification(),
        engine.space_amplification(),
        worst / d_th,
    )


def run(seed: int, seconds: float, tracer, workdir: str) -> WorkloadResult:
    result = WorkloadResult(NAME)
    speed = HostSpeed()
    setups = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        (model, writes, gets, scans, config, engine), took = speed.timed(
            lambda: _set_up(seed, seconds, speed)
        )
        setups.append(took)
    result.note_config("engine", config)
    result.count_ops(writes + gets + scans)

    write_lat = Latencies()
    latencies = {kind: write_lat for kind in write_handlers(engine)}
    latencies["get"], latencies["scan"] = Latencies(), Latencies()

    quiesce()
    ingest = timed_ops(write_handlers(engine), writes, result, latencies, speed)
    ingested = engine.stats.snapshot()
    amplification = end_state(engine, config.delete_persistence_threshold)

    quiesce()
    read_gets = timed_ops(read_handlers(engine), gets, result, latencies, speed)
    get_counts = layers.counts_delta(engine.stats.snapshot(), ingested)
    read_scans = timed_ops(read_handlers(engine), scans, result, latencies, speed)

    result.check(engine.scan(0, gen.DOMAIN) == model.pairs(), "final full scan")
    for phase in (ingest, read_gets, read_scans):
        phase.add_to(result)
    result.host_slow_share = speed.slow_share
    report_timings(
        result, setups, len(writes), ingest.wall, write_lat,
        latencies["get"], latencies["scan"], *amplification,
    )
    if tracer:
        result.per_layer = layers.layer_metrics(
            engine.stats.snapshot(), get_counts, tracer.totals(),
            {**layers.tree_shape([engine]), **result.untraced},
        )
    return result
