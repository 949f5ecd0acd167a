"""``read_settled``: reads on a tree that is not changing.

Set-up (untimed, reported as ``setup_s``): preload the ingest stream
into one in-memory engine whose block cache holds about a tenth of the
data pages, then ``flush()``. Timed, single-thread closed loop, three
phases in fixed order with a ``Statistics`` delta per phase: point gets
(60 % skewed hits, 25 % uniform zero-result, 15 % deleted keys), 100-key
scans, secondary range lookups; every answer checked against the model.

``filters``, ``lsm`` (iterator, fence pointers, range-tombstone check),
``storage.cache`` and the KiWi tile layout do all the work;
``compaction``, ``storage.buffer``, ``storage.persist`` and ``net`` do
none during the timed phases. A compaction or layout change that buys
ingest speed or cheaper secondary deletes at the price of lookups shows
here and nowhere else. The write metrics of this workload come from the
preload, which is the same write path at a smaller size.
"""

from __future__ import annotations

import random

from repro import LSMEngine

from perfbench import gen, layers
from perfbench.ingest_inline import end_state, read_handlers, write_handlers
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

NAME = "read_settled"
WHY = (
    "gets, scans and secondary lookups on a flushed tree ten times its block "
    "cache: filters, lsm iterators, cache and KiWi layout work; compaction none"
)

PRELOAD_INSERTS_AT_REFERENCE = 20_000
GETS_AT_REFERENCE = 300_000
SCANS_AT_REFERENCE = 30_000
LOOKUPS_AT_REFERENCE = 1_500
CACHE_PAGES_AT_REFERENCE = 512
# A secondary lookup covers this share of the delete-key domain.
LOOKUP_SHARE = 0.01
SETUP_REPEATS = 3


def _set_up(seed: int, seconds: float, write_lat: Latencies,
            result: WorkloadResult, speed: HostSpeed):
    rng = random.Random(seed)
    model = gen.Model()
    inserts = scaled(PRELOAD_INSERTS_AT_REFERENCE, seconds, 50)
    preload = list(speed.watch(gen.write_stream(rng, model, inserts)))
    gets = gen.point_reads(rng, model, scaled(GETS_AT_REFERENCE, seconds, 50))
    speed.probe()
    scans = [
        ("scan", model.keys[start], model.keys[end - 1], start, end)
        for start, end in (
            gen.scan_window(rng, model, gen.SCAN_WIDTH)
            for _ in range(scaled(SCANS_AT_REFERENCE, seconds, 10))
        )
    ]
    width = max(1, int(inserts * LOOKUP_SHARE))
    lookups = []
    for _ in range(scaled(LOOKUPS_AT_REFERENCE, seconds, 5)):
        d_lo = rng.randrange(max(1, inserts - width))
        lookups.append(
            ("secondary_range_lookup", d_lo, d_lo + width,
             model.secondary_range_lookup(d_lo, d_lo + width))
        )
    config = engine_config(
        len(preload),
        cache_pages=scaled(CACHE_PAGES_AT_REFERENCE, seconds, 8),
    )
    engine = LSMEngine(config)
    quiesce()
    timed_ops(
        write_handlers(engine), preload, result,
        {kind: write_lat for kind in write_handlers(engine)}, speed,
    )
    engine.flush()
    return model, preload, gets, scans, lookups, config, engine


def run(seed: int, seconds: float, tracer, workdir: str) -> WorkloadResult:
    result = WorkloadResult(NAME)
    write_lat = Latencies()
    speed = HostSpeed()
    setups = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        (model, preload, gets, scans, lookups, config, engine), took = speed.timed(
            lambda: _set_up(seed, seconds, write_lat, result, speed)
        )
        setups.append(took)
    result.note_config("engine", config)
    result.count_ops(preload + gets + scans + lookups)
    amplification = end_state(engine, config.delete_persistence_threshold)
    loaded = engine.stats.snapshot()
    loaded_totals = tracer.totals() if tracer else {}

    get_lat, scan_lat, lookup_lat = Latencies(), Latencies(), Latencies()
    quiesce()
    get_phase = timed_ops(read_handlers(engine), gets, result, {"get": get_lat}, speed)
    after_gets = engine.stats.snapshot()

    # The model is static here, so a scan carries the window of one sorted
    # list that is its answer (thirty thousand stored answers would not
    # fit in memory); the slice is taken outside the timed call.
    pairs = model.pairs()
    quiesce()
    scan_phase = timed_ops(
        {"scan": (engine.scan, 2, lambda answer, op: answer == pairs[op[3]:op[4]])},
        scans, result, {"scan": scan_lat}, speed,
    )

    quiesce()
    lookup_phase = timed_ops(
        {"secondary_range_lookup":
            (engine.secondary_range_lookup, 2, matches_expected)},
        lookups, result, {"secondary_range_lookup": lookup_lat}, speed,
    )
    read_counts = layers.counts_delta(engine.stats.snapshot(), loaded)
    phases = (get_phase, scan_phase, lookup_phase)

    result.check(engine.scan(0, gen.DOMAIN) == model.pairs(), "final full scan")
    reads = len(gets) + len(scans) + len(lookups)
    for phase in phases:
        phase.add_to(result)
    result.host_slow_share = speed.slow_share
    report_timings(
        result, setups, reads, result.timed_wall_s, write_lat,
        get_lat, scan_lat, *amplification,
    )
    result.untraced["kiwi.srl.p50_us"] = lookup_lat.metric(50, "us").value
    if tracer:
        # Counts and spans of the timed phases only: the preload's flushes
        # and compactions are set-up here, and must read as no work.
        result.per_layer = layers.layer_metrics(
            read_counts, layers.counts_delta(after_gets, loaded),
            layers.totals_delta(tracer.totals(), loaded_totals),
            {**layers.tree_shape([engine]), **result.untraced},
        )
    return result
