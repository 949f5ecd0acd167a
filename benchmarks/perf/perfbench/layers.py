"""Per-layer metrics: what is traced, and how counts and spans become numbers.

A layer is a module name under ``src/repro/``. Counts come from public
``Statistics.snapshot()`` deltas, ``LetheServer.stats()`` and directory
sizes; ``*_s`` times are span self times from the traced run.

``PER_LAYER`` is the one list of names: ``BENCHMARK.json`` declares the
same names and units (the tests compare the two), and the last two
columns record, before anything was measured, which end-to-end metric a
layer metric should move and on which workload.
"""

from __future__ import annotations

import os

from perfbench.measure import Metric
from perfbench.trace import Tracer

# (name, unit, better, should move, on)
PER_LAYER: list[tuple[str, str, str, str, str]] = [
    # core: LSMEngine.put/delete/get/scan minus flush, compaction and WAL children
    ("core.put.calls", "count", "lower", "write_p50_us", "ingest_inline"),
    ("core.put.self_s", "s", "lower", "write_p50_us", "ingest_inline"),
    ("core.delete.self_s", "s", "lower", "write_p50_us", "ingest_inline"),
    ("core.get.self_s", "s", "lower", "get_p50_us", "read_settled"),
    ("core.scan.self_s", "s", "lower", "scan_p50_us", "read_settled"),
    ("core.blind_deletes_skipped", "count", "higher", "write_amp", "ingest_inline"),
    ("core.write_p99_us", "us", "lower", "ops_per_s", "ingest_inline durable_mixed"),
    ("core.write_p999_ms", "ms", "lower", "ops_per_s", "ingest_inline durable_mixed"),
    ("core.get_p99_us", "us", "lower", "get_p50_us", "read_settled durable_mixed"),
    # storage.buffer: LSMEngine.flush_buffer
    ("storage.buffer.flushes", "count", "lower", "ops_per_s", "ingest_inline durable_mixed"),
    ("storage.buffer.flush_self_s", "s", "lower", "core.write_p99_us", "ingest_inline durable_mixed"),
    # storage.disk / storage.cache
    ("storage.disk.pages_read", "count", "lower", "get_p50_us", "read_settled"),
    ("storage.disk.pages_written", "count", "lower", "write_amp", "ingest_inline"),
    ("storage.disk.pages_per_get", "pages", "lower", "get_p50_us", "read_settled"),
    ("storage.cache.hits", "count", "higher", "get_p50_us", "read_settled"),
    ("storage.cache.misses", "count", "lower", "get_p50_us", "read_settled"),
    ("storage.cache.hit_ratio", "ratio", "higher", "get_p50_us", "read_settled durable_mixed"),
    # filters: BloomFilter.might_contain
    ("filters.bloom.probes_per_get", "count", "lower", "get_p50_us", "read_settled"),
    ("filters.bloom.false_positive_ratio", "ratio", "lower", "get_p50_us", "read_settled"),
    ("filters.bloom.probe_s", "s", "lower", "get_p50_us", "read_settled"),
    ("filters.range_tombstone_skips", "count", "higher", "get_p50_us", "read_settled"),
    # lsm: WriteAheadLog.append, tree shape at the end, open_engine
    ("lsm.wal.appends", "count", "lower", "write_p50_us", "durable_mixed"),
    ("lsm.wal.append_self_s", "s", "lower", "write_p50_us", "durable_mixed"),
    ("lsm.tree.levels", "count", "lower", "get_p50_us", "read_settled"),
    ("lsm.tree.files", "count", "lower", "space_amp", "ingest_inline"),
    ("lsm.tree.tombstones_on_disk", "count", "lower", "space_amp", "ingest_inline"),
    ("lsm.recovery.open_s", "s", "lower", "lsm.recovery.median_s", "durable_mixed"),
    ("lsm.recovery.median_s", "s", "lower", "setup_s", "durable_mixed"),
    # compaction: run_one_compaction, CompactionExecutor.prepare/install_prepared
    ("compaction.runs", "count", "lower", "ops_per_s", "ingest_inline"),
    ("compaction.ttl_triggered", "count", "lower", "compaction.delete_persist_max_over_dth", "ingest_inline"),
    ("compaction.saturation_triggered", "count", "lower", "write_amp", "ingest_inline"),
    ("compaction.busy_s", "s", "lower", "ops_per_s", "ingest_inline"),
    ("compaction.prepare_s", "s", "lower", "ops_per_s", "ingest_inline"),
    ("compaction.install_s", "s", "lower", "core.write_p99_us", "ingest_inline"),
    ("compaction.bytes_read", "bytes", "lower", "write_amp", "ingest_inline"),
    ("compaction.bytes_written", "bytes", "lower", "write_amp", "ingest_inline"),
    ("compaction.entries_out_per_in", "ratio", "lower", "space_amp", "ingest_inline"),
    ("compaction.tombstones_dropped", "count", "higher", "compaction.delete_persist_max_over_dth", "ingest_inline"),
    ("compaction.invalid_entries_purged", "count", "higher", "space_amp", "ingest_inline"),
    ("compaction.delete_persist_max_over_dth", "ratio", "lower", "write_amp", "ingest_inline durable_mixed"),
    # compaction.scheduler: zero on the inline workloads by construction
    ("compaction.scheduler.background_runs", "count", "lower", "ops_per_s", "durable_mixed served_open"),
    ("compaction.scheduler.write_stalls", "count", "lower", "core.write_p99_us", "durable_mixed served_open"),
    ("compaction.scheduler.write_slowdowns", "count", "lower", "core.write_p99_us", "durable_mixed served_open"),
    ("compaction.scheduler.stall_s", "s", "lower", "core.write_p99_us", "durable_mixed served_open"),
    ("compaction.scheduler.preemptions", "count", "lower", "compaction.delete_persist_max_over_dth", "durable_mixed"),
    ("compaction.scheduler.concurrent_peak", "count", "higher", "ops_per_s", "durable_mixed served_open"),
    ("compaction.scheduler.drain_s", "s", "lower", "ops_per_s", "durable_mixed"),
    # kiwi: secondary_range_delete / secondary_range_lookup
    ("kiwi.srd.calls", "count", "lower", "ops_per_s", "ingest_inline"),
    ("kiwi.srd.busy_s", "s", "lower", "core.write_p99_us", "ingest_inline"),
    ("kiwi.pages_dropped_full", "count", "higher", "ops_per_s", "ingest_inline"),
    ("kiwi.pages_dropped_partial", "count", "lower", "ops_per_s", "ingest_inline"),
    ("kiwi.full_drop_ratio", "ratio", "higher", "ops_per_s", "ingest_inline"),
    ("kiwi.srl.p50_us", "us", "lower", "ops_per_s", "read_settled"),
    # storage.persist: DurableStore.wal_append/wal_sync/commit
    ("storage.persist.wal_append_s", "s", "lower", "write_p50_us", "durable_mixed served_open"),
    ("storage.persist.wal_syncs", "count", "lower", "ops_per_s", "durable_mixed served_open"),
    ("storage.persist.wal_sync_s", "s", "lower", "ops_per_s", "durable_mixed served_open"),
    ("storage.persist.commits", "count", "lower", "core.write_p99_us", "durable_mixed served_open"),
    ("storage.persist.commit_s", "s", "lower", "core.write_p99_us", "durable_mixed served_open"),
    ("storage.persist.durable_writes_per_op", "ratio", "lower", "ops_per_s", "durable_mixed served_open"),
    ("storage.persist.bytes_on_disk_per_user_byte", "ratio", "lower", "lsm.recovery.median_s", "durable_mixed served_open"),
    # shard: IngestSession.submit, IngestTicket.wait, ShardedEngine.get/scan/sync
    ("shard.submit_s", "s", "lower", "write_p50_us", "served_open"),
    ("shard.ticket_wait_s", "s", "lower", "write_p50_us", "served_open"),
    ("shard.get_s", "s", "lower", "get_p50_us", "served_open"),
    ("shard.scan_s", "s", "lower", "scan_p50_us", "served_open"),
    ("shard.sync_s", "s", "lower", "core.write_p99_us", "served_open"),
    ("shard.writes_per_batch", "ratio", "higher", "ops_per_s", "served_open"),
    ("shard.entry_imbalance", "ratio", "lower", "core.write_p99_us", "served_open"),
    # net: decode_request/encode_response as bound in repro.net.server
    ("net.decode_s", "s", "lower", "ops_per_s", "served_open"),
    ("net.encode_s", "s", "lower", "ops_per_s", "served_open"),
    ("net.client.encode_s", "s", "lower", "ops_per_s", "served_open"),
    ("net.requests", "count", "higher", "ops_per_s", "served_open"),
    ("net.write_batches", "count", "lower", "ops_per_s", "served_open"),
    ("net.protocol_errors", "count", "lower", "ops_per_s", "served_open"),
    ("net.gen_late_p99_ms", "ms", "lower", "write_p50_us", "served_open"),
    ("net.unattributed_ms", "ms", "lower", "write_p50_us", "served_open"),
    ("net.open_loop_req_per_s", "1/s", "higher", "write_p50_us", "served_open"),
    # the trace itself
    ("trace.overhead_ratio", "ratio", "lower", "-", "all"),
    ("trace.spans", "count", "lower", "-", "all"),
    ("trace.dropped", "count", "lower", "-", "all"),
]

PER_LAYER_UNITS = {name: unit for name, unit, *_ in PER_LAYER}


def install_engine_tracing(tracer: Tracer) -> None:
    """Interpose on the engine-side layer boundaries (the process that
    hosts the engine: this one, or the server child)."""
    from repro.compaction.executor import CompactionExecutor
    from repro.compaction.scheduler import BackgroundScheduler
    from repro.core.engine import LSMEngine
    from repro.filters.bloom import BloomFilter
    from repro.lsm import recovery
    from repro.lsm.wal import WriteAheadLog
    from repro.storage.persist import DurableStore

    for owner, attr, name in (
        (LSMEngine, "put", "core.put"),
        (LSMEngine, "delete", "core.delete"),
        (LSMEngine, "delete_range", "core.delete_range"),
        (LSMEngine, "get", "core.get"),
        (LSMEngine, "scan", "core.scan"),
        (LSMEngine, "flush_buffer", "storage.buffer.flush"),
        (LSMEngine, "run_one_compaction", "compaction.run"),
        (LSMEngine, "secondary_range_delete", "kiwi.srd"),
        (LSMEngine, "secondary_range_lookup", "kiwi.srl"),
        (CompactionExecutor, "prepare", "compaction.prepare"),
        (CompactionExecutor, "install_prepared", "compaction.install"),
        (BackgroundScheduler, "drain", "compaction.scheduler.drain"),
        (WriteAheadLog, "append", "lsm.wal.append"),
        (recovery, "open_engine", "lsm.recovery.open"),
        (DurableStore, "wal_append", "storage.persist.wal_append"),
        (DurableStore, "wal_sync", "storage.persist.wal_sync"),
        (DurableStore, "commit", "storage.persist.commit"),
    ):
        tracer.interpose(owner, attr, name)
    # Probed several times per lookup: accounted, not stored.
    tracer.interpose(BloomFilter, "might_contain", "filters.bloom.probe", keep=False)


def install_serving_tracing(tracer: Tracer) -> None:
    """Interpose on the shard and net boundaries inside the server child."""
    from repro.net import server as net_server
    from repro.shard.engine import IngestSession, IngestTicket, ShardedEngine

    for owner, attr, name in (
        (IngestSession, "submit", "shard.submit"),
        (IngestTicket, "wait", "shard.ticket_wait"),
        (ShardedEngine, "get", "shard.get"),
        (ShardedEngine, "scan", "shard.scan"),
        (ShardedEngine, "sync", "shard.sync"),
        (net_server, "decode_request", "net.decode"),
        (net_server, "encode_response", "net.encode"),
    ):
        tracer.interpose(owner, attr, name)


def install_client_tracing(tracer: Tracer) -> None:
    from repro.net import client as net_client

    tracer.interpose(net_client, "encode_request", "net.client.encode", keep=False)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    run_counts: dict,
    read_counts: dict,
    totals: dict[str, dict[str, float]],
    extras: dict[str, float],
) -> dict[str, Metric]:
    """Every ``PER_LAYER`` name, from counts, span totals and extras.

    ``run_counts`` is the ``Statistics.snapshot()`` delta of the whole
    measured run; ``read_counts`` the delta of the region whose lookups
    are point gets only, where the workload has one (else the whole
    run). ``totals`` is :meth:`Tracer.totals`. ``extras`` carries what
    only the workload knows (tree shape, directory sizes, request
    counts); a name set there wins. A layer the workload bypasses reads 0.
    """

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    def span_s(name: str) -> float:
        return totals.get(name, {}).get("span_s", 0.0)

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0)

    rc = run_counts.get
    gets = read_counts.get("point_lookups", 0)
    cache_touches = rc("cache_hits", 0) + rc("cache_misses", 0)
    drops = rc("pages_dropped_full", 0) + rc("pages_dropped_partial", 0)
    write_ops = (
        rc("entries_ingested", 0)
        + rc("point_tombstones_ingested", 0)
        + rc("range_tombstones_ingested", 0)
    )
    values = {
        "core.put.calls": calls("core.put"),
        "core.put.self_s": self_s("core.put"),
        "core.delete.self_s": self_s("core.delete") + self_s("core.delete_range"),
        "core.get.self_s": self_s("core.get"),
        "core.scan.self_s": self_s("core.scan"),
        "core.blind_deletes_skipped": rc("blind_deletes_skipped", 0),
        "storage.buffer.flushes": rc("buffer_flushes", 0),
        "storage.buffer.flush_self_s": self_s("storage.buffer.flush"),
        "storage.disk.pages_read": rc("pages_read", 0),
        "storage.disk.pages_written": rc("pages_written", 0),
        "storage.disk.pages_per_get": _ratio(read_counts.get("lookup_pages_read", 0), gets),
        "storage.cache.hits": rc("cache_hits", 0),
        "storage.cache.misses": rc("cache_misses", 0),
        "storage.cache.hit_ratio": _ratio(rc("cache_hits", 0), cache_touches),
        "filters.bloom.probes_per_get": _ratio(read_counts.get("bloom_probes", 0), gets),
        "filters.bloom.false_positive_ratio": _ratio(
            read_counts.get("bloom_false_positives", 0),
            read_counts.get("bloom_probes", 0),
        ),
        "filters.bloom.probe_s": self_s("filters.bloom.probe"),
        "filters.range_tombstone_skips": rc("range_tombstone_skips", 0),
        "lsm.wal.appends": calls("lsm.wal.append"),
        "lsm.wal.append_self_s": self_s("lsm.wal.append"),
        "lsm.recovery.open_s": span_s("lsm.recovery.open"),
        "compaction.runs": rc("compactions", 0),
        "compaction.ttl_triggered": rc("ttl_triggered_compactions", 0),
        "compaction.saturation_triggered": rc("saturation_triggered_compactions", 0),
        "compaction.busy_s": span_s("compaction.run"),
        "compaction.prepare_s": self_s("compaction.prepare"),
        "compaction.install_s": self_s("compaction.install"),
        "compaction.bytes_read": rc("compaction_bytes_read", 0),
        "compaction.bytes_written": rc("compaction_bytes_written", 0),
        "compaction.entries_out_per_in": _ratio(
            rc("compaction_entries_out", 0), rc("compaction_entries_in", 0)
        ),
        "compaction.tombstones_dropped": rc("tombstones_dropped", 0),
        "compaction.invalid_entries_purged": rc("invalid_entries_purged", 0),
        "compaction.scheduler.background_runs": rc("background_compactions", 0),
        "compaction.scheduler.write_stalls": rc("write_stalls", 0),
        "compaction.scheduler.write_slowdowns": rc("write_slowdowns", 0),
        "compaction.scheduler.stall_s": rc("stall_seconds", 0.0),
        "compaction.scheduler.preemptions": rc("compaction_preemptions", 0),
        "compaction.scheduler.drain_s": span_s("compaction.scheduler.drain"),
        "kiwi.srd.calls": rc("secondary_range_deletes", 0),
        "kiwi.srd.busy_s": span_s("kiwi.srd"),
        "kiwi.pages_dropped_full": rc("pages_dropped_full", 0),
        "kiwi.pages_dropped_partial": rc("pages_dropped_partial", 0),
        "kiwi.full_drop_ratio": _ratio(rc("pages_dropped_full", 0), drops),
        "storage.persist.wal_append_s": self_s("storage.persist.wal_append"),
        "storage.persist.wal_syncs": calls("storage.persist.wal_sync"),
        "storage.persist.wal_sync_s": self_s("storage.persist.wal_sync"),
        "storage.persist.commits": calls("storage.persist.commit"),
        "storage.persist.commit_s": self_s("storage.persist.commit"),
        "storage.persist.durable_writes_per_op": _ratio(
            calls("storage.persist.wal_sync") + calls("storage.persist.commit"),
            write_ops,
        ),
        "shard.submit_s": self_s("shard.submit"),
        "shard.ticket_wait_s": self_s("shard.ticket_wait"),
        "shard.get_s": self_s("shard.get"),
        "shard.scan_s": self_s("shard.scan"),
        "shard.sync_s": self_s("shard.sync"),
        "net.decode_s": self_s("net.decode"),
        "net.encode_s": self_s("net.encode"),
        "net.client.encode_s": self_s("net.client.encode"),
    }
    values.update(extras)
    return {
        name: Metric(float(values.get(name, 0.0)), unit)
        for name, unit, *_ in PER_LAYER
    }


def counts_delta(after: dict, before: dict) -> dict:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def totals_delta(after: dict, before: dict) -> dict:
    """:meth:`Tracer.totals` of a region: ``after`` minus ``before``."""
    return {
        name: {
            field: value - before.get(name, {}).get(field, 0)
            for field, value in total.items()
        }
        for name, total in after.items()
    }


def tree_shape(engines) -> dict[str, float]:
    """End-of-run tree shape summed over ``engines`` (levels: the deepest)."""
    return {
        "lsm.tree.levels": max(e.tree.deepest_nonempty_level() for e in engines),
        "lsm.tree.files": sum(e.tree.total_files for e in engines),
        "lsm.tree.tombstones_on_disk": sum(e.tombstones_on_disk() for e in engines),
    }


def directory_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(path)
        for name in names
    )
