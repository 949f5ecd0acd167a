"""Sharded cluster walkthrough: partitioned Lethe behind one API.

Builds a range-partitioned cluster of four Lethe engines aligned to
tenant boundaries, drives a skewed multi-tenant workload at it, then
shows the three distinctive cluster operations:

1. merged scans across shard boundaries,
2. a scatter-gather secondary range delete (a time-window purge hitting
   every shard at once, each paying only page drops),
3. splitting the hot shard — and finally verifies the cluster answers
   queries byte-identically to a single engine fed the same stream,
4. pipelined ingest: the same stream through an ingest session (one
   bounded worker queue per shard) lands exactly where routed ingest
   puts it.

Run:  python examples/sharded_cluster.py
"""

from repro import (
    LSMEngine,
    MultiTenantSpec,
    MultiTenantWorkload,
    RangePartitioner,
    ShardedEngine,
    lethe_config,
)

CONFIG_KNOBS = dict(buffer_pages=8, file_pages=16, size_ratio=4)


def build_config():
    return lethe_config(
        1e9,  # D_th far out: this walkthrough is about layout + routing
        delete_tile_pages=4,
        force_kiwi_layout=True,
        **CONFIG_KNOBS,
    )


def main() -> None:
    # Eight tenants, hottest one ~2x the next; four shards cut so each
    # owns two adjacent tenants (shard 0 gets the two hottest).
    spec = MultiTenantSpec.skewed(
        n_tenants=8,
        keys_per_tenant=10_000,
        skew=2.0,
        num_inserts=4_000,
        seed=7,
    )
    boundaries = spec.split_points()  # 7 tenant boundaries
    partitioner = RangePartitioner([boundaries[1], boundaries[3], boundaries[5]])
    cluster = ShardedEngine(build_config(), partitioner=partitioner)
    print(f"cluster: {partitioner.describe()}")

    print("\n== routed ingest (batched per shard) ==")
    workload = MultiTenantWorkload(spec)
    ingest_ops = list(workload.ingest_operations())
    cluster.ingest(ingest_ops)
    cluster.flush()
    counts = cluster.shard_entry_counts()
    print(f"ingested {len(ingest_ops)} operations across {cluster.n_shards} shards")
    print(f"entries per shard (hot tenants pile up on shard 0): {counts}")

    print("\n== merged scan across a shard boundary ==")
    boundary = partitioner.split_points[1]
    window = (boundary - 2_000, boundary + 2_000)
    merged = cluster.scan(*window)
    touched = sorted({partitioner.shard_for(key) for key, _ in merged})
    print(f"scan{window} returned {len(merged)} keys, "
          f"k-way merged from shards {touched}")

    print("\n== scatter-gather secondary range delete (time-window purge) ==")
    purge_lo, purge_hi = workload.retention_window(0.25)
    report = cluster.secondary_range_delete(purge_lo, purge_hi)
    print(f"purged timestamps [{purge_lo}, {purge_hi}) on all "
          f"{cluster.n_shards} shards:")
    print(f"  entries dropped: {report.entries_dropped}")
    print(f"  full page drops (zero I/O): {report.full_page_drops}")
    print(f"  pages read+written: {report.pages_read + report.pages_written}")
    leftovers = cluster.secondary_range_lookup(purge_lo, purge_hi)
    print(f"  entries still inside purged window: {len(leftovers)}")

    print("\n== splitting the hot shard ==")
    hot_index = counts.index(max(counts))
    low, high = partitioner.shard_bounds(hot_index)
    hot_keys = [
        key for key, _ in cluster.shards[hot_index].scan(
            low if low is not None else 0,
            high if high is not None else 80_000,
        )
    ]
    median = hot_keys[len(hot_keys) // 2]
    print(f"before: entries/shard = {cluster.shard_entry_counts()}")
    cluster.split(hot_index, median)
    print(f"after splitting shard {hot_index} at key {median}: "
          f"entries/shard = {cluster.shard_entry_counts()}")

    print("\n== equivalence against a single engine ==")
    single = LSMEngine(build_config())
    single.ingest(ingest_ops)
    single.secondary_range_delete(purge_lo, purge_hi)
    probe_keys = [op[1] for op in ingest_ops if op[0] == "put"][::17]
    gets_match = all(single.get(key) == cluster.get(key) for key in probe_keys)
    scans_match = single.scan(*window) == cluster.scan(*window)
    lookup_match = (
        single.secondary_range_lookup(purge_hi, purge_hi + 500)
        == cluster.secondary_range_lookup(purge_hi, purge_hi + 500)
    )
    print(f"results identical to single engine: "
          f"{gets_match and scans_match and lookup_match}")

    print("\n== cluster metrics (merged Statistics) ==")
    stats = cluster.stats
    print(f"entries ingested (incl. split migration): {stats.entries_ingested}")
    print(f"cluster write amplification: {cluster.write_amplification():.3f}")
    print(f"cluster space amplification: {cluster.space_amplification():.4f}")
    print(f"tombstones on disk: {cluster.tombstones_on_disk()}")

    print("\n== pipelined ingest through a session (bounded queues) ==")
    # Two fresh 4-shard clusters fed the same stream: one routed inline
    # by ingest(), one through per-shard worker queues of depth 4.
    serial = ShardedEngine(build_config(), n_shards=4)
    serial.ingest(ingest_ops)
    serial.flush()
    queued = ShardedEngine(
        build_config(), n_shards=4, ingest_queue_depth=4, max_batch=64
    )
    with queued.ingest_session() as session:
        ticket = session.submit(ingest_ops)  # returns once enqueued
        ticket.wait()  # every batch applied by the shard workers
    queued.flush()
    print(f"pipelined ingest of {len(ingest_ops)} ops matches routed "
          f"ingest: {queued.scan(0, 80_000) == serial.scan(0, 80_000)}")

if __name__ == "__main__":
    main()
