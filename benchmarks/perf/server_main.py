"""The ``served_open`` workload's server process.

Hosts ``LetheServer`` over a durable two-shard ``ShardedEngine`` in a
process of its own, so that client and server do not share an
interpreter lock. Protocol with the benchmark process, one line each way:
prints ``{"port": N}`` once it accepts connections, then waits for
``quit`` on standard input, stops, and prints one JSON report (counters,
end-state figures and, traced, the span totals; Chrome events go to
``--trace-out``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

N_SHARDS = 2
INGEST_QUEUE_DEPTH = 4
CACHE_PAGES = 16_384


def main(argv=None) -> int:
    from repro import ShardedEngine
    from repro.core import locks
    from repro.net import LetheServer
    from repro.storage.persist import config_to_dict

    from perfbench import layers
    from perfbench.measure import HostSpeed, PROBE_INTERVAL_S, engine_config
    from perfbench.trace import Tracer, write_chrome_trace

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--write-ops", type=int, required=True,
                        help="writes the run will issue; sizes FADE's D_th")
    parser.add_argument("--trace-out", help="trace this process; write events here")
    args = parser.parse_args(argv)

    speed = HostSpeed()
    speed.probe()
    locks.set_validation(False)
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        layers.install_engine_tracing(tracer)
        layers.install_serving_tracing(tracer)

    config = engine_config(
        args.write_ops, wal_commit_policy="group(16)", fsync=True,
        cache_pages=CACHE_PAGES,
    )
    cluster = ShardedEngine(
        config, n_shards=N_SHARDS, scheduler="background",
        ingest_queue_depth=INGEST_QUEUE_DEPTH, store_path=args.dir,
    )
    server = LetheServer(cluster).start()
    print(json.dumps({"port": server.port, "startup_ratio": speed.probe()}),
          flush=True)
    # Host speed of this process's core, for the benchmark to state the
    # server's share of every latency at the reference speed.
    stopping = threading.Event()

    def sample_speed() -> None:
        while not stopping.wait(PROBE_INTERVAL_S):
            speed.probe()

    sampler = threading.Thread(target=sample_speed, name="host-speed", daemon=True)
    sampler.start()
    try:
        for line in sys.stdin:
            if line.strip() == "quit":
                break
    finally:
        stopping.set()
        sampler.join()
        server.stop()

    cluster.scheduler.drain()
    stats = cluster.stats
    worst = stats.max_persistence_latency() or 0.0
    entries = cluster.shard_entry_counts()
    report = {
        "config": config_to_dict(config),
        "counts": stats.snapshot(),
        "server": server.stats(),
        "write_amp": cluster.write_amplification(),
        "space_amp": cluster.space_amplification(),
        "delete_persist_max_over_dth": worst / config.delete_persistence_threshold,
        "tree": layers.tree_shape(cluster.shards),
        "entry_imbalance": max(entries) / (sum(entries) / len(entries) or 1.0),
        "speed": {"times": speed.times, "ratios": speed.ratios},
    }
    cluster.close()
    report["bytes_on_disk"] = layers.directory_bytes(args.dir)
    if tracer is not None:
        tracer.restore()
        report["trace"] = {
            "totals": tracer.totals(),
            "spans": tracer.spans,
            "dropped": tracer.dropped,
            "concurrent_peak": tracer.peak_overlap("compaction.prepare"),
        }
        write_chrome_trace(
            args.trace_out, tracer.chrome_events(os.getpid(), "lethe-server")
        )
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
