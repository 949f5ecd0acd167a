"""Unit tests for the observability layer (ISSUE 6).

Covers the contracts the instrumented hot paths lean on: exact bucket
boundaries (so merged shard histograms equal the pooled-stream
histogram), tracer ring wraparound under concurrent recording, sampler
lifecycle (no leaked threads after ``engine.close()``), and the
:meth:`Statistics.snapshot`-under-the-lock bugfix.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.compaction.scheduler import BackgroundScheduler
from repro.core.config import EngineConfig, lethe_config
from repro.core.engine import LSMEngine
from repro.core.errors import ConfigError
from repro.core.stats import Statistics
from repro.obs import (
    NULL_OBS,
    LatencyHistogram,
    MetricsRegistry,
    MetricsSampler,
    Observability,
    SpanTracer,
    reset_global_tracer,
)
from repro.obs.export import (
    parse_exposition,
    prometheus_exposition,
    registry_json,
)
from repro.shard.engine import ShardedEngine

from tests.conftest import TINY


class TestHistogramBuckets:
    def test_bucket_boundaries_are_powers_of_two(self):
        h = LatencyHistogram(resolution=1.0)
        # Bucket i holds [2^(i-1), 2^i): the boundary value 2^i is the
        # *first* value of bucket i+1, not the last of bucket i.
        assert h.bucket_index(0) == 0
        assert h.bucket_index(-3) == 0
        assert h.bucket_index(1) == 1
        assert h.bucket_index(2) == 2
        assert h.bucket_index(3) == 2
        assert h.bucket_index(4) == 3
        assert h.bucket_index(2**20 - 1) == 20
        assert h.bucket_index(2**20) == 21

    def test_nanosecond_resolution_scales_seconds(self):
        h = LatencyHistogram()  # resolution 1e9: seconds in, ns buckets
        assert h.bucket_index(1e-9) == 1
        assert h.bucket_index(1e-6) == 10  # 1000ns has 10 bits
        assert h.bucket_index(1.0) == 30

    def test_top_bucket_absorbs_overflow(self):
        h = LatencyHistogram(resolution=1.0)
        top = LatencyHistogram.BUCKET_COUNT - 1
        assert h.bucket_index(2**80) == top
        h.record(2**80)
        assert h.snapshot()["buckets"][str(top)] == 1

    def test_upper_bounds_bracket_recorded_values(self):
        h = LatencyHistogram(resolution=1.0)
        for value in (1, 5, 100, 4095, 4096):
            index = h.bucket_index(value)
            assert value < h.bucket_upper_bound(index)
            if index > 1:
                assert value >= h.bucket_upper_bound(index - 1)

    def test_quantiles_pessimistic_but_capped_at_max(self):
        h = LatencyHistogram(resolution=1.0)
        for value in range(1, 101):
            h.record(value)
        # p50 of 1..100 is 50; bucket upper bound rounds up to 64.
        assert h.quantile(0.5) == 64
        # The top quantile is capped at the observed max, not the
        # bucket bound (128).
        assert h.quantile(1.0) == 100
        # The bottom clamps to rank 1 and still resolves pessimistically
        # to that bucket's upper bound (value 1 lives in [1, 2)).
        assert h.quantile(0.0) == 2

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LatencyHistogram().quantile(1.5)

    def test_empty_histogram_snapshot(self):
        snap = LatencyHistogram().snapshot()
        assert snap["count"] == 0
        assert snap["min"] == 0.0
        assert snap["p999"] == 0.0


class TestHistogramMerge:
    def test_merge_across_four_shards_matches_pooled_stream(self):
        # The ISSUE 6 acceptance contract: per-shard histograms merged
        # == one histogram fed the pooled op stream.
        values = [((i * 2654435761) % 1_000_000) / 1e9 for i in range(4000)]
        pooled = LatencyHistogram("pooled")
        shards = [LatencyHistogram(f"shard-{n}") for n in range(4)]
        for i, value in enumerate(values):
            pooled.record(value)
            shards[i % 4].record(value)
        merged = LatencyHistogram.combined(shards, name="merged")
        merged_snap, pooled_snap = merged.snapshot(), pooled.snapshot()
        # Sums accumulate in a different order, so compare those to
        # float tolerance; everything else (buckets, count, extremes,
        # quantiles) must be bit-identical.
        for key in ("sum", "mean"):
            assert merged_snap.pop(key) == pytest.approx(pooled_snap.pop(key))
        assert merged_snap == pooled_snap
        assert merged.count == len(values)
        assert merged.percentiles() == pooled.percentiles()

    def test_merge_in_place_keeps_extremes(self):
        a, b = LatencyHistogram(resolution=1.0), LatencyHistogram(resolution=1.0)
        a.record(10)
        b.record(2)
        b.record(500)
        assert a.merge(b) is a
        snap = a.snapshot()
        assert snap["count"] == 3
        assert snap["min"] == 2
        assert snap["max"] == 500

    def test_merge_rejects_resolution_mismatch(self):
        with pytest.raises(ValueError):
            LatencyHistogram(resolution=1.0).merge(LatencyHistogram())

    def test_cluster_merged_histogram_counts_every_op(self):
        cluster = ShardedEngine(
            EngineConfig(observability=True, obs_sample_interval_ms=0.0),
            n_shards=4,
        )
        try:
            cluster.ingest([("put", f"k{i:04d}", i) for i in range(400)])
            merged = cluster.merged_op_histogram("write")
            assert merged.count == 400
            assert merged.count == sum(
                shard.obs.op_write_latency.count for shard in cluster.shards
            )
        finally:
            cluster.close()


class TestHistogramConcurrency:
    def test_concurrent_recording_loses_nothing(self):
        h = LatencyHistogram(resolution=1.0)
        per_thread, n_threads = 5000, 4

        def hammer():
            for i in range(per_thread):
                h.record(i % 256)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = h.snapshot()
        assert snap["count"] == per_thread * n_threads
        assert sum(snap["buckets"].values()) == per_thread * n_threads


class TestTracerRing:
    def test_ring_wraparound_keeps_newest(self):
        tracer = SpanTracer(capacity=8)
        for i in range(20):
            tracer.record(f"span-{i}", start=float(i), duration=0.001)
        assert tracer.recorded_total == 20
        assert tracer.dropped == 12
        names = [event["name"] for event in tracer.events()]
        assert names == [f"span-{i}" for i in range(12, 20)]

    def test_wraparound_under_concurrent_recording(self):
        tracer = SpanTracer(capacity=64)
        per_thread, n_threads = 2000, 4

        def hammer(tag: int):
            for i in range(per_thread):
                with tracer.span(f"t{tag}", i=i):
                    pass

        threads = [
            threading.Thread(target=hammer, args=(tag,))
            for tag in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tracer.recorded_total == per_thread * n_threads
        events = tracer.events()
        # The ring holds exactly `capacity` events and every slot is a
        # complete, well-formed record (no torn tuples).
        assert len(events) == 64
        for event in events:
            assert event["name"].startswith("t")
            assert event["duration"] >= 0.0
            assert isinstance(event["tid"], int)

    def test_span_context_manager_records_args(self):
        tracer = SpanTracer(capacity=8)
        with tracer.span("flush", entries=7) as span:
            span.set(pages=2)
        (event,) = tracer.events()
        assert event["name"] == "flush"
        assert event["args"] == {"entries": 7, "pages": 2}

    def test_chrome_trace_shape(self, tmp_path):
        tracer = SpanTracer(capacity=8)
        with tracer.span("compaction", level=1):
            time.sleep(0.001)
        path = tmp_path / "trace.json"
        assert tracer.write_chrome_trace(path) == 1
        import json

        trace = json.loads(path.read_text())
        (x_event,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert x_event["name"] == "compaction"
        assert x_event["dur"] >= 1000  # microseconds
        assert x_event["args"] == {"level": 1}
        metadata = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert any(e["name"] == "thread_name" for e in metadata)


class TestWorkerThreadSpans:
    def test_background_durable_engine_traces_every_layer(self, tmp_path):
        """A durable engine under group commit whose compactions run on
        two background workers records ``flush``, ``compaction`` and
        ``wal-commit`` spans, and the merges are traced on the worker
        threads, not on the writer's."""
        reset_global_tracer()
        scheduler = BackgroundScheduler(workers=2)
        engine = LSMEngine.open(
            tmp_path / "db",
            config=lethe_config(
                1.0,
                observability=True,
                obs_sample_interval_ms=0.0,
                wal_commit_policy="group(16)",
                **TINY,
            ),
            scheduler=scheduler,
        )
        try:
            for i in range(1500):
                engine.put(i % 400, f"v{i}", delete_key=i)
            engine.flush()
            scheduler.drain()
        finally:
            engine.close()
            scheduler.close()
        spans = engine.obs.tracer.events()
        names = {event["name"] for event in spans}
        assert {"flush", "compaction", "wal-commit"} <= names, names
        tids = {event["tid"] for event in spans}
        assert len(tids) >= 2, f"expected spans from worker threads, tids={tids}"
        writer = threading.get_ident()
        assert any(
            event["tid"] != writer for event in spans
            if event["name"] == "compaction"
        ), "every compaction span was recorded on the writer thread"


class TestSamplerLifecycle:
    def test_start_stop_idempotent_and_collects(self):
        ticks = []
        sampler = MetricsSampler(
            lambda: {"tick": len(ticks) or ticks.append(0) or 0},
            interval_seconds=0.005,
        )
        sampler.start()
        sampler.start()  # second start is a no-op
        assert sampler.running
        time.sleep(0.03)
        sampler.stop()
        sampler.stop()
        assert not sampler.running
        samples = sampler.samples()
        assert len(samples) >= 2  # immediate sample + at least one tick
        assert all("t" in sample for sample in samples)

    def test_sampler_survives_a_failing_source(self):
        calls = []

        def source():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return {"ok": 1}

        sampler = MetricsSampler(source, interval_seconds=0.005)
        sampler.start()
        time.sleep(0.03)
        sampler.stop()
        assert sampler.sample_errors >= 1
        assert any("ok" in sample for sample in sampler.samples())

    def test_engine_close_stops_sampler_thread(self):
        engine = LSMEngine(
            lethe_config(1.0, observability=True, obs_sample_interval_ms=2.0)
        )
        assert engine.obs.sampler is not None
        assert engine.obs.sampler.running
        for i in range(50):
            engine.put(i, i)
        engine.close()
        assert not engine.obs.sampler.running
        assert not any(
            t.name == "obs-sampler" for t in threading.enumerate()
        ), "engine.close() leaked a sampler thread"
        # The live backpressure policy rides the sampler feed (serial
        # mode: the configured threshold, unscaled).
        last = engine.obs.sampler.samples()[-1]
        assert last["effective_stall_l1_runs"] == engine.config.stall_l1_runs

    def test_cluster_close_stops_sampler_thread(self):
        cluster = ShardedEngine(
            EngineConfig(observability=True, obs_sample_interval_ms=2.0),
            n_shards=2,
        )
        cluster.ingest([("put", i, i) for i in range(100)])
        time.sleep(0.01)
        cluster.close()
        assert not any(
            t.name == "obs-sampler" for t in threading.enumerate()
        ), "cluster.close() leaked a sampler thread"
        samples = cluster.obs.sampler.samples()
        assert samples and samples[-1]["n_shards"] == 2

    def test_disabled_engine_has_no_sampler_and_null_tracer(self):
        engine = LSMEngine(EngineConfig())
        try:
            assert engine.obs.sampler is None
            assert not engine.obs.enabled
            engine.put(1, 1)
            assert engine.obs.op_write_latency.count == 0
        finally:
            engine.close()

    def test_negative_sample_interval_rejected(self):
        with pytest.raises(ConfigError):
            EngineConfig(obs_sample_interval_ms=-1.0)


class TestRegistryAndExport:
    def test_counters_and_gauges_roundtrip_exposition(self):
        registry = MetricsRegistry()
        registry.counter("wal_dth_segments_rewritten").inc(3)
        registry.gauge("queue_depth", lambda: 7)
        registry.histogram("op_write_latency_seconds").record(1e-5)
        text = prometheus_exposition(registry, prefix="lethe")
        parsed = parse_exposition(text)
        assert parsed["lethe_wal_dth_segments_rewritten"] == 3
        assert parsed["lethe_queue_depth"] == 7
        assert parsed["lethe_op_write_latency_seconds_count"] == 1
        assert any("quantile" in key for key in parsed)

    def test_broken_gauge_does_not_kill_collect(self):
        registry = MetricsRegistry()
        registry.gauge("dead", lambda: 1 / 0)
        assert registry.collect()["gauges"]["dead"] is None

    def test_registry_json_includes_samples(self):
        registry = MetricsRegistry()
        sampler = MetricsSampler(lambda: {"x": 1}, interval_seconds=0.005)
        sampler.start()
        time.sleep(0.01)
        sampler.stop()
        payload = registry_json(registry, sampler)
        assert payload["samples"]
        assert payload["sample_errors"] == 0

    def test_attached_stats_flattened(self):
        registry = MetricsRegistry()
        stats = Statistics()
        stats.add(entries_ingested=5)
        registry.attach_stats("engine", stats)
        parsed = parse_exposition(prometheus_exposition(registry))
        assert parsed["lethe_engine_entries_ingested"] == 5


class TestStatsSnapshotUnderLock:
    def test_concurrent_snapshot_never_tears_paired_counters(self):
        # The satellite bugfix: snapshot() used to read field-by-field
        # without the lock, so a racing add(a=1, b=1) could be observed
        # half-applied. Paired counters must stay equal in every
        # snapshot a reader takes mid-stress.
        stats = Statistics()
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                stats.add(cache_hits=1, cache_misses=1)

        torn = []

        def reader():
            while not stop.is_set():
                snap = stats.snapshot()
                if snap["cache_hits"] != snap["cache_misses"]:
                    torn.append(snap)

        threads = [threading.Thread(target=writer) for _ in range(2)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for t in threads:
            t.start()
        time.sleep(0.2)
        stop.set()
        for t in threads:
            t.join()
        assert not torn, f"torn snapshots observed: {torn[:3]}"


class TestNullObservability:
    def test_null_obs_is_fully_inert(self):
        assert not NULL_OBS.enabled
        with NULL_OBS.tracer.span("anything", x=1) as span:
            span.set(y=2)
        NULL_OBS.close()  # no sampler, no error

    def test_force_enable_turns_on_without_sampler(self):
        from repro import obs

        obs.force_enable()
        try:
            bundle = Observability.from_config(EngineConfig())
            assert bundle.enabled
            assert bundle.sample_interval == 0.0
        finally:
            obs.force_enable(False)
