"""Tests for shard fan-out, the async ingest queue and ingest sessions.

Three layers of assurance:

1. unit tests for the fan-out loop and :class:`AsyncIngestQueue` in
   isolation (ordering, bounded depth, error propagation);
2. the headline property: a stream pipelined through an ingest session
   answers ``get``/``scan``/``secondary_range_lookup`` byte-identically
   to the same stream applied by ``ingest``;
3. a stress test hammering ``ingest`` and ``flush`` from concurrent
   threads, asserting the per-shard locks keep every ``Statistics``
   counter and the shared clock exact.
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings

from repro.core.clock import SimulatedClock
from repro.core.errors import ConfigError
from repro.shard.engine import ShardedEngine
from repro.shard.parallel import AsyncIngestQueue
from repro.shard.partitioner import RangePartitioner

# Shared with the cluster-vs-single-engine property suite so both
# tentpole properties always exercise the same stream shape.
from tests.test_shard import OPS, as_engine_ops, kiwi_cfg


# ======================================================================
# Fan-out
# ======================================================================


class TestFanOut:
    def test_results_in_shard_order(self):
        cluster = ShardedEngine(kiwi_cfg(), n_shards=4)
        topology = cluster._topology
        assert cluster._fan_out(topology, [2, 0, 3, 1], lambda shard: shard) == [
            topology.shards[index] for index in (2, 0, 3, 1)
        ]

    def test_member_exception_propagates_and_releases_locks(self, monkeypatch):
        cluster = ShardedEngine(kiwi_cfg(), n_shards=3)
        failing = cluster.shards[1]

        def boom():
            raise ValueError("shard exploded")

        monkeypatch.setattr(failing, "flush", boom)
        with pytest.raises(ValueError, match="shard exploded"):
            cluster.flush()
        monkeypatch.undo()
        # From another thread: the member locks are reentrant.
        worker = threading.Thread(target=cluster.flush)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "a member lock stayed held"


# ======================================================================
# AsyncIngestQueue
# ======================================================================


class TestAsyncIngestQueue:
    def test_per_shard_fifo_order(self):
        applied = {0: [], 1: []}

        def handler(index):
            return lambda ops: applied[index].extend(ops)

        with AsyncIngestQueue([handler(0), handler(1)], depth=2) as queue:
            for batch in range(10):
                queue.enqueue(batch % 2, [batch])
            queue.drain()
        assert applied[0] == [0, 2, 4, 6, 8]
        assert applied[1] == [1, 3, 5, 7, 9]

    def test_bounded_depth_applies_backpressure(self):
        release = threading.Event()
        applied = []

        def slow_handler(ops):
            release.wait(timeout=5.0)
            applied.extend(ops)

        queue = AsyncIngestQueue([slow_handler], depth=1)
        try:
            queue.enqueue(0, [1])  # worker picks this up and blocks
            time.sleep(0.02)
            queue.enqueue(0, [2])  # fills the depth-1 queue
            blocked_puts = []

            def producer():
                queue.enqueue(0, [3])  # must block until the worker frees up
                # Timestamp of a real unblock, compared to nothing
                # simulated — ordering evidence only.
                blocked_puts.append(time.perf_counter())  # lint: allow(deterministic-clock)

            thread = threading.Thread(target=producer)
            thread.start()
            time.sleep(0.05)
            assert not blocked_puts, "producer should be blocked at depth 1"
            release.set()
            thread.join(timeout=5.0)
            assert blocked_puts, "producer never unblocked"
            queue.drain()
        finally:
            queue.close()
        assert applied == [1, 2, 3]

    def test_handler_error_reraises_and_skips_backlog(self):
        applied = []

        def handler(ops):
            if ops == ["bad"]:
                raise RuntimeError("poison batch")
            applied.extend(ops)

        queue = AsyncIngestQueue([handler], depth=4)
        queue.enqueue(0, ["ok"])
        queue.enqueue(0, ["bad"])
        queue.enqueue(0, ["after"])  # discarded: state behind it failed
        with pytest.raises(RuntimeError, match="poison batch"):
            queue.drain()
        with pytest.raises(RuntimeError, match="poison batch"):
            queue.close()
        assert applied == ["ok"]

    def test_enqueue_after_close_rejected(self):
        queue = AsyncIngestQueue([lambda ops: None], depth=1)
        queue.close()
        with pytest.raises(ConfigError):
            queue.enqueue(0, [1])

    def test_validation(self):
        with pytest.raises(ConfigError):
            AsyncIngestQueue([lambda ops: None], depth=0)
        with pytest.raises(ConfigError):
            AsyncIngestQueue([], depth=1)


# ======================================================================
# A session-pipelined stream answers identically to ingest()
# ======================================================================


def query_fingerprint(cluster):
    """Every read-path answer over the whole key/delete-key domain."""
    return (
        [cluster.get(key) for key in range(62)],
        cluster.scan(0, 61),
        cluster.secondary_range_lookup(0, 520),
    )


@pytest.mark.parametrize(
    "layout",
    [
        dict(n_shards=4),
        dict(n_shards=4, ingest_queue_depth=2, max_batch=8),
        dict(partitioner=RangePartitioner([15, 30, 45])),
    ],
    ids=["hash", "hash-batch8", "range"],
)
@given(ops=OPS)
@settings(max_examples=10, deadline=None)
def test_property_parallel_cluster_matches_serial(layout, ops):
    """The tentpole property: pipelining never changes answers."""
    stream = as_engine_ops(ops)
    serial = ShardedEngine(kiwi_cfg(), **layout)
    serial.ingest(stream)
    parallel = ShardedEngine(kiwi_cfg(), **layout)
    with parallel.ingest_session() as session:
        session.submit(stream)
        session.drain()
    assert query_fingerprint(parallel) == query_fingerprint(serial)
    assert parallel.stats.entries_ingested == serial.stats.entries_ingested


# ======================================================================
# Concurrency stress: Statistics and clock stay exact under threads
# ======================================================================


class TestConcurrencyStress:
    def test_concurrent_ingest_and_flush_keep_counters_exact(self):
        """Hammer ingest + flush from threads; verify nothing is lost.

        Four writer threads ingest disjoint key ranges through the
        cluster API while a fifth thread spams cluster-wide flushes.
        With per-shard locks and the locked clock, every counter must
        come out exactly as if the work had run serially.
        """
        cluster = ShardedEngine(kiwi_cfg(), n_shards=4, max_batch=16)
        writers = 4
        puts_per_writer = 300
        errors = []

        def writer(worker: int) -> None:
            base = worker * 10_000
            ops = [
                ("put", base + i, f"w{worker}-{i}", i % 97)
                for i in range(puts_per_writer)
            ]
            try:
                cluster.ingest(ops)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def flusher() -> None:
            try:
                for _ in range(20):
                    cluster.flush()
                    time.sleep(0.001)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(writers)
        ] + [threading.Thread(target=flusher)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cluster.flush()

        assert not errors, f"concurrent operations raised: {errors!r}"
        total_puts = writers * puts_per_writer
        stats = cluster.stats
        assert stats.entries_ingested == total_puts
        # Every put ticked the shared clock exactly once.
        assert cluster.clock.ticks == total_puts
        assert cluster.clock.now == pytest.approx(
            total_puts / cluster.config.ingestion_rate
        )
        # Every written key is present: nothing vanished in a race.
        assert sum(len(cluster.scan(w * 10_000, w * 10_000 + puts_per_writer))
                   for w in range(writers)) == total_puts
        # Byte accounting is consistent: flushed plus compacted equals
        # the total the disk charged.
        assert stats.total_bytes_written == (
            stats.bytes_flushed + stats.compaction_bytes_written
        )

    def test_split_concurrent_with_writers_loses_nothing(self):
        """Resharding vs writers: the topology snapshot re-route.

        Two writer threads stream puts through the cluster while the
        main thread splits a shard mid-stream. Writers blocked on the
        shard locks during the split must re-route to the new members —
        every written key has to be readable afterwards.
        """
        cluster = ShardedEngine(kiwi_cfg(), partitioner=RangePartitioner([500]))
        keys_per_writer = 400
        errors = []

        def writer(worker: int) -> None:
            try:
                for i in range(keys_per_writer):
                    key = worker * 1_000 + i  # worker 0: shard 0; worker 1: shard 1
                    cluster.put(key, f"w{worker}-{i}", delete_key=i)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,)) for w in (0, 1)]
        for thread in threads:
            thread.start()
        time.sleep(0.005)  # let both writers get going mid-stream
        cluster.split(0, 250)
        for thread in threads:
            thread.join()

        assert not errors, f"concurrent writes raised: {errors!r}"
        assert cluster.n_shards == 3
        missing = [
            (worker, i)
            for worker in (0, 1)
            for i in range(keys_per_writer)
            if cluster.get(worker * 1_000 + i) != f"w{worker}-{i}"
        ]
        assert not missing, f"{len(missing)} writes lost across split: " \
                            f"{missing[:5]}"

    def test_batch_routed_before_split_reroutes_by_key(self):
        """A shard index from a pre-reshard routing must never be
        reinterpreted against the new partitioner: _apply_batch re-routes
        the batch's operations per key when the topology changed."""
        cluster = ShardedEngine(kiwi_cfg(), partitioner=RangePartitioner([500]))
        routed = cluster._topology
        # Batch routed for old shard 1 (keys >= 500).
        batch = [("put", 700 + i, f"v{i}", None) for i in range(40)]
        cluster.put(600, "anchor")
        cluster.split(1, 600)  # old shard 1 becomes shards 1 and 2
        cluster._apply_batch(routed, 1, batch)
        # Every key must be readable through the *new* routing, i.e. it
        # landed on the shard the new partitioner assigns it to.
        for i in range(40):
            key = 700 + i
            assert cluster.get(key) == f"v{i}"
            owner = cluster.partitioner.shard_for(key)
            assert cluster.shards[owner].get(key) == f"v{i}", (
                f"key {key} applied to a stale shard index"
            )

    def test_ingest_stream_concurrent_with_split_loses_nothing(self):
        """Batched ingest racing a split: batches routed before the
        reshard re-route, later batches route fresh — no write is lost
        and none lands on a retired member."""
        cluster = ShardedEngine(
            kiwi_cfg(),
            partitioner=RangePartitioner([500]),
            max_batch=8,  # small batches: the stream straddles the split
        )
        total = 600
        errors = []

        def ingester() -> None:
            try:
                cluster.ingest(
                    ("put", k, f"v{k}", k % 53) for k in range(total)
                )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        thread = threading.Thread(target=ingester)
        thread.start()
        time.sleep(0.002)
        cluster.split(0, 250)
        thread.join()
        assert not errors, f"ingest raised: {errors!r}"
        missing = [k for k in range(total) if cluster.get(k) != f"v{k}"]
        assert not missing, f"{len(missing)} writes lost: {missing[:5]}"
        # And every key is on the shard the current partitioner owns.
        for k in range(0, total, 17):
            owner = cluster.partitioner.shard_for(k)
            assert cluster.shards[owner].get(k) == f"v{k}"

    def test_clock_ticks_are_atomic_across_threads(self):
        clock = SimulatedClock(ingestion_rate=1000.0)
        per_thread = 5_000

        def ticker():
            for _ in range(per_thread):
                clock.tick()

        threads = [threading.Thread(target=ticker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert clock.ticks == 4 * per_thread
        assert clock.now == pytest.approx(4 * per_thread / 1000.0)


# ======================================================================
# Direct unit tests for previously indirectly-covered paths
# ======================================================================


class TestIngestErrorPath:
    def test_unknown_operation_raises_letheerror(self):
        from repro.core.errors import LetheError

        cluster = ShardedEngine(kiwi_cfg(), n_shards=2)
        with pytest.raises(LetheError, match="unknown operation 'frobnicate'"):
            cluster.ingest([("put", 1, "a", None), ("frobnicate", 2)])

    def test_unknown_operation_raises_in_pipelined_mode_too(self):
        from repro.core.errors import LetheError

        cluster = ShardedEngine(kiwi_cfg(), n_shards=2, ingest_queue_depth=2)
        with cluster.ingest_session() as session:
            with pytest.raises(LetheError, match="unknown operation"):
                session.submit([("put", 1, "a", None), ("frobnicate", 2)])
            # The session survives the bad stream: later submits apply.
            session.submit([("put", 3, "b", None)]).wait(timeout=30)
        assert cluster.get(3) == "b"

    def test_engine_level_unknown_operation(self):
        from repro.core.errors import LetheError
        from repro.core.engine import LSMEngine

        engine = LSMEngine(kiwi_cfg())
        with pytest.raises(LetheError, match="unknown operation"):
            engine.ingest([("bogus", 1)])


class TestAdvanceTimeForwarding:
    def _counting_cluster(self, **kwargs):
        cluster = ShardedEngine(kiwi_cfg(), n_shards=2, **kwargs)
        calls = {index: 0 for index in range(cluster.n_shards)}
        for index, shard in enumerate(cluster.shards):
            original = shard.idle_check

            def counted(*args, index=index, original=original, **kwargs):
                calls[index] += 1
                original(*args, **kwargs)

            shard.idle_check = counted
        return cluster, calls

    def test_explicit_check_interval_sets_step_count(self):
        cluster, calls = self._counting_cluster()
        cluster.advance_time(1.0, check_interval=0.25)
        # 1.0s in 0.25s steps = 4 checks, on every shard, same instants.
        assert calls == {0: 4, 1: 4}
        assert cluster.clock.now == pytest.approx(1.0)

    def test_default_check_interval_is_min_buffer_fill(self):
        cluster, calls = self._counting_cluster()
        fill_seconds = min(
            shard.config.buffer_entries / shard.config.ingestion_rate
            for shard in cluster.shards
        )
        cluster.advance_time(fill_seconds * 3)
        assert calls == {0: 3, 1: 3}

    def test_check_interval_forwarded_through_ingest(self):
        cluster, calls = self._counting_cluster()
        cluster.ingest([("advance_time", 1.0, 0.5)])
        assert calls == {0: 2, 1: 2}
        assert cluster.clock.now == pytest.approx(1.0)

    def test_partial_trailing_step(self):
        cluster, calls = self._counting_cluster()
        cluster.advance_time(0.7, check_interval=0.5)
        # 0.5 + 0.2: two steps, clock lands exactly on 0.7.
        assert calls == {0: 2, 1: 2}
        assert cluster.clock.now == pytest.approx(0.7)
