"""Cluster-level crash recovery: per-shard durability + atomic topology.

Two guarantees under test:

* **Per-key atomicity for operation streams.** A multi-shard operation
  (range delete, scatter-gather secondary delete) is not a cross-shard
  transaction: a crash mid-fan-out may leave it applied on some shards
  only. What *is* guaranteed — and asserted here — is that every key
  individually reads as either the before- or the after-state, that the
  merged scan agrees with the point reads, and that single-shard
  operation streams recover exactly.
* **Atomic resharding.** ``split``/``rebalance`` migrate into new shard
  directories and publish one topology record; a crash anywhere in the
  migration must recover a consistent cluster — old topology with the
  old data, or new topology with the same logical content (resharding
  never changes content).
"""

from __future__ import annotations

import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import lethe_config
from repro.shard.engine import ShardedEngine
from repro.shard.partitioner import RangePartitioner
from repro.storage.persist import CrashPoint, FaultInjector, SimulatedCrash

from tests.conftest import TINY
from tests.crash.harness import CRASH_EXAMPLES

KEY_SPACE = 60
SPLITS = [20, 40]

KEYS = st.integers(min_value=0, max_value=KEY_SPACE - 1)
DKEYS = st.integers(min_value=0, max_value=120)

CLUSTER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), KEYS, DKEYS),
        st.tuples(st.just("put"), KEYS, DKEYS),
        st.tuples(st.just("delete"), KEYS),
        st.tuples(st.just("delete_range"), KEYS, st.integers(1, 10)),
        st.tuples(st.just("srd"), DKEYS, st.integers(1, 60)),
        st.tuples(st.just("flush")),
    ),
    min_size=6,
    max_size=35,
)


def cluster_config():
    return lethe_config(0.5, delete_tile_pages=4, **TINY)


def make_cluster(path: str, injector=None) -> ShardedEngine:
    return ShardedEngine(
        cluster_config(),
        partitioner=RangePartitioner(SPLITS),
        store_path=path,
        injector=injector,
    )


def apply_cluster_op(cluster: ShardedEngine, model: dict, op: tuple, counter) -> None:
    kind = op[0]
    if kind == "put":
        counter[0] += 1
        value = f"val{counter[0]}"
        cluster.put(op[1], value, delete_key=op[2])
        model[op[1]] = (value, op[2])
    elif kind == "delete":
        cluster.delete(op[1])
        model.pop(op[1], None)
    elif kind == "delete_range":
        cluster.delete_range(op[1], op[1] + op[2])
        for key in [k for k in model if op[1] <= k < op[1] + op[2]]:
            del model[key]
    elif kind == "srd":
        cluster.secondary_range_delete(op[1], op[1] + op[2])
        for key in [
            k for k, (_v, d) in model.items() if op[1] <= d < op[1] + op[2]
        ]:
            del model[key]
    elif kind == "flush":
        cluster.flush()


def count_cluster_writes(ops) -> int:
    injector = FaultInjector(armed=False)
    with tempfile.TemporaryDirectory() as tmp:
        cluster = make_cluster(tmp + "/c", injector)
        injector.armed = True
        model: dict = {}
        counter = [0]
        for op in ops:
            apply_cluster_op(cluster, model, op, counter)
    return injector.writes


def reads(cluster: ShardedEngine) -> dict:
    return {key: cluster.get(key) for key in range(KEY_SPACE)}


def view(model: dict) -> dict:
    return {
        key: (model[key][0] if key in model else None)
        for key in range(KEY_SPACE)
    }


@given(ops=CLUSTER_OPS, fraction=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=CRASH_EXAMPLES, deadline=None)
def test_property_cluster_crash_recovers_per_key(ops, fraction):
    total = count_cluster_writes(ops)
    if total == 0:
        return
    crash_at = min(int(fraction * total), total - 1)
    with tempfile.TemporaryDirectory() as tmp:
        injector = CrashPoint(crash_at, armed=False)
        cluster = make_cluster(tmp + "/c", injector)
        injector.armed = True
        model: dict = {}
        counter = [0]
        before: dict = {}
        counter_before = 0
        in_flight = None
        try:
            for op in ops:
                before = dict(model)
                counter_before = counter[0]
                in_flight = op
                apply_cluster_op(cluster, model, op, counter)
        except SimulatedCrash:
            pass
        else:
            pytest.skip("crash point landed beyond the last write")
        # The model updates after the engine call, so on a crash it holds
        # the before-state; derive the after-state by applying the
        # in-flight op to a copy.
        from tests.crash.harness import apply_model

        after = dict(before)
        apply_model(after, in_flight, [counter_before])
        recovered = ShardedEngine.open(tmp + "/c")
        got = reads(recovered)
        view_before, view_after = view(before), view(after)
        for key in range(KEY_SPACE):
            assert got[key] in (view_before[key], view_after[key]), (
                f"key {key} reads {got[key]!r}, expected "
                f"{view_before[key]!r} (before) or {view_after[key]!r} "
                f"(after) around in-flight {in_flight!r}"
            )
        # The merged scan must agree with the point reads (no shard is
        # double-owning or losing a key).
        expected_scan = sorted(
            (key, value) for key, value in got.items() if value is not None
        )
        assert recovered.scan(0, KEY_SPACE) == expected_scan


def test_single_shard_streams_recover_exactly():
    """Ops confined to one shard recover to exactly before/after, and a
    pooled ``open`` of the same crash image recovers the same reads as
    the serial one (member recoveries dispatched on a thread pool)."""
    ops = [("put", key % 15, key * 3 % 120) for key in range(30)]
    ops.insert(10, ("delete", 4))
    ops.insert(20, ("delete_range", 2, 5))
    total = count_cluster_writes(ops)
    for crash_at in range(0, total, 3):
        with tempfile.TemporaryDirectory() as tmp:
            injector = CrashPoint(crash_at, armed=False)
            cluster = make_cluster(tmp + "/c", injector)
            injector.armed = True
            model: dict = {}
            counter = [0]
            before: dict = {}
            try:
                for op in ops:
                    before = dict(model)
                    apply_cluster_op(cluster, model, op, counter)
            except SimulatedCrash:
                pass
            shutil.copytree(tmp + "/c", tmp + "/image")
            recovered = ShardedEngine.open(tmp + "/c")
            got = reads(recovered)
            assert got in (view(before), view(model)), f"crash@{crash_at}"
            pooled = ShardedEngine.open(tmp + "/image", executor="pooled")
            try:
                assert reads(pooled) == got, f"pooled open, crash@{crash_at}"
            finally:
                pooled.close()


@pytest.mark.parametrize("reshard", ["split", "rebalance"])
def test_mid_reshard_crash_recovers_consistent_topology(reshard):
    """Kill the backend at every boundary inside a split/rebalance."""
    preload = [("put", key % KEY_SPACE, key % 120) for key in range(90)]

    def build(path, injector):
        cluster = make_cluster(path, injector)
        model: dict = {}
        counter = [0]
        for op in preload:
            apply_cluster_op(cluster, model, op, counter)
        return cluster, model

    with tempfile.TemporaryDirectory() as tmp:
        counting = FaultInjector(armed=False)
        cluster, model = build(tmp + "/c", counting)
        counting.armed = True
        if reshard == "split":
            cluster.split(1, 30)
        else:
            cluster.rebalance()
        total = counting.writes
    assert total > 5

    expected = None
    for crash_at in range(total):
        with tempfile.TemporaryDirectory() as tmp:
            injector = CrashPoint(crash_at, armed=False)
            cluster, model = build(tmp + "/c", injector)
            if expected is None:
                expected = {
                    key: (model[key][0] if key in model else None)
                    for key in range(KEY_SPACE)
                }
            injector.armed = True
            try:
                if reshard == "split":
                    cluster.split(1, 30)
                else:
                    cluster.rebalance()
                crashed = False
            except SimulatedCrash:
                crashed = True
            assert crashed, f"crash point {crash_at} never fired"
            recovered = ShardedEngine.open(tmp + "/c")
            # Content is reshard-invariant: whatever topology won, every
            # key must read exactly its pre-reshard value.
            assert reads(recovered) == expected, f"crash@{crash_at}"
            if reshard == "split":
                assert recovered.n_shards in (3, 4)
            assert recovered.scan(0, KEY_SPACE) == sorted(
                (k, v) for k, v in expected.items() if v is not None
            )


def test_mid_split_crash_with_straddling_range_tombstone():
    """Kill the backend at every boundary of a split whose retiring
    shard holds an un-flushed range tombstone straddling the split key.

    Resharding is content-invariant, so whichever topology recovery
    lands on, the tombstone's coverage must hold whole: every covered
    key reads ``None``, every other key its pre-split value — a crash
    can never leave one child with the delete and the other without its
    clipped piece."""
    preload = [("put", key % KEY_SPACE, key % 120) for key in range(90)]
    # [22, 38) sits inside shard 1's span [20, 40) and straddles the
    # split key 30 — both children must inherit a clipped piece.
    rt_op = ("delete_range", 22, 16)

    def build(path, injector):
        cluster = make_cluster(path, injector)
        model: dict = {}
        counter = [0]
        for op in preload:
            apply_cluster_op(cluster, model, op, counter)
        apply_cluster_op(cluster, model, rt_op, counter)
        return cluster, model

    with tempfile.TemporaryDirectory() as tmp:
        counting = FaultInjector(armed=False)
        cluster, model = build(tmp + "/c", counting)
        counting.armed = True
        cluster.split(1, 30)
        total = counting.writes
    assert total > 5

    expected = None
    for crash_at in range(total):
        with tempfile.TemporaryDirectory() as tmp:
            injector = CrashPoint(crash_at, armed=False)
            cluster, model = build(tmp + "/c", injector)
            if expected is None:
                expected = {
                    key: (model[key][0] if key in model else None)
                    for key in range(KEY_SPACE)
                }
                assert all(
                    expected[key] is None for key in range(22, 38)
                ), "preload should leave the straddling span covered"
            injector.armed = True
            try:
                cluster.split(1, 30)
                crashed = False
            except SimulatedCrash:
                crashed = True
            assert crashed, f"crash point {crash_at} never fired"
            recovered = ShardedEngine.open(tmp + "/c")
            assert reads(recovered) == expected, f"crash@{crash_at}"
            assert recovered.scan(0, KEY_SPACE) == sorted(
                (k, v) for k, v in expected.items() if v is not None
            )


def test_torn_topology_tail_is_truncated_before_resharding():
    """A torn TOPOLOGY.log tail must not swallow the next reshard's
    commit record: open() truncates it so appends resume cleanly."""
    with tempfile.TemporaryDirectory() as tmp:
        cluster = make_cluster(tmp + "/c")
        model: dict = {}
        counter = [0]
        for key in range(60):
            apply_cluster_op(
                cluster, model, ("put", key % KEY_SPACE, key % 120), counter
            )
        with open(tmp + "/c/TOPOLOGY.log", "ab") as handle:
            handle.write(b"\xee" * 5)  # torn topology frame
        recovered = ShardedEngine.open(tmp + "/c")
        recovered.split(1, 30)  # appends a topology record, retires a dir
        expected = reads(recovered)
        again = ShardedEngine.open(tmp + "/c")
        assert again.n_shards == 4
        assert reads(again) == expected


def test_post_reshard_recovery_uses_new_topology():
    """A committed split survives reopen with the new split points."""
    with tempfile.TemporaryDirectory() as tmp:
        cluster = make_cluster(tmp + "/c")
        model: dict = {}
        counter = [0]
        for key in range(80):
            apply_cluster_op(
                cluster, model, ("put", key % KEY_SPACE, key % 120), counter
            )
        cluster.split(0, 10)
        expected = reads(cluster)
        recovered = ShardedEngine.open(tmp + "/c")
        assert recovered.n_shards == 4
        assert isinstance(recovered.partitioner, RangePartitioner)
        assert recovered.partitioner.split_points == [10, 20, 40]
        assert reads(recovered) == expected
        # And the recovered cluster still resharding-capable:
        recovered.rebalance()
        assert reads(recovered) == expected
