"""Crash-testing recovery *itself* (ROADMAP: recovery-time faults).

Recovery is not read-only: it truncates torn log tails, sweeps ``*.tmp``
orphans, rolls in-flight secondary range deletes forward (manifest and
run-blob writes), and re-runs the ``D_th`` WAL routine at the
recovered clock. Every one of those writes crosses the same
:class:`~repro.storage.persist.FaultInjector` boundaries as live
traffic — so a crash loop (die during recovery, recover again) must
converge, never compound the damage. This suite builds a crashed store,
vandalizes it the way a real mid-write tear would (torn frame tails,
stranded temp files), kills recovery at every one of its own write
boundaries, and asserts the *second* recovery still lands on the
dict-model oracle.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.core.config import lethe_config
from repro.core.engine import LSMEngine
from repro.storage.persist import CrashPoint, FaultInjector, SimulatedCrash

from tests.crash.harness import (
    apply_both,
    apply_model,
    assert_dth_invariant,
    trace_crash_points,
)

# Wider domains than the shared harness surface: this suite spreads puts
# over distinct keys so the buffer genuinely fills, flushes build files,
# and the SRD mutates them (blob rewrites) — the writes recovery replays.
KEY_DOMAIN = 120
DKEY_DOMAIN = 130


def engine_surface(engine) -> tuple:
    gets = tuple(engine.get(key) for key in range(KEY_DOMAIN))
    scan = tuple(engine.scan(0, KEY_DOMAIN))
    secondary = tuple(engine.secondary_range_lookup(0, DKEY_DOMAIN))
    return gets, scan, secondary


def model_surface(model: dict) -> tuple:
    gets = tuple(
        model[key][0] if key in model else None for key in range(KEY_DOMAIN)
    )
    scan = tuple(sorted((k, v) for k, (v, _d) in model.items()))
    secondary = tuple(
        sorted((k, v) for k, (v, d) in model.items() if 0 <= d < DKEY_DOMAIN)
    )
    return gets, scan, secondary

# Tiny D_th + a buffer the sequence never fills on its own: the WAL tail
# spans more simulated time than D_th, so recovery must run the §4.1.5
# rewrite itself; KiWi tiles make the SRD roll-forward rewrite blobs.
RECOVERY_FAULT_CONFIG = dict(
    buffer_pages=16,     # 64-entry buffer
    page_entries=4,
    file_pages=8,
    size_ratio=4,
    ingestion_rate=1024.0,
    fsync=False,
)


def _config():
    return lethe_config(0.005, delete_tile_pages=4, **RECOVERY_FAULT_CONFIG)


def _ops() -> list[tuple]:
    ops: list[tuple] = []
    for i in range(80):                      # distinct keys: fills the
        ops.append(("put", i, i * 4 % 120))  # 64-entry buffer → flush
        if i % 9 == 7 and i < 60:
            # Tombstones only in the flushed prefix: the un-flushed tail
            # is puts-only, so recovery's d_0 check does not flush it and
            # the §4.1.5 WAL rewrite must run during recovery itself.
            ops.append(("delete", (i * 3) % 80))
    ops.append(("srd", 10, 40))              # the op the crash interrupts
    ops.extend(("put", 100 + i, i * 7 % 120) for i in range(12))
    return ops


def _mid_srd_crash_point(ops: list[tuple]) -> int:
    """The first ``run-blob`` write after the SRD's intent ``manifest``:
    a crash there leaves the intent durable and the SRD's work torn."""
    srd_at = next(i for i, op in enumerate(ops) if op[0] == "srd")
    before_srd = trace_crash_points(ops[:srd_at], _config).writes
    labels = trace_crash_points(ops, _config).labels
    intent = labels.index("manifest", before_srd)
    done = labels.index("manifest", intent + 1)
    assert "run-blob" in labels[intent + 1:done], "the SRD rewrote no blob"
    return labels.index("run-blob", intent + 1)


def _build_crashed_store(
    base_dir: str, ops: list[tuple], crash_at: int
) -> tuple[dict, dict]:
    """Replay ``ops`` until the injected crash; return (before, after).

    The directory is left exactly as the crash left it — *not* recovered
    — so each test attempt starts from the pristine crashed state.
    """
    path = os.path.join(base_dir, "db")
    injector = CrashPoint(crash_at, armed=False)
    engine = LSMEngine.open(path, config=_config(), injector=injector)
    injector.armed = True
    model: dict = {}
    counter = [0]
    model_before: dict = {}
    counter_before = 0
    in_flight: tuple | None = None
    try:
        for op in ops:
            model_before = dict(model)
            counter_before = counter[0]
            in_flight = op
            apply_both(engine, model, op, counter)
        raise AssertionError(f"crash point {crash_at} never fired")
    except SimulatedCrash:
        pass
    model_after = dict(model_before)
    apply_model(model_after, in_flight, [counter_before])
    return model_before, model_after


def _vandalize(path: str) -> None:
    """Inflict the damage only a *real* crash produces: torn frame tails
    mid-append and ``*.tmp`` orphans stranded between write and rename."""
    with open(os.path.join(path, "MANIFEST.log"), "ab") as handle:
        handle.write(b"\x97" * 9)
    segments = sorted(
        os.path.join(path, "wal", name)
        for name in os.listdir(os.path.join(path, "wal"))
        if name.endswith(".log")
    )
    with open(segments[-1], "ab") as handle:
        handle.write(b"\xfe" * 5)
    for orphan in (
        os.path.join(path, "MANIFEST.log.tmp"),
        os.path.join(path, "wal", "00000042.log.tmp"),
        os.path.join(path, "runs", "00000099.0000.run.tmp"),
    ):
        with open(orphan, "wb") as handle:
            handle.write(b"stranded")


def _no_tmp_orphans(path: str) -> bool:
    for root, _dirs, files in os.walk(path):
        if any(name.endswith(".tmp") for name in files):
            return False
    return True


def test_crashes_during_recovery_own_writes_still_converge(tmp_path):
    ops = _ops()
    crash_at = _mid_srd_crash_point(ops)

    crashed = tmp_path / "crashed"
    crashed.mkdir()
    model_before, model_after = _build_crashed_store(
        str(crashed), ops, crash_at
    )
    _vandalize(str(crashed / "db"))
    oracle = (model_surface(model_before), model_surface(model_after))

    # Pass 1: count recovery's own writes and pin their vocabulary.
    probe = tmp_path / "probe"
    shutil.copytree(crashed, probe)
    counting = FaultInjector(armed=True)
    recovered = LSMEngine.open(probe / "db", injector=counting)
    assert engine_surface(recovered) in oracle
    assert _no_tmp_orphans(str(probe / "db"))
    total = counting.writes
    assert total > 0, "recovery crossed no write boundary of its own"
    for expected in ("tmp-sweep", "torn-truncate", "wal-rewrite", "manifest"):
        assert expected in counting.labels, (
            f"recovery never crossed a {expected} boundary: {counting.labels}"
        )

    # Pass 2: kill recovery at every one of those boundaries; the second
    # recovery must converge on the oracle and satisfy D_th.
    for crash_during_recovery in range(total):
        attempt = tmp_path / f"attempt{crash_during_recovery}"
        shutil.copytree(crashed, attempt)
        with pytest.raises(SimulatedCrash):
            LSMEngine.open(
                attempt / "db",
                injector=CrashPoint(crash_during_recovery),
            )
        second = LSMEngine.open(attempt / "db")
        context = f"recovery-fault@{crash_during_recovery}"
        got = engine_surface(second)
        assert got in oracle, (
            f"[{context}] second recovery landed on a torn state"
        )
        assert_dth_invariant(second, context)
        shutil.rmtree(attempt)


def test_recovery_crash_loop_is_idempotent(tmp_path):
    """Two interrupted recoveries in a row still converge on the third."""
    ops = _ops()
    crash_at = _mid_srd_crash_point(ops)
    crashed = tmp_path / "crashed"
    crashed.mkdir()
    model_before, model_after = _build_crashed_store(
        str(crashed), ops, crash_at
    )
    _vandalize(str(crashed / "db"))
    oracle = (model_surface(model_before), model_surface(model_after))

    for first, second in ((0, 1), (1, 0), (2, 2)):
        attempt = tmp_path / f"loop{first}-{second}"
        shutil.copytree(crashed, attempt)
        for allow in (first, second):
            try:
                LSMEngine.open(attempt / "db", injector=CrashPoint(allow))
            except SimulatedCrash:
                pass
        final = LSMEngine.open(attempt / "db")
        assert engine_surface(final) in oracle
        assert _no_tmp_orphans(str(attempt / "db"))
        shutil.rmtree(attempt)


def test_tmp_orphans_are_swept_before_load(tmp_path):
    """Satellite: ``DurableStore.open`` removes stranded temp files.

    A crash between ``tmp.write_bytes`` and ``os.replace`` leaves a
    ``*.tmp`` next to the target; the sweep (its own ``tmp-sweep``
    boundary) must remove every orphan before anything is read, and the
    recovered surface must be unaffected by the garbage.
    """
    path = tmp_path / "db"
    engine = LSMEngine.open(path, config=_config())
    model: dict = {}
    counter = [0]
    for op in _ops():
        apply_both(engine, model, op, counter)
    engine.sync()

    for orphan in (
        path / "CLOCK.json.tmp",
        path / "MANIFEST.log.tmp",
        path / "wal" / "00000007.log.tmp",
        path / "runs" / "00000001.0000.run.tmp",
    ):
        orphan.write_bytes(b"\x00garbage\x00")

    counting = FaultInjector(armed=True)
    recovered = LSMEngine.open(path, injector=counting)
    assert "tmp-sweep" in counting.labels
    assert _no_tmp_orphans(str(path))
    assert engine_surface(recovered) == model_surface(model)

    # Reopening a clean store crosses no sweep boundary at all.
    quiet = FaultInjector(armed=True)
    LSMEngine.open(path, injector=quiet)
    assert "tmp-sweep" not in quiet.labels


def test_cluster_reconciliation_reenforces_dth_on_trailing_shards(tmp_path):
    """A member rebound to a later shared clock re-runs the full §4.1.5
    pair at that clock.

    Shard skew: one member's durable artifacts stop early (a buffered
    tombstone at t≈0) while the stream keeps ticking the shared clock
    through the other member far past ``D_th``. Each member recovers on
    its private clock — where the tombstone is young — and is then
    rebound to the cluster max, where it is over-age; without the d_0
    force-flush at the reconciled instant, the WAL routine would copy
    the live over-age tombstone forward instead of persisting it.
    """
    from repro.shard.engine import ShardedEngine
    from repro.shard.partitioner import HashPartitioner

    from tests.crash.harness import assert_dth_invariant

    config = lethe_config(0.005, delete_tile_pages=4, **RECOVERY_FAULT_CONFIG)
    partitioner = HashPartitioner(2)
    shard0_keys = [k for k in range(400) if partitioner.shard_for(k) == 0]
    shard1_keys = [k for k in range(400) if partitioner.shard_for(k) == 1]

    cluster = ShardedEngine(
        config, partitioner=partitioner, store_path=tmp_path / "cluster"
    )
    # Shard 1: a few puts and a buffered tombstone, then silence — its
    # durable record of time ends here.
    for k in shard1_keys[:4]:
        cluster.put(k, f"v{k}", delete_key=1)
    cluster.delete(shard1_keys[0])
    # Shard 0: enough puts to tick the shared clock far past D_th = 5ms
    # (each put is ~1ms at 1024 ops/s) without ever flushing shard 1.
    for k in shard0_keys[:40]:
        cluster.put(k, f"v{k}", delete_key=2)
    # Crash (abandon without close), then recover the cluster.
    recovered = ShardedEngine.open(tmp_path / "cluster")
    spread = max(m.clock.now for m in recovered.shards) - 0.005
    for index, member in enumerate(recovered.shards):
        assert member.clock.now == recovered.clock.now
        assert_dth_invariant(member, f"member{index}")
    assert recovered.get(shard1_keys[0]) is None
    assert recovered.get(shard1_keys[1]) == f"v{shard1_keys[1]}"
    assert spread > 0, "the test needs real clock skew to mean anything"
