"""Exhaustive crash-point enumeration on deterministic sequences.

For a fixed operation sequence covering every durable code path (puts,
point/range/secondary deletes, flushes, idle time, a checkpoint), kill
the backend at *every* write boundary in turn and require recovery to
land exactly on the dict model before or after the in-flight operation,
honour the D_th WAL invariant, and keep working afterwards.
"""

from __future__ import annotations

import tempfile

import pytest

from repro.core.config import lethe_config

from tests.crash.harness import (
    CRASH_FLAVOURS,
    assert_dth_invariant,
    assert_recovery_matches_model,
    continue_after_recovery,
    count_crash_points,
    engine_surface,
    model_surface,
    run_crash,
    trace_crash_points,
)


def deterministic_ops() -> list[tuple]:
    """~40 ops that exercise every durable write boundary type."""
    ops: list[tuple] = []
    for i in range(26):
        ops.append(("put", i % 13, i * 4 % 120))
        if i % 7 == 3:
            ops.append(("delete", (i * 3) % 13))
        if i % 11 == 5:
            ops.append(("delete_range", 2, 4))
        if i % 13 == 6:
            ops.append(("delete_range", 5, 3))
        if i % 9 == 7:
            ops.append(("srd", 10, 25))
        if i == 12:
            ops.append(("advance_time", 0.05))
        if i == 18:
            ops.append(("checkpoint",))
    ops.append(("flush",))
    return ops


@pytest.mark.parametrize("name,config_factory", CRASH_FLAVOURS)
def test_every_crash_point_recovers_to_a_model_state(name, config_factory):
    ops = deterministic_ops()
    total = count_crash_points(ops, config_factory)
    assert total > 20, f"[{name}] suspiciously few write boundaries: {total}"
    for crash_at in range(total):
        with tempfile.TemporaryDirectory() as tmp:
            run = run_crash(ops, config_factory, crash_at, tmp)
            assert run.crashed, f"[{name}] crash point {crash_at} never fired"
            context = f"{name}@{crash_at}"
            assert_recovery_matches_model(run, context)
            assert_dth_invariant(run.recovered, context)


@pytest.mark.parametrize("name,config_factory", CRASH_FLAVOURS)
def test_sampled_crash_points_continue_to_the_final_model(name, config_factory):
    """Recovered engines keep serving the rest of the sequence correctly."""
    ops = deterministic_ops()
    total = count_crash_points(ops, config_factory)
    for crash_at in range(0, total, 5):
        with tempfile.TemporaryDirectory() as tmp:
            run = run_crash(ops, config_factory, crash_at, tmp)
            assert run.crashed
            assert_recovery_matches_model(run, f"{name}@{crash_at}")
            engine, model = continue_after_recovery(run)
            assert engine_surface(engine) == model_surface(model), (
                f"[{name}@{crash_at}] recovered engine diverged while "
                "serving the remainder of the sequence"
            )


@pytest.mark.parametrize("name,config_factory", CRASH_FLAVOURS)
def test_recovery_is_idempotent(name, config_factory):
    """Recovering twice (a crash loop) lands on the same state."""
    ops = deterministic_ops()
    total = count_crash_points(ops, config_factory)
    crash_at = total // 2
    with tempfile.TemporaryDirectory() as tmp:
        run = run_crash(ops, config_factory, crash_at, tmp)
        first = engine_surface(run.recovered)
        from repro.core.engine import LSMEngine

        again = LSMEngine.open(run.path)
        assert engine_surface(again) == first


def test_no_crash_run_equals_model():
    """With the injector merely counting, the durable engine is exact."""
    name, config_factory = CRASH_FLAVOURS[2]
    ops = deterministic_ops()
    with tempfile.TemporaryDirectory() as tmp:
        run = run_crash(ops, config_factory, 10**9, tmp)
        assert not run.crashed
        assert run.in_flight_op is None
        assert engine_surface(run.recovered) == model_surface(run.model_before)


# ---------------------------------------------------------------------------
# The D_th rewrite boundary, targeted by its own label
# ---------------------------------------------------------------------------


def _rewrite_config():
    """A FADE config whose D_th routine fires mid-sequence.

    Tiny ``D_th`` plus a buffer too large to flush on its own: the idle
    check inside ``advance_time`` finds over-age segments holding live
    (un-flushed) records and must copy them to a fresh segment — the
    exact fresh-segment write that used to hide behind the generic
    ``wal-append`` label.
    """
    overrides = dict(TINY_REWRITE)
    return lethe_config(0.005, delete_tile_pages=4, **overrides)


TINY_REWRITE = dict(
    buffer_pages=16,     # 64-entry buffer: the puts below never flush
    page_entries=4,
    file_pages=8,
    size_ratio=4,
    ingestion_rate=1024.0,
    fsync=False,
)


def rewrite_ops() -> list[tuple]:
    ops: list[tuple] = [("put", i % 13, i * 4 % 120) for i in range(24)]
    ops.append(("advance_time", 0.05))  # segments age past D_th = 5 ms
    ops.extend(("put", (i * 5) % 13, i * 7 % 120) for i in range(8))
    ops.append(("flush",))
    return ops


def test_wal_rewrite_is_a_distinct_enumerable_crash_point():
    """Fault injection can target the D_th rewrite boundary by label.

    Kills the backend at *every* ``wal-rewrite`` boundary of a sequence
    engineered to fire the routine, and requires recovery to match the
    oracle and re-satisfy §4.1.5 — previously the rewrite shared the
    ``wal-append`` label, so this boundary could not be aimed at.
    """
    ops = rewrite_ops()
    labels = trace_crash_points(ops, _rewrite_config).labels
    rewrite_points = [
        index for index, label in enumerate(labels) if label == "wal-rewrite"
    ]
    assert rewrite_points, (
        f"the sequence never crossed a wal-rewrite boundary: {labels}"
    )
    assert "wal-append" not in labels, (
        "ordinary appends should carry batch-count labels (wal-append[n]), "
        "leaving the bare name free for grep-ability checks"
    )
    for crash_at in rewrite_points:
        with tempfile.TemporaryDirectory() as tmp:
            run = run_crash(ops, _rewrite_config, crash_at, tmp)
            assert run.crashed
            context = f"wal-rewrite@{crash_at}"
            assert_recovery_matches_model(run, context)
            assert_dth_invariant(run.recovered, context)
            engine, model = continue_after_recovery(run)
            assert engine_surface(engine) == model_surface(model)


# ---------------------------------------------------------------------------
# Range-tombstone write boundaries, targeted by their own labels
# ---------------------------------------------------------------------------


def _rangedel_config():
    return lethe_config(0.5, delete_tile_pages=4, **dict(
        buffer_pages=4,
        page_entries=4,
        file_pages=8,
        size_ratio=4,
        ingestion_rate=1024.0,
        fsync=False,
    ))


def rangedel_ops() -> list[tuple]:
    """A sequence crossing both range-tombstone write boundaries:
    the WAL append of the tombstone record itself (``wal-append-rt``)
    and a run-blob write carrying fragments (``run-blob-rt``)."""
    ops: list[tuple] = [("put", i % 13, i * 4 % 120) for i in range(10)]
    ops.append(("delete_range", 2, 5))
    ops.extend(("put", (i * 3) % 13, i * 5 % 120) for i in range(6))
    ops.append(("flush",))  # fragments ride the flushed run's blob
    ops.append(("delete_range", 0, 3))
    ops.append(("flush",))
    return ops


def _enumerate_label(prefix: str) -> list[int]:
    ops = rangedel_ops()
    labels = trace_crash_points(ops, _rangedel_config).labels
    points = [
        index for index, label in enumerate(labels)
        if label.startswith(prefix)
    ]
    assert points, (
        f"the sequence never crossed a {prefix} boundary: {labels}"
    )
    return points


def _check_exact_recovery(points: list[int], context_prefix: str) -> None:
    ops = rangedel_ops()
    for crash_at in points:
        with tempfile.TemporaryDirectory() as tmp:
            run = run_crash(ops, _rangedel_config, crash_at, tmp)
            assert run.crashed, f"[{context_prefix}@{crash_at}] never fired"
            context = f"{context_prefix}@{crash_at}"
            assert_recovery_matches_model(run, context)
            assert_dth_invariant(run.recovered, context)
            engine, model = continue_after_recovery(run)
            assert engine_surface(engine) == model_surface(model), (
                f"[{context}] recovered engine diverged while serving "
                "the remainder of the sequence"
            )


def test_range_tombstone_wal_append_is_a_distinct_crash_point():
    """Killing the backend at every ``wal-append-rt`` boundary — the
    durable write of the range-tombstone WAL record — recovers exactly:
    either the delete never happened or it happened whole. The suffixed
    label keeps RT appends distinguishable from ordinary appends while
    sharing their batch-count convention."""
    points = _enumerate_label("wal-append-rt")
    _check_exact_recovery(points, "wal-append-rt")


def test_range_tombstone_run_blob_is_a_distinct_crash_point():
    """Killing the backend at every ``run-blob-rt`` boundary — a run
    blob whose range-tombstone block is non-empty, i.e. the fragment
    rewrite at flush/compaction commit — recovers exactly. A torn blob
    must lose the whole flush (the WAL still holds the records), never
    resurrect keys the fragments covered."""
    points = _enumerate_label("run-blob-rt")
    _check_exact_recovery(points, "run-blob-rt")
