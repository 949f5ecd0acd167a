"""Crash-point enumeration with the background compaction scheduler.

The background scheduler moves compaction execution (and its durable
commits) onto worker threads. With ``deterministic_commits=True`` the
engine drains the scheduler at a barrier before every manifest commit
point, so the durable write-boundary stream is *identical* to serial
mode's — which this suite proves directly, then exploits: the same
exhaustive kill-at-every-boundary enumeration as
``test_crash_points.py`` runs with compactions executing on worker
threads, and recovery must land on the model before or after the
in-flight op, honour D_th, and keep working.

A crash inside a worker's commit surfaces on the write path through the
scheduler's error propagation; recovery itself always runs serial.
"""

from __future__ import annotations

import tempfile

import pytest

from repro.compaction.scheduler import BackgroundScheduler
from repro.core.config import lethe_config, rocksdb_config

from tests.conftest import TINY
from tests.crash.harness import (
    apply_both,
    assert_dth_invariant,
    assert_recovery_matches_model,
    continue_after_recovery,
    engine_surface,
    model_surface,
    run_crash,
    trace_crash_points,
)
from tests.crash.test_crash_points import deterministic_ops

SCHEDULER_FLAVOURS = [
    ("baseline-bg", lambda: rocksdb_config(**TINY)),
    ("lethe-kiwi-bg", lambda: lethe_config(0.5, delete_tile_pages=4, **TINY)),
]


def background_deterministic(workers: int = 2):
    return BackgroundScheduler(workers=workers, deterministic_commits=True)


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("name,config_factory", SCHEDULER_FLAVOURS)
def test_deterministic_background_matches_serial_boundary_stream(
    name, config_factory, workers
):
    """The determinism contract, verified at the strongest level: the
    exact sequence of durable write labels equals serial mode's — at
    every worker count (deterministic workers pin the exclusive
    compaction path, so extra workers must never change the stream)."""
    ops = deterministic_ops()
    serial = trace_crash_points(ops, config_factory)
    background = trace_crash_points(
        ops,
        config_factory,
        scheduler_factory=lambda: background_deterministic(workers),
    )
    assert background.labels == serial.labels, (
        f"[{name}/w{workers}] background-deterministic boundary stream "
        f"diverged from serial at index "
        f"{next(i for i, (a, b) in enumerate(zip(background.labels, serial.labels)) if a != b) if background.labels != serial.labels else '?'}"
    )


@pytest.mark.parametrize("name,config_factory", SCHEDULER_FLAVOURS)
def test_every_crash_point_recovers_with_scheduler_active(name, config_factory):
    """Exhaustive enumeration, compactions on worker threads."""
    ops = deterministic_ops()
    total = trace_crash_points(
        ops, config_factory, scheduler_factory=background_deterministic
    ).writes
    assert total > 20, f"[{name}] suspiciously few write boundaries: {total}"
    for crash_at in range(total):
        with tempfile.TemporaryDirectory() as tmp:
            run = run_crash(
                ops,
                config_factory,
                crash_at,
                tmp,
                scheduler_factory=background_deterministic,
            )
            assert run.crashed, f"[{name}] crash point {crash_at} never fired"
            context = f"{name}@{crash_at}"
            assert_recovery_matches_model(run, context)
            assert_dth_invariant(run.recovered, context)


@pytest.mark.parametrize("name,config_factory", SCHEDULER_FLAVOURS)
def test_nondeterministic_mode_recovers_after_mid_stream_crash(name, config_factory):
    """Non-deterministic background mode (4 workers, no drain barriers:
    merges commit from worker threads while the write path keeps
    flushing) under fault injection. Worker-thread interleavings make
    the boundary *index* of any given write non-deterministic, so
    exhaustive per-boundary oracles do not apply —
    instead, every recovery must land on a consistent state: replaying
    the full op sequence on the recovered engine converges to the
    full-sequence model (puts re-install identical values, deletes are
    idempotent), and D_th must hold after recovery."""
    ops = deterministic_ops()
    total = trace_crash_points(
        ops,
        config_factory,
        scheduler_factory=lambda: BackgroundScheduler(workers=4),
    ).writes
    assert total > 20, f"[{name}] suspiciously few write boundaries: {total}"
    for crash_at in range(0, total, 5):
        with tempfile.TemporaryDirectory() as tmp:
            run = run_crash(
                ops,
                config_factory,
                crash_at,
                tmp,
                scheduler_factory=lambda: BackgroundScheduler(workers=4),
            )
            if not run.crashed:
                # This interleaving crossed fewer boundaries than the
                # counting pass saw; nothing to recover.
                continue
            context = f"{name}-background@{crash_at}"
            assert_dth_invariant(run.recovered, context)
            # Full idempotent replay: recovery + the whole sequence must
            # converge on the complete model surface.
            model: dict = {}
            counter = [0]
            for op in ops:
                apply_both(run.recovered, model, op, counter)
            assert engine_surface(run.recovered) == model_surface(model), (
                f"[{context}] recovered engine diverged from the model "
                "after a full idempotent replay"
            )


@pytest.mark.parametrize("name,config_factory", SCHEDULER_FLAVOURS)
def test_sampled_crash_points_continue_with_scheduler_active(
    name, config_factory
):
    """Recovered engines keep serving the rest of the sequence; the
    continuation runs serial (recovery's scheduler default)."""
    ops = deterministic_ops()
    total = trace_crash_points(
        ops, config_factory, scheduler_factory=background_deterministic
    ).writes
    for crash_at in range(0, total, 7):
        with tempfile.TemporaryDirectory() as tmp:
            run = run_crash(
                ops,
                config_factory,
                crash_at,
                tmp,
                scheduler_factory=background_deterministic,
            )
            assert run.crashed
            assert_recovery_matches_model(run, f"{name}@{crash_at}")
            engine, model = continue_after_recovery(run)
            assert engine_surface(engine) == model_surface(model), (
                f"[{name}@{crash_at}] recovered engine diverged while "
                "serving the remainder of the sequence"
            )
