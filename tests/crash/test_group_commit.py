"""Exhaustive crash-point enumeration under batched commit policies.

The group-commit layer changes what a crash may cost — up to a batch of
*acknowledged* operations — but not what states are reachable: durable
state advances whole batches, so every crash must recover to the model
after an exact prefix of the acknowledged sequence (never a mixture or a
torn suffix), and re-applying the lost tail must converge on the full
model. This suite enumerates every write boundary under ``group(4)`` and
under a group size the sequence never reaches (so forced drains alone
persist the log) against that acknowledged-prefix oracle, and pins the
batching itself: fewer boundaries than ``every_op``, with multi-record
``wal-append[n]`` labels.
"""

from __future__ import annotations

import errno
import tempfile

import pytest

from repro.core.config import lethe_config
from repro.core.engine import LSMEngine

from tests.conftest import TINY
from tests.crash.harness import (
    assert_dth_invariant,
    assert_recovery_matches_a_prefix,
    continue_from_prefix,
    count_crash_points,
    engine_surface,
    model_surface,
    run_crash_prefix,
    trace_crash_points,
)
from tests.crash.test_crash_points import deterministic_ops

BATCHED_FLAVOURS = [
    (
        "group4",
        lambda: lethe_config(0.5, delete_tile_pages=4,
                             wal_commit_policy="group(4)", **TINY),
    ),
    (
        # A batch no sequence fills: only forced drains persist the log.
        "unsafe",
        lambda: lethe_config(0.5, delete_tile_pages=4,
                             wal_commit_policy="group(1000000)", **TINY),
    ),
]


def every_op_factory():
    return lethe_config(0.5, delete_tile_pages=4, **TINY)


def test_batched_policies_cross_fewer_write_boundaries():
    ops = deterministic_ops()
    baseline = count_crash_points(ops, every_op_factory)
    for name, factory in BATCHED_FLAVOURS:
        batched = count_crash_points(ops, factory)
        assert batched < baseline, (
            f"[{name}] batching saved no writes: {batched} vs {baseline}"
        )


def test_batch_boundaries_carry_their_record_count():
    ops = deterministic_ops()
    _, factory = BATCHED_FLAVOURS[0]
    labels = trace_crash_points(ops, factory).labels
    batch_sizes = [
        int(label[len("wal-append["):-1])
        for label in labels
        if label.startswith("wal-append[")
    ]
    assert batch_sizes, "no WAL batches were drained at all"
    assert any(size > 1 for size in batch_sizes), (
        f"group(4) never drained a multi-record batch: {batch_sizes}"
    )
    assert all(size <= 4 for size in batch_sizes), (
        f"a batch exceeded the group(4) bound: {batch_sizes}"
    )


@pytest.mark.parametrize("name,config_factory", BATCHED_FLAVOURS)
def test_every_crash_point_recovers_to_an_acknowledged_prefix(
    name, config_factory
):
    ops = deterministic_ops()
    total = count_crash_points(ops, config_factory)
    assert total > 10, f"[{name}] suspiciously few write boundaries: {total}"
    for crash_at in range(total):
        with tempfile.TemporaryDirectory() as tmp:
            run = run_crash_prefix(ops, config_factory, crash_at, tmp)
            assert run.crashed, f"[{name}] crash point {crash_at} never fired"
            context = f"{name}@{crash_at}"
            prefix = assert_recovery_matches_a_prefix(run, context)
            assert prefix <= run.in_flight_index + 1, (
                f"[{context}] recovered past the in-flight operation"
            )
            assert_dth_invariant(run.recovered, context)


@pytest.mark.parametrize("name,config_factory", BATCHED_FLAVOURS)
def test_sampled_crash_points_converge_after_client_retry(
    name, config_factory
):
    """Re-applying the lost tail lands exactly on the full model."""
    ops = deterministic_ops()
    total = count_crash_points(ops, config_factory)
    for crash_at in range(0, total, 5):
        with tempfile.TemporaryDirectory() as tmp:
            run = run_crash_prefix(ops, config_factory, crash_at, tmp)
            assert run.crashed
            prefix = assert_recovery_matches_a_prefix(
                run, f"{name}@{crash_at}"
            )
            engine, model = continue_from_prefix(run, prefix, ops)
            assert engine_surface(engine) == model_surface(model), (
                f"[{name}@{crash_at}] retry from prefix {prefix} diverged"
            )


@pytest.mark.parametrize("name,config_factory", BATCHED_FLAVOURS)
def test_clean_shutdown_loses_nothing(name, config_factory):
    """sync() + close() makes the whole acknowledged sequence durable."""
    ops = deterministic_ops()
    with tempfile.TemporaryDirectory() as tmp:
        run = run_crash_prefix(ops, config_factory, 10**9, tmp)
        assert not run.crashed
        # The first engine was abandoned (a crash): the recovered state
        # may trail by up to one undrained batch, but never mix.
        assert_recovery_matches_a_prefix(run, f"{name}/abandoned")
        # A second engine that closes cleanly must preserve everything.
        run.recovered.close()
        path = f"{tmp}/clean"
        engine = LSMEngine.open(path, config=config_factory())
        from tests.crash.harness import apply_both

        model: dict = {}
        counter = [0]
        for op in ops:
            apply_both(engine, model, op, counter)
        engine.sync()
        engine.close()
        reopened = LSMEngine.open(path)
        assert engine_surface(reopened) == model_surface(model), (
            f"[{name}] a synced close still lost acknowledged operations"
        )


class _TearsNextWrite:
    """A WAL segment's file handle whose next write lands only the first
    frame's 8-byte header and one payload byte, then fails as a full disk
    does."""

    def __init__(self, handle):
        self._handle = handle
        self.armed = True

    def write(self, data):
        if self.armed:
            self.armed = False
            self._handle.write(data[:9])
            self._handle.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)


def test_failed_batch_write_does_not_hide_later_acknowledged_writes(tmp_path):
    """A batch torn mid-frame by a failed write is taken back whole: the
    retry appends it intact, so neither it nor anything acknowledged after
    it is cut off as a torn tail on reopen."""
    config = lethe_config(0.5, delete_tile_pages=4,
                          wal_commit_policy="group(4)", **TINY)
    engine = LSMEngine.open(tmp_path / "db", config=config)
    acknowledged = {}
    for key in range(1, 5):  # the fourth put drains the first batch
        engine.put(key, f"v{key}")
        acknowledged[key] = f"v{key}"
    (appender,) = engine._store._appenders.values()
    appender.handle = _TearsNextWrite(appender.handle)
    for key in range(5, 8):
        engine.put(key, f"v{key}")
        acknowledged[key] = f"v{key}"
    with pytest.raises(OSError):
        engine.put(8, "v8")  # drains the second batch: the torn write
    for key in range(9, 13):
        engine.put(key, f"v{key}")
        acknowledged[key] = f"v{key}"
    engine.sync()
    engine.close()
    reopened = LSMEngine.open(tmp_path / "db")
    for key, value in acknowledged.items():
        assert reopened.get(key) == value, f"acknowledged key {key} lost"
    reopened.close()
