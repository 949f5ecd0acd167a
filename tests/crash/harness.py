"""Fault-injection harness: kill the durable backend at write boundaries.

The workflow every crash test follows:

1. **Count** — replay an operation sequence against a durable engine with
   a counting :class:`~repro.storage.persist.FaultInjector`; the total is
   the number of physical write boundaries the sequence crosses.
2. **Crash** — replay the same sequence in a fresh directory with a
   :class:`~repro.storage.persist.CrashPoint` armed at boundary ``k``;
   the replay dies mid-operation with :class:`SimulatedCrash`.
3. **Recover** — reopen the directory with :meth:`LSMEngine.open` (no
   injector: recovery itself is not under fault injection here).
4. **Compare** — the recovered read surface (every ``get``, a full
   ``scan``, a full ``secondary_range_lookup``) must equal the dict
   model *before* the in-flight operation or the model *after* it —
   the in-flight operation was never acknowledged, so either fate is
   correct, but any mixture is a torn state.
5. **Continue** — re-apply the in-flight operation and the remainder of
   the sequence to the recovered engine; the final surface must equal
   the full-sequence model. Recovery must yield a *working* engine, not
   just a readable one.

The operation vocabulary extends ``tests/test_engine_model.py``'s with
``advance_time`` and ``checkpoint`` so crash points cover the clock file
and the manifest-snapshot path too. Values are derived from a running
counter exactly as the model test does, so surfaces compare exactly.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.config import lethe_config, rocksdb_config
from repro.core.engine import LSMEngine
from repro.storage.persist import CrashPoint, FaultInjector, SimulatedCrash

from tests.conftest import TINY

# Scale knob for the Hypothesis crash properties: each example costs four
# full replays, so the default stays small; the nightly CI job raises it.
CRASH_EXAMPLES = int(os.environ.get("CRASH_EXAMPLES", "6"))

KEY_SPACE = 14
DKEY_SPACE = 120

# Engine flavours under crash testing: the classic layout (both with and
# without FADE) and the full Lethe (FADE + KiWi) stack.
CRASH_FLAVOURS = [
    ("baseline", lambda: rocksdb_config(**TINY)),
    ("lethe", lambda: lethe_config(0.5, **TINY)),
    ("lethe-kiwi", lambda: lethe_config(0.5, delete_tile_pages=4, **TINY)),
]


# ---------------------------------------------------------------------------
# Model replay
# ---------------------------------------------------------------------------


def apply_model(model: dict, op: tuple, counter: list[int]) -> None:
    """Advance the dict model (key -> (value, delete_key)) by one op."""
    kind = op[0]
    if kind == "put":
        counter[0] += 1
        model[op[1]] = (f"val{counter[0]}", op[2])
    elif kind == "delete":
        model.pop(op[1], None)
    elif kind == "delete_range":
        start, end = op[1], op[1] + op[2]
        for key in [k for k in model if start <= k < end]:
            del model[key]
    elif kind == "srd":
        d_lo, d_hi = op[1], op[1] + op[2]
        for key in [
            k for k, (_v, d) in model.items() if d_lo <= d < d_hi
        ]:
            del model[key]
    # flush / checkpoint / advance_time / get / scan do not change content


def apply_engine(engine: LSMEngine, op: tuple, counter: list[int]) -> None:
    """Apply one op to the engine, mirroring :func:`apply_model` values."""
    kind = op[0]
    if kind == "put":
        engine.put(op[1], f"val{counter[0] + 1}", delete_key=op[2])
    elif kind == "delete":
        engine.delete(op[1])
    elif kind == "delete_range":
        engine.delete_range(op[1], op[1] + op[2])
    elif kind == "srd":
        engine.secondary_range_delete(op[1], op[1] + op[2])
    elif kind == "flush":
        engine.flush()
    elif kind == "checkpoint":
        engine.checkpoint()
    elif kind == "advance_time":
        engine.advance_time(op[1])
    else:
        raise AssertionError(f"unknown crash-harness op {op!r}")


def apply_both(engine: LSMEngine, model: dict, op: tuple, counter: list[int]) -> None:
    apply_engine(engine, op, counter)
    apply_model(model, op, counter)


# ---------------------------------------------------------------------------
# Read surfaces
# ---------------------------------------------------------------------------


def engine_surface(engine: LSMEngine) -> tuple:
    """The complete observable state of one engine."""
    gets = tuple(engine.get(key) for key in range(KEY_SPACE))
    scan = tuple(engine.scan(0, KEY_SPACE))
    secondary = tuple(engine.secondary_range_lookup(0, DKEY_SPACE + 1))
    return gets, scan, secondary


def model_surface(model: dict) -> tuple:
    gets = tuple(
        model[key][0] if key in model else None for key in range(KEY_SPACE)
    )
    scan = tuple(sorted((k, v) for k, (v, _d) in model.items()))
    secondary = tuple(
        sorted((k, v) for k, (v, d) in model.items() if 0 <= d <= DKEY_SPACE)
    )
    return gets, scan, secondary


# ---------------------------------------------------------------------------
# Crash runs
# ---------------------------------------------------------------------------


@dataclass
class CrashRun:
    """Outcome of one kill-and-recover cycle."""

    crashed: bool
    in_flight_op: tuple | None
    model_before: dict
    model_after: dict
    counter_before: int
    recovered: LSMEngine
    path: str
    remaining_ops: list[tuple] = field(default_factory=list)


def count_crash_points(
    ops: list[tuple],
    config_factory: Callable[[], Any],
    scheduler_factory: Callable[[], Any] | None = None,
) -> int:
    """Total durable write boundaries the op sequence crosses."""
    return trace_crash_points(ops, config_factory, scheduler_factory).writes


def trace_crash_points(
    ops: list[tuple],
    config_factory: Callable[[], Any],
    scheduler_factory: Callable[[], Any] | None = None,
) -> FaultInjector:
    """Replay ``ops`` with a counting injector; return it, labels included.

    The label trace lets a test aim a :class:`CrashPoint` at a specific
    boundary *type* — the index of a ``wal-rewrite`` or ``run-blob``
    label in ``injector.labels`` is exactly the ``crash_at`` that kills
    that write, because replays of the same sequence are deterministic.
    ``scheduler_factory`` (optional) supplies a compaction scheduler per
    replay — a deterministic-commits background scheduler produces the
    same boundary stream as the serial default while executing the
    compactions on worker threads.
    """
    injector = FaultInjector(armed=False)
    scheduler = scheduler_factory() if scheduler_factory is not None else None
    with tempfile.TemporaryDirectory() as tmp:
        try:
            engine = LSMEngine.open(
                os.path.join(tmp, "db"),
                config=config_factory(),
                injector=injector,
                scheduler=scheduler,
            )
            injector.armed = True
            model: dict = {}
            counter = [0]
            for op in ops:
                apply_both(engine, model, op, counter)
        finally:
            if scheduler is not None:
                scheduler.close()
    return injector


def run_crash(
    ops: list[tuple],
    config_factory: Callable[[], Any],
    crash_at: int,
    tmp: str,
    scheduler_factory: Callable[[], Any] | None = None,
) -> CrashRun:
    """Replay ``ops`` with a crash at write boundary ``crash_at``, recover.

    ``crash_at`` must be < the sequence's total write count, so the crash
    is guaranteed to fire. The store directory lives under ``tmp`` (the
    caller owns cleanup). Under a background ``scheduler_factory`` the
    crash may surface from a worker thread's commit — it reaches this
    thread through the scheduler's error propagation, during whatever
    operation hit the next barrier.
    """
    path = os.path.join(tmp, "db")
    injector = CrashPoint(crash_at, armed=False)
    scheduler = scheduler_factory() if scheduler_factory is not None else None
    engine = LSMEngine.open(
        path, config=config_factory(), injector=injector, scheduler=scheduler
    )
    injector.armed = True

    model: dict = {}
    counter = [0]
    in_flight: tuple | None = None
    model_before: dict = {}
    counter_before = 0
    remaining: list[tuple] = []
    try:
        for index, op in enumerate(ops):
            model_before = dict(model)
            counter_before = counter[0]
            in_flight = op
            apply_both(engine, model, op, counter)
        crashed = False
        in_flight = None
        model_before = dict(model)
        counter_before = counter[0]
    except SimulatedCrash:
        crashed = True
        remaining = list(ops[index:])
    finally:
        if scheduler is not None:
            scheduler.close()

    model_after = dict(model_before)
    counter_after = [counter_before]
    if in_flight is not None:
        apply_model(model_after, in_flight, counter_after)

    recovered = LSMEngine.open(path)
    return CrashRun(
        crashed=crashed,
        in_flight_op=in_flight,
        model_before=model_before,
        model_after=model_after,
        counter_before=counter_before,
        recovered=recovered,
        path=path,
        remaining_ops=remaining,
    )


def assert_recovery_matches_model(run: CrashRun, context: str) -> tuple:
    """The recovered surface must equal one model exactly — no mixtures.

    Returns the matched model dict so callers can continue from it.
    """
    got = engine_surface(run.recovered)
    before = model_surface(run.model_before)
    after = model_surface(run.model_after)
    assert got == before or got == after, (
        f"[{context}] torn state after crash during {run.in_flight_op!r}:\n"
        f"  got:    {got}\n  before: {before}\n  after:  {after}"
    )
    return run.model_after if got == after else run.model_before


def assert_dth_invariant(engine: LSMEngine, context: str) -> None:
    """§4.1.5 across recovery: no WAL segment/tombstone older than D_th.

    The record-age half applies to *live* records only (seqnum above the
    flush watermark): those are deletes not yet persisted to the tree,
    which is what the paper's guarantee bounds. A flushed tombstone
    record retained in a young segment — a watermark hole left by an
    SRD-purged sibling record keeps the segment alive — is already
    persisted; the routine discards the copy when its segment ages out.
    """
    d_th = engine.config.delete_persistence_threshold
    if not d_th:
        return
    now = engine.clock.now
    slack = 1e-9
    assert engine.wal.oldest_segment_age(now) <= d_th + slack, (
        f"[{context}] recovered WAL holds a segment older than D_th"
    )
    watermark = engine.wal.flushed_seqnum
    for segment in engine.wal.segments:
        for record in segment.records:
            if record.is_tombstone and record.seqnum > watermark:
                assert now - record.written_at <= d_th + slack, (
                    f"[{context}] live tombstone record aged past D_th in "
                    f"the recovered WAL (seq {record.seqnum})"
                )


def continue_after_recovery(run: CrashRun) -> tuple[LSMEngine, dict]:
    """Re-apply the in-flight op and the rest; return (engine, model).

    Replaying the in-flight operation is safe whichever fate the crash
    gave it: puts re-install the same value, deletes and range deletes
    are idempotent, flush/checkpoint/advance are content no-ops.
    """
    model = dict(run.model_before)
    counter = [run.counter_before]
    for op in run.remaining_ops:
        apply_both(run.recovered, model, op, counter)
    return run.recovered, model


# ---------------------------------------------------------------------------
# Group-commit crash runs: the acknowledged-prefix oracle
# ---------------------------------------------------------------------------
#
# Under every_op, every acknowledged operation is durable before the next
# begins, so recovery must land on the dict model before or after the
# in-flight op. Under group(n) with n > 1, acknowledged-but-undrained
# operations are *designed* to be lost on a crash — but durable state
# still only advances whole batches, so recovery must land on the
# model after some exact PREFIX of the acknowledged sequence, never on a
# mixture. These helpers enumerate that oracle.


@dataclass
class PrefixCrashRun:
    """Outcome of one kill-and-recover cycle under a batched policy."""

    crashed: bool
    in_flight_index: int          # index of the op the crash interrupted
    models: list[dict]            # model after each prefix 0..upper
    counters: list[int]           # put-counter after each prefix
    recovered: LSMEngine
    path: str


def run_crash_prefix(
    ops: list[tuple],
    config_factory: Callable[[], Any],
    crash_at: int,
    tmp: str,
) -> PrefixCrashRun:
    """Like :func:`run_crash`, but records the model at *every* prefix."""
    path = os.path.join(tmp, "db")
    injector = CrashPoint(crash_at, armed=False)
    engine = LSMEngine.open(path, config=config_factory(), injector=injector)
    injector.armed = True

    model: dict = {}
    counter = [0]
    models: list[dict] = [{}]
    counters: list[int] = [0]
    crashed = False
    in_flight_index = len(ops)
    try:
        for index, op in enumerate(ops):
            apply_both(engine, model, op, counter)
            models.append(dict(model))
            counters.append(counter[0])
    except SimulatedCrash:
        crashed = True
        in_flight_index = len(models) - 1
        # The in-flight op may legitimately have landed whole (e.g. the
        # crash hit a purge after its commit): admit its prefix too.
        model_after = dict(models[-1])
        counter_after = [counters[-1]]
        apply_model(model_after, ops[in_flight_index], counter_after)
        models.append(model_after)
        counters.append(counter_after[0])

    recovered = LSMEngine.open(path)
    return PrefixCrashRun(
        crashed=crashed,
        in_flight_index=in_flight_index,
        models=models,
        counters=counters,
        recovered=recovered,
        path=path,
    )


def assert_recovery_matches_a_prefix(run: PrefixCrashRun, context: str) -> int:
    """Recovery must equal the model after some exact op prefix.

    Returns the largest matching prefix length (the continuation point).
    """
    got = engine_surface(run.recovered)
    matches = [
        j
        for j in range(len(run.models))
        if model_surface(run.models[j]) == got
    ]
    assert matches, (
        f"[{context}] recovered state matches no acknowledged prefix "
        f"(in-flight op index {run.in_flight_index}):\n  got: {got}"
    )
    return max(matches)


def continue_from_prefix(
    run: PrefixCrashRun, prefix: int, ops: list[tuple]
) -> tuple[LSMEngine, dict]:
    """Re-apply everything past ``prefix``; return (engine, final model).

    The operations between the recovered prefix and the crash were
    acknowledged and then lost — exactly what the batched policies
    trade; a client retries them. Re-applying from the matched prefix
    (with the put counter rewound to it) must converge on the
    full-sequence model.
    """
    model = dict(run.models[prefix])
    counter = [run.counters[prefix]]
    for op in ops[min(prefix, len(ops)):]:
        apply_both(run.recovered, model, op, counter)
    return run.recovered, model
