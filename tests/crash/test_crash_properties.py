"""Property-based crash recovery: generated histories, sampled kills.

Hypothesis generates operation sequences (the engine-model vocabulary
plus idle time and checkpoints) and a crash fraction; the harness maps
the fraction onto the sequence's actual write boundaries, kills the
backend there, recovers, and asserts the model equivalence, the D_th
WAL invariant, and continued correct service — for the classic layout,
FADE, and the full Lethe (FADE + KiWi) stack.

Example counts scale with the ``CRASH_EXAMPLES`` environment variable
(each example costs four full replays); the nightly CI job raises it.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.crash.harness import (
    CRASH_EXAMPLES,
    CRASH_FLAVOURS,
    DKEY_SPACE,
    KEY_SPACE,
    assert_dth_invariant,
    assert_recovery_matches_model,
    continue_after_recovery,
    count_crash_points,
    engine_surface,
    model_surface,
    run_crash,
)

KEYS = st.integers(min_value=0, max_value=KEY_SPACE - 1)
DKEYS = st.integers(min_value=0, max_value=DKEY_SPACE)

CRASH_OPS = st.lists(
    st.one_of(
        # Put appears three times on purpose: most crash points live on
        # the write path (WAL appends, flush commits), so histories must
        # be write-heavy for the sampled boundaries to cover them.
        st.tuples(st.just("put"), KEYS, DKEYS),
        st.tuples(st.just("put"), KEYS, DKEYS),
        st.tuples(st.just("put"), KEYS, DKEYS),
        st.tuples(st.just("delete"), KEYS),
        st.tuples(st.just("delete_range"), KEYS, st.integers(1, 6)),
        st.tuples(st.just("srd"), DKEYS, st.integers(1, 60)),
        st.tuples(st.just("flush")),
        st.tuples(st.just("advance_time"), st.floats(0.01, 0.2)),
        st.tuples(st.just("checkpoint")),
    ),
    min_size=8,
    max_size=45,
)


@pytest.mark.parametrize("name,config_factory", CRASH_FLAVOURS)
@given(ops=CRASH_OPS, fraction=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=CRASH_EXAMPLES, deadline=None)
def test_property_crash_recovery_matches_model(name, config_factory, ops, fraction):
    total = count_crash_points(ops, config_factory)
    if total == 0:
        return  # a read-only-ish sequence with no durable writes
    crash_at = min(int(fraction * total), total - 1)
    with tempfile.TemporaryDirectory() as tmp:
        run = run_crash(ops, config_factory, crash_at, tmp)
        assert run.crashed
        context = f"{name}@{crash_at}/{total}"
        assert_recovery_matches_model(run, context)
        assert_dth_invariant(run.recovered, context)
        engine, model = continue_after_recovery(run)
        assert engine_surface(engine) == model_surface(model), (
            f"[{context}] divergence after resuming the sequence"
        )


@pytest.mark.parametrize(
    "name,config_factory", [CRASH_FLAVOURS[1], CRASH_FLAVOURS[2]]
)
@given(ops=CRASH_OPS, fraction=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=CRASH_EXAMPLES, deadline=None)
def test_property_recovered_wal_honours_dth_after_idle(
    name, config_factory, ops, fraction
):
    """Even after post-recovery idle time, FADE keeps purging the WAL."""
    total = count_crash_points(ops, config_factory)
    if total == 0:
        return
    crash_at = min(int(fraction * total), total - 1)
    with tempfile.TemporaryDirectory() as tmp:
        run = run_crash(ops, config_factory, crash_at, tmp)
        engine = run.recovered
        engine.advance_time(engine.config.delete_persistence_threshold)
        assert_dth_invariant(engine, f"{name}@{crash_at}+idle")
