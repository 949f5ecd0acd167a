"""Property-based model checking of the whole engine.

The oracle is a plain dict replaying the same operations; after any
sequence of puts, deletes, sort-key range deletes, and secondary range
deletes — across every engine flavour — every key must read back exactly
what the model says, through any number of flushes and compactions.

Reads are part of the generated sequences too: ``get``/``scan``
operations assert against the model *mid-history* (not only at the end),
so a state the engine passes through and later repairs cannot hide, and
``advance_time`` interleaves idle periods that fire FADE's TTL
compactions and the D_th WAL routine between writes.

The ``-deferred`` flavours model a slow background worker without any
thread: their scheduler never compacts on its own, so flushes pile up
ahead of compaction and merges run only where the history holds a
``compact`` op — every backlog a lagging worker can produce, replayed
deterministically.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compaction.scheduler import CompactionScheduler
from repro.core.config import lethe_config, rocksdb_config
from repro.core.engine import LSMEngine

from tests.conftest import TINY

KEYS = st.integers(min_value=0, max_value=40)
DKEYS = st.integers(min_value=0, max_value=400)

OPS = st.lists(
    st.one_of(
        # The put branch appears twice on purpose: with reads and idle
        # time in the mix, histories must stay write-heavy enough that
        # flushes and compactions still fire within 120 ops.
        st.tuples(st.just("put"), KEYS, DKEYS),
        st.tuples(st.just("put"), KEYS, DKEYS),
        st.tuples(st.just("delete"), KEYS),
        # Width 0 is the empty-interval no-op (consumes no seqnum,
        # writes nothing).
        st.tuples(st.just("delete_range"), KEYS, st.integers(0, 15)),
        st.tuples(st.just("srd"), DKEYS, st.integers(1, 120)),
        st.tuples(st.just("flush")),
        st.tuples(st.just("get"), KEYS),
        st.tuples(st.just("scan"), KEYS, st.integers(1, 12)),
        st.tuples(st.just("advance_time"), st.floats(0.01, 0.5)),
        # One compaction step; a no-op for inline flavours (already
        # converged), the only way a deferred flavour ever merges.
        st.tuples(st.just("compact")),
    ),
    min_size=1,
    max_size=120,
)


D_TH = 0.5


class DeferredScheduler(CompactionScheduler):
    """Never compacts: the history's ``compact`` ops are the worker."""

    def notify(self, engine) -> None:
        pass


def deferred_flavours():
    return [
        ("lethe-deferred", lambda: LSMEngine(
            lethe_config(delete_persistence_threshold=D_TH, **TINY),
            scheduler=DeferredScheduler())),
        ("lethe-kiwi-deferred", lambda: LSMEngine(
            lethe_config(delete_persistence_threshold=D_TH,
                         delete_tile_pages=4, **TINY),
            scheduler=DeferredScheduler())),
    ]


def engine_flavours():
    return deferred_flavours() + [
        ("baseline", lambda: LSMEngine(rocksdb_config(**TINY))),
        ("baseline-tieredL1", lambda: LSMEngine(
            rocksdb_config(level1_tiered=True, **TINY))),
        ("lethe", lambda: LSMEngine(
            lethe_config(delete_persistence_threshold=D_TH, **TINY))),
        ("lethe-kiwi", lambda: LSMEngine(
            lethe_config(delete_persistence_threshold=D_TH,
                         delete_tile_pages=4, **TINY))),
        ("lethe-kiwi-tieredL1", lambda: LSMEngine(
            lethe_config(D_TH, delete_tile_pages=4, level1_tiered=True,
                         **TINY))),
    ]


def replay(engine: LSMEngine, ops) -> dict:
    """Apply ops to engine and the model dict in lockstep.

    Read operations (``get``/``scan``) are checked against the model at
    the point in history where they occur; ``advance_time`` simulates an
    idle period (TTL expiries, WAL rolling) and must not change content.
    """
    model: dict[int, tuple[str, int]] = {}
    counter = 0
    for op in ops:
        if op[0] == "put":
            _, key, dkey = op
            counter += 1
            value = f"val{counter}"
            engine.put(key, value, delete_key=dkey)
            model[key] = (value, dkey)
        elif op[0] == "delete":
            _, key = op
            issued = engine.delete(key)
            if key in model:
                assert issued, "delete of an existing key must not be blind-skipped"
                del model[key]
        elif op[0] == "delete_range":
            _, start, width = op
            engine.delete_range(start, start + width)
            for key in [k for k in model if start <= k < start + width]:
                del model[key]
        elif op[0] == "srd":
            _, d_lo, width = op
            engine.secondary_range_delete(d_lo, d_lo + width)
            for key in [
                k for k, (_v, d) in model.items() if d_lo <= d < d_lo + width
            ]:
                del model[key]
        elif op[0] == "flush":
            engine.flush()
        elif op[0] == "get":
            _, key = op
            expected = model[key][0] if key in model else None
            assert engine.get(key) == expected, (
                f"mid-sequence get({key}) diverged from the model"
            )
        elif op[0] == "scan":
            _, lo, width = op
            got = engine.scan(lo, lo + width)
            expected_pairs = sorted(
                (k, v) for k, (v, _d) in model.items() if lo <= k <= lo + width
            )
            assert got == expected_pairs, (
                f"mid-sequence scan[{lo}, {lo + width}] diverged from the model"
            )
        elif op[0] == "advance_time":
            engine.advance_time(op[1])
        elif op[0] == "compact":
            engine.run_one_compaction()
    return model


@pytest.mark.parametrize("name,factory", engine_flavours())
@given(ops=OPS)
@settings(max_examples=25, deadline=None)
def test_property_engine_matches_model(name, factory, ops):
    engine = factory()
    model = replay(engine, ops)
    for key in range(41):
        expected = model.get(key)
        got = engine.get(key)
        if expected is None:
            assert got is None, f"[{name}] key {key} should be deleted, got {got!r}"
        else:
            assert got == expected[0], (
                f"[{name}] key {key}: expected {expected[0]!r}, got {got!r}"
            )


@pytest.mark.parametrize("name,factory", engine_flavours())
@given(ops=OPS)
@settings(max_examples=10, deadline=None)
def test_property_scan_matches_model(name, factory, ops):
    engine = factory()
    model = replay(engine, ops)
    got = engine.scan(0, 40)
    expected = sorted((k, v) for k, (v, _d) in model.items())
    assert got == expected, f"[{name}] scan mismatch"


@pytest.mark.parametrize("name,factory", deferred_flavours())
@given(ops=OPS)
@settings(max_examples=25, deadline=None)
def test_property_deferred_backlog_converges_within_dth(name, factory, ops):
    """Whatever backlog the history left behind, draining it converges
    (``run_pending_compactions`` raises otherwise) on a tree where no
    tombstone-bearing file has outlived ``D_th``, content unchanged."""
    engine = factory()
    model = replay(engine, ops)
    engine.run_pending_compactions()
    assert not engine.run_one_compaction(), f"[{name}] drain left work behind"
    assert engine.max_tombstone_file_age() <= D_TH + 1e-9, (
        f"[{name}] a tombstone file outlived D_th after the drain"
    )
    expected = sorted((k, v) for k, (v, _d) in model.items())
    assert engine.scan(0, 40) == expected, f"[{name}] drain changed content"


