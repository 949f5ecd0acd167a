"""Property suite for fragmented primary-key range tombstones.

The fragmentation contract (``src/repro/lsm/range_tombstone.py``) is
checked directly — coverage equality, disjointness, idempotence,
write-time conservatism, clip windows — and then end-to-end through the
engine: a range delete must shadow every older version of every covered
key and nothing else, across any interleaving of flushes and the
compactions they trigger.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import lethe_config
from repro.core.engine import LSMEngine
from repro.core.errors import LetheError
from repro.lsm.range_tombstone import (
    clip,
    covering_seqnum,
    fragment,
    is_fragmented,
    max_covering_seqnum,
    overlapping,
)
from repro.storage.entry import RangeTombstone

from tests.conftest import TINY

# Tight key domain so generated tombstones overlap, nest, and touch
# constantly — the cases fragmentation exists for.
STARTS = st.integers(min_value=0, max_value=30)
WIDTHS = st.integers(min_value=1, max_value=12)
SEQNUMS = st.integers(min_value=1, max_value=500)
WRITE_TIMES = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)

TOMBSTONE = st.builds(
    lambda start, width, seqnum, wt: RangeTombstone(
        start=start, end=start + width, seqnum=seqnum, write_time=wt
    ),
    STARTS,
    WIDTHS,
    SEQNUMS,
    WRITE_TIMES,
)
TOMBSTONES = st.lists(TOMBSTONE, max_size=10)

PROBE_KEYS = range(-1, 45)


class TestFragmentContract:
    @given(raw=TOMBSTONES)
    @settings(max_examples=200, deadline=None)
    def test_fragments_are_disjoint_and_sorted(self, raw):
        fragments = fragment(raw)
        assert is_fragmented(fragments)
        for left, right in zip(fragments, fragments[1:]):
            assert left.start < left.end <= right.start < right.end

    @given(raw=TOMBSTONES)
    @settings(max_examples=200, deadline=None)
    def test_coverage_identical_to_raw_union(self, raw):
        """covering_seqnum over fragments == max over the raw overlap set,
        at every key — the contract the read path's bisection relies on."""
        fragments = fragment(raw)
        for key in PROBE_KEYS:
            assert covering_seqnum(fragments, key) == max_covering_seqnum(
                raw, key
            ), f"coverage diverged at key {key}"

    @given(raw=TOMBSTONES)
    @settings(max_examples=200, deadline=None)
    def test_covers_predicate_agrees_everywhere(self, raw):
        fragments = fragment(raw)
        for key in PROBE_KEYS:
            for probe_seq in (0, 1, 250, 499, 500):
                assert any(
                    rt.covers(key, probe_seq) for rt in fragments
                ) == any(rt.covers(key, probe_seq) for rt in raw)

    @given(raw=TOMBSTONES)
    @settings(max_examples=200, deadline=None)
    def test_refragmentation_is_idempotent(self, raw):
        once = fragment(raw)
        assert fragment(once) == once

    @given(raw=TOMBSTONES)
    @settings(max_examples=200, deadline=None)
    def test_write_time_is_min_of_contributors(self, raw):
        """FADE ages by the oldest intent: a fragment must never be
        younger than any raw tombstone overlapping its span."""
        for fr in fragment(raw):
            contributors = overlapping(raw, fr.start, fr.end - 1)
            assert contributors, "fragment with no contributing tombstone"
            assert fr.write_time == min(rt.write_time for rt in contributors)

    @given(raw=TOMBSTONES)
    @settings(max_examples=100, deadline=None)
    def test_adjacent_equal_seqnum_fragments_coalesce(self, raw):
        fragments = fragment(raw)
        for left, right in zip(fragments, fragments[1:]):
            assert not (left.end == right.start and left.seqnum == right.seqnum), (
                f"uncoalesced neighbours {left} | {right}"
            )

    def test_empty_and_singleton_inputs(self):
        assert fragment([]) == []
        rt = RangeTombstone(start=3, end=9, seqnum=7)
        assert fragment([rt]) == [rt]

    def test_nested_and_identical_spans(self):
        outer = RangeTombstone(start=0, end=20, seqnum=5)
        inner = RangeTombstone(start=5, end=10, seqnum=9)
        fragments = fragment([outer, inner])
        assert [(f.start, f.end, f.seqnum) for f in fragments] == [
            (0, 5, 5),
            (5, 10, 9),
            (10, 20, 5),
        ]
        twin = RangeTombstone(start=0, end=20, seqnum=3)
        assert fragment([outer, twin]) == [outer]


class TestClip:
    @given(raw=TOMBSTONES, lo=STARTS, width=st.integers(0, 20))
    @settings(max_examples=200, deadline=None)
    def test_clip_restricts_coverage_to_window(self, raw, lo, width):
        hi = lo + width
        clipped = clip(raw, lo, hi)
        for key in PROBE_KEYS:
            expected = max_covering_seqnum(raw, key) if lo <= key < hi else None
            assert max_covering_seqnum(clipped, key) == expected

    @given(raw=TOMBSTONES)
    @settings(max_examples=50, deadline=None)
    def test_unbounded_clip_is_identity(self, raw):
        assert clip(raw, None, None) == list(raw)

    def test_empty_window_drops_everything(self):
        rt = RangeTombstone(start=0, end=10, seqnum=1)
        assert clip([rt], 5, 5) == []
        assert clip([rt], 10, 20) == []

    def test_straddling_tombstone_keeps_identity(self):
        rt = RangeTombstone(start=0, end=10, seqnum=4, write_time=2.5)
        (piece,) = clip([rt], 6, 30)
        assert (piece.start, piece.end) == (6, 10)
        assert piece.seqnum == rt.seqnum
        assert piece.write_time == rt.write_time


class TestTombstoneValidation:
    @pytest.mark.parametrize("bounds", [(5, 5), (5, 4)])
    def test_empty_or_inverted_interval_rejected(self, bounds):
        lo, hi = bounds
        with pytest.raises(ValueError):
            RangeTombstone(start=lo, end=hi, seqnum=1)

    def test_covers_is_half_open_and_seqnum_strict(self):
        rt = RangeTombstone(start=5, end=10, seqnum=8)
        assert rt.covers(5, 7)
        assert not rt.covers(10, 7)   # end exclusive
        assert not rt.covers(4, 7)
        assert not rt.covers(5, 8)    # equal seqnum survives
        assert not rt.covers(5, 9)    # newer write survives


# ---------------------------------------------------------------------
# End-to-end: shadowing through flush/compaction interleavings
# ---------------------------------------------------------------------

# (key, interleave-a-flush?) pairs: enough writes at TINY scale that
# several flushes — and the compactions they cascade into — fire while
# range tombstones are in flight.
WRITE_SCRIPT = st.lists(
    st.tuples(st.integers(0, 40), st.booleans()),
    min_size=1,
    max_size=60,
)
DELETE_WINDOWS = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 15)),
    min_size=1,
    max_size=4,
)


def tiny_engine() -> LSMEngine:
    return LSMEngine(
        lethe_config(delete_persistence_threshold=0.5, delete_tile_pages=4, **TINY)
    )


class TestEngineShadowing:
    @given(script=WRITE_SCRIPT, windows=DELETE_WINDOWS, reflush=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_scan_never_yields_a_covered_key(self, script, windows, reflush):
        """After puts → delete_range(s) → more flush/compaction churn, no
        covered key may surface from any level of the tree."""
        engine = tiny_engine()
        for key, do_flush in script:
            engine.put(key, f"v{key}")
            if do_flush:
                engine.flush()
        covered: set[int] = set()
        for lo, width in windows:
            engine.delete_range(lo, lo + width)
            covered.update(range(lo, lo + width))
        if reflush:
            engine.flush()
        surfaced = {key for key, _value in engine.scan(0, 60)}
        assert not surfaced & covered, (
            f"covered keys surfaced: {sorted(surfaced & covered)}"
        )
        for key in covered:
            assert engine.get(key) is None

    @given(script=WRITE_SCRIPT, lo=st.integers(0, 40), width=st.integers(1, 15))
    @settings(max_examples=60, deadline=None)
    def test_newer_put_survives_older_range_delete(self, script, lo, width):
        """Seqnum shadowing is strict: a put issued *after* the range
        delete wins, whatever flush state either side is in."""
        engine = tiny_engine()
        for key, do_flush in script:
            engine.put(key, f"old{key}")
            if do_flush:
                engine.flush()
        engine.delete_range(lo, lo + width)
        resurrect = lo + (width // 2)
        engine.put(resurrect, "reborn")
        engine.flush()
        assert engine.get(resurrect) == "reborn"
        assert dict(engine.scan(lo, lo + width - 1)).get(resurrect) == "reborn"
        for key in range(lo, lo + width):
            if key != resurrect:
                assert engine.get(key) is None

    def test_delete_range_validates_bounds(self):
        engine = tiny_engine()
        engine.put(3, "v")
        with pytest.raises(LetheError):
            engine.delete_range(9, 2)
        seqnum_counter = engine.stats.range_tombstones_ingested
        engine.delete_range(5, 5)  # empty interval: a true no-op
        assert engine.stats.range_tombstones_ingested == seqnum_counter
        assert engine.get(3) == "v"

    def test_whole_file_shadow_skips_bloom_probes(self):
        """A fragment newer than everything a file holds short-circuits
        the file's Bloom filter (the pre-Bloom ordering the docs pin).

        A tiered Level 1 keeps the covered runs alive next to the
        tombstone-carrying run (pure leveling would merge them — and
        eagerly drop everything — on the next flush), so the lookup path
        has files to skip."""
        engine = LSMEngine(
            lethe_config(
                delete_persistence_threshold=0.5,
                delete_tile_pages=4,
                level1_tiered=True,
                **TINY,
            )
        )
        for key in range(32):
            engine.put(key, f"v{key}")
        engine.flush()
        engine.delete_range(0, 64)
        for key in range(100, 104):  # carrier entries so the RT flushes
            engine.put(key, f"v{key}")
        engine.flush()
        engine.stats.reset_read_counters()
        for key in range(32):
            assert engine.get(key) is None
        # Every covered lookup skips the two shadowed data runs wholesale.
        assert engine.stats.range_tombstone_skips >= 32
        for key in range(100, 104):
            assert engine.get(key) == f"v{key}"

    def test_file_shadow_short_circuits_before_bloom(self):
        """Within one file: a fragment outranking ``max_seqnum`` answers
        the lookup from the RT block alone — no filter probe, no I/O."""
        from repro.core.config import rocksdb_config
        from repro.core.stats import Statistics
        from repro.lsm.sstable import build_sstable
        from repro.storage.disk import SimulatedDisk

        from tests.conftest import make_entries

        stats = Statistics()
        disk = SimulatedDisk(stats)
        config = rocksdb_config(**TINY)
        rt = RangeTombstone(start=0, end=50, seqnum=99)
        table = build_sstable(
            make_entries(range(8)), [rt], config, disk, stats, 0.0, 1
        )
        result = table.get(3)
        assert result.entry is None
        assert result.covering_rt_seqnum == 99
        assert stats.range_tombstone_skips == 1
        assert stats.bloom_probes == 0
        assert stats.pages_read == 0
