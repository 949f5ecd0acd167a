"""Unit tests for the durable backend and the recovery plumbing.

Crash *behaviour* is covered by the fault-injection suites next door;
this module pins down the building blocks: framing, the durable codec
round-trip, store lifecycle, blob generations for KiWi page drops,
checkpoint compaction, and the fidelity of reconstructed metadata.
"""

from __future__ import annotations

import errno
import json

import pytest

from repro.core.config import lethe_config, rocksdb_config
from repro.core.engine import LSMEngine
from repro.core.errors import ConfigError, PersistenceError
from repro.kiwi.layout import KiWiFile
from repro.lsm.recovery import recover_engine
from repro.lsm.wal import CommitPolicy
from repro.storage.entry import Entry, EntryKind, RangeTombstone
from repro.storage import persist
from repro.storage.persist import (
    CrashPoint,
    DurableStore,
    FaultInjector,
    SimulatedCrash,
    append_frame,
    config_from_dict,
    config_to_dict,
    frame_bytes,
    read_frames,
)
from repro.storage.serialization import (
    decode_durable_entry,
    decode_durable_range_tombstone,
    encode_durable_entry,
    encode_durable_range_tombstone,
)

from tests.conftest import TINY


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def test_frames_round_trip_and_stop_at_torn_tail():
    blob = frame_bytes(b"one") + frame_bytes(b"two") + frame_bytes(b"three")
    assert list(read_frames(blob)) == [b"one", b"two", b"three"]
    # Torn tail: drop the last two bytes — the final frame vanishes whole.
    assert list(read_frames(blob[:-2])) == [b"one", b"two"]
    # Corrupt payload byte: CRC mismatch stops the reader there.
    corrupted = bytearray(blob)
    corrupted[8 + 1] ^= 0xFF
    assert list(read_frames(bytes(corrupted))) == []


def test_frames_tolerate_mid_header_truncation():
    blob = frame_bytes(b"payload")
    assert list(read_frames(blob[:4])) == []


class _TearingHandle:
    """An append handle whose device fills up half-way through a write."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *_exc_info):
        self._handle.close()

    def tell(self):
        return self._handle.tell()

    def write(self, data):
        self._handle.write(data[: len(data) // 2])
        self._handle.flush()
        raise OSError(errno.ENOSPC, "injected: no space left on device")


@pytest.mark.parametrize("failure", ["torn-write", "fsync-behind-whole-frame"])
def test_failed_append_takes_its_bytes_back(tmp_path, monkeypatch, failure):
    """Whoever catches a failed append carries on as if nothing was
    committed, so nothing of it may stay in the log: a torn frame would
    hide every later record, a whole one would commit the rolled-back."""
    target = tmp_path / "LOG"
    quiet = FaultInjector(armed=False)
    append_frame(target, b"one", "record", quiet, True)
    seen = []
    if failure == "torn-write":

        def tearing_open(path, mode):
            handle = open(path, mode)
            return _TearingHandle(handle) if mode == "ab" else handle

        monkeypatch.setattr(persist, "open", tearing_open, raising=False)
    else:
        real_fsync = persist.os.fsync

        def failing_fsync(fd):
            if not seen:
                seen.append(target.stat().st_size)
                raise OSError(errno.EIO, "injected: fsync failed")
            return real_fsync(fd)

        monkeypatch.setattr(persist.os, "fsync", failing_fsync)
    with pytest.raises(OSError):
        append_frame(target, b"two", "record", quiet, True)
    monkeypatch.undo()
    assert seen in ([], [len(frame_bytes(b"one") + frame_bytes(b"two"))])
    assert target.read_bytes() == frame_bytes(b"one")
    append_frame(target, b"three", "record", quiet, True)
    assert list(read_frames(target.read_bytes())) == [b"one", b"three"]


# ---------------------------------------------------------------------------
# Durable codec
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "entry",
    [
        Entry(key=7, seqnum=3, kind=EntryKind.PUT, value=b"bytes-val",
              delete_key=12, size=1024, write_time=1.5),
        Entry(key=7, seqnum=3, kind=EntryKind.PUT, value="a string value",
              delete_key=None, size=900, write_time=0.25),
        Entry(key=0, seqnum=0, kind=EntryKind.PUT, value=None, size=10),
        Entry(key=-5, seqnum=9, kind=EntryKind.TOMBSTONE, size=103,
              write_time=2.75),
    ],
)
def test_durable_entry_round_trip_preserves_everything(entry):
    decoded, consumed = decode_durable_entry(encode_durable_entry(entry))
    assert consumed == len(encode_durable_entry(entry))
    assert decoded == entry
    assert decoded.size == entry.size  # declared, not encoded, size


def test_durable_entry_rejects_non_int_keys():
    entry = Entry(key="str", seqnum=0, kind=EntryKind.PUT, value=b"x")
    with pytest.raises(TypeError):
        encode_durable_entry(entry)


def test_durable_range_tombstone_round_trip():
    tombstone = RangeTombstone(start=3, end=9, seqnum=4, size=205,
                               write_time=1.25)
    decoded, _ = decode_durable_range_tombstone(
        encode_durable_range_tombstone(tombstone)
    )
    assert decoded == tombstone


def test_config_dict_round_trip():
    config = lethe_config(0.5, delete_tile_pages=4, **TINY)
    assert config_from_dict(config_to_dict(config)) == config


def test_store_written_before_the_retired_knobs_still_opens(tmp_path):
    """A CONFIG.json from before ``bloom_scope``, ``delete_key_size``,
    ``page_io_seconds``, ``hash_seconds``,
    ``rocksdb_tombstone_density_selection``, ``merge_policy``,
    ``slowdown_l1_runs``, ``write_slowdown_seconds`` and
    ``adaptive_stall_cap`` left EngineConfig carries those keys, with
    whatever values the store was written with; exactly they are
    dropped on read, any other unknown key is still an error."""
    config = rocksdb_config(**TINY)
    engine = LSMEngine.open(tmp_path / "db", config=config)
    engine.put(1, "v", delete_key=1)
    engine.flush()
    engine.close()
    config_path = tmp_path / "db" / "CONFIG.json"
    payload = json.loads(config_path.read_text(encoding="utf-8"))
    payload.update(
        bloom_scope="per_file",
        delete_key_size=8,
        page_io_seconds=100e-6,
        hash_seconds=80e-9,
        rocksdb_tombstone_density_selection=False,
        merge_policy="leveling",
        slowdown_l1_runs=3,
        write_slowdown_seconds=0.25,
        adaptive_stall_cap=1.0,
    )
    config_path.write_text(json.dumps(payload), encoding="utf-8")
    reopened = LSMEngine.open(tmp_path / "db")
    assert reopened.config == config
    assert reopened.get(1) == "v"
    reopened.close()
    with pytest.raises(TypeError):
        config_from_dict({**payload, "no_such_knob": 1})


@pytest.mark.parametrize(
    "field, value",
    [
        ("merge_policy", "tiering"),
        ("merge_policy", "lazy_leveling"),
        ("file_selection", "dd"),
    ],
)
def test_a_config_naming_a_retired_policy_is_refused(tmp_path, field, value):
    """A store that names a retired merge policy or selection mode is
    refused, naming the field: opening a tiered store as leveling would
    run a different tree than the one that wrote it, and ``dd`` is not
    kept as a second spelling of ``sd``."""
    engine = LSMEngine.open(tmp_path / "db", config=lethe_config(10.0, **TINY))
    engine.put(1, "v", delete_key=1)
    engine.close()
    config_path = tmp_path / "db" / "CONFIG.json"
    payload = json.loads(config_path.read_text(encoding="utf-8"))
    payload[field] = value
    config_path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(PersistenceError, match=field):
        LSMEngine.open(tmp_path / "db")


# ---------------------------------------------------------------------------
# Store lifecycle
# ---------------------------------------------------------------------------


def test_create_twice_rejected_and_open_requires_store(tmp_path):
    config = rocksdb_config(**TINY)
    engine = LSMEngine.open(tmp_path / "db", config=config)
    engine.put(1, "v", delete_key=1)
    engine.flush()
    with pytest.raises(PersistenceError):
        DurableStore.create(tmp_path / "db", config)
    with pytest.raises(PersistenceError):
        DurableStore.open(tmp_path / "empty")
    with pytest.raises(PersistenceError):
        LSMEngine.open(tmp_path / "fresh")  # no store, no config given


def test_checkpoint_compacts_manifest_and_prunes(tmp_path):
    engine = LSMEngine.open(
        tmp_path / "db", config=lethe_config(0.5, delete_tile_pages=4, **TINY)
    )
    for i in range(120):
        engine.put(i % 30, f"v{i}", delete_key=i)
    manifest_path = tmp_path / "db" / "MANIFEST.log"
    frames_before = len(list(read_frames(manifest_path.read_bytes())))
    assert frames_before > 1
    engine.checkpoint()
    frames_after = len(list(read_frames(manifest_path.read_bytes())))
    assert frames_after == 1
    # Exactly one generation per live file remains on disk.
    blobs = list((tmp_path / "db" / "runs").glob("*.run"))
    assert len(blobs) == len(list(engine.tree.all_files()))
    # The checkpointed store still recovers.
    recovered = recover_engine(tmp_path / "db")
    assert recovered.last_recovery.wal_records_replayed == 0
    assert {k: recovered.get(k) for k in range(30)} == {
        k: engine.get(k) for k in range(30)
    }
    recovered.close()
    # A tail of exactly K un-flushed operations after the checkpoint is
    # exactly K WAL records to replay (K stays under the buffer size).
    tail = 7
    for i in range(tail):
        engine.put(1000 + i, f"t{i}", delete_key=i)
    recovered = recover_engine(tmp_path / "db")
    assert recovered.last_recovery.wal_records_replayed == tail
    assert [recovered.get(1000 + i) for i in range(tail)] == [
        f"t{i}" for i in range(tail)
    ]
    recovered.close()


def test_delete_range_is_one_durable_append_whatever_its_span(tmp_path):
    """Under ``every_op`` one ``delete_range`` is one WAL append however
    many live keys it covers, and the tombstone survives a reopen."""
    for live in (16, 512):
        path = tmp_path / f"db-{live}"
        engine = LSMEngine.open(
            path,
            config=lethe_config(
                1e9, delete_tile_pages=4, wal_commit_policy="every_op", **TINY
            ),
        )
        for key in range(live + 1):
            engine.put(key, f"v{key}", delete_key=key)
        engine.flush()
        injector = FaultInjector(armed=True)
        engine.store.injector = injector
        engine.delete_range(0, live)
        assert injector.labels == ["wal-append-rt[1]"], (live, injector.labels)
        assert engine.scan(0, live) == [(live, f"v{live}")]
        engine.close()
        reopened = LSMEngine.open(path)
        assert reopened.scan(0, live) == [(live, f"v{live}")]
        assert reopened.get(0) is None
        reopened.close()


def test_kiwi_page_drops_rewrite_the_blob_under_the_next_generation(tmp_path):
    """A delete-tile mutation writes the file whole under ``generation + 1``.

    Blobs never change once written: each secondary range delete that
    drops entries from a file bumps that file's generation (one
    ``run-blob`` write per mutated file), the commit prunes the previous
    blob, and a reopen reads back the post-drop surface.
    """
    engine = LSMEngine.open(
        tmp_path / "db", config=lethe_config(1e9, delete_tile_pages=4, **TINY)
    )
    for i in range(600):
        engine.put(i, f"v{i}", delete_key=i)
    engine.flush()
    store = engine.store
    for step in range(3):
        before = {number: gen for number, (gen, _sig) in store._recorded.items()}
        injector = FaultInjector(armed=True)
        store.injector = injector
        engine.secondary_range_delete(step * 4, step * 4 + 2)
        bumped = {
            number
            for number, (gen, _sig) in store._recorded.items()
            if number in before and gen != before[number]
        }
        assert bumped, f"SRD {step} mutated no recorded file"
        assert injector.labels.count("run-blob") == len(bumped)
        for number in bumped:
            old = before[number]
            assert store._recorded[number][0] == old + 1, "generation must bump"
            assert store._run_path(number, old + 1).exists()
            assert not store._run_path(number, old).exists(), (
                "the previous generation's blob must be pruned"
            )

    surface = tuple(engine.scan(0, 601))
    assert engine.get(0) is None and engine.get(8) is None
    engine.close()
    recovered = LSMEngine.open(tmp_path / "db")
    assert tuple(recovered.scan(0, 601)) == surface
    recovered.close()


def test_a_blob_with_appended_shape_deltas_is_refused(tmp_path):
    """A run blob carrying more than its three sections — the appended
    shape deltas older stores wrote after a page drop — fails the open
    loudly: decoding its base alone would resurrect dropped entries."""
    engine = LSMEngine.open(
        tmp_path / "db", config=lethe_config(1e9, delete_tile_pages=4, **TINY)
    )
    for i in range(96):
        engine.put(i, f"v{i}", delete_key=i)
    engine.flush()
    engine.close()
    blob_path = sorted((tmp_path / "db" / "runs").glob("*.run"))[0]
    blob = blob_path.read_bytes()
    header = json.loads(next(read_frames(blob, len(persist._RUN_MAGIC))))
    # A well-formed delta of the old format: every page kept, by ordinal.
    ordinal = 0
    tiles = []
    for tile in header["tiles"]:
        pages = []
        for count in tile["pages"]:
            pages.append(list(range(ordinal, ordinal + count)))
            ordinal += count
        tiles.append({"min": tile["min"], "max": tile["max"], "pages": pages})
    delta = {"delta": 1, "meta": header["meta"], "tiles": tiles}
    blob_path.write_bytes(blob + frame_bytes(json.dumps(delta).encode("utf-8")))
    with pytest.raises(PersistenceError, match="4 sections"):
        LSMEngine.open(tmp_path / "db")


def test_a_config_naming_a_retired_commit_policy_is_refused(tmp_path):
    engine = LSMEngine.open(tmp_path / "db", config=rocksdb_config(**TINY))
    engine.put(1, "v", delete_key=1)
    engine.close()
    config_path = tmp_path / "db" / "CONFIG.json"
    payload = json.loads(config_path.read_text(encoding="utf-8"))
    payload["wal_commit_policy"] = "interval(5)"
    config_path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"interval\(5\)"):
        LSMEngine.open(tmp_path / "db")


# ---------------------------------------------------------------------------
# Reconstruction fidelity
# ---------------------------------------------------------------------------


def test_recovered_metadata_matches_original(tmp_path):
    """FADE/KiWi metadata survives: tombstone ages, tiles, fences, counts."""
    engine = LSMEngine.open(
        tmp_path / "db", config=lethe_config(1e9, delete_tile_pages=4, **TINY)
    )
    for i in range(200):
        engine.put(i % 50, f"v{i}", delete_key=i)
        if i % 9 == 4:
            engine.delete((i * 5) % 50)
    engine.secondary_range_delete(40, 130)  # leaves ragged tiles behind
    engine.flush()

    recovered = recover_engine(tmp_path / "db")
    original_files = {
        f.meta.file_number: f for f in engine.tree.all_files()
    }
    recovered_files = {
        f.meta.file_number: f for f in recovered.tree.all_files()
    }
    assert original_files.keys() == recovered_files.keys()
    for number, original in original_files.items():
        twin = recovered_files[number]
        assert type(twin) is type(original)
        for field in (
            "created_at",
            "level",
            "num_entries",
            "num_point_tombstones",
            "num_range_tombstones",
            "oldest_tombstone_time",
            "min_seqnum",
            "max_seqnum",
            "level_arrival_time",
        ):
            assert getattr(twin.meta, field) == getattr(original.meta, field), (
                f"file {number}: meta field {field} diverged"
            )
        assert twin.num_pages == original.num_pages
        assert twin.size_bytes == original.size_bytes
        if isinstance(original, KiWiFile):
            assert len(twin.tiles) == len(original.tiles)
            for mine, theirs in zip(twin.tiles, original.tiles):
                assert mine.num_pages == theirs.num_pages
                assert [len(p) for p in mine.pages] == [
                    len(p) for p in theirs.pages
                ]
                assert (mine.min_key, mine.max_key) == (
                    theirs.min_key, theirs.max_key,
                )
    # FADE's tombstone-age analytics carry over at the recovered clock.
    assert recovered.max_tombstone_file_age() == pytest.approx(
        engine.max_tombstone_file_age()
    )


def test_wal_tail_replays_into_buffer_with_original_metadata(tmp_path):
    engine = LSMEngine.open(tmp_path / "db", config=rocksdb_config(**TINY))
    for i in range(40):
        engine.put(i % 20, f"v{i}", delete_key=i)
    engine.delete(3)
    engine.delete_range(7, 9)
    original = {
        entry.key: entry for entry in engine.buffer
    }
    assert original, "test needs an un-flushed buffer tail"

    recovered = recover_engine(tmp_path / "db")
    assert recovered.last_recovery.wal_records_replayed > 0
    for key, entry in original.items():
        twin = recovered.buffer.get(key)
        assert twin is not None
        assert (twin.seqnum, twin.write_time, twin.delete_key, twin.size) == (
            entry.seqnum, entry.write_time, entry.delete_key, entry.size,
        )
    assert len(recovered.buffer.range_tombstones) == len(
        engine.buffer.range_tombstones
    )
    # Sequence numbers continue past everything recovered.
    assert recovered.seq.current >= engine.seq.current
    assert recovered.clock.now == pytest.approx(engine.clock.now)


def test_recovery_is_quiescent_after_a_completed_srd(tmp_path):
    """A store whose last acknowledged op was an SRD must not re-run it
    on every reopen: the durable intent is marked done, so repeated
    recoveries leave the sequence counter and the read surface alone."""
    for name, config in [
        ("kiwi", lethe_config(0.5, delete_tile_pages=4, **TINY)),
        ("classic", lethe_config(0.5, **TINY)),
    ]:
        path = tmp_path / name
        engine = LSMEngine.open(path, config=config)
        for i in range(40):
            engine.put(i, f"v{i}", delete_key=i)
        engine.secondary_range_delete(0, 20)
        surface = {k: engine.get(k) for k in range(40)}
        compactions = []
        seqs = []
        for _ in range(3):
            recovered = recover_engine(path)
            seqs.append(recovered.seq.current)
            compactions.append(recovered.stats.full_tree_compactions)
            assert {k: recovered.get(k) for k in range(40)} == surface
        assert len(set(seqs)) == 1, f"[{name}] seq ratcheted across reopens: {seqs}"
        assert compactions == [0, 0, 0], (
            f"[{name}] recovery re-ran the SRD's compaction: {compactions}"
        )


def test_torn_tails_are_truncated_so_later_appends_stay_readable(tmp_path):
    """A real mid-write tear must not poison the log: recovery truncates
    the torn tail, so records appended afterwards are readable by the
    *next* restart (appends resume at end-of-file)."""
    path = tmp_path / "db"
    engine = LSMEngine.open(
        path, config=lethe_config(0.5, delete_tile_pages=4, **TINY)
    )
    for i in range(100):
        engine.put(i % 25, f"v{i}", delete_key=i)
    with open(path / "MANIFEST.log", "ab") as handle:
        handle.write(b"\x99" * 7)  # torn manifest frame
    segments = sorted((path / "wal").glob("*.log"))
    with open(segments[-1], "ab") as handle:
        handle.write(b"\xff" * 3)  # torn WAL frame

    recovered = recover_engine(path)
    recovered.put(999, "after-tear", delete_key=5)
    recovered.flush()
    again = recover_engine(path)
    assert again.get(999) == "after-tear"
    for key in range(25):
        assert again.get(key) == recovered.get(key)


def test_fsync_path_round_trips(tmp_path):
    """The default (fsync on) store works end to end.

    The crash suites run with ``fsync=False`` for speed, so this is the
    one place the fsync branches (data-file fsync in atomic writes,
    batch drains, frame appends; directory fsync after renames and
    unlinks) stay exercised: a full op mix, a checkpoint, and a
    recovery, all with the knob at its production default.
    """
    config = lethe_config(0.5, delete_tile_pages=4, **{**TINY, "fsync": True})
    assert config.fsync
    engine = LSMEngine.open(tmp_path / "db", config=config)
    for i in range(120):
        engine.put(i % 30, f"v{i}", delete_key=i)
        if i % 11 == 5:
            engine.delete((i * 3) % 30)
    engine.secondary_range_delete(20, 60)
    engine.checkpoint()
    engine.put(999, "tail", delete_key=1)
    engine.sync()
    engine.close()
    recovered = recover_engine(tmp_path / "db")
    assert recovered.get(999) == "tail"
    assert {k: recovered.get(k) for k in range(30)} == {
        k: engine.get(k) for k in range(30)
    }


def test_commit_policy_specs_validate():
    assert CommitPolicy.parse("every_op") == CommitPolicy.parse("group(1)")
    assert CommitPolicy.parse("group(8)").group_size == 8
    for bad in (
        "group(0)", "group", "sometimes", "group(-1)",
        "interval(5)", "interval_wall(5)", "unsafe_none",
    ):
        with pytest.raises(ValueError):
            CommitPolicy.parse(bad)
    with pytest.raises(ConfigError):
        rocksdb_config(wal_commit_policy="bogus", **TINY)
    # The policy round-trips through the persisted config.
    config = rocksdb_config(wal_commit_policy="group(8)", **TINY)
    assert config_from_dict(config_to_dict(config)).commit_policy.group_size == 8


def test_commit_policy_drain_decisions():
    assert CommitPolicy.parse("every_op").should_drain(1)
    group = CommitPolicy.parse("group(3)")
    assert not group.should_drain(2)
    assert group.should_drain(3)


def test_crash_point_injector_contract(tmp_path):
    injector = CrashPoint(0)
    with pytest.raises(SimulatedCrash):
        injector.before_write("manifest")
    counting = FaultInjector(armed=False)
    counting.before_write("manifest")
    assert counting.writes == 0
    counting.armed = True
    counting.before_write("manifest")
    assert counting.writes == 1
    with pytest.raises(PersistenceError):
        CrashPoint(-1)
