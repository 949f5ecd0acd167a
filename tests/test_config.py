"""Unit tests for EngineConfig, including Table 1 reference values."""

import math
from dataclasses import fields

import pytest

from repro.core.config import (
    EngineConfig,
    FileSelectionMode,
    lethe_config,
    rocksdb_config,
)
from repro.core.errors import ConfigError


class TestValidation:
    def test_defaults_are_valid(self):
        EngineConfig()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("size_ratio", 1),
            ("buffer_pages", 0),
            ("page_entries", 0),
            ("entry_size", 1),
            ("key_size", 0),
            ("bits_per_key", 0.0),
            ("delete_tile_pages", 0),
            ("file_pages", 0),
            ("delete_persistence_threshold", 0.0),
            ("ingestion_rate", 0.0),
            ("stall_l1_runs", -1),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ConfigError):
            EngineConfig(**{field: value})

    def test_key_size_must_be_below_entry_size(self):
        with pytest.raises(ConfigError):
            EngineConfig(entry_size=100, key_size=100)

    def test_file_pages_must_align_with_tiles(self):
        with pytest.raises(ConfigError):
            EngineConfig(file_pages=10, delete_tile_pages=3)
        EngineConfig(file_pages=12, delete_tile_pages=3)  # fine


# The complete set of knobs. Adding or removing one is a deliberate,
# reviewed edit of this list (a stored CONFIG.json carries every field;
# a removed one also goes to storage.persist._RETIRED_FIELDS).
KNOBS = {
    "size_ratio", "buffer_pages", "page_entries", "entry_size", "key_size",
    "bits_per_key", "delete_tile_pages", "delete_persistence_threshold",
    "file_selection", "ingestion_rate", "file_pages", "real_io_seconds",
    "avoid_blind_deletes", "level1_tiered", "level1_run_trigger",
    "force_kiwi_layout", "fade_ttl_from_level_arrival", "cache_pages",
    "wal_commit_policy", "fsync", "stall_l1_runs", "observability",
    "obs_sample_interval_ms",
}


def test_engine_config_knobs_are_pinned():
    names = {f.name for f in fields(EngineConfig)}
    assert len(KNOBS) == 23
    assert names == KNOBS, (
        f"added: {sorted(names - KNOBS)}, removed: {sorted(KNOBS - names)}"
    )


class TestTable1ReferenceValues:
    """The paper's Table 1 parameters must be representable exactly."""

    def test_reference_configuration(self):
        config = EngineConfig(
            size_ratio=10,          # T
            buffer_pages=512,       # P
            page_entries=4,         # B
            entry_size=1024,        # E
            key_size=102,           # λ ≈ 0.1
            delete_tile_pages=16,   # h
            file_pages=256,
            ingestion_rate=1024.0,  # I
        )
        # M = P · B · E = 512 · 4 · 1024 = 2 MB per Table 1's relation
        assert config.buffer_bytes == 512 * 4 * 1024
        assert config.buffer_entries == 2048
        assert config.tiles_per_file == 16

    def test_tombstone_size_ratio_lambda(self):
        config = EngineConfig(entry_size=1024, key_size=102)
        # λ = size(tombstone)/size(entry) ≈ 0.1 (Table 1)
        assert config.tombstone_size_ratio == pytest.approx(0.1, abs=0.01)

    def test_expected_fpr_at_10_bits(self):
        config = EngineConfig(bits_per_key=10)
        expected = math.exp(-10 * math.log(2) ** 2)
        assert config.expected_false_positive_rate() == pytest.approx(expected)
        assert 0.005 < expected < 0.01  # the familiar ~0.8%


class TestDerived:
    def test_level_capacities_grow_by_t(self):
        config = EngineConfig(size_ratio=10, buffer_pages=16, page_entries=4)
        assert config.level_capacity_entries(1) == 64 * 10
        assert config.level_capacity_entries(2) == 64 * 100
        assert config.level_capacity_entries(3) == 64 * 1000

    def test_level_capacity_rejects_level_zero(self):
        with pytest.raises(ValueError):
            EngineConfig().level_capacity_entries(0)

    def test_levels_for(self):
        config = EngineConfig(size_ratio=10, buffer_pages=16, page_entries=4)
        assert config.levels_for(0) == 0
        assert config.levels_for(1) == 1
        assert config.levels_for(640) == 1
        assert config.levels_for(641) == 2
        assert config.levels_for(640 + 6400) == 2
        assert config.levels_for(640 + 6400 + 1) == 3

    def test_value_size(self):
        config = EngineConfig(entry_size=1024, key_size=102)
        assert config.value_size == 922

    def test_with_updates_returns_modified_copy(self):
        config = EngineConfig()
        other = config.with_updates(size_ratio=5)
        assert other.size_ratio == 5
        assert config.size_ratio == 10  # original untouched


class TestNamedConfigs:
    def test_lethe_config_enables_fade(self):
        config = lethe_config(delete_persistence_threshold=60.0)
        assert config.fade_enabled
        assert not config.kiwi_enabled

    def test_lethe_config_with_tiles_enables_kiwi(self):
        config = lethe_config(60.0, delete_tile_pages=8)
        assert config.kiwi_enabled

    def test_lethe_config_forced_kiwi_at_h1(self):
        config = lethe_config(60.0, delete_tile_pages=1, force_kiwi_layout=True)
        assert config.kiwi_enabled

    def test_rocksdb_config_is_baseline(self):
        config = rocksdb_config()
        assert not config.fade_enabled
        assert not config.kiwi_enabled

    def test_file_selection_modes_exist(self):
        assert {m.value for m in FileSelectionMode} == {"so", "sd"}
