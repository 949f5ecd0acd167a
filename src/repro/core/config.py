"""Engine configuration: every tuning knob of the reproduced system.

Defaults follow Table 1 of the paper ("Lethe parameters") where a reference
value is given, scaled where noted so experiments complete quickly on a
laptop while preserving the structural ratios (T, B, P, bits-per-key) that
govern LSM behaviour.

The two knobs the paper singles out as Lethe's tuning interface (§4.3) are:

* ``delete_persistence_threshold`` — ``D_th``, the SLA-provided bound on
  delete persistence latency (drives FADE's per-level TTLs), and
* ``delete_tile_pages`` — ``h``, the number of disk pages per delete tile
  (drives KiWi's secondary-range-delete vs lookup trade-off; ``h = 1``
  degenerates to the classic sorted layout).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

from repro.core.errors import ConfigError


class CompactionTrigger(enum.Enum):
    """What may initiate a compaction (§4.1.4)."""

    SATURATION = "saturation"
    TTL_EXPIRY = "ttl_expiry"


class FileSelectionMode(enum.Enum):
    """FADE file selection for saturation-driven compactions (§4.1.4).

    * ``SO`` — saturation-driven trigger, overlap-driven selection: the
      state of the art, minimizes write amplification.
    * ``SD`` — saturation-driven trigger, delete-driven selection: picks the
      file with the highest estimated invalidation count ``b`` to minimize
      space amplification.

    The paper's third combination, ``DD`` (delete-driven trigger and
    selection: compact a file whose TTL expired, to honour ``D_th``), is
    not a mode: FADE always checks expiry first, whichever mode is set.
    """

    SO = "so"
    SD = "sd"


@dataclass(frozen=True)
class EngineConfig:
    """Complete configuration of an engine instance.

    Attributes
    ----------
    size_ratio:
        ``T``, growth factor between consecutive level capacities
        (Table 1: 10).
    buffer_pages:
        ``P``, memory-buffer capacity in disk pages (Table 1: 512; scaled
        default 64 keeps trees 3–4 levels deep at experiment scale).
    page_entries:
        ``B``, entries per disk page (Table 1: 4).
    entry_size:
        ``E``, average key-value entry size in bytes (Table 1: 1024).
    key_size:
        Size of the sort key in bytes. Together with ``entry_size`` this
        fixes the tombstone-size ratio ``λ ≈ key/(key+value)`` from §3.2.1
        (Table 1: λ = 0.1 → key 102 bytes when E = 1024; default 102).
    bits_per_key:
        Bloom filter budget in bits per key (evaluation setup: 10).
    delete_tile_pages:
        ``h``, pages per delete tile (Table 1: 16; ``h=1`` = classic layout).
    delete_persistence_threshold:
        ``D_th`` in simulated seconds; ``None`` disables FADE (pure
        state-of-the-art behaviour).
    file_selection:
        FADE file-selection mode (``SO`` or ``SD``) used for
        saturation-driven compactions. Expiry-driven (DD) compactions
        run whenever ``D_th`` is set, whatever this mode.
    ingestion_rate:
        ``I``, unique entries ingested per second (Table 1: 1024); drives
        the simulated clock.
    file_pages:
        Pages per on-disk file (sorted-run fragment). The evaluation's
        secondary-range-delete setup uses 256 pages/file; scaled default 64.
        Must be a multiple of ``delete_tile_pages``.
    real_io_seconds:
        *Real* (wall-clock) seconds slept per simulated page I/O. Default
        0 keeps experiments instantaneous; a positive value turns each
        charged page into an actual device wait (``time.sleep``, which
        releases the GIL to other threads, as a real device wait would).
        A timing taken with it on is mostly that sleep, not Python work.
    avoid_blind_deletes:
        When true, FADE probes Bloom filters before inserting a tombstone
        and skips tombstones for keys that are definitely absent (§4.1.5
        "Blind Deletes").
    level1_tiered:
        RocksDB implements Level 1 as tiered to avoid write stalls (§4.3
        "Implementation"); when true, Level 1 accepts multiple overlapping
        runs before merging into Level 2.
    level1_run_trigger:
        With a tiered Level 1, compact it into Level 2 once it holds this
        many runs (RocksDB's ``level0_file_num_compaction_trigger``,
        default 4), in addition to the byte-saturation trigger.
    fade_ttl_from_level_arrival:
        FADE TTL-expiry accounting variant. The default (False) follows
        the paper's Figure 4 pseudocode: a file expires when its oldest
        tombstone's *total* age exceeds the cumulative deadline
        ``Σ_{j≤i} d_j`` of its level. The variant (True) measures each
        file's age from its *arrival at the current level* against the
        per-level TTL ``d_i`` — supported by §4.1.3's "amax is
        recalculated based on the time of the latest compaction", less
        eager, and still ≤ D_th in total. Benchmarked as an ablation.
    cache_pages:
        Block-cache capacity in pages for the query path (the paper's
        setup has "block cache enabled"); 0 (default) disables it so I/O
        counts reflect raw device traffic.
    wal_commit_policy:
        When durable WAL appends reach disk (group commit): ``every_op``
        (default — one durable write per operation, the strictest and
        slowest; the same as ``group(1)``) or ``group(n)`` (drain every
        ``n`` records). Parsed by :class:`~repro.lsm.wal.CommitPolicy`;
        ignored by engines without a durable store. Flush/compaction/SRD
        commits and checkpoints always force a drain, whatever the policy.
    fsync:
        When true (default), every durable write is followed by
        ``os.fsync`` on the data file — and a directory fsync after
        renames — so "committed" means on-media, not in the OS page
        cache. Crash-test suites disable it for speed: the simulated
        crash model kills between writes, never inside the kernel.
    stall_l1_runs:
        Write stall (only consulted under a background
        :class:`~repro.compaction.scheduler.BackgroundScheduler`): at
        this many pending Level-1 runs, writes block until a background
        worker brings the backlog below it (RocksDB's
        ``level0_stop_writes_trigger``), bounding Level 1's memory and
        the runs a lookup may probe. Counted in
        ``Statistics.write_stalls``/``stall_seconds``. 0 disables the
        stall.
    observability:
        Turn on the :mod:`repro.obs` instrumentation layer: per-op
        write/read latency histograms, span tracing of flushes,
        compactions, group-commit drains, stalls and recovery phases,
        and the background metrics sampler. Off (default) the
        instrumented paths pay one flag check per operation.
    obs_sample_interval_ms:
        Wall-clock period of the background sampler's time-series
        snapshots (only consulted when ``observability`` is on; 0
        disables the sampler while keeping histograms and tracing).
    """

    size_ratio: int = 10
    buffer_pages: int = 64
    page_entries: int = 4
    entry_size: int = 1024
    key_size: int = 102
    bits_per_key: float = 10.0
    delete_tile_pages: int = 1
    delete_persistence_threshold: float | None = None
    file_selection: FileSelectionMode = FileSelectionMode.SO
    ingestion_rate: float = 1024.0
    file_pages: int = 64
    real_io_seconds: float = 0.0
    avoid_blind_deletes: bool = True
    level1_tiered: bool = False
    level1_run_trigger: int = 4
    force_kiwi_layout: bool = False
    fade_ttl_from_level_arrival: bool = False
    cache_pages: int = 0
    wal_commit_policy: str = "every_op"
    fsync: bool = True
    stall_l1_runs: int = 16
    observability: bool = False
    obs_sample_interval_ms: float = 25.0

    def __post_init__(self) -> None:
        if self.size_ratio < 2:
            raise ConfigError(f"size_ratio must be >= 2, got {self.size_ratio}")
        if self.buffer_pages < 1:
            raise ConfigError(f"buffer_pages must be >= 1, got {self.buffer_pages}")
        if self.page_entries < 1:
            raise ConfigError(f"page_entries must be >= 1, got {self.page_entries}")
        if self.entry_size < 2:
            raise ConfigError(f"entry_size must be >= 2, got {self.entry_size}")
        if not (0 < self.key_size < self.entry_size):
            raise ConfigError(
                f"key_size must lie in (0, entry_size), got {self.key_size}"
            )
        if self.bits_per_key <= 0:
            raise ConfigError(f"bits_per_key must be positive, got {self.bits_per_key}")
        if self.delete_tile_pages < 1:
            raise ConfigError(
                f"delete_tile_pages must be >= 1, got {self.delete_tile_pages}"
            )
        if self.file_pages < 1:
            raise ConfigError(f"file_pages must be >= 1, got {self.file_pages}")
        if self.file_pages % self.delete_tile_pages != 0:
            raise ConfigError(
                "file_pages must be a multiple of delete_tile_pages "
                f"(got {self.file_pages} pages, h={self.delete_tile_pages})"
            )
        if (
            self.delete_persistence_threshold is not None
            and self.delete_persistence_threshold <= 0
        ):
            raise ConfigError(
                "delete_persistence_threshold must be positive when set, "
                f"got {self.delete_persistence_threshold}"
            )
        if self.ingestion_rate <= 0:
            raise ConfigError(
                f"ingestion_rate must be positive, got {self.ingestion_rate}"
            )
        if self.real_io_seconds < 0:
            raise ConfigError(
                f"real_io_seconds must be >= 0, got {self.real_io_seconds}"
            )
        if self.cache_pages < 0:
            raise ConfigError(f"cache_pages must be >= 0, got {self.cache_pages}")
        if self.stall_l1_runs < 0:
            raise ConfigError(
                f"stall_l1_runs must be >= 0, got {self.stall_l1_runs}"
            )
        if self.obs_sample_interval_ms < 0:
            raise ConfigError(
                f"obs_sample_interval_ms must be >= 0, "
                f"got {self.obs_sample_interval_ms}"
            )
        try:
            self.commit_policy
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def buffer_entries(self) -> int:
        """Memory buffer capacity in entries: ``P · B``."""
        return self.buffer_pages * self.page_entries

    @property
    def buffer_bytes(self) -> int:
        """Memory buffer capacity in bytes: ``M = P · B · E``."""
        return self.buffer_pages * self.page_entries * self.entry_size

    @property
    def value_size(self) -> int:
        """Average value size in bytes (``E - key``)."""
        return self.entry_size - self.key_size

    @property
    def tombstone_size(self) -> int:
        """Size of a point tombstone: key plus a one-byte flag."""
        return self.key_size + 1

    @property
    def tombstone_size_ratio(self) -> float:
        """``λ = size(tombstone) / size(key-value)`` from §3.2.1."""
        return self.tombstone_size / self.entry_size

    @property
    def file_entries(self) -> int:
        """Entries per full file: ``file_pages · B``."""
        return self.file_pages * self.page_entries

    @property
    def tiles_per_file(self) -> int:
        """Delete tiles per full file: ``file_pages / h``."""
        return self.file_pages // self.delete_tile_pages

    @property
    def fade_enabled(self) -> bool:
        """True when a delete persistence threshold is configured."""
        return self.delete_persistence_threshold is not None

    @property
    def commit_policy(self):
        """The parsed :class:`~repro.lsm.wal.CommitPolicy`."""
        from repro.lsm.wal import CommitPolicy  # lsm.wal has no config dep

        return CommitPolicy.parse(self.wal_commit_policy)

    @property
    def kiwi_enabled(self) -> bool:
        """True when the Key Weaving layout is active.

        ``h = 1`` degenerates to the classic layout (§4.2.3), so KiWi code
        paths only engage for ``h > 1`` unless ``force_kiwi_layout`` pins
        them on (used by layout experiments that sweep h down to 1).
        """
        return self.delete_tile_pages > 1 or self.force_kiwi_layout

    def level_capacity_entries(self, level: int) -> int:
        """Capacity of disk level ``i`` (1-based) in entries: ``M·T^i / E``.

        Level 0 is the in-memory buffer; disk levels grow by ``T``.
        """
        if level < 1:
            raise ValueError(f"disk levels are numbered from 1, got {level}")
        return self.buffer_entries * (self.size_ratio**level)

    def levels_for(self, total_entries: int) -> int:
        """Number of disk levels ``L`` needed to hold ``total_entries``.

        Solves the smallest ``L`` with ``sum_{i=1..L} M·T^i >= N`` (§3.2
        model: capacity of the tree is ``Σ M·T^i``).
        """
        if total_entries <= 0:
            return 0
        capacity = 0
        level = 0
        while capacity < total_entries:
            level += 1
            capacity += self.level_capacity_entries(level)
            if level > 64:  # pragma: no cover - guards pathological configs
                raise ConfigError("levels_for did not converge; check config")
        return level

    def expected_false_positive_rate(self) -> float:
        """Standard BF false-positive rate ``e^{-(bits/key)·ln(2)^2}`` (§3.2.2)."""
        return math.exp(-self.bits_per_key * (math.log(2) ** 2))

    def with_updates(self, **changes) -> "EngineConfig":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **changes)


def lethe_config(
    delete_persistence_threshold: float,
    delete_tile_pages: int = 1,
    **overrides,
) -> EngineConfig:
    """Convenience constructor for a Lethe engine configuration.

    Lethe = FADE (``D_th`` set, TTL-expiry triggers) + KiWi (``h``). The
    KiWi layout keeps one Bloom filter per page, so full page drops need
    no filter rebuild (§4.2.3); the classic layout keeps one per file.
    """
    return EngineConfig(
        delete_persistence_threshold=delete_persistence_threshold,
        delete_tile_pages=delete_tile_pages,
        **overrides,
    )


def rocksdb_config(**overrides) -> EngineConfig:
    """Convenience constructor for the RocksDB-like baseline.

    Leveled merge, saturation-only compaction triggers, min-overlap file
    selection, classic sorted layout (h=1), per-file Bloom filters.
    """
    return EngineConfig(
        delete_persistence_threshold=None,
        delete_tile_pages=1,
        **overrides,
    )
