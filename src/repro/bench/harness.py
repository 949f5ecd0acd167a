"""Experiment harness: shared machinery behind every figure's bench.

The harness fixes the structural parameters of the evaluation (§5 default
setup: T = 10, 10 bits/key Bloom filters, RocksDB-style tiered first disk
level, ingestion rate 2^10 entries/s) and scales the data volume down so a
laptop reproduces each figure in seconds. Its pieces:

* :class:`ExperimentScale` — the single place experiments and tests pick
  their size. The structural knobs (buffer, page, file sizes) keep the
  tree 2–3 disk levels deep at the scaled-down volume, preserving the
  ratios (``T``, ``B``, ``P``, bits/key) that govern LSM behaviour;
  ``TEST_SCALE`` and ``BENCH_SCALE`` are the two blessed presets.
* :func:`workload_for` — materializes one operation list that *every*
  engine of a comparison replays identically, plus the simulated runtime
  that ``D_th`` percentages are taken against (the paper's "D_th = 25%
  of the experiment's run-time").
* :func:`make_baseline` / :func:`make_lethe` — the two named engine
  setups (RocksDB-like vs FADE+KiWi) at a given scale.
* :func:`run_engine` — the §5 measurement protocol: ingest, zero the
  read counters, query, snapshot into a :class:`RunResult`.
* :func:`preload_kiwi_engine` / :func:`preload_classic_engine` — settled
  preloaded databases for the layout experiments (Fig 6H–6L), which
  measure storage behaviour rather than compaction policy.

Experiment drivers in :mod:`repro.bench.experiments` compose these; the
``benchmarks/`` suite wraps the drivers with timing and shape assertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import lethe_config, rocksdb_config
from repro.core.engine import LSMEngine
from repro.core.stats import HASH_SECONDS, PAGE_IO_SECONDS
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec import DeleteKeyMode, WorkloadSpec


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade fidelity for runtime.

    ``num_inserts`` is the paper's "ingestion" volume; the structural
    parameters (buffer, page, file sizes) keep the tree 2–3 disk levels
    deep at that volume, like the paper's 1 GB / 1 MB-buffer setup.
    """

    num_inserts: int = 9000
    num_point_lookups: int = 1500
    buffer_pages: int = 16
    page_entries: int = 4
    file_pages: int = 32
    size_ratio: int = 10
    bits_per_key: float = 10.0
    ingestion_rate: float = 1024.0
    seed: int = 42

    def engine_overrides(self) -> dict:
        return {
            "buffer_pages": self.buffer_pages,
            "page_entries": self.page_entries,
            "file_pages": self.file_pages,
            "size_ratio": self.size_ratio,
            "bits_per_key": self.bits_per_key,
            "ingestion_rate": self.ingestion_rate,
            "level1_tiered": True,
        }


# A smaller scale for the unit/integration test-suite.
TEST_SCALE = ExperimentScale(num_inserts=1500, num_point_lookups=300)
# The default bench scale.
BENCH_SCALE = ExperimentScale()


@dataclass
class RunResult:
    """Everything one engine run yields for figure extraction."""

    name: str
    engine: LSMEngine
    workload_seconds: float
    space_amplification: float = 0.0
    write_amplification: float = 0.0
    compactions: int = 0
    total_bytes_written: int = 0
    tombstones_on_disk: int = 0
    read_throughput: float = 0.0
    avg_lookup_ios: float = 0.0
    tombstone_ages: list[tuple[float, int]] = field(default_factory=list)

    @classmethod
    def collect(
        cls, name: str, engine: LSMEngine, workload_seconds: float
    ) -> "RunResult":
        stats = engine.stats
        lookup_io_time = (
            stats.lookup_pages_read * PAGE_IO_SECONDS
            + stats.bloom_hash_computations * HASH_SECONDS
        )
        throughput = (
            stats.point_lookups / lookup_io_time if lookup_io_time > 0 else 0.0
        )
        return cls(
            name=name,
            engine=engine,
            workload_seconds=workload_seconds,
            space_amplification=engine.space_amplification(),
            write_amplification=engine.write_amplification(),
            compactions=stats.compactions,
            total_bytes_written=stats.total_bytes_written,
            tombstones_on_disk=engine.tombstones_on_disk(),
            read_throughput=throughput,
            avg_lookup_ios=stats.average_lookup_ios(),
            tombstone_ages=engine.tombstone_age_distribution(),
        )


def workload_for(
    scale: ExperimentScale,
    delete_fraction: float,
    delete_key_mode: DeleteKeyMode = DeleteKeyMode.TIMESTAMP,
    num_point_lookups: int | None = None,
) -> tuple[list[tuple], list[tuple], float]:
    """(ingest_ops, query_ops, simulated_runtime_seconds) for one spec.

    Both engines of a comparison replay the *same* materialized operation
    list, and the simulated runtime (write ops / ingestion rate) is what
    D_th percentages are taken against — exactly how the paper expresses
    "D_th = 25% of the experiment's run-time".
    """
    spec = WorkloadSpec(
        num_inserts=scale.num_inserts,
        update_fraction=0.5,
        delete_fraction=delete_fraction,
        num_point_lookups=(
            scale.num_point_lookups
            if num_point_lookups is None
            else num_point_lookups
        ),
        lookup_on_existing=True,
        delete_key_mode=delete_key_mode,
        seed=scale.seed,
    )
    generator = WorkloadGenerator(spec)
    ingest_ops = list(generator.ingest_operations())
    query_ops = list(generator.query_operations())
    runtime = len(ingest_ops) / scale.ingestion_rate
    return ingest_ops, query_ops, runtime


def make_baseline(scale: ExperimentScale, **overrides) -> LSMEngine:
    """The state-of-the-art (RocksDB-like) engine at this scale."""
    merged = {**scale.engine_overrides(), **overrides}
    return LSMEngine(rocksdb_config(**merged))


def make_lethe(
    scale: ExperimentScale,
    d_th: float,
    delete_tile_pages: int = 1,
    **overrides,
) -> LSMEngine:
    """A Lethe engine (FADE at ``d_th`` seconds, optional KiWi tiles)."""
    merged = {**scale.engine_overrides(), **overrides}
    return LSMEngine(lethe_config(d_th, delete_tile_pages, **merged))


def run_engine(
    engine: LSMEngine,
    name: str,
    ingest_ops: list[tuple],
    query_ops: list[tuple],
    workload_seconds: float,
) -> RunResult:
    """Ingest, then query, then snapshot the metrics (the §5 protocol)."""
    engine.ingest(ingest_ops)
    engine.stats.reset_read_counters()
    engine.ingest(query_ops)
    return RunResult.collect(name, engine, workload_seconds)


def preload_kiwi_engine(
    scale: ExperimentScale,
    delete_tile_pages: int,
    num_entries: int | None = None,
    delete_key_mode: DeleteKeyMode = DeleteKeyMode.TIMESTAMP,
    d_th: float = 1e9,
    consolidate: bool = True,
) -> tuple[LSMEngine, WorkloadGenerator]:
    """A Lethe/KiWi engine preloaded with inserts only (no deletes).

    Used by the secondary-range-delete experiments (Fig 6H–6L), which
    measure *layout* behaviour rather than compaction policy; ``d_th`` is
    set far in the future so FADE never interferes, and ``consolidate``
    compacts the load into a clean leveled state (the paper measures on a
    preloaded, settled database) before read counters are zeroed.
    """
    spec = WorkloadSpec(
        num_inserts=num_entries or scale.num_inserts,
        update_fraction=0.0,
        delete_fraction=0.0,
        delete_key_mode=delete_key_mode,
        seed=scale.seed,
    )
    generator = WorkloadGenerator(spec)
    engine = make_lethe(
        scale,
        d_th=d_th,
        delete_tile_pages=delete_tile_pages,
        force_kiwi_layout=True,
    )
    engine.ingest(generator.ingest_operations())
    engine.flush()
    if consolidate:
        engine.force_full_compaction()
    engine.stats.reset_read_counters()
    return engine, generator


def preload_classic_engine(
    scale: ExperimentScale,
    num_entries: int | None = None,
    delete_key_mode: DeleteKeyMode = DeleteKeyMode.TIMESTAMP,
    consolidate: bool = True,
) -> tuple[LSMEngine, WorkloadGenerator]:
    """A state-of-the-art engine preloaded identically (Fig 6K baseline)."""
    spec = WorkloadSpec(
        num_inserts=num_entries or scale.num_inserts,
        update_fraction=0.0,
        delete_fraction=0.0,
        delete_key_mode=delete_key_mode,
        seed=scale.seed,
    )
    generator = WorkloadGenerator(spec)
    engine = make_baseline(scale)
    engine.ingest(generator.ingest_operations())
    engine.flush()
    if consolidate:
        engine.force_full_compaction()
    engine.stats.reset_read_counters()
    return engine, generator
