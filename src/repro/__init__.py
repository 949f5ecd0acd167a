"""repro — a reproduction of "Lethe: A Tunable Delete-Aware LSM Engine".

Sarkar, Papon, Staratzis, Athanassoulis. SIGMOD 2020 (arXiv:2006.04777).

Public API
----------

The engine facade and its two named configurations::

    from repro import LSMEngine, lethe_config, rocksdb_config

    lethe = LSMEngine.lethe(delete_persistence_threshold=60.0,
                            delete_tile_pages=8)
    lethe.put(key=42, value="payload", delete_key=1718000000)
    lethe.delete(42)
    lethe.secondary_range_delete(0, 1718000000)

Workload generation (the paper's YCSB-A-with-deletes variant)::

    from repro import WorkloadGenerator, WorkloadSpec

A partitioned cluster of engines behind the same API (routed writes,
merged scans, scatter-gather secondary deletes)::

    from repro import ShardedEngine, RangePartitioner

    cluster = ShardedEngine(lethe_config(60.0, 8), n_shards=4)
    cluster.put(42, "payload", delete_key=1718000000)
    cluster.secondary_range_delete(0, 1718000000)

Analytical cost models (Table 2) live in :mod:`repro.analysis`; the
experiment drivers behind every figure live in :mod:`repro.bench`.
"""

from repro.compaction.scheduler import (
    BackgroundScheduler,
    CompactionScheduler,
    SerialScheduler,
    make_scheduler,
)
from repro.core.clock import SimulatedClock
from repro.core.config import (
    CompactionTrigger,
    EngineConfig,
    FileSelectionMode,
    lethe_config,
    rocksdb_config,
)
from repro.core.engine import LSMEngine
from repro.core.errors import (
    CompactionError,
    ConfigError,
    KeyWeavingError,
    LetheError,
    PageFullError,
    PersistenceError,
    StorageError,
    TuningError,
    WALError,
)
from repro.core.stats import Statistics
from repro.kiwi.tuning import (
    WorkloadMix,
    best_feasible_h,
    kiwi_metadata_overhead_bytes,
    optimal_tile_granularity,
)
from repro.shard.engine import ShardedEngine
from repro.shard.parallel import AsyncIngestQueue
from repro.shard.partitioner import HashPartitioner, Partitioner, RangePartitioner
from repro.storage.entry import Entry, EntryKind, RangeTombstone
from repro.storage.persist import (
    CrashPoint,
    DurableStore,
    FaultInjector,
    SimulatedCrash,
)
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.multi_tenant import (
    MultiTenantSpec,
    MultiTenantWorkload,
    TenantSpec,
)
from repro.workloads.spec import DeleteKeyMode, WorkloadSpec

__version__ = "1.0.0"

__all__ = [
    "AsyncIngestQueue",
    "BackgroundScheduler",
    "CompactionError",
    "CompactionScheduler",
    "CompactionTrigger",
    "ConfigError",
    "CrashPoint",
    "DeleteKeyMode",
    "DurableStore",
    "EngineConfig",
    "Entry",
    "EntryKind",
    "FaultInjector",
    "FileSelectionMode",
    "HashPartitioner",
    "KeyWeavingError",
    "LSMEngine",
    "LetheError",
    "MultiTenantSpec",
    "MultiTenantWorkload",
    "PageFullError",
    "Partitioner",
    "PersistenceError",
    "RangePartitioner",
    "RangeTombstone",
    "SerialScheduler",
    "ShardedEngine",
    "SimulatedClock",
    "SimulatedCrash",
    "Statistics",
    "StorageError",
    "TenantSpec",
    "TuningError",
    "WALError",
    "WorkloadGenerator",
    "WorkloadMix",
    "WorkloadSpec",
    "best_feasible_h",
    "kiwi_metadata_overhead_bytes",
    "lethe_config",
    "make_scheduler",
    "optimal_tile_granularity",
    "rocksdb_config",
    "__version__",
]
