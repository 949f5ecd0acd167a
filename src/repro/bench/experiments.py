"""Experiment drivers: one function per figure/table of the evaluation (§5).

Every driver returns an :class:`ExperimentResult` whose ``series`` holds
the exact x→y data the corresponding paper figure plots and whose
``report`` is a printable summary. The benches under ``benchmarks/`` are
thin wrappers that execute these drivers and print the report; tests run
them at ``TEST_SCALE`` and assert the *shape* (who wins, monotonicity,
crossovers) matches the paper.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.analysis.cost_model import ModelParams, Policy
from repro.analysis.table2 import render_table2
from repro.bench.harness import (
    BENCH_SCALE,
    ExperimentScale,
    RunResult,
    make_baseline,
    make_lethe,
    preload_classic_engine,
    preload_kiwi_engine,
    run_engine,
    workload_for,
)
from repro.bench.reporting import format_series, format_table, ratio_summary
from repro.core.config import FileSelectionMode, lethe_config
from repro.core.engine import LSMEngine
from repro.shard.engine import ShardedEngine
from repro.shard.partitioner import HashPartitioner, RangePartitioner
from repro.storage.persist import FaultInjector
from repro.workloads.multi_tenant import MultiTenantSpec, MultiTenantWorkload
from repro.workloads.spec import DeleteKeyMode

# The paper sets D_th to 16.67% / 25% / 50% of the experiment run-time —
# fractions chosen against a real RocksDB whose natural tombstone retention
# exceeds 50% of the run (min-overlap file selection can starve tombstone-
# laden files indefinitely). Our simulated baseline's natural retention is
# ~15% of the run (its proportionally larger intermediate levels drain by
# Little's law within that time), so we exercise the same *regime* — D_th
# below the baseline's natural retention — with proportionally smaller
# fractions. EXPERIMENTS.md documents the mapping.
DTH_FRACTIONS = (0.03, 0.05, 0.08)
DELETE_FRACTIONS = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10)


@dataclass
class ExperimentResult:
    """Structured outcome of one experiment driver."""

    figure: str
    series: dict = field(default_factory=dict)
    report: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.report


def _delete_key_domain(
    mode: DeleteKeyMode, scale: ExperimentScale
) -> tuple[int, int]:
    """The secondary-key domain a workload's delete keys actually span."""
    if mode is DeleteKeyMode.TIMESTAMP:
        return (1, scale.num_inserts + 1)
    # UNIFORM draws from the sort-key domain; CORRELATED equals the sort key.
    return (0, 1 << 30)


# ======================================================================
# Fig 6A–6D share one sweep: {engine} × {delete fraction}
# ======================================================================


def delete_sweep(
    scale: ExperimentScale = BENCH_SCALE,
    delete_fractions: tuple[float, ...] = DELETE_FRACTIONS,
    dth_fractions: tuple[float, ...] = DTH_FRACTIONS,
) -> dict[str, dict[float, RunResult]]:
    """Run RocksDB and Lethe(D_th ∈ dth_fractions) over the delete sweep.

    Returns ``results[engine_name][delete_fraction] -> RunResult``. Every
    engine replays the identical operation list per delete fraction.
    """
    results: dict[str, dict[float, RunResult]] = {"RocksDB": {}}
    for fraction in dth_fractions:
        results[f"Lethe/{fraction:.0%}"] = {}

    for delete_fraction in delete_fractions:
        ingest_ops, query_ops, runtime = workload_for(scale, delete_fraction)
        baseline = make_baseline(scale)
        results["RocksDB"][delete_fraction] = run_engine(
            baseline, "RocksDB", ingest_ops, query_ops, runtime
        )
        for fraction in dth_fractions:
            name = f"Lethe/{fraction:.0%}"
            engine = make_lethe(
                scale,
                d_th=fraction * runtime,
                file_selection=FileSelectionMode.SD,
            )
            results[name][delete_fraction] = run_engine(
                engine, name, ingest_ops, query_ops, runtime
            )
    return results


def _sweep_figure(
    sweep: dict[str, dict[float, RunResult]],
    figure: str,
    metric: str,
    headline: str,
) -> ExperimentResult:
    engines = list(sweep.keys())
    fractions = sorted(next(iter(sweep.values())).keys())
    series = {
        engine: [getattr(sweep[engine][f], metric) for f in fractions]
        for engine in engines
    }
    rows = [
        [f"{f:.0%}"] + [_round(series[engine][i]) for engine in engines]
        for i, f in enumerate(fractions)
    ]
    report = format_table(
        ["deletes"] + engines, rows, title=f"{figure}: {headline}"
    )
    return ExperimentResult(
        figure=figure,
        series={"delete_fractions": fractions, **series},
        report=report,
    )


def _round(value: float) -> float:
    return round(value, 6)


def fig6a_space_amplification(sweep=None, scale=BENCH_SCALE) -> ExperimentResult:
    """Fig 6A: space amplification vs %deletes (Lethe 2.1–9.8× lower)."""
    sweep = sweep or delete_sweep(scale)
    return _sweep_figure(
        sweep, "Fig6A", "space_amplification", "space amplification vs %deletes"
    )


def fig6b_compaction_count(sweep=None, scale=BENCH_SCALE) -> ExperimentResult:
    """Fig 6B: #compactions vs %deletes (Lethe fewer, larger compactions)."""
    sweep = sweep or delete_sweep(scale)
    return _sweep_figure(
        sweep, "Fig6B", "compactions", "number of compactions vs %deletes"
    )


def fig6c_bytes_written(sweep=None, scale=BENCH_SCALE) -> ExperimentResult:
    """Fig 6C: total data written vs %deletes (Lethe modestly higher)."""
    sweep = sweep or delete_sweep(scale)
    return _sweep_figure(
        sweep, "Fig6C", "total_bytes_written", "total bytes written vs %deletes"
    )


def fig6d_read_throughput(sweep=None, scale=BENCH_SCALE) -> ExperimentResult:
    """Fig 6D: read throughput vs %deletes (Lethe up to 1.17–1.4× higher)."""
    sweep = sweep or delete_sweep(scale)
    return _sweep_figure(
        sweep, "Fig6D", "read_throughput", "read throughput (lookups/s) vs %deletes"
    )


# ======================================================================
# Fig 6E: tombstone age distribution
# ======================================================================


def fig6e_tombstone_ages(
    scale: ExperimentScale = BENCH_SCALE,
    delete_fraction: float = 0.10,
    dth_fractions: tuple[float, ...] = DTH_FRACTIONS,
) -> ExperimentResult:
    """Fig 6E: cumulative #tombstones vs age of containing file.

    Lethe must hold *no* tombstone in a file older than D_th; RocksDB
    retains a large fraction in old files.
    """
    ingest_ops, query_ops, runtime = workload_for(
        scale, delete_fraction, num_point_lookups=0
    )
    series: dict = {"runtime": runtime}
    rows = []
    curves: list[str] = []
    baseline = make_baseline(scale)
    baseline.ingest(ingest_ops)
    ages = baseline.tombstone_age_distribution()
    series["RocksDB"] = ages
    series["RocksDB/cumulative"] = _cumulative_curve(ages)
    curves.append(_curve_line("RocksDB", ages))
    rows.append(["RocksDB", "-", len(ages), sum(c for _, c in ages),
                 _round(max((a for a, _ in ages), default=0.0))])
    for fraction in dth_fractions:
        d_th = fraction * runtime
        engine = make_lethe(
            scale, d_th=d_th, file_selection=FileSelectionMode.SD
        )
        engine.ingest(ingest_ops)
        ages = engine.tombstone_age_distribution()
        name = f"Lethe/{fraction:.0%}"
        series[name] = ages
        series[f"{name}/cumulative"] = _cumulative_curve(ages)
        series[f"{name}/d_th"] = d_th
        curves.append(_curve_line(name, ages))
        rows.append([name, _round(d_th), len(ages), sum(c for _, c in ages),
                     _round(max((a for a, _ in ages), default=0.0))])
    report = format_table(
        ["engine", "D_th (s)", "files w/ tombstones", "tombstones on disk",
         "oldest tombstone-file age (s)"],
        rows,
        title="Fig6E: tombstone age distribution at snapshot",
    )
    report += "\ncumulative #tombstones vs age (the paper's curve):\n"
    report += "\n".join(curves)
    return ExperimentResult(figure="Fig6E", series=series, report=report)


def _cumulative_curve(ages: list[tuple[float, int]]) -> list[tuple[float, int]]:
    """Cumulative tombstone count by increasing age — Fig 6E's y-axis."""
    curve: list[tuple[float, int]] = []
    running = 0
    for age, count in ages:  # ages are sorted ascending
        running += count
        curve.append((age, running))
    return curve


def _curve_line(name: str, ages: list[tuple[float, int]]) -> str:
    curve = _cumulative_curve(ages)
    if not curve:
        return f"  {name}: (no tombstones on disk)"
    sampled = curve[:: max(1, len(curve) // 8)]
    if sampled[-1] != curve[-1]:
        sampled.append(curve[-1])
    points = ", ".join(f"{age:.2f}s→{total}" for age, total in sampled)
    return f"  {name}: {points}"


# ======================================================================
# Fig 6F: write-amplification amortization over time
# ======================================================================


def fig6f_write_amortization(
    scale: ExperimentScale = BENCH_SCALE,
    num_snapshots: int = 5,
    delete_fraction: float = 0.05,
) -> ExperimentResult:
    """Fig 6F: Lethe's bytes written, normalized to RocksDB, per snapshot.

    The paper sets D_th to 1/15 of the run and snapshots every 180 s of a
    900 s run: early eager merging costs ~1.4×, amortizing to ~1.007×.
    """
    ingest_ops, _query_ops, runtime = workload_for(
        scale, delete_fraction, num_point_lookups=0
    )
    d_th = runtime / 15.0
    chunk = max(1, -(-len(ingest_ops) // num_snapshots))  # ceil division
    baseline = make_baseline(scale)
    lethe = make_lethe(scale, d_th=d_th)
    times: list[float] = []
    normalized: list[float] = []
    for start in range(0, len(ingest_ops), chunk):
        ops = ingest_ops[start : start + chunk]
        baseline.ingest(ops)
        lethe.ingest(ops)
        base_bytes = baseline.stats.total_bytes_written
        lethe_bytes = lethe.stats.total_bytes_written
        times.append(lethe.clock.now)
        normalized.append(lethe_bytes / base_bytes if base_bytes else 1.0)
    report = format_series(
        "Fig6F normalized bytes written (Lethe / RocksDB) over time",
        [f"{t:.1f}s" for t in times],
        [f"{n:.3f}" for n in normalized],
    )
    return ExperimentResult(
        figure="Fig6F",
        series={"times": times, "normalized_bytes_written": normalized,
                "d_th": d_th},
        report=report,
    )


# ======================================================================
# Fig 6G: latency scaling with data size
# ======================================================================


def fig6g_latency_scaling(
    scale: ExperimentScale = BENCH_SCALE,
    size_multipliers: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0),
) -> ExperimentResult:
    """Fig 6G: avg write / mixed latency vs data size.

    Write latency: simulated I/O time per write op on a write-only load.
    Mixed latency: I/O+hash time per op on YCSB-A (50% update, 50% read).
    Lethe writes are 0.1–3% slower; mixed is 0.5–4% faster.
    """
    sizes: list[int] = []
    series: dict[str, list[float]] = {
        "write-RocksDB": [], "write-Lethe": [],
        "mixed-RocksDB": [], "mixed-Lethe": [],
    }
    for multiplier in size_multipliers:
        inserts = max(512, int(scale.num_inserts * multiplier))
        sizes.append(inserts * 1024)  # bytes at E=1KB
        local = ExperimentScale(
            num_inserts=inserts,
            num_point_lookups=0,
            buffer_pages=scale.buffer_pages,
            page_entries=scale.page_entries,
            file_pages=scale.file_pages,
            seed=scale.seed,
        )
        ingest_ops, _q, runtime = workload_for(local, delete_fraction=0.05)
        d_th = 0.05 * runtime  # inside the binding regime (see DTH_FRACTIONS)
        for name, factory in (
            ("RocksDB", lambda: make_baseline(local)),
            ("Lethe", lambda: make_lethe(local, d_th=d_th)),
        ):
            write_engine = factory()
            write_engine.ingest(op for op in ingest_ops if op[0] != "get")
            write_ops = sum(1 for op in ingest_ops if op[0] != "get")
            write_latency = (
                write_engine.stats.simulated_io_seconds() / max(1, write_ops)
            )
            series[f"write-{name}"].append(write_latency * 1e3)  # ms

            mixed_engine = factory()
            rng = random.Random(local.seed + 1)
            mixed_ops = 0
            for op in ingest_ops:
                mixed_engine.ingest([op])
                mixed_ops += 1
                inserted = mixed_engine._key_bounds
                if inserted is not None and rng.random() < 0.5:
                    lo, hi = inserted
                    mixed_engine.get(rng.randint(lo, hi))
                    mixed_ops += 1
            mixed_latency = (
                mixed_engine.stats.simulated_io_seconds()
                + mixed_engine.stats.simulated_hash_seconds()
            ) / max(1, mixed_ops)
            series[f"mixed-{name}"].append(mixed_latency * 1e3)  # ms

    rows = [
        [sizes[i]] + [_round(series[key][i]) for key in series]
        for i in range(len(sizes))
    ]
    report = format_table(
        ["data size (bytes)"] + list(series.keys()),
        rows,
        title="Fig6G: average latency (ms) vs data size",
    )
    return ExperimentResult(
        figure="Fig6G", series={"sizes": sizes, **series}, report=report
    )


# ======================================================================
# Fig 6H: full page drops vs delete fraction, per tile granularity
# ======================================================================


def fig6h_page_drops(
    scale: ExperimentScale = BENCH_SCALE,
    h_values: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    selectivities: tuple[float, ...] = (0.01, 0.02, 0.03, 0.04, 0.05),
) -> ExperimentResult:
    """Fig 6H: % of qualifying pages fully dropped, per (h, selectivity).

    Larger tiles → more full drops; larger delete fractions → fewer,
    because boundary pages are a larger share of the affected range.
    """
    series: dict = {"h_values": list(h_values), "selectivities": list(selectivities)}
    rows = []
    for h in h_values:
        file_pages = max(scale.file_pages, h)
        local_scale = ExperimentScale(
            num_inserts=scale.num_inserts,
            buffer_pages=scale.buffer_pages,
            page_entries=scale.page_entries,
            file_pages=file_pages,
            seed=scale.seed,
        )
        engine, _gen = preload_kiwi_engine(
            local_scale, delete_tile_pages=h,
            delete_key_mode=DeleteKeyMode.UNIFORM,
        )
        d_lo, d_hi = _delete_key_domain(DeleteKeyMode.UNIFORM, scale)
        span = d_hi - d_lo
        drops = []
        for selectivity in selectivities:
            width = max(1, int(span * selectivity))
            start = d_lo + int(span * 0.4)
            full, partial, _total = engine.preview_secondary_delete(
                start, start + width
            )
            touched = full + partial
            drops.append(100.0 * full / touched if touched else 0.0)
        series[f"h={h}"] = drops
        rows.append([h] + [f"{d:.1f}%" for d in drops])
    report = format_table(
        ["h"] + [f"{s:.0%} deleted" for s in selectivities],
        rows,
        title="Fig6H: % full page drops vs fraction deleted",
    )
    return ExperimentResult(figure="Fig6H", series=series, report=report)


# ======================================================================
# Fig 6I: lookup cost vs tile granularity
# ======================================================================


def fig6i_lookup_cost(
    scale: ExperimentScale = BENCH_SCALE,
    h_values: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
    num_lookups: int = 400,
) -> ExperimentResult:
    """Fig 6I: avg point-lookup I/Os vs h (zero and non-zero result).

    Zero-result lookups cost ``O(h·FPR)`` extra false-positive page reads;
    non-zero lookups pay the one true read plus the same FP overhead —
    both grow linearly with h.
    """
    series: dict = {"h_values": list(h_values)}
    nonzero_costs = []
    zero_costs = []
    for h in h_values:
        file_pages = max(scale.file_pages, h)
        local_scale = ExperimentScale(
            num_inserts=scale.num_inserts,
            buffer_pages=scale.buffer_pages,
            page_entries=scale.page_entries,
            file_pages=file_pages,
            seed=scale.seed,
        )
        engine, generator = preload_kiwi_engine(local_scale, delete_tile_pages=h)
        rng = random.Random(scale.seed + 2)
        inserted = generator.inserted_keys

        engine.stats.reset_read_counters()
        for _ in range(num_lookups):
            engine.get(inserted[rng.randrange(len(inserted))])
        nonzero_costs.append(engine.stats.average_lookup_ios())

        engine.stats.reset_read_counters()
        inserted_set = set(inserted)
        lo, hi = 0, 1 << 30  # inside the key domain, but absent keys
        issued = 0
        while issued < num_lookups:
            key = rng.randint(lo, hi)
            if key in inserted_set:
                continue
            engine.get(key)
            issued += 1
        zero_costs.append(engine.stats.average_lookup_ios())
    series["nonzero_result"] = nonzero_costs
    series["zero_result"] = zero_costs
    rows = [
        [h, _round(nonzero_costs[i]), _round(zero_costs[i])]
        for i, h in enumerate(h_values)
    ]
    report = format_table(
        ["h", "non-zero result (I/Os)", "zero result (I/Os)"],
        rows,
        title="Fig6I: avg lookup cost vs delete-tile granularity",
    )
    return ExperimentResult(figure="Fig6I", series=series, report=report)


# ======================================================================
# Fig 6J: optimal layout vs secondary-delete selectivity
# ======================================================================


def fig6j_optimal_layout(
    scale: ExperimentScale = BENCH_SCALE,
    h_values: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    selectivities: tuple[float, ...] = (0.01, 0.02, 0.03, 0.04, 0.05),
    lookups_per_srd: float | None = None,
) -> ExperimentResult:
    """Fig 6J: avg I/Os per operation vs selectivity, per h.

    Composes measured unit costs — point-lookup I/Os per h (Fig 6I
    machinery) and secondary-range-delete I/Os per (h, selectivity) — at a
    fixed lookup:SRD frequency ratio. The paper uses 1 SRD per 0.1 M
    lookups on a 10^8-page database; we keep the *relative weight*
    (SRD pages per lookup) comparable by scaling the ratio with tree size,
    so the crossover structure survives the scale-down.
    """
    series: dict = {
        "h_values": list(h_values),
        "selectivities": list(selectivities),
    }
    lookup_cost: dict[int, float] = {}
    srd_cost: dict[tuple[int, float], float] = {}
    total_pages = None
    rng = random.Random(scale.seed + 3)
    for h in h_values:
        file_pages = max(scale.file_pages, h)
        local_scale = ExperimentScale(
            num_inserts=scale.num_inserts,
            buffer_pages=scale.buffer_pages,
            page_entries=scale.page_entries,
            file_pages=file_pages,
            seed=scale.seed,
        )
        engine, generator = preload_kiwi_engine(
            local_scale, delete_tile_pages=h, delete_key_mode=DeleteKeyMode.UNIFORM
        )
        total_pages = sum(f.num_pages for f in engine.tree.all_files())
        inserted = generator.inserted_keys
        engine.stats.reset_read_counters()
        for _ in range(300):
            engine.get(inserted[rng.randrange(len(inserted))])
        lookup_cost[h] = engine.stats.average_lookup_ios()
        d_lo_dom, d_hi_dom = _delete_key_domain(DeleteKeyMode.UNIFORM, scale)
        span = d_hi_dom - d_lo_dom
        for selectivity in selectivities:
            width = max(1, int(span * selectivity))
            start = d_lo_dom + int(span * 0.4)
            full, partial, _ = engine.preview_secondary_delete(start, start + width)
            # Partial drops cost one read plus one write each.
            srd_cost[(h, selectivity)] = 2.0 * partial
    if lookups_per_srd is None:
        # Paper-equivalent weighting: on the paper's preloaded database a
        # classic-layout SRD costs ~2·pages I/Os and the 10^-6 SRD:lookup
        # ratio makes that contribute ~0.5 I/O per operation. Scaling the
        # ratio with our page count keeps that relative weight, so the
        # crossover structure survives the scale-down.
        lookups_per_srd = max(1.0, (total_pages or 1) / 2.0)
    rows = []
    per_h: dict[int, list[float]] = {h: [] for h in h_values}
    for selectivity in selectivities:
        row = [f"{selectivity:.0%}"]
        for h in h_values:
            average = (
                lookups_per_srd * lookup_cost[h] + srd_cost[(h, selectivity)]
            ) / (lookups_per_srd + 1)
            per_h[h].append(average)
            row.append(_round(average))
        best = min(h_values, key=lambda h: per_h[h][-1])
        row.append(best)
        rows.append(row)
    series.update({f"h={h}": per_h[h] for h in h_values})
    series["optimal_h"] = [
        min(h_values, key=lambda h: per_h[h][i]) for i in range(len(selectivities))
    ]
    report = format_table(
        ["selectivity"] + [f"h={h}" for h in h_values] + ["optimal h"],
        rows,
        title="Fig6J: avg I/Os per operation vs secondary-delete selectivity",
    )
    return ExperimentResult(figure="Fig6J", series=series, report=report)


# ======================================================================
# Fig 6K: CPU vs I/O trade-off
# ======================================================================


def fig6k_cpu_io_tradeoff(
    scale: ExperimentScale = BENCH_SCALE,
    h_values: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    num_queries: int = 600,
) -> ExperimentResult:
    """Fig 6K: total hashing time vs I/O time per tile granularity.

    Workload of §5.2: point queries, a few short range queries, and one
    secondary range delete removing 1/7 of the database (the "delete data
    older than 7 days" pattern). Hashing cost grows linearly with h but is
    three orders of magnitude cheaper than page I/O, so larger tiles win
    overall until lookups dominate.
    """
    series: dict = {"h_values": list(h_values)}
    rows = []
    io_seconds = []
    hash_seconds = []

    def _measure(engine, generator) -> tuple[float, float]:
        inserted = generator.inserted_keys
        rng = random.Random(scale.seed + 4)
        before_io = engine.stats.simulated_io_seconds()
        before_hash = engine.stats.simulated_hash_seconds()
        # 50% point queries / 1% range queries against the query budget.
        for _ in range(num_queries):
            engine.get(inserted[rng.randrange(len(inserted))])
        for _ in range(max(1, num_queries // 50)):
            start = inserted[rng.randrange(len(inserted))]
            engine.scan(start, start + 1000)
        # One secondary range delete of 1/7th of the delete-key domain
        # ("delete all data older than 7 days").
        d_lo_dom, d_hi_dom = _delete_key_domain(DeleteKeyMode.UNIFORM, scale)
        engine.secondary_range_delete(
            d_lo_dom, d_lo_dom + max(1, (d_hi_dom - d_lo_dom) // 7)
        )
        return (
            engine.stats.simulated_io_seconds() - before_io,
            engine.stats.simulated_hash_seconds() - before_hash,
        )

    baseline_engine, baseline_gen = preload_classic_engine(
        scale, delete_key_mode=DeleteKeyMode.UNIFORM
    )
    base_io, base_hash = _measure(baseline_engine, baseline_gen)
    rows.append(["RocksDB", f"{base_io*1e3:.3f}", f"{base_hash*1e6:.2f}",
                 f"{(base_io + base_hash)*1e3:.3f}"])
    series["rocksdb_io_seconds"] = base_io
    series["rocksdb_hash_seconds"] = base_hash

    for h in h_values:
        file_pages = max(scale.file_pages, h)
        local_scale = ExperimentScale(
            num_inserts=scale.num_inserts,
            buffer_pages=scale.buffer_pages,
            page_entries=scale.page_entries,
            file_pages=file_pages,
            seed=scale.seed,
        )
        engine, generator = preload_kiwi_engine(
            local_scale, delete_tile_pages=h, delete_key_mode=DeleteKeyMode.UNIFORM
        )
        io_s, hash_s = _measure(engine, generator)
        io_seconds.append(io_s)
        hash_seconds.append(hash_s)
        rows.append([f"Lethe h={h}", f"{io_s*1e3:.3f}", f"{hash_s*1e6:.2f}",
                     f"{(io_s + hash_s)*1e3:.3f}"])
    series["io_seconds"] = io_seconds
    series["hash_seconds"] = hash_seconds
    best_h = h_values[min(range(len(h_values)),
                          key=lambda i: io_seconds[i] + hash_seconds[i])]
    series["optimal_h"] = best_h
    report = format_table(
        ["engine", "I/O time (ms)", "hash time (µs)", "total (ms)"],
        rows,
        title=f"Fig6K: CPU vs I/O trade-off (optimal h = {best_h})",
    )
    return ExperimentResult(figure="Fig6K", series=series, report=report)


# ======================================================================
# Fig 6L: sort/delete key correlation
# ======================================================================


def fig6l_correlation(
    scale: ExperimentScale = BENCH_SCALE,
    h_values: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    delete_selectivity: float = 0.10,
    num_range_queries: int = 100,
) -> ExperimentResult:
    """Fig 6L: correlation between S and D decides whether tiles help.

    With no correlation, growing h raises the full-page-drop share (range
    deletes get cheap) at the cost of range-query I/Os. With correlation
    ≈ 1, qualifying entries are already clustered in S-order: the classic
    layout (h = 1) is optimal and tiles buy nothing.
    """
    series: dict = {"h_values": list(h_values)}
    rows = []
    for mode, label in (
        (DeleteKeyMode.UNIFORM, "no correlation"),
        (DeleteKeyMode.CORRELATED, "cor = 1"),
    ):
        full_drop_pct = []
        range_query_cost = []
        for h in h_values:
            file_pages = max(scale.file_pages, h)
            local_scale = ExperimentScale(
                num_inserts=scale.num_inserts,
                buffer_pages=scale.buffer_pages,
                page_entries=scale.page_entries,
                file_pages=file_pages,
                seed=scale.seed,
            )
            engine, generator = preload_kiwi_engine(
                local_scale, delete_tile_pages=h, delete_key_mode=mode
            )
            d_lo_dom, d_hi_dom = _delete_key_domain(mode, scale)
            width = max(1, int((d_hi_dom - d_lo_dom) * delete_selectivity))
            d_start = d_lo_dom + (d_hi_dom - d_lo_dom) // 3
            d_end = d_start + width
            full, partial, total = engine.preview_secondary_delete(d_start, d_end)
            full_drop_pct.append(100.0 * full / total if total else 0.0)

            rng = random.Random(scale.seed + 5)
            inserted = generator.inserted_keys
            engine.stats.reset_read_counters()
            for _ in range(num_range_queries):
                start = inserted[rng.randrange(len(inserted))]
                engine.scan(start, start + 500)
            pages = engine.stats.lookup_pages_read / num_range_queries
            range_query_cost.append(pages)
        series[f"{label}/full_drop_pct"] = full_drop_pct
        series[f"{label}/range_query_cost"] = range_query_cost
        for i, h in enumerate(h_values):
            rows.append(
                [label, h, f"{full_drop_pct[i]:.1f}%", _round(range_query_cost[i])]
            )
    report = format_table(
        ["workload", "h", "% pages full-dropped", "range query I/Os"],
        rows,
        title="Fig6L: effect of sort/delete key correlation",
    )
    return ExperimentResult(figure="Fig6L", series=series, report=report)


# ======================================================================
# Table 2 and Figure 1
# ======================================================================


def table2_cost_model() -> ExperimentResult:
    """Table 2: the analytical comparison at Table 1 reference values."""
    leveled = render_table2(ModelParams(), Policy.LEVELING)
    tiered = render_table2(ModelParams(), Policy.TIERING)
    report = (
        "Table 2 (leveling)\n" + leveled + "\n\nTable 2 (tiering)\n" + tiered
    )
    return ExperimentResult(figure="Table2", series={}, report=report)


def fig1_summary(
    scale: ExperimentScale = BENCH_SCALE, delete_fraction: float = 0.10
) -> ExperimentResult:
    """Fig 1: the qualitative positioning, derived from measured numbers.

    One run per engine at 10% deletes; reports the six radar axes of
    Fig 1A: lookup cost, delete persistence, space amp, write amp,
    memory footprint, update cost.
    """
    ingest_ops, query_ops, runtime = workload_for(scale, delete_fraction)
    d_th = 0.05 * runtime  # inside the binding regime (see DTH_FRACTIONS)
    baseline = run_engine(
        make_baseline(scale), "RocksDB", ingest_ops, query_ops, runtime
    )
    lethe = run_engine(
        make_lethe(scale, d_th=d_th, file_selection=FileSelectionMode.SD),
        "Lethe", ingest_ops, query_ops, runtime,
    )
    base_persist = baseline.engine.max_tombstone_file_age()
    lethe_persist = lethe.engine.max_tombstone_file_age()
    lines = [
        "Fig1: state of the art vs Lethe (measured, 10% deletes)",
        ratio_summary("lookup cost (I/Os)", lethe.avg_lookup_ios,
                      baseline.avg_lookup_ios),
        ratio_summary("space amplification", lethe.space_amplification,
                      baseline.space_amplification),
        ratio_summary("write amplification", lethe.write_amplification,
                      baseline.write_amplification) + "  [Lethe pays here]",
        f"delete persistence: Lethe oldest tombstone-file age "
        f"{lethe_persist:.2f}s (D_th={d_th:.2f}s) vs RocksDB "
        f"{base_persist:.2f}s (unbounded)",
    ]
    return ExperimentResult(
        figure="Fig1",
        series={
            "lethe_lookup_ios": lethe.avg_lookup_ios,
            "baseline_lookup_ios": baseline.avg_lookup_ios,
            "lethe_samp": lethe.space_amplification,
            "baseline_samp": baseline.space_amplification,
            "lethe_wamp": lethe.write_amplification,
            "baseline_wamp": baseline.write_amplification,
            "lethe_persistence_age": lethe_persist,
            "baseline_persistence_age": base_persist,
            "d_th": d_th,
        },
        report="\n".join(lines),
    )


# ======================================================================
# Shard scaling: 1 vs N partitioned engines on one skewed stream
# ======================================================================


def shard_scaling(
    scale: ExperimentScale = BENCH_SCALE,
    shard_counts: tuple[int, ...] = (1, 2, 4),
    n_tenants: int = 8,
    skew: float = 2.0,
    purge_fraction: float = 0.25,
    executor: str = "serial",
) -> ExperimentResult:
    """Partitioned Lethe: ingest throughput and scatter-gather SRD cost.

    One skewed multi-tenant stream (geometric tenant popularity) replays
    against hash-partitioned clusters of 1, 2, and 4 KiWi shards, then a
    time-window purge (``secondary_range_delete`` over the oldest
    ``purge_fraction`` of timestamps) scatter-gathers across every shard.
    Reported per cluster: wall-clock ingest throughput, cluster write/space
    amplification, the purge's page bill, and the shard balance; plus a
    per-shard breakdown of the largest cluster under hash *and*
    quantile-cut range partitioning (what :meth:`ShardedEngine.rebalance`
    would produce for this stream).
    """
    spec = MultiTenantSpec.skewed(
        n_tenants=n_tenants,
        skew=skew,
        num_inserts=scale.num_inserts,
        num_point_lookups=scale.num_point_lookups,
        seed=scale.seed,
    )
    workload = MultiTenantWorkload(spec)
    ingest_ops = list(workload.ingest_operations())
    query_ops = list(workload.query_operations())
    purge_lo, purge_hi = workload.retention_window(purge_fraction)
    config = lethe_config(
        1e9,  # D_th far away: this experiment isolates layout + sharding
        delete_tile_pages=4,
        force_kiwi_layout=True,
        **scale.engine_overrides(),
    )

    def run_cluster(cluster: ShardedEngine) -> dict:
        started = time.perf_counter()
        cluster.ingest(ingest_ops)
        cluster.flush()
        ingest_wall = time.perf_counter() - started
        purge_report = cluster.secondary_range_delete(purge_lo, purge_hi)
        for shard in cluster.shards:
            shard.stats.reset_read_counters()
        cluster.ingest(query_ops)
        stats = cluster.stats
        # Release pooled worker threads; the later per-shard breakdown
        # only reads counters (and a pooled executor self-heals if used
        # again).
        cluster.executor.close()
        return {
            "ingest_ops_per_s": len(ingest_ops) / ingest_wall,
            "write_amplification": cluster.write_amplification(),
            "space_amplification": cluster.space_amplification(),
            "srd_pages": purge_report.pages_read + purge_report.pages_written,
            "srd_full_drops": purge_report.full_page_drops,
            "avg_lookup_ios": stats.average_lookup_ios(),
            "entry_counts": cluster.shard_entry_counts(),
            "cluster": cluster,
        }

    results = {
        n: run_cluster(
            ShardedEngine(
                config, partitioner=HashPartitioner(n), executor=executor
            )
        )
        for n in shard_counts
    }
    largest = max(shard_counts)
    range_cluster = ShardedEngine(
        config,
        partitioner=RangePartitioner.from_keys(
            [op[1] for op in ingest_ops if op[0] == "put"], largest
        ),
        executor=executor,
    )
    range_result = run_cluster(range_cluster)

    rows = [
        [
            n,
            _round(res["ingest_ops_per_s"]),
            _round(res["write_amplification"]),
            _round(res["space_amplification"]),
            res["srd_pages"],
            res["srd_full_drops"],
            _round(res["avg_lookup_ios"]),
            f"{min(res['entry_counts'])}..{max(res['entry_counts'])}",
        ]
        for n, res in results.items()
    ]
    rows.append(
        [
            f"{largest}R",
            _round(range_result["ingest_ops_per_s"]),
            _round(range_result["write_amplification"]),
            _round(range_result["space_amplification"]),
            range_result["srd_pages"],
            range_result["srd_full_drops"],
            _round(range_result["avg_lookup_ios"]),
            f"{min(range_result['entry_counts'])}.."
            f"{max(range_result['entry_counts'])}",
        ]
    )
    aggregate = format_table(
        ["shards", "ingest ops/s", "wamp", "samp", "SRD pages", "full drops",
         "lookup I/Os", "entries/shard"],
        rows,
        title=(
            f"Shard scaling ({n_tenants} tenants, skew {skew}; "
            f"purge = oldest {purge_fraction:.0%} of timestamps; "
            f"{largest}R = range-partitioned; {executor} executor)"
        ),
    )
    per_shard_rows = []
    for label, res in (("hash", results[largest]), ("range", range_result)):
        for index, (shard, stats) in enumerate(
            zip(res["cluster"].shards, res["cluster"].shard_stats())
        ):
            per_shard_rows.append(
                [
                    f"{label}/{index}",
                    res["entry_counts"][index],
                    stats.compactions,
                    stats.pages_written,
                    stats.srd_pages_read + stats.srd_pages_written,
                ]
            )
    breakdown = format_table(
        ["shard", "entries", "compactions", "pages written", "SRD pages"],
        per_shard_rows,
        title=f"Per-shard breakdown at {largest} shards (hash vs range)",
    )
    return ExperimentResult(
        figure="ShardScaling",
        series={
            "shards": list(shard_counts),
            "ingest_ops_per_s": [
                results[n]["ingest_ops_per_s"] for n in shard_counts
            ],
            "write_amplification": [
                results[n]["write_amplification"] for n in shard_counts
            ],
            "space_amplification": [
                results[n]["space_amplification"] for n in shard_counts
            ],
            "srd_pages": [results[n]["srd_pages"] for n in shard_counts],
            "srd_full_drops": [
                results[n]["srd_full_drops"] for n in shard_counts
            ],
            "avg_lookup_ios": [
                results[n]["avg_lookup_ios"] for n in shard_counts
            ],
            "entry_counts": {
                n: results[n]["entry_counts"] for n in shard_counts
            },
            "range_entry_counts": range_result["entry_counts"],
            "range_srd_pages": range_result["srd_pages"],
        },
        report=aggregate + "\n\n" + breakdown,
    )


# ======================================================================
# Parallel scaling: serial vs pooled fan-out, sync vs pipelined ingest
# ======================================================================


def parallel_scaling(
    scale: ExperimentScale = BENCH_SCALE,
    shard_counts: tuple[int, ...] = (1, 2, 4, 8),
    real_io_seconds: float = 200e-6,
    num_scans: int = 4,
    num_secondary_lookups: int = 4,
    purge_fraction: float = 0.25,
    queue_depth: int = 4,
    ingest_sample: int | None = 2000,
) -> ExperimentResult:
    """Wall-clock speedup from pooled shard execution + the ingest queue.

    Independent trees are embarrassingly parallel — Lethe's FADE/KiWi
    costs are all per-tree — but PR 1 fanned every multi-shard operation
    out in a Python ``for`` loop, so the per-shard work reduction never
    became wall-clock speedup. This experiment measures the fix. The
    device model matters: page I/O waits (``real_io_seconds``, served via
    ``time.sleep``) release the GIL, so a thread pool overlaps the
    shards' device time exactly as a deployment overlaps requests to
    independent disks; the pure-Python merging stays serialized.

    Protocol, per shard count and per executor: preload the multi-tenant
    stream at zero device latency, switch every shard's disk to the real
    latency model, then time a fan-out phase (cross-shard scans,
    scatter-gather secondary lookups, a time-window purge, a cluster
    flush). Serial and pooled clusters replay identical work and must
    return identical results. A second measurement times synchronous vs
    pipelined ``ingest`` (bounded :class:`~repro.shard.parallel.
    AsyncIngestQueue`) at the largest shard count with the device model
    active, streaming with a small ``max_batch`` so batches actually
    pipeline.
    """
    spec = MultiTenantSpec.skewed(
        n_tenants=8,
        skew=2.0,
        num_inserts=scale.num_inserts,
        num_point_lookups=0,
        seed=scale.seed,
    )
    workload = MultiTenantWorkload(spec)
    ingest_ops = list(workload.ingest_operations())
    purge_lo, purge_hi = workload.retention_window(purge_fraction)
    config = lethe_config(
        1e9,  # D_th far away: this experiment isolates dispatch strategy
        delete_tile_pages=4,
        force_kiwi_layout=True,
        **scale.engine_overrides(),
    )
    put_keys = [op[1] for op in ingest_ops if op[0] == "put"]
    key_lo, key_hi = min(put_keys), max(put_keys)
    d_keys = [op[3] for op in ingest_ops if op[0] == "put" and op[3] is not None]
    d_lo, d_hi = min(d_keys), max(d_keys)
    d_span = max(1, d_hi - d_lo)

    def fan_out_phase(cluster: ShardedEngine) -> tuple[float, tuple]:
        """The timed multi-shard workload; returns (wall_s, checksum)."""
        started = time.perf_counter()
        scan_sizes = []
        for _ in range(num_scans):
            scan_sizes.append(len(cluster.scan(key_lo, key_hi)))
        lookup_sizes = []
        for step in range(num_secondary_lookups):
            window_lo = d_lo + (step * d_span) // (num_secondary_lookups + 1)
            window_hi = window_lo + d_span // 10
            lookup_sizes.append(
                len(cluster.secondary_range_lookup(window_lo, window_hi))
            )
        purge = cluster.secondary_range_delete(purge_lo, purge_hi)
        after = cluster.scan(key_lo, key_hi)
        cluster.flush()
        wall = time.perf_counter() - started
        checksum = (
            tuple(scan_sizes),
            tuple(lookup_sizes),
            purge.entries_dropped,
            len(after),
            hash(tuple(after)),
        )
        return wall, checksum

    def measure(n: int, executor: str) -> float:
        cluster = ShardedEngine(
            config, partitioner=HashPartitioner(n), executor=executor
        )
        cluster.ingest(ingest_ops)
        cluster.flush()
        for shard in cluster.shards:
            shard.disk.real_io_seconds = real_io_seconds
        wall, checksum = fan_out_phase(cluster)
        checksums.setdefault(n, checksum)
        if checksums[n] != checksum:
            raise AssertionError(
                f"executor changed results at {n} shards: "
                f"{checksums[n]} != {checksum}"
            )
        cluster.executor.close()
        return wall

    checksums: dict[int, tuple] = {}
    serial_walls = [measure(n, "serial") for n in shard_counts]
    pooled_walls = [measure(n, "pooled") for n in shard_counts]
    speedups = [s / p if p > 0 else 0.0 for s, p in zip(serial_walls, pooled_walls)]

    # --- pipelined vs synchronous ingest at the largest shard count ----
    largest = max(shard_counts)
    sample = ingest_ops if ingest_sample is None else ingest_ops[:ingest_sample]
    latency_config = config.with_updates(real_io_seconds=real_io_seconds)

    def measure_ingest(pipelined: bool) -> float:
        cluster = ShardedEngine(
            latency_config,
            partitioner=HashPartitioner(largest),
            max_batch=64,  # stream small batches so the queue pipelines
            ingest_queue_depth=queue_depth,
        )
        started = time.perf_counter()
        cluster.ingest(sample, pipelined=pipelined)
        cluster.flush()
        return time.perf_counter() - started

    sync_ingest_wall = measure_ingest(pipelined=False)
    queued_ingest_wall = measure_ingest(pipelined=True)
    ingest_speedup = (
        sync_ingest_wall / queued_ingest_wall if queued_ingest_wall > 0 else 0.0
    )

    rows = [
        [
            n,
            f"{serial_walls[i]:.3f}",
            f"{pooled_walls[i]:.3f}",
            f"{speedups[i]:.2f}x",
            "yes",
        ]
        for i, n in enumerate(shard_counts)
    ]
    report = format_table(
        ["shards", "serial fan-out (s)", "pooled fan-out (s)", "speedup",
         "identical results"],
        rows,
        title=(
            f"Parallel scaling (device latency {real_io_seconds*1e6:.0f} "
            f"µs/page; {num_scans} scans + {num_secondary_lookups} secondary "
            f"lookups + purge + flush per run)"
        ),
    )
    report += (
        f"\n\nAsync ingest queue at {largest} shards "
        f"(depth {queue_depth}, max_batch 64, {len(sample)} ops, device "
        f"latency on):\n"
        f"  synchronous ingest: {sync_ingest_wall:.3f}s  "
        f"({len(sample)/sync_ingest_wall:.0f} ops/s)\n"
        f"  pipelined ingest:   {queued_ingest_wall:.3f}s  "
        f"({len(sample)/queued_ingest_wall:.0f} ops/s)\n"
        f"  speedup:            {ingest_speedup:.2f}x"
    )
    return ExperimentResult(
        figure="ParallelScaling",
        series={
            "shards": list(shard_counts),
            "serial_wall_seconds": serial_walls,
            "pooled_wall_seconds": pooled_walls,
            "speedups": speedups,
            "real_io_seconds": real_io_seconds,
            "sync_ingest_wall": sync_ingest_wall,
            "queued_ingest_wall": queued_ingest_wall,
            "ingest_speedup": ingest_speedup,
        },
        report=report,
    )


# ======================================================================
# WAL: group-commit policy sweep + serial vs pooled shard recovery
# ======================================================================


def wal_experiment(
    scale: ExperimentScale = BENCH_SCALE,
    policies: tuple[str, ...] = (
        "every_op",
        "group(16)",
        "interval(20)",
        "unsafe_none",
    ),
    shard_counts: tuple[int, ...] = (1, 2, 4),
    real_io_seconds: float = 400e-6,
    delete_fraction: float = 0.05,
    wal_tail: int = 200,
    quick: bool = False,
) -> ExperimentResult:
    """The durability hot path, measured (ROADMAP "durability follow-ups").

    Two sweeps:

    * **Ingest throughput vs commit policy** — one durable engine per
      :class:`~repro.lsm.wal.CommitPolicy` spec replays the identical
      delete-heavy stream with ``fsync`` on. ``every_op`` pays one
      physical append (and fsync) per operation; ``group(n)`` and
      ``interval(ms)`` amortize them over batches; ``unsafe_none`` only
      drains at flush commits. Every run ends with ``sync()`` so all
      acknowledged work is durable before the clock stops, and all runs
      must recover to the identical read surface.
    * **Recovery wall-clock vs shard count, serial vs pooled** — one
      durable cluster per shard count holds the same total data; the
      persisted config carries ``real_io_seconds``, so every recovery
      waits on the device for each page it loads (preload runs with the
      device model switched off). ``ShardedEngine.open`` dispatches
      member recoveries through the executor: pooled recovery overlaps
      the shards' device waits and must recover identical state.
    """
    import shutil as _shutil
    import tempfile as _tempfile

    if quick:
        policies = tuple(p for p in policies if p != "interval(20)")
        shard_counts = tuple(n for n in shard_counts if n in (1, max(shard_counts)))

    ingest_ops, _query_ops, runtime = workload_for(
        scale, delete_fraction, num_point_lookups=0
    )
    d_th = max(0.05 * runtime, 1e-3)
    put_keys = [op[1] for op in ingest_ops if op[0] == "put"]
    key_lo, key_hi = min(put_keys), max(put_keys)
    sample_keys = sorted(set(put_keys))[::97]

    # --- Part A: ingest throughput vs commit policy (fsync on) ---------
    policy_rows = []
    policy_series: dict = {
        "policies": list(policies),
        "ingest_ops_per_s": [],
        "durable_writes": [],
        "writes_per_op": [],
    }
    surfaces: dict[str, dict] = {}
    for policy in policies:
        workdir = _tempfile.mkdtemp(prefix="lethe-wal-")
        try:
            injector = FaultInjector(armed=True, record_labels=False)
            engine = LSMEngine.open(
                f"{workdir}/db",
                config=lethe_config(
                    d_th,
                    delete_tile_pages=4,
                    wal_commit_policy=policy,
                    fsync=True,
                    **scale.engine_overrides(),
                ),
                injector=injector,
            )
            started = time.perf_counter()
            engine.ingest(ingest_ops)
            engine.sync()
            wall = time.perf_counter() - started
            engine.close()
            recovered = LSMEngine.open(f"{workdir}/db")
            surfaces[policy] = {key: recovered.get(key) for key in sample_keys}
            recovered.close()
            throughput = len(ingest_ops) / wall
            policy_series["ingest_ops_per_s"].append(throughput)
            policy_series["durable_writes"].append(injector.writes)
            policy_series["writes_per_op"].append(
                injector.writes / len(ingest_ops)
            )
            policy_rows.append(
                [
                    policy,
                    f"{wall:.3f}",
                    _round(throughput),
                    injector.writes,
                    _round(injector.writes / len(ingest_ops)),
                ]
            )
        finally:
            _shutil.rmtree(workdir, ignore_errors=True)
    reference = surfaces[policies[0]]
    for policy, surface in surfaces.items():
        if surface != reference:
            raise AssertionError(
                f"commit policy {policy} recovered a different surface"
            )

    # --- Part B: recovery wall-clock, serial vs pooled, per shard count
    recovery_rows = []
    recovery_series: dict = {
        "shards": list(shard_counts),
        "serial_recovery_s": [],
        "pooled_recovery_s": [],
        "recovery_speedups": [],
        "real_io_seconds": real_io_seconds,
    }
    cluster_config = lethe_config(
        1e9,  # D_th far away: part B isolates recovery dispatch
        delete_tile_pages=4,
        force_kiwi_layout=True,
        wal_commit_policy="group(32)",
        fsync=False,  # preload speed; part A covers the fsync path
        real_io_seconds=real_io_seconds,
        **scale.engine_overrides(),
    )
    preload = [op for op in ingest_ops if op[0] == "put"]
    tail = preload[-wal_tail:] if wal_tail else []
    body = preload[: len(preload) - len(tail)]
    for n in shard_counts:
        workdir = _tempfile.mkdtemp(prefix="lethe-wal-recovery-")
        try:
            cluster = ShardedEngine(
                cluster_config,
                partitioner=HashPartitioner(n),
                store_path=f"{workdir}/cluster",
            )
            # Preload at zero device latency; the persisted CONFIG.json
            # still carries the real model, which recovery honours.
            for shard in cluster.shards:
                shard.disk.real_io_seconds = 0.0
            cluster.ingest(body)
            cluster.flush()
            cluster.ingest(tail)  # un-flushed WAL tail to replay
            cluster.close()       # drain + release handles; tail survives

            def timed_open(executor: str) -> tuple[float, tuple]:
                started = time.perf_counter()
                recovered = ShardedEngine.open(
                    f"{workdir}/cluster", executor=executor
                )
                wall = time.perf_counter() - started
                for shard in recovered.shards:
                    shard.disk.real_io_seconds = 0.0
                surface = recovered.scan(key_lo, key_hi + 1)
                recovered.close()
                return wall, (len(surface), hash(tuple(surface)))

            serial_wall, serial_surface = timed_open("serial")
            pooled_wall, pooled_surface = timed_open("pooled")
            if serial_surface != pooled_surface:
                raise AssertionError(
                    f"pooled recovery diverged at {n} shards"
                )
            speedup = serial_wall / pooled_wall if pooled_wall > 0 else 0.0
            recovery_series["serial_recovery_s"].append(serial_wall)
            recovery_series["pooled_recovery_s"].append(pooled_wall)
            recovery_series["recovery_speedups"].append(speedup)
            recovery_rows.append(
                [
                    n,
                    f"{serial_wall:.3f}",
                    f"{pooled_wall:.3f}",
                    f"{speedup:.2f}x",
                    "yes",
                ]
            )
        finally:
            _shutil.rmtree(workdir, ignore_errors=True)

    report = (
        format_table(
            ["commit policy", "ingest wall (s)", "ops/s", "durable writes",
             "writes/op"],
            policy_rows,
            title=(
                f"Group-commit WAL: ingest {len(ingest_ops)} ops "
                f"({delete_fraction:.0%} deletes), fsync on, identical "
                "recovered surface asserted"
            ),
        )
        + "\n\n"
        + format_table(
            ["shards", "serial recovery (s)", "pooled recovery (s)",
             "speedup", "identical state"],
            recovery_rows,
            title=(
                f"Shard recovery (device latency "
                f"{real_io_seconds*1e6:.0f} µs/page, {wal_tail}-op WAL "
                "tail, serial vs pooled executor)"
            ),
        )
    )
    return ExperimentResult(
        figure="WAL",
        series={"policies": policy_series, "recovery": recovery_series},
        report=report,
    )


# ======================================================================
# Recovery: durable restart cost vs WAL length and checkpoint interval
# ======================================================================


def recovery_experiment(
    scale: ExperimentScale = BENCH_SCALE,
    checkpoint_intervals: tuple[int, ...] | None = None,
    wal_tail_lengths: tuple[int, ...] = (0, 256, 1000),
    delete_fraction: float = 0.05,
    repeats: int = 3,
) -> ExperimentResult:
    """Durable-engine restart cost (§4.1.5 made physical).

    Two sweeps over the same delete-heavy workload:

    * **Checkpoint interval** — ingest with a checkpoint every N
      operations (0 = never) and time a full recovery. Checkpoints
      compact the manifest log to one snapshot record, so the records a
      restart must scan — and with them recovery latency — shrink as
      checkpoints get more frequent; the tree blobs loaded are identical.
    * **WAL tail length** — after a checkpointed preload (big buffer so
      nothing flushes), leave exactly K un-flushed operations in the WAL
      and time recovery: replay cost is linear in the tail.

    Every recovered engine is read-checked against the engine it
    replaces before its timing counts.
    """
    import shutil as _shutil
    import tempfile as _tempfile

    from repro.lsm.recovery import recover_engine

    ingest_ops, _query_ops, runtime = workload_for(scale, delete_fraction)
    d_th = max(0.05 * runtime, 1e-3)
    if checkpoint_intervals is None:
        # Derived from the stream length so the trailing (un-checkpointed)
        # stretch shrinks with the interval at any scale — fixed intervals
        # that happen to divide the op count make the sweep degenerate.
        checkpoint_intervals = (
            0,
            max(1, round(0.4 * len(ingest_ops))),
            max(1, round(0.05 * len(ingest_ops))),
        )

    def timed_recovery(path: str) -> tuple[float, "object"]:
        # Recovery is not read-only (the D_th WAL rewrite and any SRD
        # roll-forward persist their work), so each repeat recovers a
        # pristine copy — otherwise repeat #1 cleans the store and the
        # later, cheaper repeats misreport a true first restart.
        best = float("inf")
        info_engine = None
        for _ in range(max(1, repeats)):
            scratch = _tempfile.mkdtemp(prefix="lethe-recovery-")
            try:
                clone = f"{scratch}/db"
                _shutil.copytree(path, clone)
                started = time.perf_counter()
                recovered = recover_engine(clone)
                elapsed = time.perf_counter() - started
                if elapsed < best:
                    best = elapsed
                    info_engine = recovered
            finally:
                _shutil.rmtree(scratch, ignore_errors=True)
        return best, info_engine

    def read_check(original: LSMEngine, recovered: LSMEngine) -> None:
        sample = [op[1] for op in ingest_ops if op[0] == "put"][:: 97]
        for key in sample:
            assert recovered.get(key) == original.get(key), (
                f"recovery diverged at key {key}"
            )

    interval_rows = []
    interval_series = {
        "checkpoint_interval": [],
        "recovery_seconds": [],
        "manifest_records": [],
        "wal_records_replayed": [],
        "files_loaded": [],
    }
    for interval in checkpoint_intervals:
        workdir = _tempfile.mkdtemp(prefix="lethe-recovery-")
        try:
            path = f"{workdir}/db"
            engine = LSMEngine.open(
                path,
                config=lethe_config(
                    d_th, delete_tile_pages=4, **scale.engine_overrides()
                ),
            )
            since_checkpoint = 0
            for op in ingest_ops:
                engine.ingest([op])
                since_checkpoint += 1
                if interval and since_checkpoint >= interval:
                    engine.checkpoint()
                    since_checkpoint = 0
            seconds, recovered = timed_recovery(path)
            read_check(engine, recovered)
            info = recovered.last_recovery
            interval_rows.append(
                [
                    interval or "never",
                    info.manifest_records_read,
                    info.files_loaded,
                    info.wal_records_replayed,
                    f"{seconds * 1e3:.1f}",
                ]
            )
            interval_series["checkpoint_interval"].append(interval)
            interval_series["recovery_seconds"].append(seconds)
            interval_series["manifest_records"].append(
                info.manifest_records_read
            )
            interval_series["wal_records_replayed"].append(
                info.wal_records_replayed
            )
            interval_series["files_loaded"].append(info.files_loaded)
        finally:
            _shutil.rmtree(workdir, ignore_errors=True)

    # --- WAL-tail sweep: a buffer big enough that the tail never flushes.
    tail_rows = []
    tail_series = {
        "wal_tail": [],
        "recovery_seconds": [],
        "wal_records_replayed": [],
    }
    tail_overrides = dict(scale.engine_overrides())
    tail_overrides["buffer_pages"] = max(
        tail_overrides.get("buffer_pages", 16),
        (max(wal_tail_lengths) // scale.page_entries) + 8,
    )
    preload = [op for op in ingest_ops if op[0] == "put"][: scale.num_inserts // 3]
    for tail in wal_tail_lengths:
        workdir = _tempfile.mkdtemp(prefix="lethe-recovery-")
        try:
            path = f"{workdir}/db"
            engine = LSMEngine.open(
                path,
                config=lethe_config(d_th, delete_tile_pages=4, **tail_overrides),
            )
            engine.ingest(preload)
            engine.checkpoint()  # tail starts empty
            for index in range(tail):
                engine.put(10**6 + index, f"tail-{index}", delete_key=index)
            seconds, recovered = timed_recovery(path)
            read_check(engine, recovered)
            info = recovered.last_recovery
            assert info.wal_records_replayed == tail, (
                f"expected a {tail}-record WAL tail, replayed "
                f"{info.wal_records_replayed}"
            )
            tail_rows.append(
                [tail, info.wal_records_replayed, f"{seconds * 1e3:.1f}"]
            )
            tail_series["wal_tail"].append(tail)
            tail_series["recovery_seconds"].append(seconds)
            tail_series["wal_records_replayed"].append(
                info.wal_records_replayed
            )
        finally:
            _shutil.rmtree(workdir, ignore_errors=True)

    report = (
        format_table(
            ["checkpoint every", "manifest records", "files loaded",
             "WAL replayed", "recovery ms"],
            interval_rows,
            title=(
                f"Recovery vs checkpoint interval "
                f"({len(ingest_ops)} ops, {delete_fraction:.0%} deletes, "
                f"best of {repeats})"
            ),
        )
        + "\n\n"
        + format_table(
            ["WAL tail (ops)", "records replayed", "recovery ms"],
            tail_rows,
            title="Recovery vs un-flushed WAL length (checkpointed preload)",
        )
    )
    return ExperimentResult(
        figure="Recovery",
        series={"intervals": interval_series, "wal_tail": tail_series},
        report=report,
    )


# ======================================================================
# Compaction scheduling: inline vs background, off the write path
# ======================================================================


def _timed_ingest(engine, ops: list[tuple]) -> tuple[float, list[float]]:
    """Replay ``ops`` one at a time, timing each (wall seconds).

    Returns ``(total_wall, per_op_latencies)`` — the per-op series is
    what the p99 put latency is taken from, the headline number the
    background scheduler is supposed to fix (an inline flush stalls one
    unlucky put for the whole compaction cascade).
    """
    latencies: list[float] = []
    started = time.perf_counter()
    for op in ops:
        handler = getattr(engine, op[0])
        op_started = time.perf_counter()
        handler(*op[1:])
        latencies.append(time.perf_counter() - op_started)
    return time.perf_counter() - started, latencies


def _p99(latencies: list[float]) -> float:
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def _scheduler_digest(engine: LSMEngine, key_domain, d_domain) -> tuple:
    """The logical tree state: full scan + secondary surface + counts."""
    scan = tuple(engine.scan(key_domain[0], key_domain[1]))
    secondary = tuple(sorted(engine.secondary_range_lookup(*d_domain)))
    return (scan, secondary)


def compaction_experiment(
    scale: ExperimentScale = BENCH_SCALE,
    worker_counts: tuple[int, ...] = (1, 2, 4),
    real_io_seconds: float = 150e-6,
    delete_fraction: float = 0.08,
    cluster_shards: int = 4,
    quick: bool = False,
) -> ExperimentResult:
    """Ingest throughput and p99 put latency, inline vs background FADE.

    Part A replays one delete-heavy stream against identical Lethe
    engines under a real per-page device latency — first with the
    :class:`~repro.compaction.scheduler.SerialScheduler` (every
    compaction inline in the write path, the pre-scheduler engine), then
    with a :class:`~repro.compaction.scheduler.BackgroundScheduler` at
    1/2/4 workers. The write path stops paying the merge cascade's
    device time, so background ingest throughput must be ≥ 1.3× inline
    and p99 put latency collapses; after a final flush + drain, every
    mode must expose the *identical* logical tree state (full scan +
    secondary-range surface) and honour the ``D_th`` guarantee
    (convergence implies no file outlives its FADE deadline).

    Part B shares one scheduler across a sharded cluster's members —
    cluster-wide compaction concurrency as a single tunable: total
    (ingest + drain) wall time shrinks as workers spread the per-shard
    merge backlogs.
    """
    from repro.compaction.scheduler import BackgroundScheduler

    if quick:
        # Keep the extremes: 1 worker (baseline) and the highest count,
        # so CI still exercises several workers contending for one
        # engine's compaction mutex.
        worker_counts = tuple(
            w for w in worker_counts if w in (1, max(worker_counts))
        )
        # Keep all 4 cluster shards even in quick mode: with only 2,
        # extra workers have no disjoint shard backlogs to spread over
        # and the workers=4 run measures pure wakeup/GIL overhead —
        # the very concurrency the cluster part exists to show.

    ingest_ops, _query_ops, runtime = workload_for(
        scale, delete_fraction, num_point_lookups=0
    )
    d_th = 0.25 * runtime
    put_keys = [op[1] for op in ingest_ops if op[0] == "put"]
    key_domain = (min(put_keys), max(put_keys) + 1)
    d_domain = _delete_key_domain(DeleteKeyMode.TIMESTAMP, scale)

    def build_engine(scheduler) -> LSMEngine:
        return LSMEngine(
            lethe_config(
                d_th,
                delete_tile_pages=4,
                real_io_seconds=real_io_seconds,
                **scale.engine_overrides(),
            ),
            scheduler=scheduler,
        )

    # --- Part A: single engine, inline vs background workers ----------
    modes: list[tuple[str, object]] = [("inline", None)]
    modes += [(f"background({w})", w) for w in worker_counts]
    rows = []
    series: dict = {
        "modes": [],
        "ingest_ops_per_s": [],
        "p99_op_ms": [],
        "max_op_ms": [],
        "drain_seconds": [],
        "background_compactions": [],
        "write_slowdowns": [],
        "write_stalls": [],
        "speedup_vs_inline": [],
    }
    digests: dict[str, tuple] = {}
    inline_throughput = None
    for mode_name, workers in modes:
        scheduler = None
        if workers is not None:
            scheduler = BackgroundScheduler(workers=workers)
        engine = build_engine(scheduler)
        wall, latencies = _timed_ingest(engine, ingest_ops)
        drain_started = time.perf_counter()
        if scheduler is not None:
            scheduler.drain()
        drain_seconds = time.perf_counter() - drain_started
        # Identical protocol for every mode before the digest: flush the
        # buffer tail and converge the tree completely.
        engine.flush()
        if scheduler is not None:
            scheduler.drain()
        else:
            engine.run_pending_compactions()
        # Converged + FADE ⇒ §4.1.5 must hold right now, in every mode.
        assert engine.max_tombstone_file_age() <= d_th + 1e-9, (
            f"{mode_name}: tombstone file age exceeds D_th after drain"
        )
        assert engine.wal.oldest_segment_age(engine.clock.now) <= d_th + 1e-9, (
            f"{mode_name}: WAL segment older than D_th after drain"
        )
        digests[mode_name] = _scheduler_digest(engine, key_domain, d_domain)
        throughput = len(ingest_ops) / wall
        if inline_throughput is None:
            inline_throughput = throughput
        speedup = throughput / inline_throughput
        stats = engine.stats
        series["modes"].append(mode_name)
        series["ingest_ops_per_s"].append(throughput)
        series["p99_op_ms"].append(_p99(latencies) * 1e3)
        series["max_op_ms"].append(max(latencies) * 1e3)
        series["drain_seconds"].append(drain_seconds)
        series["background_compactions"].append(stats.background_compactions)
        series["write_slowdowns"].append(stats.write_slowdowns)
        series["write_stalls"].append(stats.write_stalls)
        series["speedup_vs_inline"].append(speedup)
        rows.append(
            [
                mode_name,
                _round(throughput),
                f"{_p99(latencies) * 1e3:.2f}",
                f"{max(latencies) * 1e3:.1f}",
                f"{drain_seconds:.3f}",
                stats.background_compactions,
                stats.write_slowdowns,
                stats.write_stalls,
                f"{speedup:.2f}x",
            ]
        )
        if scheduler is not None:
            scheduler.close()

    reference = digests["inline"]
    for mode_name, digest in digests.items():
        if digest != reference:
            raise AssertionError(
                f"{mode_name} converged to a different tree state than inline"
            )
    # Quick (CI smoke) keeps only a parity floor: the speedup is
    # structural (the ingest thread stops executing compaction device
    # waits) but a loaded shared runner can starve the worker threads,
    # and a wall-clock gate must not flake a build with no code defect.
    # The full-scale run keeps the 1.3x acceptance floor.
    best_speedup = max(series["speedup_vs_inline"][1:])
    floor = 1.0 if quick else 1.3
    if best_speedup < floor:
        raise AssertionError(
            f"background ingest speedup {best_speedup:.2f}x below the "
            f"{floor}x floor"
        )

    # --- Part B: one scheduler shared across a cluster's members ------
    cluster_rows = []
    cluster_series: dict = {
        "workers": [],
        "ingest_seconds": [],
        "drain_seconds": [],
        "total_seconds": [],
    }
    cluster_config = lethe_config(
        d_th,
        delete_tile_pages=4,
        real_io_seconds=real_io_seconds,
        **scale.engine_overrides(),
    )
    cluster_surfaces = []
    # Two trials per worker count, best (lowest total) reported: the
    # cluster runs for a couple of seconds, so one stray OS scheduling
    # hiccup or GC pause otherwise dominates the comparison between
    # worker counts. Every trial's read surface still enters the
    # cross-mode equality check — noise rejection must never relax the
    # correctness assertion.
    cluster_trials = 2
    for workers in worker_counts:
        best: tuple[float, float] | None = None
        for _trial in range(cluster_trials):
            scheduler = BackgroundScheduler(workers=workers)
            cluster = ShardedEngine(
                cluster_config,
                partitioner=HashPartitioner(cluster_shards),
                scheduler=scheduler,
            )
            started = time.perf_counter()
            cluster.ingest(ingest_ops)
            ingest_seconds = time.perf_counter() - started
            drain_started = time.perf_counter()
            cluster.flush()
            scheduler.drain()
            drain_seconds = time.perf_counter() - drain_started
            cluster_surfaces.append(tuple(cluster.scan(*key_domain)))
            cluster.close()
            scheduler.close()  # caller-supplied instance: ours to close
            if (
                best is None
                or ingest_seconds + drain_seconds < best[0] + best[1]
            ):
                best = (ingest_seconds, drain_seconds)
        ingest_seconds, drain_seconds = best
        total = ingest_seconds + drain_seconds
        cluster_series["workers"].append(workers)
        cluster_series["ingest_seconds"].append(ingest_seconds)
        cluster_series["drain_seconds"].append(drain_seconds)
        cluster_series["total_seconds"].append(total)
        cluster_rows.append(
            [
                workers,
                f"{ingest_seconds:.3f}",
                f"{drain_seconds:.3f}",
                f"{total:.3f}",
            ]
        )
    for surface in cluster_surfaces[1:]:
        if surface != cluster_surfaces[0]:
            raise AssertionError(
                "cluster read surface differs across worker counts"
            )

    report = (
        format_table(
            ["scheduler", "ingest ops/s", "p99 op ms", "max op ms",
             "drain s", "bg compactions", "slowdowns", "stalls",
             "speedup"],
            rows,
            title=(
                f"Ingest throughput, inline vs background compaction "
                f"({len(ingest_ops)} ops, {delete_fraction:.0%} deletes, "
                f"device {real_io_seconds * 1e6:.0f}µs/page, "
                f"D_th={d_th:.2f}s)"
            ),
        )
        + "\n\n"
        + format_table(
            ["workers", "ingest s", "flush+drain s", "total s"],
            cluster_rows,
            title=(
                f"Shared scheduler across {cluster_shards} shards "
                "(cluster-wide compaction concurrency)"
            ),
        )
        + "\n\nidentical final tree state and D_th compliance asserted "
        "across every mode"
    )
    return ExperimentResult(
        figure="CompactionScheduling",
        series={"engine": series, "cluster": cluster_series},
        report=report,
    )


def metrics_experiment(
    scale: ExperimentScale = BENCH_SCALE,
    delete_fraction: float = 0.05,
    repeats: int = 3,
    quick: bool = False,
) -> ExperimentResult:
    """Observability layer: enabled-mode overhead plus a metrics tour.

    Part A replays the identical delete-heavy stream (plus its point
    lookups) against two in-memory Lethe engines — observability off
    and on — advanced *in lockstep*: the stream is cut into chunks and
    each chunk is timed on both engines back-to-back (alternating which
    goes first), so slow machine-level drift lands on both modes
    equally. The whole pairing repeats ``repeats`` times and each
    chunk's timing is the minimum across repeats — noise only ever
    inflates a measurement, so the per-chunk minimum is the cleanest
    view of the instrumentation cost itself. The ingest overhead is the
    number ``benchmarks/test_obs_overhead.py`` gates (< 5%).

    Part B keeps the instrumented engine and reports what the layer
    captured: op-latency percentiles from the log-bucketed histograms,
    span counts by name from the process tracer, sampler time-series
    length, and the size of the Prometheus exposition.
    """
    from repro.obs import force_enabled, global_tracer, reset_global_tracer
    from repro.obs.export import parse_exposition, prometheus_exposition

    if quick:
        repeats = 2

    ingest_ops, query_ops, runtime = workload_for(scale, delete_fraction)
    d_th = max(0.25 * runtime, 1e-3)
    lookups = [op for op in query_ops if op[0] == "get"]

    def build(observability: bool) -> LSMEngine:
        return LSMEngine(
            lethe_config(
                d_th,
                delete_tile_pages=4,
                observability=observability,
                # Part A measures instrumentation cost, not sampler cost:
                # the sampler thread wakes 40×/s regardless of op volume,
                # so it would add constant noise, not per-op overhead.
                obs_sample_interval_ms=0.0,
                **scale.engine_overrides(),
            )
        )

    chunk_size = 512
    ingest_chunks = [
        ingest_ops[i:i + chunk_size]
        for i in range(0, len(ingest_ops), chunk_size)
    ]
    read_chunks = [
        lookups[i:i + chunk_size]
        for i in range(0, len(lookups), chunk_size)
    ]
    repeats = max(1, repeats)

    def lockstep_run(replay: int) -> tuple[list[float], list[float], list[float], list[float]]:
        """One paired replay; per-chunk wall times for each mode.

        ``replay`` rotates which mode a chunk times first: compactions
        trigger at deterministic op counts, so a cascade always lands in
        the same chunk index — without rotation that chunk would always
        measure the same mode cache-cold.
        """
        engines = {False: build(False), True: build(True)}
        chunk_walls: dict[bool, list[float]] = {False: [], True: []}
        read_walls: dict[bool, list[float]] = {False: [], True: []}
        for index, chunk in enumerate(ingest_chunks):
            order = (
                (False, True) if (index + replay) % 2 == 0 else (True, False)
            )
            walls = {}
            for mode in order:
                started = time.perf_counter()
                engines[mode].ingest(chunk)
                walls[mode] = time.perf_counter() - started
            for mode in (False, True):
                chunk_walls[mode].append(walls[mode])
        for mode in (False, True):
            engines[mode].flush()
        # Read passes pair the same way; 3 passes per replay so the
        # first (cache-warming) pass never decides a chunk's minimum.
        reads: dict[bool, list[list[float]]] = {False: [], True: []}
        for sweep in range(3):
            pass_walls: dict[bool, list[float]] = {False: [], True: []}
            for index, chunk in enumerate(read_chunks):
                order = (
                    (False, True)
                    if (index + sweep + replay) % 2 == 0
                    else (True, False)
                )
                walls = {}
                for mode in order:
                    engine = engines[mode]
                    started = time.perf_counter()
                    for op in chunk:
                        engine.get(op[1])
                    walls[mode] = time.perf_counter() - started
                for mode in (False, True):
                    pass_walls[mode].append(walls[mode])
            for mode in (False, True):
                reads[mode].append(pass_walls[mode])
        for mode in (False, True):
            read_walls[mode] = [
                min(per_pass[i] for per_pass in reads[mode])
                for i in range(len(read_chunks))
            ]
            engines[mode].close()
        return (
            chunk_walls[False], chunk_walls[True],
            read_walls[False], read_walls[True],
        )

    # GC pauses land on whichever chunk happens to be on the clock;
    # measure with collection off (one manual collect between replays).
    import gc

    runs = []
    gc_was_enabled = gc.isenabled()
    try:
        for replay in range(repeats):
            gc.collect()
            gc.disable()
            try:
                runs.append(lockstep_run(replay))
            finally:
                if gc_was_enabled:
                    gc.enable()
    finally:
        if gc_was_enabled:
            gc.enable()

    def best_total(which: int) -> float:
        n_chunks = len(runs[0][which])
        return sum(
            min(run[which][i] for run in runs) for i in range(n_chunks)
        )

    best = {
        False: (best_total(0), best_total(2)),
        True: (best_total(1), best_total(3)),
    }
    ingest_overhead = best[True][0] / best[False][0] - 1.0
    read_overhead = best[True][1] / best[False][1] - 1.0

    # --- Part B: what the layer captures (one instrumented engine) -----
    if not force_enabled():
        # Leave any --trace ring alone; otherwise start from a clean one
        # so the span counts below describe exactly this run.
        reset_global_tracer()
    engine = build(True)
    engine.ingest(ingest_ops)
    engine.flush()
    for op in lookups:
        engine.get(op[1])
    write_pcts = engine.obs.op_write_latency.percentiles()
    read_pcts = engine.obs.op_read_latency.percentiles()
    span_counts: dict[str, int] = {}
    for event in global_tracer().events():
        span_counts[event["name"]] = span_counts.get(event["name"], 0) + 1
    exposition = prometheus_exposition(engine.obs.registry)
    parsed = parse_exposition(exposition)
    engine.close()

    series = {
        "repeats": max(1, repeats),
        "ingest_wall_off_s": best[False][0],
        "ingest_wall_on_s": best[True][0],
        "ingest_overhead": ingest_overhead,
        "read_wall_off_s": best[False][1],
        "read_wall_on_s": best[True][1],
        "read_overhead": read_overhead,
        "write_latency_percentiles_s": write_pcts,
        "read_latency_percentiles_s": read_pcts,
        "span_counts": dict(sorted(span_counts.items())),
        "exposition_samples": len(parsed),
    }
    overhead_rows = [
        ["ingest", f"{best[False][0]:.3f}", f"{best[True][0]:.3f}",
         f"{ingest_overhead:+.2%}"],
        ["read", f"{best[False][1]:.3f}", f"{best[True][1]:.3f}",
         f"{read_overhead:+.2%}"],
    ]
    forced_note = ""
    if force_enabled():
        # Under --trace the process-wide override instruments the
        # "off" engines too, so the A/B collapses to on-vs-on.
        forced_note = (
            "\n\nNOTE: --trace force-enables observability process-wide; "
            "the off/on comparison above is on-vs-on and the overhead "
            "numbers are void. Re-run without --trace to measure."
        )
        series["overhead_void_forced"] = True
    report = (
        format_table(
            ["path", "off s (best)", "on s (best)", "overhead"],
            overhead_rows,
            title=(
                f"Observability overhead, best of {max(1, repeats)} "
                f"interleaved runs ({len(ingest_ops)} ingest ops, "
                f"{len(lookups)} lookups)"
            ),
        )
        + "\n\n"
        + format_table(
            ["histogram", "count", "p50", "p99", "p999"],
            [
                ["op_write_latency_seconds", len(ingest_ops),
                 f"{write_pcts['p50'] * 1e6:.1f}µs",
                 f"{write_pcts['p99'] * 1e6:.1f}µs",
                 f"{write_pcts['p999'] * 1e6:.1f}µs"],
                ["op_read_latency_seconds", len(lookups),
                 f"{read_pcts['p50'] * 1e6:.1f}µs",
                 f"{read_pcts['p99'] * 1e6:.1f}µs",
                 f"{read_pcts['p999'] * 1e6:.1f}µs"],
            ],
            title="Op-latency histograms (instrumented run)",
        )
        + "\n\nspans: "
        + ", ".join(f"{name}×{n}" for name, n in sorted(span_counts.items()))
        + f"\nexposition: {len(parsed)} parseable samples"
        + forced_note
    )
    return ExperimentResult(figure="metrics", series=series, report=report)


# ======================================================================
# Serving: the cluster behind a socket (PR 7)
# ======================================================================


def serving_experiment(
    scale: ExperimentScale = BENCH_SCALE,
    quick: bool = False,
    connections: int | None = None,
    n_shards: int = 4,
    n_tenants: int = 8,
    skew: float = 2.0,
    pipeline_batch: int = 64,
) -> ExperimentResult:
    """End-to-end serving numbers: pipelining speedup and fan-in scale.

    Two parts, both over real loopback sockets against
    :class:`~repro.net.server.LetheServer`:

    **A. Pipelining** — one connection replays a slice of the workload
    twice: once one-request-per-round-trip, once pipelined in bursts of
    ``pipeline_batch``. The speedup is the whole point of the protocol's
    in-order window (and is gated ≥ 1.3x in CI at bench scale).

    **B. Concurrent fan-in** — the multi-tenant skewed stream is
    partitioned by key across ``connections`` async clients (per-key
    order preserved, like a real per-user session affinity) and driven
    concurrently at one server. The final cluster state must be
    *identical* to an in-process ``ingest`` of the same stream — the
    serving layer may reorder across keys, never within one. Reported
    through the obs stack: the server's ``net_request_latency_seconds``
    histogram and ``net:parse``/``net:dispatch`` spans.
    """
    import asyncio

    from repro.net.client import AsyncLetheClient, LetheClient
    from repro.net.server import LetheServer

    if connections is None:
        connections = 50 if quick else 128

    spec = MultiTenantSpec.skewed(
        n_tenants=n_tenants,
        skew=skew,
        num_inserts=scale.num_inserts,
        num_point_lookups=scale.num_point_lookups,
        seed=scale.seed,
    )
    workload = MultiTenantWorkload(spec)
    ingest_ops = list(workload.ingest_operations())
    config = lethe_config(
        1e9,
        delete_tile_pages=4,
        observability=True,
        obs_sample_interval_ms=0.0,
        **scale.engine_overrides(),
    )

    def build_cluster() -> ShardedEngine:
        return ShardedEngine(config, n_shards=n_shards, ingest_queue_depth=4)

    def full_surface(cluster: ShardedEngine) -> list[tuple]:
        keys = [op[1] for op in ingest_ops]
        return cluster.scan(min(keys), max(keys))

    # --- Part A: pipelined vs one-request-per-round-trip ---------------
    slice_ops = ingest_ops[: min(2000, len(ingest_ops))]

    def timed_single_connection(pipelined: bool) -> float:
        cluster = build_cluster()
        try:
            with LetheServer(cluster) as server:
                with LetheClient("127.0.0.1", server.port) as client:
                    started = time.perf_counter()
                    if pipelined:
                        for base in range(0, len(slice_ops), pipeline_batch):
                            client.execute(
                                slice_ops[base : base + pipeline_batch]
                            )
                    else:
                        for op in slice_ops:
                            client._call(op)
                    return time.perf_counter() - started
        finally:
            cluster.close()

    # GC pauses land on whichever variant happens to be on the clock —
    # and the pipelined window is ~4x shorter, so a gen-2 collection
    # inside it (large heaps prime the trigger when the whole test
    # suite shares the process) can swamp the measurement. Same hygiene
    # as the obs overhead estimator: one manual collect, then measure
    # with collection off.
    import gc

    def timed_gc_paused(pipelined: bool) -> float:
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            return timed_single_connection(pipelined)
        finally:
            if gc_was_enabled:
                gc.enable()

    sequential_wall = timed_gc_paused(pipelined=False)
    pipelined_wall = timed_gc_paused(pipelined=True)
    speedup = sequential_wall / pipelined_wall
    floor = 1.0 if quick else 1.3
    assert speedup >= floor, (
        f"pipelining speedup {speedup:.2f}x under the {floor}x floor "
        f"({len(slice_ops)} ops, batch {pipeline_batch})"
    )

    # --- Part B: concurrent fan-in vs in-process ingest -----------------
    # Stable per-key connection affinity: every operation on one key
    # rides one connection, so per-key order survives the concurrency.
    per_connection: list[list[tuple]] = [[] for _ in range(connections)]
    for op in ingest_ops:
        per_connection[op[1] % connections].append(op)

    served = build_cluster()
    server = LetheServer(served)
    server.start()
    try:
        async def drive() -> None:
            clients = []
            for _ in range(connections):
                clients.append(
                    await AsyncLetheClient.connect("127.0.0.1", server.port)
                )

            async def run(index: int) -> None:
                client = clients[index]
                ops = per_connection[index]
                # Bounded client-side window: keep the pipe full without
                # holding every future at once.
                for base in range(0, len(ops), pipeline_batch):
                    futures = [
                        await client.submit(op)
                        for op in ops[base : base + pipeline_batch]
                    ]
                    await asyncio.gather(*futures)
                # Read-your-writes probe on this connection's last put.
                last_put = next(
                    (op for op in reversed(ops) if op[0] == "put"), None
                )
                if last_put is not None:
                    value = await client.call(("get", last_put[1]))
                    assert value == last_put[2], (
                        f"connection {index} lost its own write"
                    )

            try:
                await asyncio.gather(*[run(i) for i in range(connections)])
            finally:
                for client in clients:
                    await client.close()

        started = time.perf_counter()
        asyncio.run(drive())
        serving_wall = time.perf_counter() - started
        total_requests = server.requests_completed
        assert server.connections_accepted >= connections
        histogram = server.request_latency
        assert histogram.count == server.requests_received, (
            "net:request histogram disagrees with the request counter"
        )
        p50_ms = histogram.quantile(0.50) * 1e3
        p99_ms = histogram.quantile(0.99) * 1e3
        span_names = {
            event["name"] for event in served.obs.tracer.events()
        }
        assert {"net:parse", "net:dispatch"} <= span_names, (
            f"serving spans missing from the trace ring: {span_names}"
        )
    finally:
        server.stop()

    reference = build_cluster()
    try:
        reference.ingest(ingest_ops)
        served_state = full_surface(served)
        reference_state = full_surface(reference)
        assert served_state == reference_state, (
            "served cluster state diverged from in-process ingest: "
            f"{len(served_state)} vs {len(reference_state)} live keys"
        )
    finally:
        reference.close()
        served.close()

    serving_ops_per_s = total_requests / serving_wall
    series = {
        "pipelining": {
            "ops": len(slice_ops),
            "batch": pipeline_batch,
            "sequential_ops_per_s": _round(len(slice_ops) / sequential_wall),
            "pipelined_ops_per_s": _round(len(slice_ops) / pipelined_wall),
            "speedup": _round(speedup),
            "floor": floor,
        },
        "serving": {
            "connections": connections,
            "n_shards": n_shards,
            "total_requests": total_requests,
            "wall_seconds": _round(serving_wall),
            "ops_per_s": _round(serving_ops_per_s),
            "net_request_p50_ms": _round(p50_ms),
            "net_request_p99_ms": _round(p99_ms),
            "identical_state": True,
            "live_keys": len(served_state),
        },
    }
    report = (
        format_table(
            ["mode", "ops/s", "wall s"],
            [
                ["1 req / round trip",
                 _round(len(slice_ops) / sequential_wall),
                 _round(sequential_wall)],
                [f"pipelined x{pipeline_batch}",
                 _round(len(slice_ops) / pipelined_wall),
                 _round(pipelined_wall)],
            ],
            title=(
                f"Pipelining, one connection, {len(slice_ops)} ops "
                f"(speedup {speedup:.2f}x, floor {floor}x)"
            ),
        )
        + "\n\n"
        + format_table(
            ["connections", "requests", "ops/s", "p50", "p99", "state"],
            [[
                connections,
                total_requests,
                _round(serving_ops_per_s),
                f"{p50_ms:.2f}ms",
                f"{p99_ms:.2f}ms",
                "identical",
            ]],
            title=(
                f"Concurrent fan-in: {connections} async connections, "
                f"{n_tenants} tenants (skew {skew}), {n_shards} shards"
            ),
        )
    )
    return ExperimentResult(figure="serve", series=series, report=report)


# ======================================================================
# Range deletes: tenant offboarding, one tombstone vs scan-and-delete
# ======================================================================


def rangedel_experiment(
    scale: ExperimentScale = BENCH_SCALE,
    n_tenants: int = 6,
    keys_per_tenant: int = 1 << 14,
    skew: float = 2.0,
    quick: bool = False,
) -> ExperimentResult:
    """Tenant offboarding: ``delete_range`` vs scan-and-tombstone.

    Two identical durable engines are preloaded with the same skewed
    multi-tenant stream, then the hottest tenant is offboarded two ways:

    * **rangedel** — one ``delete_range(lo, hi)`` over the tenant's
      keyspan: a single WAL append, O(1) ingest work regardless of how
      many keys the tenant holds.
    * **baseline** — the pre-range-tombstone recipe: scan the tenant's
      slice for live keys, then issue one point delete per key. Ingest
      cost is linear in the tenant's live set.

    Both engines must converge to the *identical* full-keyspace scan
    surface (asserted), and the rangedel engine is closed and reopened
    to prove the tombstone survives recovery. A third, range-partitioned
    cluster runs the same offboard to show the scatter path: only shards
    owning a piece of ``[lo, hi)`` record a (clipped) fragment.

    Durable writes are counted by an armed :class:`FaultInjector`
    (``wal_commit_policy="every_op"`` so every acknowledged operation is
    a physical append — the fairest accounting for the baseline, which
    would otherwise hide its deletes inside one group commit).
    """
    import shutil as _shutil
    import tempfile as _tempfile

    if quick:
        n_tenants = max(3, n_tenants // 2)
    spec = MultiTenantSpec.skewed(
        n_tenants=n_tenants,
        keys_per_tenant=keys_per_tenant,
        skew=skew,
        num_inserts=scale.num_inserts,
    )
    ingest_ops = list(MultiTenantWorkload(spec).ingest_operations())
    victim = spec.hottest()
    lo, hi = victim.key_range
    domain_hi = max(t.key_range[1] for t in spec.tenants)

    def build(workdir: str) -> tuple[LSMEngine, FaultInjector]:
        injector = FaultInjector(armed=True, record_labels=False)
        engine = LSMEngine.open(
            f"{workdir}/db",
            config=lethe_config(
                1e9,  # FADE far away: this experiment isolates write cost
                delete_tile_pages=4,
                wal_commit_policy="every_op",
                **scale.engine_overrides(),
            ),
            injector=injector,
        )
        engine.ingest(ingest_ops)
        engine.flush()
        return engine, injector

    def offboard_rangedel(engine: LSMEngine) -> int:
        engine.delete_range(lo, hi)
        return 1

    def offboard_baseline(engine: LSMEngine) -> int:
        doomed = [key for key, _ in engine.scan(lo, hi - 1)]
        for key in doomed:
            engine.delete(key)
        return len(doomed)

    rows = []
    surfaces: dict[str, list] = {}
    measured: dict[str, dict] = {}
    strategies = (
        ("rangedel", offboard_rangedel),
        ("baseline", offboard_baseline),
    )
    rangedel_dir = None
    try:
        for name, offboard in strategies:
            workdir = _tempfile.mkdtemp(prefix=f"lethe-rangedel-{name}-")
            engine, injector = build(workdir)
            writes_before = injector.writes
            started = time.perf_counter()
            ops = offboard(engine)
            wall = time.perf_counter() - started
            writes = injector.writes - writes_before
            surfaces[name] = engine.scan(0, domain_hi)
            assert engine.scan(lo, hi - 1) == [], (
                f"{name}: offboarded tenant {victim.name} still has live keys"
            )
            measured[name] = {
                "ingest_ops": ops,
                "durable_writes": writes,
                "wall_seconds": _round(wall),
            }
            rows.append([name, ops, writes, f"{wall*1e3:.2f}ms"])
            if name == "rangedel":
                # Keep the directory: the recovery check below reopens it.
                engine.close()
                rangedel_dir = workdir
            else:
                engine.close()
                _shutil.rmtree(workdir, ignore_errors=True)

        if surfaces["rangedel"] != surfaces["baseline"]:
            raise AssertionError(
                "rangedel and scan-and-tombstone offboarding diverged: "
                f"{len(surfaces['rangedel'])} vs "
                f"{len(surfaces['baseline'])} live keys"
            )
        # The single range tombstone must survive a restart: reopen the
        # rangedel engine from disk and re-check the read surface.
        recovered = LSMEngine.open(f"{rangedel_dir}/db")
        recovered_surface = recovered.scan(0, domain_hi)
        recovered.close()
        if recovered_surface != surfaces["rangedel"]:
            raise AssertionError(
                "recovered engine lost the range tombstone: "
                f"{len(recovered_surface)} vs {len(surfaces['rangedel'])} keys"
            )
    finally:
        if rangedel_dir is not None:
            _shutil.rmtree(rangedel_dir, ignore_errors=True)

    # --- scatter: range-partitioned cluster, clipped per owning shard --
    cluster = ShardedEngine(
        lethe_config(1e9, delete_tile_pages=4, **scale.engine_overrides()),
        partitioner=RangePartitioner(spec.split_points()),
    )
    try:
        cluster.ingest(ingest_ops)
        cluster.flush()  # drain buffers so only the offboard RT remains
        cluster.delete_range(lo, hi)
        owning = set(cluster.partitioner.shards_for_range(lo, hi - 1))
        fragment_shards = {
            index
            for index, shard in enumerate(cluster.shards)
            if shard.buffer.range_tombstones
        }
        if not fragment_shards <= owning:
            raise AssertionError(
                f"range delete scattered to non-owning shards: "
                f"{sorted(fragment_shards - owning)} outside {sorted(owning)}"
            )
        cluster_surface = cluster.scan(0, domain_hi)
        if cluster_surface != surfaces["rangedel"]:
            raise AssertionError(
                "sharded offboard diverged from single-engine rangedel: "
                f"{len(cluster_surface)} vs {len(surfaces['rangedel'])} keys"
            )
    finally:
        cluster.close()

    ops_ratio = measured["baseline"]["ingest_ops"] / max(
        1, measured["rangedel"]["ingest_ops"]
    )
    write_ratio = measured["baseline"]["durable_writes"] / max(
        1, measured["rangedel"]["durable_writes"]
    )
    series = {
        "victim_tenant": victim.name,
        "victim_range": [lo, hi],
        "live_keys_offboarded": measured["baseline"]["ingest_ops"],
        "rangedel": measured["rangedel"],
        "baseline": measured["baseline"],
        "ops_ratio": _round(ops_ratio),
        "write_ratio": _round(write_ratio),
        "surface_identical": True,
        "recovered_identical": True,
        "sharded": {
            "n_shards": cluster_n_shards(spec),
            "owning_shards": sorted(owning),
            "fragment_shards": sorted(fragment_shards),
            "scatter_clipped": True,
        },
    }
    report = format_table(
        ["strategy", "ingest ops", "durable writes", "offboard wall"],
        rows,
        title=(
            f"Offboard {victim.name} ({measured['baseline']['ingest_ops']} "
            f"live keys of [{lo}, {hi})): ops ratio {ops_ratio:.0f}x, "
            f"durable-write ratio {write_ratio:.0f}x, identical final "
            "surface and recovered surface asserted"
        ),
    )
    return ExperimentResult(figure="rangedel", series=series, report=report)


def cluster_n_shards(spec: MultiTenantSpec) -> int:
    """Shard count of the tenant-boundary range partition for ``spec``."""
    return len(spec.split_points()) + 1
