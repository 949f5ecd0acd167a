"""Command-line entry point: run any experiment from the shell.

Usage::

    python -m repro list                 # enumerate experiments
    python -m repro fig6a                # run one figure's experiment
    python -m repro all                  # run everything (slow)
    python -m repro fig6h --inserts 4000 # scale override
    python -m repro metrics --json out.json  # obs overhead + series dump

Each experiment prints the same series its paper figure plots; the
benchmark suite (`pytest benchmarks/ --benchmark-only`) wraps the same
drivers with timing and assertions. Performance of the engine's
post-paper layers (WAL, scheduler, shards, server) is measured by
`benchmarks/perf/run.py`, not here.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench import experiments as ex
from repro.bench.harness import BENCH_SCALE, ExperimentScale

_SWEEP_FIGURES = {
    "fig6a": ex.fig6a_space_amplification,
    "fig6b": ex.fig6b_compaction_count,
    "fig6c": ex.fig6c_bytes_written,
    "fig6d": ex.fig6d_read_throughput,
}

_STANDALONE = {
    "fig6e": lambda scale, quick: ex.fig6e_tombstone_ages(scale),
    "fig6f": lambda scale, quick: ex.fig6f_write_amortization(scale),
    "fig6g": lambda scale, quick: ex.fig6g_latency_scaling(scale),
    "fig6h": lambda scale, quick: ex.fig6h_page_drops(scale),
    "fig6i": lambda scale, quick: ex.fig6i_lookup_cost(scale),
    "fig6j": lambda scale, quick: ex.fig6j_optimal_layout(scale),
    "fig6k": lambda scale, quick: ex.fig6k_cpu_io_tradeoff(scale),
    "fig6l": lambda scale, quick: ex.fig6l_correlation(scale),
    "fig1": lambda scale, quick: ex.fig1_summary(scale),
    "table2": lambda scale, quick: ex.table2_cost_model(),
    "metrics": lambda scale, quick: ex.metrics_experiment(scale, quick=quick),
}

# Reduced scale for `--quick` (CI smoke): enough volume that flushes,
# compactions, and WAL segments all still engage.
QUICK_INSERTS = 2000


def _finish_trace(trace_path: str | None) -> None:
    """Dump the process-global span ring to a Chrome trace-event file."""
    if not trace_path:
        return
    from repro.obs import global_tracer

    spans = global_tracer().write_chrome_trace(trace_path)
    print(f"[{spans} spans written to {trace_path}]")


def _scale_from(args: argparse.Namespace) -> ExperimentScale:
    inserts = args.inserts
    if inserts is None and args.quick:
        inserts = QUICK_INSERTS
    if inserts is None:
        return BENCH_SCALE
    return ExperimentScale(
        num_inserts=inserts,
        num_point_lookups=max(100, inserts // 6),
    )


def _run_one(
    name: str,
    scale: ExperimentScale,
    sweep_cache: dict,
    quick: bool = False,
    json_path: str | None = None,
) -> None:
    started = time.time()
    if name in _SWEEP_FIGURES:
        if "sweep" not in sweep_cache:
            print("(running the shared delete sweep — reused by fig6a–fig6d)")
            sweep_cache["sweep"] = ex.delete_sweep(scale)
        result = _SWEEP_FIGURES[name](sweep_cache["sweep"])
    else:
        result = _STANDALONE[name](scale, quick)
    elapsed = time.time() - started
    print(result.report)
    print(f"[{name} done in {elapsed:.1f}s]\n")
    if json_path:
        from repro.bench.reporting import write_experiment_json

        write_experiment_json(
            json_path, result.figure, result.series, elapsed_seconds=elapsed,
            scale=scale,
        )
        print(f"[series written to {json_path}]")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "check":
        # Alias for the project linter: `python -m repro check [...]`.
        from repro.checks.__main__ import main as checks_main

        return checks_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the evaluation of 'Lethe: A Tunable "
        "Delete-Aware LSM Engine' (SIGMOD 2020).",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (fig6a..fig6l, fig1, table2, metrics), 'all', "
        "or 'list'",
    )
    parser.add_argument(
        "--inserts",
        type=int,
        default=None,
        help="override the workload size (default: the bench scale, 9000)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI smoke mode: {QUICK_INSERTS} inserts (unless --inserts "
        "overrides) and trimmed sweeps where the experiment supports it",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also dump the experiment's series to PATH as JSON "
        "with its provenance (commit, command line, scale, start/end)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record spans from every engine the experiment builds and "
        "write a Chrome trace-event file to PATH (open in "
        "chrome://tracing or https://ui.perfetto.dev)",
    )
    args = parser.parse_args(argv)

    if args.trace:
        # Process-wide override: every engine the experiment constructs
        # records spans/histograms, whatever its config says. Samplers
        # stay off — short-lived bench engines shouldn't spawn threads.
        from repro import obs

        obs.force_enable()

    known = dict(**_SWEEP_FIGURES, **_STANDALONE)
    if args.experiment == "list":
        print("available experiments:")
        for name in known:
            print(f"  {name}")
        print("  all")
        return 0

    scale = _scale_from(args)
    sweep_cache: dict = {}
    if args.experiment == "all":
        for name in known:
            # One dump per experiment: "out.json" → "out.fig6a.json" etc.
            per_experiment = None
            if args.json:
                import os

                stem, suffix = os.path.splitext(args.json)
                per_experiment = f"{stem}.{name}{suffix}"
            _run_one(name, scale, sweep_cache, args.quick, per_experiment)
        _finish_trace(args.trace)
        return 0
    if args.experiment not in known:
        print(f"unknown experiment {args.experiment!r}; try 'list'",
              file=sys.stderr)
        return 2
    _run_one(args.experiment, scale, sweep_cache, args.quick, args.json)
    _finish_trace(args.trace)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
