"""The repo benchmark's one command.

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload against the ``repro`` package of this checkout, prints
every metric by name with its unit and sample count, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Without ``--workload`` it runs all four. ``--out FILE``
also writes a provenance-stamped result file (and, traced, a Chrome trace
beside it). Exit code 0 means every checked output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

EXIT_INCORRECT = 1
EXIT_NO_PROGRAM = 2
EXIT_INVALID_RUN = 3


def _import_benchmark():
    """Put this checkout's ``src`` and the benchmark package on the path."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"benchmark: no program to measure: {ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_NO_PROGRAM)
    for entry in (str(ROOT / "src"), str(HERE)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from perfbench import workloads

    return workloads


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args, started: float) -> dict:
    from perfbench.measure import REFERENCE_SECONDS

    status = _git("status", "--porcelain")
    return {
        "git_commit": _git("rev-parse", "HEAD") or "unknown (not a git checkout)",
        "git_dirty": None if status is None else bool(status),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale_factor": args.seconds / REFERENCE_SECONDS,
        "trace": bool(args.trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "ended_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "fsync_caveat": (
            "fsync=True on a sandbox file system: flushes are cheap, so every "
            "latency is this machine's and not a storage device's"
        ),
    }


def untraced_reference(name: str, args, workdir: str) -> dict:
    """The same workload, untraced, in a process of its own.

    Traced and untraced code never share an interpreter: each run starts
    cold, so their wall times differ by the tracing alone.
    """
    out = os.path.join(workdir, f"reference-{name}.json")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0", "--workdir", workdir, "--out", out],
        stdout=subprocess.DEVNULL,
    )
    if done.returncode not in (0, EXIT_INCORRECT):
        from perfbench.measure import InvalidRun

        raise InvalidRun(f"{name}: the untraced reference run did not finish")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)["workloads"][name]


def run_workload(workloads, name: str, args, workdir: str, events: list):
    """One workload: untraced, or (``--trace 1``) traced in this process
    with an untraced reference run beside it."""
    from perfbench import layers
    from perfbench.measure import InvalidRun, Metric
    from perfbench.trace import Tracer

    module = workloads.BY_NAME[name]
    if not args.trace:
        return module.run(args.seed, args.seconds, None, workdir)
    tracer = Tracer()
    try:
        layers.install_engine_tracing(tracer)
        layers.install_client_tracing(tracer)
        traced = module.run(args.seed, args.seconds, tracer, workdir)
    finally:
        tracer.restore()
    child = traced.child_trace
    dropped = tracer.dropped + child.get("dropped", 0)
    if dropped:
        raise InvalidRun(f"{name}: the trace dropped {dropped} spans")
    reference = untraced_reference(name, args, workdir)
    traced.per_layer["trace.overhead_ratio"] = Metric(
        traced.timed_wall_s / reference["timed_wall_s"] - 1.0, "ratio"
    )
    traced.per_layer["trace.spans"] = Metric(
        tracer.spans + child.get("spans", 0), "count"
    )
    traced.per_layer["trace.dropped"] = Metric(dropped, "count")
    # Tracing distorts tail latencies and recovery times: report the
    # untraced run's.
    for metric, value in reference["untraced"].items():
        traced.per_layer[metric] = Metric(value, layers.PER_LAYER_UNITS[metric])
    # End-to-end numbers always come from the untraced run.
    traced.end_to_end = {
        metric: Metric(**fields)
        for metric, fields in reference["end_to_end"].items()
    }
    events.extend(tracer.chrome_events(os.getpid(), f"benchmark:{name}"))
    events.extend(child.get("events", []))
    return traced


def report(result, trace: bool) -> dict:
    """Print one workload's metrics; return the contract's JSON object."""
    shown = result.per_layer if trace else result.end_to_end
    print(f"== {result.workload}: {result.attempted} ops attempted, "
          f"{result.failed} failed")
    for name, metric in shown.items():
        flag = "" if metric.supported else "  (fewer than 10 samples beyond)"
        print(f"  {name:<46} {metric.value:>16.6g} {metric.unit:<6} "
              f"n={metric.samples}{flag}")
    for failure in result.failures:
        print(f"  FAILED: {failure}")
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": metric.value, "unit": metric.unit}
            for name, metric in shown.items()
        },
    }


def main(argv=None) -> int:
    workloads = _import_benchmark()
    from repro.core import locks

    from perfbench.measure import InvalidRun
    from perfbench.trace import TraceTargetMissing, write_chrome_trace

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of each timed phase; scales every op count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write a provenance-stamped result file")
    parser.add_argument("--workdir", default=".bench_work",
                        help="where temporary stores live (removed afterwards)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(declared()["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    started = time.time()
    names = [args.workload] if args.workload else list(workloads.BY_NAME)
    os.makedirs(args.workdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=args.workdir)
    events: list = []
    results, lines = {}, {}
    # Lock-order validation is a test-suite aid; no number may be mostly
    # validation overhead.
    lockdep = locks.is_validating()
    locks.set_validation(False)
    try:
        for name in names:
            results[name] = run_workload(workloads, name, args, workdir, events)
            lines[name] = report(results[name], bool(args.trace))
    except (InvalidRun, TraceTargetMissing) as problem:
        print(f"benchmark: invalid run: {problem}", file=sys.stderr)
        return EXIT_INVALID_RUN
    finally:
        locks.set_validation(lockdep)
        shutil.rmtree(workdir, ignore_errors=True)

    if args.out:
        payload = {
            "provenance": provenance(args, started),
            "workloads": {
                name: {
                    "attempted": result.attempted,
                    "failed": result.failed,
                    "failures": result.failures,
                    "timed_wall_s": result.timed_wall_s,
                    "raw_wall_s": result.raw_wall_s,
                    "host_slow_share": result.host_slow_share,
                    "untraced": result.untraced,
                    "op_counts": result.op_counts,
                    "configs": result.configs,
                    "end_to_end": {k: asdict(m) for k, m in result.end_to_end.items()},
                    "per_layer": {k: asdict(m) for k, m in result.per_layer.items()},
                }
                for name, result in results.items()
            },
            "claim": None,
        }
        Path(args.out).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        if args.trace:
            write_chrome_trace(args.out + ".trace.json", events)

    if args.workload:
        print(json.dumps(lines[args.workload]))
    else:
        print(json.dumps({"workloads": lines, "claim": None}))
    return 0 if all(line["correct"] for line in lines.values()) else EXIT_INCORRECT


if __name__ == "__main__":
    sys.exit(main())
