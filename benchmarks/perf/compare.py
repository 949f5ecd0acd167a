"""Compare two sets of benchmark result files against the declared bounds.

    python3 benchmarks/perf/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is a ``run.py --out`` result. For every (end-to-end metric,
workload) pair it prints each set's median and quartiles, how much worse
set B's median is than set A's as a share of A's, and a verdict against
the metric's bound in ``BENCHMARK.json``:

* ``ok``         B is not worse than A by more than the bound;
* ``regressed``  B is worse than A by more than the bound;
* ``unresolved`` a set's own spread (the distance between its quartiles
  as a share of its median) is wider than the bound, so the runs cannot
  tell.

Exit code 1 when any pair regressed, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_set(paths: list[str]) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> one value per file``."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            workloads = json.load(handle)["workloads"]
        for workload, result in workloads.items():
            for metric, fields in result["end_to_end"].items():
                values.setdefault((workload, metric), []).append(fields["value"])
    return values


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def verdict(base: list[float], other: list[float], better: str, bound: float):
    """``(worse_by, verdict)``: ``worse_by`` is positive when ``other``'s
    median is worse than ``base``'s, as a share of ``base``'s median."""
    q1_a, med_a, q3_a = summary(base)
    q1_b, med_b, q3_b = summary(other)
    change = (med_b - med_a) / med_a
    worse_by = change if better == "lower" else -change
    spreads = ((q3_a - q1_a) / med_a, (q3_b - q1_b) / med_b)
    if max(spreads) > bound:
        return worse_by, "unresolved"
    return worse_by, "regressed" if worse_by > bound else "ok"


def compare(set_a: list[str], set_b: list[str], declared: dict) -> int:
    a, b = load_set(set_a), load_set(set_b)
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    print(f"{'workload':<14} {'metric':<28} {'A q1/median/q3':<38} "
          f"{'B q1/median/q3':<38} {'B worse by':>11}  {'bound':>6}  verdict")
    regressed = 0
    for workload in (w["name"] for w in declared["workloads"]):
        for name, spec in metrics.items():
            key = (workload, name)
            if key not in a or key not in b:
                continue
            worse_by, word = verdict(a[key], b[key], spec["better"], spec["bound"])
            regressed += word == "regressed"
            shown_a = "/".join(f"{v:.5g}" for v in summary(a[key]))
            shown_b = "/".join(f"{v:.5g}" for v in summary(b[key]))
            print(f"{workload:<14} {name:<28} {shown_a:<38} {shown_b:<38} "
                  f"{worse_by:>+10.2%}  {spec['bound']:>6.1%}  {word}"
                  f"  (base {summary(a[key])[1]:.5g} {spec['unit']})")
    return 1 if regressed else 0


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    set_a, set_b = argv[:split], argv[split + 1:]
    if not set_a or not set_b:
        print(__doc__, file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return compare(set_a, set_b, declared)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
