"""Plain-text reporting helpers for the experiment drivers.

Every bench prints the same rows/series the paper's figures plot, so a
reader can put the outputs side by side with Fig. 6 and check the shape:
who wins, by what factor, and where the crossovers fall.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import asdict
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    from repro.bench.harness import ExperimentScale


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: str | None = None,
) -> str:
    """Fixed-width table: headers, separator, one line per row."""
    materialized = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(name: str, xs: Sequence[Any], ys: Sequence[Any]) -> str:
    """One named series as ``name: (x → y), ...`` for quick scanning."""
    pairs = ", ".join(f"{_fmt(x)}→{_fmt(y)}" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def write_experiment_json(
    path: str,
    figure: str,
    series: Mapping[str, Any],
    elapsed_seconds: float | None = None,
    extra: Mapping[str, Any] | None = None,
    scale: ExperimentScale | None = None,
) -> dict:
    """Dump one experiment's series to ``path`` in the shared layout.

    Every ``--json`` dump from the CLI goes through here so the files
    stay mutually diffable: top-level ``figure``/``elapsed_seconds``/
    ``series`` keys, sorted, two-space indent, trailing newline.
    ``extra`` merges additional top-level keys (e.g. an overhead gate's
    threshold) without disturbing that contract. Returns the payload.

    Every dump also carries its provenance, so a number can be traced
    to the code and the run that produced it: ``git_hash`` of the
    checkout this module lives in (``"unknown"`` outside one), the
    ``command`` line, the ``scale`` it ran at, and ``started``/``ended``
    in UTC (``started`` is ``ended`` minus ``elapsed_seconds``).
    """
    ended = time.time()
    payload: dict = {
        "figure": figure,
        "series": dict(series),
        "git_hash": _git_hash(),
        "command": list(sys.argv),
        "scale": asdict(scale) if scale is not None else None,
        "started": _utc(ended - (elapsed_seconds or 0.0)),
        "ended": _utc(ended),
    }
    if elapsed_seconds is not None:
        payload["elapsed_seconds"] = round(elapsed_seconds, 3)
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    return payload


def _git_hash() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _utc(epoch: float) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch))


def ratio_summary(label: str, lethe_value: float, baseline_value: float) -> str:
    """'label: Lethe x vs baseline y (r× better/worse)' one-liner."""
    if baseline_value == 0 and lethe_value == 0:
        return f"{label}: both 0"
    if lethe_value == 0:
        return f"{label}: Lethe 0 vs baseline {_fmt(baseline_value)} (∞× better)"
    ratio = baseline_value / lethe_value
    direction = "better" if ratio >= 1 else "worse"
    shown = ratio if ratio >= 1 else 1 / ratio
    return (
        f"{label}: Lethe {_fmt(lethe_value)} vs baseline "
        f"{_fmt(baseline_value)} ({shown:.2f}× {direction})"
    )
