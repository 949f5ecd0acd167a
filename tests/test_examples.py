"""Smoke tests: every example script must run clean and tell its story."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, f"{name} failed:\n{result.stderr}"
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "tombstones persisted: 1" in out
    assert "full page drops" in out
    assert "get(300) (timestamp out of range) -> 'profile-300'" in out


def test_ecommerce_order_deletes():
    out = run_example("ecommerce_order_deletes.py")
    assert "NOT MET" in out  # the baseline fails the SLA audit
    assert out.count("MET") >= 2
    assert "readable orders: []" in out  # forgotten data is unreadable


def test_timeseries_retention():
    out = run_example("timeseries_retention.py")
    assert "remaining documents inside purged window: 0" in out
    # KiWi's purge bill must be far below the classic full rewrite
    totals = [
        int(line.split()[1])
        for line in out.splitlines()
        if line.strip().startswith("TOTAL:")
    ]
    assert len(totals) == 2
    classic_reads, kiwi_reads = totals
    assert kiwi_reads < classic_reads / 3


def test_layout_tuning():
    out = run_example("layout_tuning.py")
    assert "optimal delete-tile granularity h" in out
    assert "advisor's pick" in out
    assert "measured optimum" in out


def test_streaming_window():
    out = run_example("streaming_window.py")
    assert "events older than the window still readable: 0" in out
    assert "tombstones still on disk: 0" in out
    assert "full page drops" in out


def test_sharded_cluster():
    out = run_example("sharded_cluster.py")
    assert "k-way merged from shards" in out
    assert "entries still inside purged window: 0" in out
    assert "results identical to single engine: True" in out
    # the hot shard must actually shrink after the split
    assert "after splitting shard 0" in out


def test_cli_list_and_table2():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert "fig6a" in result.stdout and "table2" in result.stdout
    result = subprocess.run(
        [sys.executable, "-m", "repro", "table2"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert "Table 2 (leveling)" in result.stdout


def test_cli_rejects_unknown():
    # "shard" is a retired post-paper driver: it must not run any more.
    for name in ("fig99", "shard"):
        result = subprocess.run(
            [sys.executable, "-m", "repro", name],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 2, name
