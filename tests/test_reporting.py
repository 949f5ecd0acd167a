"""Unit tests for the bench reporting helpers."""

import calendar
import json
import re
import sys
import time

from repro.bench.harness import TEST_SCALE, ExperimentScale
from repro.bench.reporting import (
    format_series,
    format_table,
    ratio_summary,
    write_experiment_json,
)


class TestFormatTable:
    def test_alignment_and_separator(self):
        text = format_table(
            ["name", "value"],
            [["short", 1], ["a-much-longer-name", 123456]],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("name")
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5
        # columns align: every row has the separator's width or less
        assert all(len(line) <= len(lines[2]) + 2 for line in lines[3:])

    def test_float_formatting(self):
        text = format_table(["x"], [[0.123456], [12345.6], [0.0001234], [0]])
        assert "0.123" in text
        assert "1.23e+04" in text or "12345" in text.replace(",", "")
        assert "0.000123" in text
        assert "\n0" in text

    def test_no_title(self):
        text = format_table(["a"], [[1]])
        assert text.splitlines()[0] == "a"


class TestFormatSeries:
    def test_pairs(self):
        text = format_series("name", [1, 2], [10.5, 20])
        assert text.startswith("name: ")
        assert "1→10.5" in text and "2→20" in text


class TestRatioSummary:
    def test_better(self):
        text = ratio_summary("metric", 1.0, 2.0)
        assert "2.00× better" in text

    def test_worse(self):
        text = ratio_summary("metric", 4.0, 2.0)
        assert "2.00× worse" in text

    def test_zero_cases(self):
        assert "both 0" in ratio_summary("m", 0.0, 0.0)
        assert "∞× better" in ratio_summary("m", 0.0, 5.0)


class TestWriteExperimentJson:
    def test_shared_layout(self, tmp_path):
        path = tmp_path / "out.json"
        payload = write_experiment_json(
            str(path),
            "fig6x",
            {"xs": [1, 2], "ys": [0.5, 0.25]},
            elapsed_seconds=1.23456,
            scale=TEST_SCALE,
        )
        on_disk = json.loads(path.read_text())
        assert on_disk == payload
        assert on_disk["figure"] == "fig6x"
        assert on_disk["elapsed_seconds"] == 1.235
        assert on_disk["series"]["xs"] == [1, 2]
        # The shared contract: sorted keys, trailing newline.
        assert path.read_text().endswith("\n")
        assert list(on_disk) == sorted(on_disk)
        # Provenance: commit, command line, scale, UTC start and end.
        assert re.fullmatch(r"[0-9a-f]{40}|unknown", on_disk["git_hash"])
        assert on_disk["command"] == sys.argv
        assert ExperimentScale(**on_disk["scale"]) == TEST_SCALE
        started, ended = (
            calendar.timegm(time.strptime(on_disk[key], "%Y-%m-%dT%H:%M:%SZ"))
            for key in ("started", "ended")
        )
        assert 1 <= ended - started <= 2
        # lint: allow(deterministic-clock) — the dump stamps real UTC
        # time; this checks the stamp is now in UTC, not local time.
        assert abs(ended - time.time()) < 60

    def test_extra_keys_and_non_json_values(self, tmp_path):
        path = tmp_path / "out.json"
        write_experiment_json(
            str(path),
            "metrics",
            {"when": object()},  # default=str keeps the dump total
            extra={"gate": 0.05},
        )
        on_disk = json.loads(path.read_text())
        assert on_disk["gate"] == 0.05
        assert "elapsed_seconds" not in on_disk
        assert isinstance(on_disk["series"]["when"], str)
