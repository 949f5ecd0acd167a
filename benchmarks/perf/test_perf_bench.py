"""Tests of the repo benchmark itself (``benchmarks/perf``).

Everything runs at a fiftieth of the declared length, so the whole file
takes seconds. What is checked: the benchmark emits exactly what
``BENCHMARK.json`` declares; its inputs depend on the seed and on nothing
else; the counters of the single-threaded workloads repeat exactly; the
span accounting adds up; the percentile helper keeps the "ten samples
beyond" rule; and a wrong answer is counted as a failed op.
"""

from __future__ import annotations

import importlib.util
import io
import json
import random
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from perfbench import gen, ingest_inline, layers, measure, read_settled  # noqa: E402
from perfbench.trace import Tracer, TraceTargetMissing  # noqa: E402

SECONDS = "0.25"
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_run = _load("run")
bench_compare = _load("compare")


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(tmp_path, *args: str) -> tuple[int, dict]:
    """The command as the driver types it; its exit code and last line."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = bench_run.main(
            ["--seed", "7", "--seconds", SECONDS, "--workdir", str(tmp_path), *args]
        )
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def test_declaration_is_within_the_contract(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert declared["paths"] == ["benchmarks/perf"]
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [
        entry["name"]
        for kind in ("workloads", "end_to_end", "per_layer")
        for entry in declared[kind]
    ]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(name) for name in names)
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in declared["workloads"])


def test_declared_layer_metrics_are_the_benchmarks_own_list(declared):
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in layers.PER_LAYER
    ]
    moved = {m["name"] for m in declared["end_to_end"]} | {
        name for name, *_ in layers.PER_LAYER
    } | {"-"}
    assert all(moves in moved for *_, moves, _ in layers.PER_LAYER)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_declared_metric_is_emitted_on_every_workload(declared, tmp_path, trace):
    expected = {
        m["name"]: m["unit"]
        for m in declared["per_layer" if trace == "1" else "end_to_end"]
    }
    for workload in (w["name"] for w in declared["workloads"]):
        code, line = _run(tmp_path, "--workload", workload, "--trace", trace)
        assert code == 0 and line["correct"] and line["failed"] == 0, workload
        assert line["attempted"] >= 1
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        emitted = {name: m["unit"] for name, m in line["metrics"].items()}
        assert emitted == expected, workload
        assert all(
            isinstance(m["value"], (int, float)) for m in line["metrics"].values()
        )
        if trace == "0":
            # At a fiftieth of the length the served store may not have
            # compacted yet, so its write amplification may still read 0.
            assert all(
                m["value"] > 0 for name, m in line["metrics"].items()
                if name != "write_amp"
            ), workload


def test_result_file_carries_provenance_and_no_claim(tmp_path):
    out = tmp_path / "result.json"
    code, _ = _run(tmp_path, "--workload", "ingest_inline", "--trace", "1",
                   "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["claim"] is None
    for field in ("git_commit", "git_dirty", "seed", "scale_factor", "python",
                  "nproc", "started_at", "ended_at", "fsync_caveat"):
        assert field in payload["provenance"]
    result = payload["workloads"]["ingest_inline"]
    assert result["configs"]["engine"]["delete_tile_pages"] == 4
    assert result["op_counts"]["put"] > 0
    assert all("samples" in m for m in result["end_to_end"].values())
    trace = json.loads((tmp_path / "result.json.trace.json").read_text(encoding="utf-8"))
    assert any(event.get("name") == "core.put" for event in trace["traceEvents"])


def test_generator_output_depends_on_the_seed_alone():
    def stream(seed: int) -> list:
        return list(gen.write_stream(random.Random(seed), gen.Model(), 300))

    assert stream(3) == stream(3)
    assert stream(3) != stream(4)
    model = gen.Model()
    ops = list(gen.write_stream(random.Random(5), model, 300))
    replayed = gen.Model()
    for op in ops:
        getattr(replayed, op[0])(*op[1:])
    assert replayed.pairs() == model.pairs()


def _traced(module, tmp_path):
    tracer = Tracer()
    try:
        layers.install_engine_tracing(tracer)
        result = module.run(11, float(SECONDS), tracer, str(tmp_path))
    finally:
        tracer.restore()
    return tracer, result


@pytest.mark.parametrize("module", [ingest_inline, read_settled])
def test_single_threaded_counters_repeat_exactly(module, tmp_path):
    _, first = _traced(module, tmp_path)
    tracer, second = _traced(module, tmp_path)
    assert first.failed == second.failed == 0
    exact = [
        name for name, unit, *_ in layers.PER_LAYER
        if unit in ("count", "bytes", "pages", "ratio") and not name.startswith("trace.")
    ]
    for name in exact:
        assert first.per_layer[name].value == second.per_layer[name].value, name
    for name in ("write_amp", "space_amp"):
        assert first.end_to_end[name].value == second.end_to_end[name].value
    assert (first.per_layer["compaction.delete_persist_max_over_dth"].value
            == second.per_layer["compaction.delete_persist_max_over_dth"].value)

    # Span accounting: self times were summed as spans closed, kept or
    # not; together they must cover exactly the time under the root spans.
    totals = tracer.totals()
    assert tracer.dropped == 0
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(
        tracer.root_seconds(), rel=0.01
    )
    assert totals["core.put"]["self_s"] <= totals["core.put"]["span_s"]


def test_bypassed_layers_read_zero(tmp_path):
    _, result = _traced(ingest_inline, tmp_path)
    for name in ("storage.persist.commit_s", "shard.submit_s", "net.decode_s",
                 "compaction.scheduler.background_runs", "lsm.recovery.open_s"):
        assert result.per_layer[name].value == 0, name
    assert result.per_layer["compaction.busy_s"].value > 0
    _, result = _traced(read_settled, tmp_path)
    for name in ("compaction.busy_s", "storage.buffer.flush_self_s", "core.put.self_s"):
        assert result.per_layer[name].value == 0, name
    assert result.per_layer["filters.bloom.probe_s"].value > 0


def test_a_missing_trace_target_fails_loudly():
    from repro import LSMEngine

    with pytest.raises(TraceTargetMissing):
        Tracer().interpose(LSMEngine, "no_such_method", "core.nothing")


def test_percentiles_keep_ten_samples_beyond():
    assert measure.supported_tail(19) == 50.0
    assert measure.supported_tail(100) == 90.0
    assert measure.supported_tail(999) == 90.0
    assert measure.supported_tail(1000) == 99.0
    assert measure.supported_tail(10_000) == 99.9
    samples = [float(i) for i in range(1, 1001)]
    assert measure.percentile(samples, 50) == 500.0
    assert measure.percentile(samples, 99) == 990.0
    few = measure.Latencies()
    few.samples = [1e-6] * 50
    assert not few.metric(99, "us").supported
    assert few.metric(50, "us").supported


def test_host_speed_states_time_at_the_reference_speed():
    speed = measure.HostSpeed()
    speed.times, speed.ratios = [1.0, 2.0, 3.0], [1.0, 2.0, 1.0]
    assert speed.ratio_at(0.0) == 1.0 and speed.ratio_at(2.2) == 2.0
    # 1.0-1.5 at ratio 1, 1.5-2.5 at ratio 2, 2.5-3.0 at ratio 1
    assert speed.normalised(1.0, 3.0) == pytest.approx(0.5 + 0.5 + 0.5, abs=0.01)
    assert measure.normalised_by([speed, speed], 1.0, 1.4) == pytest.approx(0.4)
    assert speed.slow_share == pytest.approx(1 / 3)


def test_a_wrong_answer_is_a_failed_op(monkeypatch, tmp_path):
    honest = gen.Model.get

    def corrupted(self, key):
        value = honest(self, key)
        return b"corrupted" if value is not None else value

    monkeypatch.setattr(gen.Model, "get", corrupted)
    result = ingest_inline.run(11, float(SECONDS), None, str(tmp_path))
    assert result.failed > 0 and result.failures


def test_compare_flags_regressions_and_unresolved_spreads():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert bench_compare.verdict(steady, steady, "lower", 0.10)[1] == "ok"
    slower = [v * 1.2 for v in steady]
    assert bench_compare.verdict(steady, slower, "lower", 0.10)[1] == "regressed"
    assert bench_compare.verdict(steady, slower, "higher", 0.10)[1] == "ok"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert bench_compare.verdict(steady, noisy, "lower", 0.10)[1] == "unresolved"
