"""Shared measuring pieces: engine shape, scaling, percentiles, results."""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_left
from dataclasses import dataclass, field
from time import perf_counter

from repro import lethe_config
from repro.core.config import EngineConfig
from repro.storage.persist import config_to_dict

# Every workload's op counts are stated for a 30 s timed phase on the
# 2-core box the benchmark was sized on; ``--seconds`` scales all of them
# by one common factor. Counts, not durations, are fixed so that every
# counter of the single-threaded workloads repeats exactly.
REFERENCE_SECONDS = 30.0

# The shared engine shape (ISSUE 11): a 64-entry buffer, 128-entry files
# and T=10 reach three disk levels within a few thousand inserts.
ENGINE_SHAPE = dict(
    buffer_pages=16,
    page_entries=4,
    file_pages=32,
    size_ratio=10,
    level1_tiered=True,
)
KIWI_H = 4
# FADE's D_th as a share of the simulated run time of the write stream.
DTH_SHARE = 0.25

PERCENTILE_LEVELS = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_SAMPLES_BEYOND = 10


def scaled(count_at_reference: int, seconds: float, floor: int = 1) -> int:
    return max(floor, round(count_at_reference * seconds / REFERENCE_SECONDS))


def engine_config(write_ops: int, **overrides) -> EngineConfig:
    """The Lethe config (FADE + KiWi h=4) on the shared shape.

    ``write_ops`` sizes ``D_th``: the simulated clock moves 1/1024 s per
    write, so the run lasts ``write_ops / 1024`` simulated seconds.
    Observability and simulated-device sleeps stay off so no number is
    mostly instrumentation or ``sleep()``.
    """
    run_seconds = max(1, write_ops) / 1024.0
    return lethe_config(
        DTH_SHARE * run_seconds,
        KIWI_H,
        observability=False,
        real_io_seconds=0.0,
        **ENGINE_SHAPE,
        **overrides,
    )


def quiesce() -> None:
    """Before each timed phase: garbage collected. GC stays on during
    the phase, because users pay for it."""
    gc.collect()


def _rank(n_samples: int, level: float) -> int:
    """Nearest rank of ``level`` (a percentile with at most two decimals)
    among ``n_samples``, in whole numbers: 99.9 is not a binary fraction."""
    return max(1, -(-n_samples * round(level * 100) // 10_000))


def percentile(sorted_samples: list[float], level: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_samples:
        raise ValueError("percentile of no samples")
    return sorted_samples[_rank(len(sorted_samples), level) - 1]


def supported_tail(n_samples: int) -> float:
    """The highest of the standard levels with at least ten samples
    beyond it (the median when even p90 has fewer)."""
    best = PERCENTILE_LEVELS[0]
    for level in PERCENTILE_LEVELS:
        if n_samples - _rank(n_samples, level) >= MIN_SAMPLES_BEYOND:
            best = level
    return best


@dataclass
class Metric:
    value: float
    unit: str
    samples: int = 1
    # False when a tail percentile was asked of too few samples to have
    # ten beyond it; the number is still reported, flagged.
    supported: bool = True


class Latencies:
    """Per-op latency samples of one op class, in seconds."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def metric(self, level: float, unit: str) -> Metric:
        factor = {"us": 1e6, "ms": 1e3, "s": 1.0}[unit]
        ordered = sorted(self.samples)
        if not ordered:
            return Metric(0.0, unit, 0, supported=False)
        return Metric(
            percentile(ordered, level) * factor,
            unit,
            len(ordered),
            supported=level <= supported_tail(len(ordered)),
        )


@dataclass
class WorkloadResult:
    """Everything one workload run reports."""

    workload: str
    attempted: int = 0
    failed: int = 0
    end_to_end: dict[str, Metric] = field(default_factory=dict)
    per_layer: dict[str, Metric] = field(default_factory=dict)
    configs: dict[str, dict] = field(default_factory=dict)
    op_counts: dict[str, int] = field(default_factory=dict)
    # The timed phases' wall time: at the reference speed, and as measured.
    timed_wall_s: float = 0.0
    raw_wall_s: float = 0.0
    # Share of the host-speed probes that found the core running slow.
    host_slow_share: float = 0.0
    failures: list[str] = field(default_factory=list)
    # Per-layer numbers that tracing would distort (tail latencies,
    # recovery time) or cannot see (end-state ratios): every run measures
    # them untraced, and a traced run reports its untraced twin's.
    untraced: dict[str, float] = field(default_factory=dict)
    # The server child's part of a traced run: spans, dropped, Chrome events.
    child_trace: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        """Count one failed op; remember what the first few were."""
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked output."""
        self.attempted += 1
        if not ok:
            self.fail(what)

    def note_config(self, name: str, config: EngineConfig) -> None:
        self.configs[name] = config_to_dict(config)

    def count_ops(self, ops) -> None:
        for op in ops:
            self.op_counts[op[0]] = self.op_counts.get(op[0], 0) + 1


def report_timings(result: WorkloadResult, setups: list[float], ops: int,
                   wall: float, write_lat: Latencies, get_lat: Latencies,
                   scan_lat: Latencies, write_amp: float, space_amp: float,
                   delete_persist: float) -> None:
    """Fill in the metrics every workload reports the same way.

    End to end: medians, a rate and the two amplification figures, which
    are steady on every workload. The tails go to the per-layer list: on
    the open-loop workload a slow spell of the host raises the server's
    utilisation, and queueing makes the tail grow far more than in
    proportion, so no bound of at most a quarter holds there. Space is
    bytes stored per byte of live data, ``1 + space_amplification()``:
    the paper's ``samp`` is near zero right after a deep compaction, and a
    metric that can read 0 has no relative bound.
    """
    result.end_to_end = {
        "setup_s": Metric(statistics.median(setups), "s", len(setups)),
        "ops_per_s": Metric(ops / wall, "ops/s", ops),
        "write_p50_us": write_lat.metric(50, "us"),
        "get_p50_us": get_lat.metric(50, "us"),
        "scan_p50_us": scan_lat.metric(50, "us"),
        "write_amp": Metric(write_amp, "ratio"),
        "space_amp": Metric(1.0 + space_amp, "ratio"),
    }
    result.untraced.update({
        "core.write_p99_us": write_lat.metric(99, "us").value,
        "core.write_p999_ms": write_lat.metric(99.9, "ms").value,
        "core.get_p99_us": get_lat.metric(99, "us").value,
        "compaction.delete_persist_max_over_dth": delete_persist,
    })


class InvalidRun(RuntimeError):
    """A run-validity guard tripped: the numbers would not mean what
    their names say, so the workload aborts without reporting any."""


# Host-speed normalisation (see HostSpeed).
_PROBE_RANGE = range(40)
PROBE_NOMINAL_S = 17.5e-6
PROBE_REPEATS = 5
PROBE_INTERVAL_S = 0.01
SLOW_RATIO = 1.25


class _ProbeItem:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


class HostSpeed:
    """How fast the host ran this process, sampled while it was measured.

    The sandbox's cores run at one of two speeds. While a neighbour keeps
    the sibling hardware thread busy, interpreter work takes 1.5 to 1.9
    times as long; such spells last from tenths of a second to minutes
    and cover anything from a tenth to nearly all of a run, on each core
    independently. No median over the ops of a run survives that, and
    neither does a median over ten runs.

    So every measured time is stated at one reference speed. ``probe()``
    times a fixed piece of interpreter work and records ``ratio``, its
    reading over ``PROBE_NOMINAL_S`` (the reading on an undisturbed core
    of the machine the benchmark was sized on). The work is what the
    engine's is made of (small objects made, hashed, sorted and read
    back), because a slow spell costs that 1.7 to 1.9 times, as it does
    a ``get`` or a ``scan``, and plain arithmetic only 1.5. It runs five
    times and the quickest reading counts: the first ones pay for the
    caches the workload evicted.

    The timed loops probe every ten milliseconds and divide each
    stretch's latencies and wall time by the mean ratio of its two
    flanking probes; ``normalised(t0, t1)`` does the same for any other
    interval. At full speed the ratio is 1 within a few percent, so an
    undisturbed run reads as measured; on another machine every time is
    scaled by one constant, which no comparison of two commits sees.

    ``slow_share`` is the share of probes at ``SLOW_RATIO`` or more; the
    result file keeps it, and each workload's raw wall time, beside the
    normalised numbers.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.ratios: list[float] = []

    def probe(self) -> float:
        best = 1.0
        for _ in range(PROBE_REPEATS):
            started = perf_counter()
            held, order, total = {}, [], 0
            for i in _PROBE_RANGE:
                item = _ProbeItem(i * 7919 % 1000, i)
                held[item.key] = item
                order.append((item.key, -i))
            order.sort()
            for key, _ in order:
                total += held[key].value
            stopped = perf_counter()
            best = min(best, stopped - started)
        ratio = best / PROBE_NOMINAL_S
        self.times.append(stopped)
        self.ratios.append(ratio)
        return ratio

    def ratio_at(self, when: float) -> float:
        """The ratio of the probe nearest in time to ``when``."""
        times = self.times
        if not times:
            return 1.0
        at = bisect_left(times, when)
        if at == 0:
            return self.ratios[0]
        if at == len(times):
            return self.ratios[-1]
        nearer = at if times[at] - when < when - times[at - 1] else at - 1
        return self.ratios[nearer]

    def normalised(self, started: float, ended: float) -> float:
        """``ended - started`` at the reference speed."""
        return normalised_by([self], started, ended)

    def watch(self, items, every: int = 2000):
        """Pass ``items`` through, probing after every ``every`` of them:
        for set-up code that is one long loop of the benchmark's own."""
        for count, item in enumerate(items, 1):
            yield item
            if count % every == 0:
                self.probe()

    def timed(self, action):
        """Run ``action()``; return ``(its result, its duration at the
        reference speed)``. Probes taken inside ``action`` refine it."""
        self.probe()
        started = perf_counter()
        outcome = action()
        ended = perf_counter()
        self.probe()
        return outcome, self.normalised(started, ended)

    @property
    def slow_share(self) -> float:
        if not self.ratios:
            return 0.0
        return sum(r >= SLOW_RATIO for r in self.ratios) / len(self.ratios)


def normalised_by(speeds: list[HostSpeed], started: float, ended: float,
                  step: float = PROBE_INTERVAL_S) -> float:
    """``ended - started`` at the reference speed: each step of the
    interval is divided by the ratio of the probe nearest to it in time
    (the mean over ``speeds`` when several processes shared the work)."""
    total, at = 0.0, started
    while at < ended:
        piece = min(step, ended - at)
        ratios = [speed.ratio_at(at + piece / 2.0) for speed in speeds]
        total += piece * len(ratios) / sum(ratios)
        at += piece
    return total


@dataclass
class Phase:
    """One timed loop: its wall time as measured and at the reference speed."""

    raw_wall: float = 0.0
    wall: float = 0.0

    def add_to(self, result: "WorkloadResult") -> None:
        result.timed_wall_s += self.wall
        result.raw_wall_s += self.raw_wall


def matches_expected(answer, op: tuple) -> bool:
    return answer == op[-1]


def timed_ops(handlers: dict, ops: list[tuple], result: WorkloadResult,
              latencies: dict[str, Latencies], speed: HostSpeed) -> Phase:
    """Single-thread closed loop: time each op, check each answer.

    ``handlers[kind] = (callable, n_args, verify)``: the callable
    receives ``op[1:1 + n_args]``; ``verify(answer, op)`` says whether
    the answer is the model's (``None``: nothing to check, as for
    writes). ``latencies[kind]`` collects samples (several kinds may
    share one collector), already divided by the host-speed ratio of
    their stretch (see :class:`HostSpeed`). Probing time is no part of
    the loop's wall time.
    """
    sinks = list({id(lat): lat.samples for lat in latencies.values()}.values())
    phase = Phase()

    def close_stretch(ended: float) -> float:
        after = speed.probe()
        ratio = (before + after) / 2.0
        for sink, mark in zip(sinks, marks):
            sink[mark:] = [value / ratio for value in sink[mark:]]
        phase.raw_wall += ended - stretch_from
        phase.wall += (ended - stretch_from) / ratio
        return after

    before = speed.probe()
    marks = [len(sink) for sink in sinks]
    stretch_from = perf_counter()
    probe_due = stretch_from + PROBE_INTERVAL_S
    for op in ops:
        call, n_args, verify = handlers[op[0]]
        sink = latencies[op[0]].samples
        started = perf_counter()
        answer = call(*op[1:1 + n_args])
        stopped = perf_counter()
        sink.append(stopped - started)
        if verify is not None and not verify(answer, op):
            result.fail(f"{op[0]}{op[1:1 + n_args]} answered wrongly")
        if stopped >= probe_due:
            before = close_stretch(perf_counter())
            marks = [len(sink) for sink in sinks]
            stretch_from = perf_counter()
            probe_due = stretch_from + PROBE_INTERVAL_S
    close_stretch(perf_counter())
    result.attempted += len(ops)
    return phase
