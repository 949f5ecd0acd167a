"""``served_open``: the served path, driven as independent callers.

A child process (``server_main.py``, ``PYTHONHASHSEED=0``) hosts
``LetheServer`` over a durable two-shard ``ShardedEngine``; this process
drives two ``AsyncLetheClient`` connections (one per core). Each
connection owns half of the key domain, so every key is written and read
on one connection and the server's in-order handling of a connection
makes a per-connection model exact.

Phase A is an **open loop** at a fixed 800 requests/s (50 % put, 5 %
delete, 42 % get, 3 % scan of 1/1000 of the domain): independent callers
do not wait for each other, so a stall must delay the requests behind it,
and each latency is taken from the request's *due* time. The rate is
about 40 % of the saturated rate; at 1 500 requests/s the tail was not
repeatable. Phase B is a **closed loop**: both connections keep 32
requests in flight, which gives the saturated request rate.

This is the only workload in which ``net`` and ``shard`` do any work.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from repro.net import AsyncLetheClient, LetheClient

from perfbench import gen, layers
from perfbench.measure import (
    PROBE_INTERVAL_S,
    HostSpeed,
    InvalidRun,
    Latencies,
    WorkloadResult,
    normalised_by,
    percentile,
    quiesce,
    report_timings,
    scaled,
)

NAME = "served_open"
WHY = (
    "open-loop requests at a fixed rate over sockets to a durable 2-shard "
    "server process, then saturation: the only workload where net and shard work"
)

SERVER_MAIN = Path(__file__).resolve().parents[1] / "server_main.py"
CONNECTIONS = 2
OPEN_LOOP_RATE = 800.0
# Phase A takes this share of --seconds; phase B's request count is sized
# to take about the rest at the saturated rate.
OPEN_LOOP_SHARE = 0.75
CLOSED_LOOP_REQUESTS_AT_REFERENCE = 16_000
CLOSED_LOOP_WINDOW = 32
PUT_SHARE, DELETE_SHARE, GET_SHARE = 0.50, 0.05, 0.42
SCAN_SPAN = gen.DOMAIN // 1000
FINAL_SCAN_CHUNKS = 16
# Run-validity guards.
MAX_GENERATOR_LATE_P99_S = 0.020
BACKLOG_GRACE_S = 2.0
REQUEST_TIMEOUT_S = 30.0
CHILD_TIMEOUT_S = 60.0
SETUP_REPEATS = 3


def _request(rng: random.Random, model: gen.Model, stamp: int):
    """One request from the mix, applied to its connection's model:
    ``(op to send, expected answer, class)``."""
    draw = rng.random()
    if draw < PUT_SHARE or not model.keys:
        fresh = not model.keys or rng.random() < 0.5
        key = model.fresh_key(rng) if fresh else model.random_live_key(rng)
        value = b"%d" % stamp
        model.put(key, value, stamp)
        return ("put", key, value, stamp), None, "write"
    if draw < PUT_SHARE + DELETE_SHARE:
        key = model.random_live_key(rng)
        model.delete(key)
        return ("delete", key), None, "write"
    if draw < PUT_SHARE + DELETE_SHARE + GET_SHARE:
        key = gen.acked_key(rng, model)
        return ("get", key), model.get(key), "get"
    lo = rng.randrange(model.key_lo, model.key_hi - SCAN_SPAN)
    return ("scan", lo, lo + SCAN_SPAN), model.scan(lo, lo + SCAN_SPAN), "scan"


def _requests(seed: int, seconds: float):
    """Both phases' requests, per connection, in send order."""
    rng = random.Random(seed)
    half = gen.DOMAIN // CONNECTIONS
    models = [gen.Model(c * half, (c + 1) * half) for c in range(CONNECTIONS)]
    open_count = max(20, round(OPEN_LOOP_RATE * seconds * OPEN_LOOP_SHARE))
    closed_count = scaled(CLOSED_LOOP_REQUESTS_AT_REFERENCE, seconds, 20)
    open_loop = [[] for _ in range(CONNECTIONS)]
    closed_loop = [[] for _ in range(CONNECTIONS)]
    for index in range(open_count):
        c = rng.randrange(CONNECTIONS)
        open_loop[c].append(
            (index / OPEN_LOOP_RATE, *_request(rng, models[c], index))
        )
    for index in range(open_count, open_count + closed_count):
        c = index % CONNECTIONS
        closed_loop[c].append(_request(rng, models[c], index))
    return models, open_loop, closed_loop


class _Server:
    """The child process and its one-line-each-way protocol."""

    def __init__(self, workdir: str, write_ops: int, trace_out: str | None):
        self.store = tempfile.mkdtemp(prefix="served-", dir=workdir)
        command = [
            sys.executable, str(SERVER_MAIN), "--dir", self.store,
            "--write-ops", str(write_ops),
        ]
        if trace_out:
            command += ["--trace-out", trace_out]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
        try:
            ready = self._read_line()
            self.port, self.startup_ratio = ready["port"], ready["startup_ratio"]
            with LetheClient("127.0.0.1", self.port) as probe:
                probe.ping()
        except BaseException:
            self.kill()
            raise

    def _read_line(self) -> dict:
        ready, _, _ = select.select([self.process.stdout], [], [], CHILD_TIMEOUT_S)
        line = self.process.stdout.readline() if ready else ""
        if not line:
            raise InvalidRun("the server process did not answer")
        return json.loads(line)

    def quit(self) -> dict:
        """Stop the server, collect its report, wait until it has ended."""
        try:
            self.process.stdin.write("quit\n")
            self.process.stdin.flush()
            report = self._read_line()
            self.process.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self._release()
        return report

    def kill(self) -> None:
        self.process.kill()
        self.process.wait()
        self._release()

    def _release(self) -> None:
        for pipe in (self.process.stdin, self.process.stdout):
            pipe.close()
        shutil.rmtree(self.store, ignore_errors=True)


class _Recorder:
    """Collects replies: wrong answers as they come, and for each reply
    ``(class, measured from, replied at)``; latencies are worked out once
    the server's host-speed log is in."""

    def __init__(self, result: WorkloadResult, tracer, speed: HostSpeed):
        self.result = result
        self.tracer = tracer
        self.speed = speed
        self.replies: list[tuple[str, float, float]] = []
        self.late: list[float] = []

    def probe_if_due(self) -> None:
        if not self.speed.times or perf_counter() - self.speed.times[-1] >= PROBE_INTERVAL_S:
            self.speed.probe()

    def reply(self, future, kind, expected, measured_from, sent, rid) -> None:
        now = perf_counter()
        self.result.attempted += 1
        if future.cancelled() or future.exception() is not None:
            # an error reply, a refused request or a timeout
            self.result.fail(f"{kind} request failed")
            return
        answer = future.result()
        if kind == "scan":
            answer = [tuple(pair) for pair in answer]
        if answer != expected:
            self.result.fail(f"{kind} request answered wrongly")
        self.replies.append((kind, measured_from, now))
        if self.tracer is not None:
            self.tracer.record("net.client.request", sent, now, rid)


async def _open_loop(client, connection, requests, begun, recorder) -> list:
    """Send each request when it is due, whatever happened to the last."""
    futures = []
    for sequence, (offset, op, expected, kind) in enumerate(requests):
        due = begun + offset
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        recorder.probe_if_due()
        sent = perf_counter()
        recorder.late.append(max(0.0, sent - due))
        future = await client.submit(op)
        rid = (connection << 32) | sequence
        future.add_done_callback(
            lambda f, k=kind, e=expected, d=due, s=sent, r=rid:
                recorder.reply(f, k, e, d, s, r)
        )
        futures.append(future)
    return futures


async def _closed_loop(client, connection, requests, recorder) -> None:
    """Keep ``CLOSED_LOOP_WINDOW`` requests in flight. Replies arrive in
    send order, so a bounded queue of futures is the window: ``put``
    blocks while it is full, and the collector awaits them first in,
    first out."""
    window: asyncio.Queue = asyncio.Queue(maxsize=CLOSED_LOOP_WINDOW)

    async def collect() -> None:
        while True:
            item = await window.get()
            if item is None:
                return
            future, kind, expected, sent, rid = item
            try:
                await asyncio.wait_for(future, REQUEST_TIMEOUT_S)
            except Exception:  # noqa: BLE001 - counted as a failed request
                pass
            recorder.reply(future, kind, expected, sent, sent, rid)

    collector = asyncio.ensure_future(collect())
    for sequence, (op, expected, kind) in enumerate(requests):
        recorder.probe_if_due()
        sent = perf_counter()
        future = await client.submit(op)
        rid = (connection << 32) | (1 << 31) | sequence
        await window.put((future, kind, expected, sent, rid))
    await window.put(None)
    await collector


async def _drive(port, models, open_loop, closed_loop, recorder, result) -> dict:
    clients = [
        await AsyncLetheClient.connect("127.0.0.1", port) for _ in range(CONNECTIONS)
    ]
    try:
        quiesce()
        begun = perf_counter() + 0.05
        sent = await asyncio.gather(*(
            _open_loop(clients[c], c, open_loop[c], begun, recorder)
            for c in range(CONNECTIONS)
        ))
        open_sent_wall = perf_counter() - begun
        outstanding = [f for futures in sent for f in futures if not f.done()]
        if outstanding:
            _, pending = await asyncio.wait(outstanding, timeout=BACKLOG_GRACE_S)
            if pending:
                raise InvalidRun(
                    f"phase A ended with {len(pending)} requests still queued "
                    f"after {BACKLOG_GRACE_S} s: the open-loop rate is above capacity"
                )
        open_replies = len(recorder.replies)

        quiesce()
        closed_from = perf_counter()
        await asyncio.gather(*(
            _closed_loop(clients[c], c, closed_loop[c], recorder)
            for c in range(CONNECTIONS)
        ))
        closed_to = perf_counter()

        expected = [pair for model in models for pair in model.pairs()]
        found = []
        step = gen.DOMAIN // FINAL_SCAN_CHUNKS
        for chunk in range(FINAL_SCAN_CHUNKS):
            pairs = await clients[0].call(
                ("scan", chunk * step, (chunk + 1) * step - 1)
            )
            found.extend(tuple(pair) for pair in pairs)
        result.check(found == expected, "final full scan over the socket")
    finally:
        for client in clients:
            await client.close()
    return {
        "open_replies": open_replies,
        "open_sent_wall": open_sent_wall,
        "closed_from": closed_from,
        "closed_to": closed_to,
    }


def _set_up(seed: int, seconds: float, workdir: str, trace_out, speed: HostSpeed):
    """Requests from the seed, and a server that answers. The duration is
    stated at the reference speed: this process's part by its own
    probes, the wait for the server by the server's own reading."""
    speed.probe()
    started = perf_counter()
    models, open_loop, closed_loop = _requests(seed, seconds)
    sent = [r for part in (open_loop, closed_loop) for c in part for r in c]
    writes = sum(1 for request in sent if request[-1] == "write")
    generated = perf_counter()
    speed.probe()
    server = _Server(workdir, writes, trace_out)
    took = (
        speed.normalised(started, generated)
        + (perf_counter() - generated) / server.startup_ratio
    )
    return models, open_loop, closed_loop, sent, server, took


def run(seed: int, seconds: float, tracer, workdir: str) -> WorkloadResult:
    result = WorkloadResult(NAME)
    trace_out = os.path.join(workdir, "server-trace.json") if tracer else None
    speed = HostSpeed()
    setups = []
    server = None
    try:
        for _ in range(1 if tracer else SETUP_REPEATS):
            if server is not None:
                server.quit()
                server = None
            models, open_loop, closed_loop, sent, server, took = _set_up(
                seed, seconds, workdir, trace_out, speed
            )
            setups.append(took)
        result.count_ops(request[-3] for request in sent)

        recorder = _Recorder(result, tracer, speed)
        driven = asyncio.run(asyncio.wait_for(
            _drive(server.port, models, open_loop, closed_loop, recorder, result),
            timeout=150.0,
        ))
        report, server = server.quit(), None
    finally:
        if server is not None:
            server.kill()

    late = sorted(recorder.late)
    late_p99 = percentile(late, 99)
    if late_p99 > MAX_GENERATOR_LATE_P99_S:
        raise InvalidRun(
            f"the open-loop generator ran {late_p99 * 1e3:.2f} ms late at p99 "
            f"(limit {MAX_GENERATOR_LATE_P99_S * 1e3:.0f} ms)"
        )
    result.check(
        report["server"]["protocol_errors"] == 0, "the server saw protocol errors"
    )
    result.configs["shard"] = report["config"]

    # A request's time is spent partly in this process and partly in the
    # server's, each on a core of its own speed: divide by the mean.
    server_speed = HostSpeed()
    server_speed.times = report["speed"]["times"]
    server_speed.ratios = report["speed"]["ratios"]
    speeds = [speed, server_speed]
    lat = {"write": Latencies(), "get": Latencies(), "scan": Latencies()}
    every = []
    for index, (kind, measured_from, replied) in enumerate(recorder.replies):
        middle = (measured_from + replied) / 2.0
        ratio = (speed.ratio_at(middle) + server_speed.ratio_at(middle)) / 2.0
        every.append((replied - measured_from) / ratio)
        if index < driven["open_replies"]:  # phase B measures a rate only
            lat[kind].samples.append(every[-1])
    closed_requests = sum(len(c) for c in closed_loop)
    closed_wall = normalised_by(speeds, driven["closed_from"], driven["closed_to"])
    # The open loop lasts as long as its schedule says, whatever the
    # server does: only the closed loop's duration measures anything.
    result.timed_wall_s = closed_wall
    result.raw_wall_s = driven["closed_to"] - driven["closed_from"]
    result.host_slow_share = (speed.slow_share + server_speed.slow_share) / 2.0
    report_timings(
        result, setups, closed_requests, closed_wall, lat["write"], lat["get"],
        lat["scan"], report["write_amp"], report["space_amp"],
        report["delete_persist_max_over_dth"],
    )
    user_bytes = sum(model.user_bytes() for model in models)
    result.untraced.update({
        "storage.persist.bytes_on_disk_per_user_byte": report["bytes_on_disk"] / user_bytes,
        "net.gen_late_p99_ms": late_p99 * 1e3,
        "net.open_loop_req_per_s": driven["open_replies"] / driven["open_sent_wall"],
    })
    if tracer:
        result.per_layer = _per_layer(
            report, tracer, sum(every) / len(every), result.untraced
        )
        with open(trace_out, encoding="utf-8") as handle:
            events = json.load(handle)["traceEvents"]
        result.child_trace = {
            "spans": report["trace"]["spans"],
            "dropped": report["trace"]["dropped"],
            "events": events,
        }
    return result


def _per_layer(report, tracer, mean_latency, untraced) -> dict:
    server, totals = report["server"], dict(report["trace"]["totals"])
    totals.update(tracer.totals())  # the client's spans live in this process
    requests = server["requests_completed"]
    writes = sum(
        report["counts"][name] for name in
        ("entries_ingested", "point_tombstones_ingested", "blind_deletes_skipped")
    )
    per_batch = writes / server["write_batches"] if server["write_batches"] else 0.0

    def span_s(name: str) -> float:
        return totals.get(name, {}).get("span_s", 0.0)

    # Server time that can be named, per request: decode, encode and the
    # read calls once each; a write waits for its whole batch (submit,
    # ticket, sync), so those spans count once per request of the batch.
    # Spans are joined by name and count only: the program does not yet
    # carry a request id from the socket to the shard.
    attributed = (
        span_s("net.decode") + span_s("net.encode")
        + span_s("shard.get") + span_s("shard.scan")
        + per_batch * (
            span_s("shard.submit") + span_s("shard.ticket_wait") + span_s("shard.sync")
        )
    )
    extras = {**report["tree"], **untraced}
    extras.update({
        "compaction.scheduler.concurrent_peak": report["trace"]["concurrent_peak"],
        "shard.writes_per_batch": per_batch,
        "shard.entry_imbalance": report["entry_imbalance"],
        "net.requests": requests,
        "net.write_batches": server["write_batches"],
        "net.protocol_errors": server["protocol_errors"],
        "net.unattributed_ms": (mean_latency - attributed / requests) * 1e3,
    })
    return layers.layer_metrics(report["counts"], report["counts"], totals, extras)
