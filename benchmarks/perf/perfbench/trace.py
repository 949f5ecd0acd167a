"""Tracing from outside: timing wrappers interposed on public callables.

Nothing under ``src/`` is edited. :meth:`Tracer.interpose` replaces one
attribute of a class or module with a wrapper that records a span
``(name, start, end, parent, request id)`` around the call; spans nest
per thread, so a layer's *self time* is its span minus the part its child
spans cover. Self times are accumulated as the spans close (exact, and
constant memory); the spans themselves are kept in per-thread arrays for
the Chrome-trace file, up to a cap. A span that did not fit is counted
in ``dropped`` and makes the traced run invalid.
"""

from __future__ import annotations

import json
import threading
from array import array
from time import perf_counter
from typing import Any

SPAN_CAP = 3_000_000


class TraceTargetMissing(AttributeError):
    """A name to interpose no longer exists: the traced run must fail
    loudly rather than report a layer as idle."""


class _ThreadLog:
    """One thread's open-span stack, kept spans and per-name totals."""

    __slots__ = ("tid", "thread_name", "stack", "names", "starts", "ends",
                 "parents", "rids", "totals")

    def __init__(self, tid: int, thread_name: str):
        self.tid = tid
        self.thread_name = thread_name
        # Open spans: [child_seconds, kept_index].
        self.stack: list[list] = []
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.rids = array("q")
        # name id -> [calls, span seconds, self seconds]
        self.totals: dict[int, list] = {}


class Tracer:
    def __init__(self, cap: int = SPAN_CAP):
        self.cap = cap
        self.dropped = 0
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        self._kept = 0
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            thread = threading.current_thread()
            log = self._local.log = _ThreadLog(thread.ident or 0, thread.name)
            with self._logs_lock:
                self._logs.append(log)
            return log

    def _open(self, log: _ThreadLog, nid: int, keep: bool, rid: int,
              started: float) -> list:
        index = -1
        if keep:
            if self._kept < self.cap:
                self._kept += 1
                index = len(log.starts)
                log.names.append(nid)
                log.starts.append(started)
                log.ends.append(started)
                log.parents.append(log.stack[-1][1] if log.stack else -1)
                log.rids.append(rid)
            else:
                self.dropped += 1
        frame = [0.0, index]
        log.stack.append(frame)
        return frame

    def _close(self, log: _ThreadLog, nid: int, frame: list,
               started: float, ended: float) -> None:
        log.stack.pop()
        duration = ended - started
        if frame[1] >= 0:
            log.ends[frame[1]] = ended
        if log.stack:
            log.stack[-1][0] += duration
        totals = log.totals.get(nid)
        if totals is None:
            totals = log.totals[nid] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - frame[0]

    def record(self, name: str, started: float, ended: float, rid: int = -1) -> None:
        """A finished span that did not nest on a thread's stack (an
        asynchronous request, from send to reply). It is kept for the
        trace file and counted, but takes no part in self-time accounting."""
        nid = self._name_id(name)
        log = self._log()
        if self._kept < self.cap:
            self._kept += 1
            log.names.append(nid)
            log.starts.append(started)
            log.ends.append(ended)
            log.parents.append(-1)
            log.rids.append(rid)
        else:
            self.dropped += 1
        totals = log.totals.setdefault(nid, [0, 0.0, 0.0])
        totals[0] += 1
        totals[1] += ended - started

    # -- interposition --------------------------------------------------

    def interpose(self, owner: Any, attr: str, name: str, keep: bool = True) -> None:
        """Wrap ``owner.attr`` (a method of a class or a function of a
        module) in a span called ``name``. ``keep=False`` accounts the
        span's time without storing it: for leaf calls made millions of
        times, whose place in the trace file nobody would read."""
        try:
            original = owner.__dict__[attr]
        except (KeyError, AttributeError):
            raise TraceTargetMissing(
                f"cannot trace {name}: {getattr(owner, '__name__', owner)!r} "
                f"has no attribute {attr!r}"
            ) from None
        if not callable(original):
            raise TraceTargetMissing(
                f"cannot trace {name}: {attr!r} is not a plain callable"
            )
        nid = self._name_id(name)
        get_log, open_span, close_span = self._log, self._open, self._close

        def traced(*args, **kwargs):
            log = get_log()
            started = perf_counter()
            frame = open_span(log, nid, keep, -1, started)
            try:
                return original(*args, **kwargs)
            finally:
                close_span(log, nid, frame, started, perf_counter())

        traced.__name__ = getattr(original, "__name__", attr)
        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------

    @property
    def spans(self) -> int:
        return sum(t[0] for log in self._logs for t in log.totals.values())

    def totals(self) -> dict[str, dict[str, float]]:
        """``name -> {calls, span_s, self_s}`` summed over threads."""
        merged: dict[str, dict[str, float]] = {}
        for log in list(self._logs):
            for nid, (calls, span_s, self_s) in list(log.totals.items()):
                into = merged.setdefault(
                    self._names[nid], {"calls": 0, "span_s": 0.0, "self_s": 0.0}
                )
                into["calls"] += calls
                into["span_s"] += span_s
                into["self_s"] += self_s
        return merged

    def peak_overlap(self, name: str) -> int:
        """The most spans called ``name`` open at one instant, over all threads."""
        nid = self._name_ids.get(name)
        edges = []
        for log in list(self._logs):
            for i in range(len(log.starts)):
                if log.names[i] == nid:
                    edges.append((log.starts[i], 1))
                    edges.append((log.ends[i], -1))
        peak = depth = 0
        for _, step in sorted(edges):
            depth += step
            peak = max(peak, depth)
        return peak

    def chrome_events(self, pid: int, process_name: str) -> list[dict]:
        """Kept spans as Chrome-trace complete events (``ts``/``dur`` in µs).

        ``perf_counter`` is the machine's monotonic clock, so the events
        of the benchmark process and of the server child line up.
        """
        events: list[dict] = [
            {"ph": "M", "pid": pid, "name": "process_name",
             "args": {"name": process_name}}
        ]
        for log in list(self._logs):
            events.append(
                {"ph": "M", "pid": pid, "tid": log.tid, "name": "thread_name",
                 "args": {"name": log.thread_name}}
            )
            for i in range(len(log.starts)):
                event = {
                    "ph": "X", "pid": pid, "tid": log.tid,
                    "name": self._names[log.names[i]],
                    "ts": log.starts[i] * 1e6,
                    "dur": (log.ends[i] - log.starts[i]) * 1e6,
                }
                if log.rids[i] >= 0:
                    event["args"] = {"rid": log.rids[i]}
                events.append(event)
        return events

    def root_seconds(self) -> float:
        """Total duration of the kept spans that have no parent. The self
        times accumulated as spans closed (kept or not) must add up to it:
        the accounting invariant the tests check."""
        return sum(
            log.ends[i] - log.starts[i]
            for log in list(self._logs)
            for i in range(len(log.starts))
            if log.parents[i] < 0
        )


def write_chrome_trace(path: str, events: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
