"""Simulated (logical) clock for deterministic, fast experiments.

The paper's evaluation measures *delete persistence latency* in wall-clock
seconds under a fixed ingestion rate (2^10 unique entries/second by
default). Re-running that on wall-clock time would make every experiment
take hours and be non-deterministic. Instead, all Lethe mechanisms in this
reproduction (file ages ``amax``, per-level TTLs ``d_i``, tombstone
persistence latencies) read time from a :class:`SimulatedClock` that the
engine advances by ``1 / ingestion_rate`` seconds per ingested entry.

Because compactions in LSM-trees are *driven by ingestion* (a level fills
up only when enough entries arrive), coupling the clock to the ingestion
stream reproduces exactly the timing relationships the paper relies on,
while keeping experiments deterministic and fast.

The clock may also be advanced manually (e.g. to model an idle period after
which TTLs expire), which the FADE tests use to provoke delete-driven
compactions without ingesting filler data.

Thread safety
-------------
A sharded cluster shares **one** clock across all member engines so FADE
TTLs and persistence latencies stay on a single cluster-wide timeline.
Several threads may tick that clock at once — callers writing to
different members, or the per-shard workers of an ingest session
(:mod:`repro.shard.parallel`) — and ``self._now += step`` is a
read-modify-write the interpreter may preempt mid-update. :meth:`tick`
and :meth:`advance` therefore mutate under an internal lock: after any
interleaving of N ticks the clock has moved by exactly ``N / I`` seconds.
Reads (:attr:`now`, :attr:`ticks`) are single attribute loads — atomic
under the GIL — and stay lock-free, so the hot read path (every TTL and
file-age comparison) pays nothing.
"""

from __future__ import annotations

import threading

from repro.core.errors import ConfigError


class SimulatedClock:
    """A monotonically non-decreasing logical clock measured in seconds.

    Parameters
    ----------
    ingestion_rate:
        Unique-entry ingestion rate ``I`` in entries/second (Table 1 of the
        paper uses ``I = 1024``). Each call to :meth:`tick` advances time by
        ``1 / I`` seconds.
    start:
        Initial time in seconds. Defaults to ``0.0``.
    """

    __slots__ = ("_now", "_ingestion_rate", "_tick_seconds", "_ticks", "_lock")

    def __init__(self, ingestion_rate: float = 1024.0, start: float = 0.0):
        if ingestion_rate <= 0:
            raise ConfigError(f"ingestion_rate must be positive, got {ingestion_rate}")
        if start < 0:
            raise ConfigError(f"clock start must be non-negative, got {start}")
        self._ingestion_rate = float(ingestion_rate)
        self._tick_seconds = 1.0 / float(ingestion_rate)
        self._now = float(start)
        self._ticks = 0
        self._lock = threading.Lock()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def ingestion_rate(self) -> float:
        """The ingestion rate ``I`` (entries/second) that drives the clock."""
        return self._ingestion_rate

    @property
    def ticks(self) -> int:
        """Number of ingestion ticks seen so far."""
        return self._ticks

    def tick(self, count: int = 1) -> float:
        """Advance time as if ``count`` entries were ingested.

        Returns the new current time.
        """
        if count < 0:
            raise ValueError(f"tick count must be non-negative, got {count}")
        with self._lock:
            self._ticks += count
            self._now += count * self._tick_seconds
            return self._now

    def advance(self, seconds: float) -> float:
        """Advance time by an explicit duration (idle time, no ingestion).

        Returns the new current time.
        """
        if seconds < 0:
            raise ValueError(f"cannot move time backwards (advance by {seconds})")
        with self._lock:
            self._now += seconds
            return self._now

    def elapsed_since(self, timestamp: float) -> float:
        """Seconds elapsed between ``timestamp`` and now (clamped at 0)."""
        return max(0.0, self._now - timestamp)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulatedClock(now={self._now:.6f}s, rate={self._ingestion_rate}/s)"
