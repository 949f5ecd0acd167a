"""Runtime lock-order validation ("lockdep") for the engine's lock graph.

The documented lock hierarchy (``docs/static_analysis.md`` carries the
full rank table; ``docs/compaction.md`` explains the engine core's slice
of it) existed only as prose until this module: nothing stopped a new
code path from taking the commit lock while holding the tree's install
lock and shipping a latent deadlock that only a rare interleaving would
ever exhibit. Here every lock in the engine is constructed with a
*name* and a *rank*, and — when validation is enabled — each thread
keeps a stack of the ranks it currently holds. Acquiring a lock whose
rank is not strictly greater than every held rank (or re-entering a
non-reentrant lock) raises :class:`LockOrderViolation` immediately,
with the acquisition call sites of *both* locks involved. Running the
ordinary test suite with validation on therefore turns every
concurrency stress test into a lock-order race detector: a violation
fires on the first wrong *acquisition order*, not on the eventual
deadlock.

Passthrough contract
--------------------
Validation costs real work per acquisition (a thread-local stack walk
and a call-site capture), which must never tax the production hot path.
When validation is **off** the :class:`OrderedLock` family does not
wrap anything: the constructors return the plain ``threading``
primitive itself (``OrderedLock(...) is a threading.Lock``), so the
disabled configuration is not "cheap", it is *free* — the overhead gate
in ``benchmarks/test_obs_overhead.py`` keeps this honest, and
``tests/test_locks.py`` pins the returned types.

The flag is read at *lock construction* time: enable validation (the
``REPRO_LOCKDEP`` environment variable, or :func:`set_validation`)
before building the engines whose locks should be checked.
``tests/conftest.py`` turns it on for the whole suite.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Any

__all__ = [
    "LockOrderViolation",
    "OrderedCondition",
    "OrderedLock",
    "OrderedRLock",
    "OrderedSemaphore",
    "is_validating",
    "set_validation",
    "held_ranks",
]

# ---------------------------------------------------------------------------
# Rank table — the enforced lock hierarchy, outermost (lowest) first.
# docs/static_analysis.md renders this as the source-of-truth table; keep
# the two in sync. Gaps are deliberate room for future locks.
# ---------------------------------------------------------------------------

RANK_CLIENT_POOL_PERMITS = 1000  # net/client.py ClientPool._available
RANK_CLIENT_POOL_STATE = 1200    # net/client.py ClientPool._lock
RANK_INGEST_SESSION = 2000       # shard/parallel.py IngestSession._lock
RANK_TOPOLOGY_GATE = 2200        # shard/topology.py _TopologyGate._condition
# Member lock i gets RANK_SHARD_MEMBER + i: quiescent readers
# (ShardedEngine._locked_view) take every member nested in ascending
# index order, so each index is its own rank. ~400 shards of headroom
# before the next band.
RANK_SHARD_MEMBER = 2600         # shard/topology.py _Topology.locks[i]
RANK_ENGINE_COMPACTION = 3000    # core/engine.py _compaction_mutex
RANK_ENGINE_COMMIT = 4000        # core/engine.py _commit_lock
RANK_WAL_MUTEX = 4500            # storage/persist.py DurableStore._wal_mutex
RANK_TREE_INSTALL = 5000         # lsm/tree.py LSMTree._install_lock
RANK_SCHEDULER_CV = 6000         # compaction/scheduler.py BackgroundScheduler._cv
RANK_FAULT_INJECTOR = 7000       # storage/persist.py FaultInjector._lock
RANK_RUNFILE_COUNTER = 8500      # lsm/runfile.py _counter_lock
RANK_PERSISTENCE_INDEX = 8800    # core/engine.py _persistence_lock
RANK_STATS = 9000                # core/stats.py Statistics._lock
RANK_INGEST_TICKET = 9200        # shard/parallel.py IngestTicket._cv


_validating = os.environ.get("REPRO_LOCKDEP", "").strip().lower() not in (
    "",
    "0",
    "false",
    "off",
)


def set_validation(enabled: bool) -> None:
    """Turn lock-order validation on/off for locks built *after* this call.

    Existing locks keep the mode they were constructed under — a
    passthrough lock is a plain ``threading`` primitive with no rank
    metadata to retrofit.
    """
    global _validating
    _validating = bool(enabled)


def is_validating() -> bool:
    """Whether locks constructed right now would validate ordering."""
    return _validating


class LockOrderViolation(RuntimeError):
    """Two locks were acquired against their documented rank order.

    Carries the call sites of both acquisitions: where the already-held
    lock was taken and where the out-of-order acquisition was attempted.
    """

    def __init__(
        self,
        message: str,
        held_site: list[tuple[str, int, str]] | None = None,
        acquire_site: list[tuple[str, int, str]] | None = None,
    ):
        super().__init__(message)
        self.held_site = held_site or []
        self.acquire_site = acquire_site or []


_held = threading.local()


def _stack() -> list["_HeldEntry"]:
    try:
        return _held.entries
    except AttributeError:
        _held.entries = []
        return _held.entries


def held_ranks() -> list[tuple[str, int]]:
    """(name, rank) of every validated lock the calling thread holds,
    in acquisition order — a debugging/testing aid."""
    entries = _stack()
    _prune_released(entries)
    return [(entry.lock.name, entry.lock.rank) for entry in entries]


def _call_site(skip: int = 2, limit: int = 6) -> list[tuple[str, int, str]]:
    """A cheap stack capture: (filename, lineno, function) per frame.

    Avoids :mod:`traceback`'s source-line loading — this runs on every
    validated acquisition, so it must stay in the microsecond range.
    """
    frames: list[tuple[str, int, str]] = []
    frame: Any = sys._getframe(skip)
    while frame is not None and len(frames) < limit:
        code = frame.f_code
        frames.append((code.co_filename, frame.f_lineno, code.co_name))
        frame = frame.f_back
    return frames


def _format_site(site: list[tuple[str, int, str]]) -> str:
    return "\n".join(
        f"    {filename}:{lineno} in {function}"
        for filename, lineno, function in site
    )


class _HeldEntry:
    __slots__ = ("lock", "site")

    def __init__(self, lock: "_ValidatingBase", site: list):
        self.lock = lock
        self.site = site


def _prune_released(entries: list["_HeldEntry"]) -> None:
    """Drop stack entries whose permit another thread already released.

    A semaphore released by a thread that never acquired it (the
    hand-off pattern) banks a credit on the lock instead of touching the
    acquirer's thread-local stack; each credit cancels one stale entry
    here, the next time the holding thread walks its stack. Without
    this, a handed-off permit would pin its rank on the acquiring
    thread forever and every later lower-rank acquisition there would
    be a false violation.
    """
    for index in range(len(entries) - 1, -1, -1):
        lock = entries[index].lock
        if lock._orphans:
            with lock._orphan_guard:
                if lock._orphans:
                    lock._orphans -= 1
                    del entries[index]


class _ValidatingBase:
    """Shared machinery: rank bookkeeping around an inner primitive."""

    _reentrant = False
    # Hand-off credits (see _prune_released); only semaphores ever bank
    # them, so the base carries a falsy class attribute for cheap reads.
    _orphans = 0

    def __init__(self, name: str, rank: int):
        if not name:
            raise ValueError("ordered locks need a non-empty name")
        self.name = name
        self.rank = int(rank)

    # -- validation core -------------------------------------------------

    def _check_order(self, blocking: bool) -> None:
        entries = _stack()
        _prune_released(entries)
        for entry in entries:
            held = entry.lock
            if held is self:
                if self._reentrant:
                    continue
                if not blocking:
                    # The ownership probe Condition._is_owned uses:
                    # acquire(blocking=False) on a lock the thread holds
                    # must simply fail, not report a violation.
                    continue
                raise LockOrderViolation(
                    f"re-entered non-reentrant lock {self.name!r} "
                    f"(rank {self.rank}); first acquired at:\n"
                    f"{_format_site(entry.site)}\n"
                    f"  re-entry at:\n{_format_site(_call_site(3))}",
                    held_site=entry.site,
                    acquire_site=_call_site(3),
                )
            if held.rank >= self.rank:
                site = _call_site(3)
                raise LockOrderViolation(
                    f"lock order violation: acquiring {self.name!r} "
                    f"(rank {self.rank}) while holding {held.name!r} "
                    f"(rank {held.rank}); ranks must strictly increase.\n"
                    f"  {held.name!r} acquired at:\n"
                    f"{_format_site(entry.site)}\n"
                    f"  {self.name!r} acquisition at:\n{_format_site(site)}",
                    held_site=entry.site,
                    acquire_site=site,
                )

    def _push(self) -> None:
        _stack().append(_HeldEntry(self, _call_site(3)))

    def _pop(self) -> None:
        entries = _stack()
        for index in range(len(entries) - 1, -1, -1):
            if entries[index].lock is self:
                del entries[index]
                return
        raise LockOrderViolation(
            f"released lock {self.name!r} (rank {self.rank}) that the "
            f"calling thread does not hold; release at:\n"
            f"{_format_site(_call_site(3))}"
        )

    # -- context manager -------------------------------------------------

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *_exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name!r} rank={self.rank} "
            f"inner={self._inner!r}>"
        )


class _ValidatingLock(_ValidatingBase):
    """Validating wrapper over ``threading.Lock``."""

    _reentrant = False

    def __init__(self, name: str, rank: int):
        super().__init__(name, rank)
        self._inner = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._check_order(blocking)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._push()
        return acquired

    def release(self) -> None:
        self._pop()
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()


class _ValidatingRLock(_ValidatingBase):
    """Validating wrapper over ``threading.RLock``."""

    _reentrant = True

    def __init__(self, name: str, rank: int):
        super().__init__(name, rank)
        self._inner = threading.RLock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._check_order(blocking)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._push()
        return acquired

    def release(self) -> None:
        self._pop()
        self._inner.release()


class _ValidatingSemaphore(_ValidatingBase):
    """Validating wrapper over ``threading.Semaphore``.

    Rank semantics: every *acquisition* is checked against the calling
    thread's held stack (a permit counts as held by the thread that took
    it, the pattern :class:`~repro.net.client.ClientPool` uses). Multiple
    permits held by one thread are fine — a semaphore is its own rank's
    only occupant, never a deadlock partner with itself.
    """

    _reentrant = True

    def __init__(self, name: str, rank: int, value: int = 1):
        super().__init__(name, rank)
        self._inner = threading.Semaphore(value)
        self._orphans = 0
        self._orphan_guard = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float | None = None) -> bool:
        self._check_order(blocking)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._push()
        return acquired

    def release(self, n: int = 1) -> None:
        # A permit may legitimately be released by a thread that never
        # acquired one (hand-off patterns); pop what this thread holds
        # and bank the rest as credits against the acquirers' stale
        # stack entries (claimed lazily by _prune_released).
        entries = _stack()
        remaining = n
        for index in range(len(entries) - 1, -1, -1):
            if remaining == 0:
                break
            if entries[index].lock is self:
                del entries[index]
                remaining -= 1
        if remaining:
            with self._orphan_guard:
                self._orphans += remaining
        self._inner.release(n)


class OrderedLock:
    """``threading.Lock`` with a name and a rank.

    When validation is off this *is* a plain ``threading.Lock`` — the
    constructor returns the primitive itself, so passthrough mode adds
    nothing to the lock's interface or its cost.
    """

    def __new__(cls, name: str, rank: int):
        if not _validating:
            return threading.Lock()
        return _ValidatingLock(name, rank)


class OrderedRLock:
    """``threading.RLock`` with a name and a rank (see :class:`OrderedLock`)."""

    def __new__(cls, name: str, rank: int):
        if not _validating:
            return threading.RLock()
        return _ValidatingRLock(name, rank)


class OrderedSemaphore:
    """``threading.Semaphore`` with a name and a rank."""

    def __new__(cls, name: str, rank: int, value: int = 1):
        if not _validating:
            return threading.Semaphore(value)
        return _ValidatingSemaphore(name, rank, value)


class OrderedCondition:
    """``threading.Condition`` whose backing lock carries a name and rank.

    Backed by a non-reentrant validating lock (matching how the
    engine's condition variables are used: none is re-entered), so
    ``Condition``'s ownership probe works through the plain
    acquire/release interface. ``wait()`` releases the backing lock —
    popping its rank off the holder's stack — and re-validates order on
    wake-up re-acquisition.
    """

    def __new__(cls, name: str, rank: int):
        if not _validating:
            return threading.Condition()
        return threading.Condition(_ValidatingLock(name, rank))
