"""Cluster topology: the routing snapshot in memory, its log on disk.

Two halves of one fact — *which member engines make up the cluster*.

In memory, two of the three pieces of the cluster's concurrency model
(the third, one lock per member, is described in
:mod:`repro.shard.engine`): the immutable :class:`_Topology` snapshot
and the reader-writer :class:`_TopologyGate` that keeps it stable under
every in-flight operation.

On disk, :class:`TopologyLog` owns a durable cluster's root directory:
the append-only ``TOPOLOGY.log`` whose last intact record is
authoritative, and the ``shard-NNNNN`` directory namespace that record
names. Nothing outside this module encodes, appends, parses or truncates
a topology record, or picks a shard directory name. A record is one CRC
frame (:func:`~repro.storage.persist.frame_bytes`) around the JSON
object ``{"epoch", "dir_seq", "partitioner", "shard_dirs"}``: ``epoch``
counts records, ``dir_seq`` is the next unused directory number (names
are never reused, so a directory the last record does not name is always
garbage), ``shard_dirs`` lists the members' directories in shard order.
"""

from __future__ import annotations

import json
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Sequence

from repro.core import locks
from repro.core.config import EngineConfig
from repro.core.engine import LSMEngine
from repro.core.errors import ConfigError, PersistenceError
from repro.shard.partitioner import HashPartitioner, Partitioner, RangePartitioner
from repro.shard.router import OperationRouter
from repro.storage.persist import (
    DurableStore,
    FaultInjector,
    append_frame,
    fsync_dir,
    read_frames,
    truncate_torn_tail,
)


class _Topology:
    """One immutable routing snapshot: partitioner, router, members, locks.

    Replaced wholesale (a single attribute assignment, atomic under the
    interpreter) by a reshard while it holds the topology gate
    exclusively, so any operation holding the gate shared observes one
    stable, mutually consistent (partitioner, shards, locks) triple for
    its whole run. An operation that routed its work before a reshard
    (the batches of an ingest stream or session) re-routes per key when
    it observes the snapshot changed.
    """

    __slots__ = ("partitioner", "router", "shards", "locks")

    def __init__(
        self,
        partitioner: Partitioner,
        shards: Sequence[LSMEngine],
        max_batch: int,
    ):
        if len(shards) != partitioner.n_shards:
            raise ConfigError(
                f"{len(shards)} member engines for "
                f"{partitioner.n_shards} shards"
            )
        self.partitioner = partitioner
        self.router = OperationRouter(partitioner, max_batch=max_batch)
        self.shards: list[LSMEngine] = list(shards)
        # Per-index ranks: the write path holds one member at a time,
        # but quiescent readers (_locked_view) take all of them nested
        # in ascending index order — which these ranks make the only
        # legal order.
        self.locks: list[Any] = [
            locks.OrderedRLock(
                f"shard.member[{i}]", locks.RANK_SHARD_MEMBER + i
            )
            for i in range(len(self.shards))
        ]


class _TopologyGate:
    """A small writer-preferring reader-writer gate.

    Cluster operations hold it shared (many at once) for their whole
    duration; resharding holds it exclusive. The topology therefore
    never changes under an in-flight operation — no operation can act on
    a retired member, and a mutating fan-out never needs to retry or
    re-route mid-flight. A waiting writer blocks new readers, so a
    reshard cannot be starved by a stream of operations. Not reentrant —
    see the gate discipline note in :mod:`repro.shard.engine`.
    """

    def __init__(self) -> None:
        self._condition = locks.OrderedCondition(
            "shard.topology-gate", locks.RANK_TOPOLOGY_GATE
        )
        self._readers = 0
        self._writer = False

    @contextmanager
    def shared(self) -> Iterator[None]:
        with self._condition:
            while self._writer:
                self._condition.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._condition:
                self._readers -= 1
                if self._readers == 0:
                    self._condition.notify_all()

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        with self._condition:
            while self._writer:
                self._condition.wait()
            self._writer = True
            while self._readers:
                self._condition.wait()
        try:
            yield
        finally:
            with self._condition:
                self._writer = False
                self._condition.notify_all()


def _partitioner_to_dict(partitioner: Partitioner) -> dict:
    if isinstance(partitioner, HashPartitioner):
        return {"kind": "hash", "n_shards": partitioner.n_shards}
    if isinstance(partitioner, RangePartitioner):
        return {"kind": "range", "split_points": list(partitioner.split_points)}
    raise PersistenceError(
        f"cannot persist partitioner type {type(partitioner).__name__}"
    )


def _partitioner_from_dict(payload: dict) -> Partitioner:
    if payload["kind"] == "hash":
        return HashPartitioner(payload["n_shards"])
    if payload["kind"] == "range":
        return RangePartitioner(payload["split_points"])
    raise PersistenceError(f"unknown partitioner kind {payload['kind']!r}")


class TopologyLog:
    """The durable topology of one cluster root directory.

    ``shard_dirs`` is what the last committed record names — the
    directories recovery opens, and the only ``shard-*`` entries
    :meth:`sweep_orphans` leaves in place.
    """

    def __init__(self, root: Path, injector: FaultInjector | None = None):
        self.root = root
        self.injector = injector if injector is not None else FaultInjector(armed=False)
        self.epoch = 0
        self.dir_seq = 0
        self.shard_dirs: list[str] = []

    @property
    def path(self) -> Path:
        return self.root / "TOPOLOGY.log"

    @classmethod
    def create(
        cls, root: str | Path, injector: FaultInjector | None = None
    ) -> "TopologyLog":
        """Claim ``root`` for a new cluster (it must not hold one)."""
        log = cls(Path(root), injector)
        if log.path.exists():
            raise PersistenceError(
                f"{log.root} already holds a cluster; use ShardedEngine.open()"
            )
        log.root.mkdir(parents=True, exist_ok=True)
        return log

    @classmethod
    def load(
        cls, root: str | Path, injector: FaultInjector | None = None
    ) -> tuple["TopologyLog", Partitioner]:
        """Read the last intact record of the cluster at ``root``."""
        log = cls(Path(root), injector)
        if not log.path.exists():
            raise PersistenceError(f"{log.root} holds no cluster topology log")
        blob = log.path.read_bytes()
        records = [
            json.loads(payload.decode("utf-8")) for payload in read_frames(blob)
        ]
        if not records:
            raise PersistenceError(f"{log.path} holds no intact topology record")
        # A torn tail (real mid-write crash) must be truncated, not just
        # skipped: commit() resumes at end-of-file, and a reshard record
        # appended behind the damage would be unreadable to the next
        # open — with the retired shard directories already deleted.
        # Not fsynced here (the members' configs are not read yet): the
        # next commit's fsync of this file covers it, and a crash before
        # that leaves the same tear for the next load to cut.
        truncate_torn_tail(log.path, blob)
        record = records[-1]
        log.epoch = record["epoch"] + 1
        log.dir_seq = record["dir_seq"]
        log.shard_dirs = list(record["shard_dirs"])
        return log, _partitioner_from_dict(record["partitioner"])

    def create_store(self, config: EngineConfig) -> DurableStore:
        """An empty member store in the next unused shard directory."""
        dirname = f"shard-{self.dir_seq:05d}"
        self.dir_seq += 1
        return DurableStore.create(self.root / dirname, config, self.injector)

    def commit(
        self, partitioner: Partitioner, shard_dirs: Sequence[str], fsync: bool
    ) -> None:
        """Append one record — the commit point of cluster creation and
        of every reshard.

        Callers commit *before* publishing the new in-memory topology,
        so a failed append (out of disk, injected crash) leaves memory
        and disk agreeing on the old cluster — a cluster serving on a
        topology the log does not name would lose every acknowledged
        write at the next reopen; :func:`~repro.storage.persist.
        append_frame` takes back whatever a failed append did write, so
        the log still ends at the old record. With ``fsync`` the
        directories the record names are made durable before it, and the
        record itself (plus, the first time, the log's own directory
        entry) is on media when this returns: only then may a retired
        directory go.
        """
        record = {
            "epoch": self.epoch,
            "dir_seq": self.dir_seq,
            "partitioner": _partitioner_to_dict(partitioner),
            "shard_dirs": list(shard_dirs),
        }
        created = not self.path.exists()
        if fsync:
            fsync_dir(self.root)
        append_frame(
            self.path,
            json.dumps(record, sort_keys=True).encode("utf-8"),
            "topology",
            self.injector,
            fsync,
        )
        if fsync and created:
            fsync_dir(self.root)
        self.epoch += 1
        self.shard_dirs = list(shard_dirs)

    def sweep_orphans(self) -> None:
        """Remove every shard directory the last record does not name:
        members retired by the reshard that just committed, the
        half-built members of one that failed, or the leftovers of one
        that crashed before its commit."""
        for orphan in self.root.glob("shard-*"):
            if orphan.is_dir() and orphan.name not in self.shard_dirs:
                shutil.rmtree(orphan, ignore_errors=True)
