"""Keyspace partitioners: who owns which sort key in a sharded cluster.

A partitioner maps every sort key to exactly one shard (the routing
invariant the merged read path relies on: no key ever has live versions
on two shards) and maps a sort-key interval to the set of shards that may
hold keys inside it.

* :class:`HashPartitioner` — uniform placement via a process-stable
  64-bit hash; every range operation fans out to all shards.
* :class:`RangePartitioner` — contiguous key ranges delimited by explicit
  split points; range operations touch only the overlapping shards, and
  the split-point list can grow (:meth:`RangePartitioner.with_split`) when
  a hot shard is divided.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from typing import Any, Sequence

from repro.core.errors import ConfigError

_MASK64 = (1 << 64) - 1


def stable_hash(key: Any) -> int:
    """Deterministic 64-bit hash, stable across processes and runs.

    Python's builtin ``hash`` is salted per process for strings
    (``PYTHONHASHSEED``), which would make shard placement — and with it
    every sharded experiment — non-reproducible. Integers go through a
    splitmix64 finalizer so consecutive keys spread uniformly; any other
    type hashes its ``repr`` through blake2b.
    """
    if isinstance(key, int) and not isinstance(key, bool):
        z = key & _MASK64
        z = (z + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)
    digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class Partitioner(ABC):
    """Maps sort keys (and sort-key intervals) to shard indexes."""

    @property
    @abstractmethod
    def n_shards(self) -> int:
        """Number of shards this partitioner routes across."""

    @abstractmethod
    def shard_for(self, key: Any) -> int:
        """The single shard that owns ``key``."""

    @abstractmethod
    def shards_for_range(self, lo: Any, hi: Any) -> tuple[int, ...]:
        """Every shard that may own a key in ``[lo, hi]``.

        Bounds are treated inclusively on both sides: the engine's ``scan``
        is inclusive of ``hi`` while ``delete_range`` excludes it, and an
        over-inclusive route only costs a no-op on the extra shard.
        """

    def all_shards(self) -> tuple[int, ...]:
        return tuple(range(self.n_shards))

    def clip_range(self, index: int, lo: Any, hi: Any) -> tuple[Any, Any]:
        """Intersect half-open ``[lo, hi)`` with shard ``index``'s keyspan.

        The identity for partitioners without contiguous ownership (hash
        placement scatters every range whole); range partitioners narrow
        the interval so each shard records a tombstone only over keys it
        actually owns — keeping fan-out range deletes from leaving
        cluster-wide fragments on every member.
        """
        return lo, hi

    def describe(self) -> str:
        return f"{type(self).__name__}(n_shards={self.n_shards})"


class HashPartitioner(Partitioner):
    """Uniform hash placement: ``shard = stable_hash(key) % n``.

    Spreads any workload evenly — including the adversarial skewed ones —
    at the price of fanning every range operation out to all shards.
    """

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
        self._n_shards = int(n_shards)

    @property
    def n_shards(self) -> int:
        return self._n_shards

    def shard_for(self, key: Any) -> int:
        return stable_hash(key) % self._n_shards

    def shards_for_range(self, lo: Any, hi: Any) -> tuple[int, ...]:
        return self.all_shards()


class RangePartitioner(Partitioner):
    """Contiguous ranges split at explicit points (RocksDB/HBase style).

    ``split_points = [p0, p1, ...]`` (strictly increasing) defines
    ``len + 1`` shards: shard 0 owns keys ``< p0``, shard ``i`` owns
    ``[p_{i-1}, p_i)``, the last shard owns ``>= p_last``. Range
    operations touch only overlapping shards, and skewed keyspaces can be
    rebalanced by moving split points.
    """

    def __init__(self, split_points: Sequence[Any]):
        points = list(split_points)
        if not points:
            raise ConfigError("RangePartitioner needs at least one split point")
        for left, right in zip(points, points[1:]):
            if not left < right:
                raise ConfigError(
                    f"split points must be strictly increasing, got {points}"
                )
        self.split_points = points

    @classmethod
    def uniform(cls, n_shards: int, key_domain: tuple[Any, Any]) -> "RangePartitioner":
        """Evenly spaced split points over an integer key domain."""
        if n_shards < 2:
            raise ConfigError(f"uniform() needs n_shards >= 2, got {n_shards}")
        low, high = key_domain
        width = (high - low) / n_shards
        return cls([low + round(width * i) for i in range(1, n_shards)])

    @classmethod
    def from_keys(cls, keys: Sequence[Any], n_shards: int) -> "RangePartitioner":
        """Balanced split points: quantiles of an observed key sample."""
        if n_shards < 2:
            raise ConfigError(f"from_keys() needs n_shards >= 2, got {n_shards}")
        ordered = sorted(set(keys))
        if len(ordered) < n_shards:
            raise ConfigError(
                f"need at least {n_shards} distinct keys to cut {n_shards} "
                f"shards, got {len(ordered)}"
            )
        points = [
            ordered[(len(ordered) * i) // n_shards] for i in range(1, n_shards)
        ]
        return cls(sorted(set(points)))

    @property
    def n_shards(self) -> int:
        return len(self.split_points) + 1

    def shard_for(self, key: Any) -> int:
        return bisect_right(self.split_points, key)

    def shards_for_range(self, lo: Any, hi: Any) -> tuple[int, ...]:
        first = self.shard_for(lo)
        last = self.shard_for(hi)
        if last < first:  # empty/inverted interval: route to lo's owner
            return (first,)
        return tuple(range(first, last + 1))

    def shard_bounds(self, index: int) -> tuple[Any | None, Any | None]:
        """(inclusive low, exclusive high) bounds of one shard;
        ``None`` marks an unbounded side."""
        if not 0 <= index < self.n_shards:
            raise ConfigError(f"no shard {index} in {self.describe()}")
        low = self.split_points[index - 1] if index > 0 else None
        high = self.split_points[index] if index < len(self.split_points) else None
        return low, high

    def clip_range(self, index: int, lo: Any, hi: Any) -> tuple[Any, Any]:
        low, high = self.shard_bounds(index)
        clipped_lo = lo if low is None else max(lo, low)
        clipped_hi = hi if high is None else min(hi, high)
        if clipped_hi < clipped_lo:  # disjoint: empty interval at lo's edge
            return clipped_lo, clipped_lo
        return clipped_lo, clipped_hi

    def with_split(self, split_key: Any) -> "RangePartitioner":
        """A new partitioner with ``split_key`` added as a split point."""
        position = bisect_left(self.split_points, split_key)
        if (
            position < len(self.split_points)
            and self.split_points[position] == split_key
        ):
            raise ConfigError(f"{split_key!r} is already a split point")
        return RangePartitioner(
            self.split_points[:position] + [split_key] + self.split_points[position:]
        )

    def describe(self) -> str:
        return (
            f"RangePartitioner(n_shards={self.n_shards}, "
            f"split_points={self.split_points})"
        )
