"""Operation routing and batched dispatch for the sharded engine.

The router turns one interleaved workload stream into per-shard batches
plus cluster-wide barriers, preserving exactly the ordering that matters:

* operations on the same shard keep their relative order (and since each
  key maps to one shard, per-key order is preserved);
* a multi-shard operation (scatter-gather delete, cross-shard scan,
  flush, advance_time) is a **barrier**: every buffered batch is emitted
  before it, so the fan-out observes all earlier writes.

Operations on *different* shards may reorder relative to each other —
their key sets are disjoint, so the final state is unaffected; this is
what buys the batching win (one dispatch per shard per batch window
instead of one per operation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.core.errors import LetheError
from repro.core.ops import OPS, unknown_operation
from repro.shard.partitioner import Partitioner


@dataclass
class ShardBatch:
    """A run of operations bound for one shard, in arrival order."""

    shard: int
    operations: list[tuple] = field(default_factory=list)


@dataclass
class Barrier:
    """A cluster-wide operation that must see all earlier writes."""

    operation: tuple


class OperationRouter:
    """Groups a workload stream per shard before dispatch.

    ``max_batch`` caps how many operations a single shard accumulates
    before its batch is emitted anyway, bounding the reorder window (and
    memory) for endless streams.
    """

    def __init__(self, partitioner: Partitioner, max_batch: int = 1024):
        if max_batch < 1:
            raise LetheError(f"max_batch must be >= 1, got {max_batch}")
        self.partitioner = partitioner
        self.max_batch = max_batch

    def shards_for(self, operation: tuple) -> tuple[int, ...]:
        """The shard set an operation must reach (its row's ``route``)."""
        row = OPS.get(operation[0])
        if row is None:
            raise unknown_operation(operation[0])
        if row.route == "point":
            return (self.partitioner.shard_for(operation[1]),)
        if row.route == "range":
            return self.partitioner.shards_for_range(operation[1], operation[2])
        return self.partitioner.all_shards()

    def batches(
        self, operations: Iterable[tuple]
    ) -> Iterator[ShardBatch | Barrier]:
        """Yield per-shard batches and barriers, honouring write order."""
        pending: dict[int, ShardBatch] = {}

        def drain() -> Iterator[ShardBatch]:
            for shard in sorted(pending):
                yield pending[shard]
            pending.clear()

        for operation in operations:
            targets = self.shards_for(operation)
            if len(targets) == 1:
                shard = targets[0]
                batch = pending.get(shard)
                if batch is None:
                    batch = pending[shard] = ShardBatch(shard)
                batch.operations.append(operation)
                if len(batch.operations) >= self.max_batch:
                    del pending[shard]
                    yield batch
            else:
                yield from drain()
                yield Barrier(operation)
        yield from drain()
