"""The operation vocabulary: each operation declared once.

A workload stream, a routed batch and a wire request are all tuples
``(name, *args)``. One row per name says what every layer needs to know:

``route``
    Which shards it reaches: ``"point"`` — the owner of the sort key at
    position 1; ``"range"`` — those overlapping the sort-key interval at
    positions 1–2; ``"broadcast"`` — all (the secondary key is not the
    partition key; maintenance is cluster-wide).
``reply``
    What the caller gets back: ``"ok"`` — an acknowledgement (a write;
    the server batches these through the ingest session); ``"value"`` —
    one value or a miss; ``"pairs"`` — ``(key, value)`` pairs in order.
``tag`` / ``body``
    For served operations, the request tag byte and the body shape
    (``"put"``, ``"key"``, ``"range"``, ``"empty"``) the wire codec
    frames it with. Rows without a tag are in-process only.

Every row is a method of that name on ``LSMEngine`` and
``ShardedEngine``, so adding a served operation is one row here plus the
cluster method. ``docs/architecture.md`` ("Operation vocabulary") lists
the readers and the two boundaries where arguments are validated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import LetheError


@dataclass(frozen=True)
class Op:
    name: str
    route: str
    reply: str
    tag: int | None = None
    body: str | None = None


# Tags are wire format: never renumber one, never reuse a retired one.
# 0x04 carried an unvalidated second spelling of ``delete_range`` and
# stays unassigned; 0x08 is the protocol's own ``ping``.
OPS: dict[str, Op] = {
    row.name: row
    for row in (
        Op("put", "point", "ok", 0x01, "put"),
        Op("get", "point", "value", 0x02, "key"),
        Op("delete", "point", "ok", 0x03, "key"),
        Op("scan", "range", "pairs", 0x05, "range"),
        Op("secondary_range_lookup", "broadcast", "pairs", 0x06, "range"),
        Op("flush", "broadcast", "ok", 0x07, "empty"),
        Op("delete_range", "range", "ok", 0x09, "range"),
        Op("secondary_range_delete", "broadcast", "ok"),
        Op("advance_time", "broadcast", "ok"),
    )
}

SERVED: dict[int, Op] = {
    row.tag: row for row in OPS.values() if row.tag is not None
}


def unknown_operation(name: object) -> LetheError:
    return LetheError(f"unknown operation {name!r}; expected one of {sorted(OPS)}")
