"""The operation table is the oracle.

:mod:`repro.core.ops` declares each operation once; the engine's
``ingest``, the shard router, the cluster and the wire codec read it.
These tests walk the table and check that every reader agrees with
every row — so a row added without its method, or a reader that grows a
private idea of the vocabulary, fails here.
"""

from __future__ import annotations

import pytest

from repro.core.config import lethe_config
from repro.core.engine import LSMEngine
from repro.core.errors import LetheError
from repro.core.ops import OPS, SERVED
from repro.net import LetheClient, LetheServer
from repro.net.protocol import encode_request
from repro.shard.engine import ShardedEngine
from repro.shard.partitioner import RangePartitioner
from repro.shard.router import OperationRouter

from tests.conftest import TINY

# One call of every operation, against the two keys the streams below
# load (5 and 150, either side of the range clusters' split at 100). A
# row added to the table without a sample here fails the first test.
SAMPLE_ARGS = {
    "put": (7, b"seven", 70),
    "get": (5,),
    "delete": (5,),
    "delete_range": (4, 120),
    "scan": (0, 200),
    "secondary_range_lookup": (0, 1000),
    "secondary_range_delete": (40, 60),
    "flush": (),
    "advance_time": (0.25,),
}
ROWS = list(OPS.values())
EVERYTHING = (-(10**9), 10**9)


def config():
    return lethe_config(0.5, delete_tile_pages=4, **TINY)


def stream(row) -> list[tuple]:
    return [
        ("put", 5, b"five", 50),
        ("put", 150, b"far", 1500),
        (row.name, *SAMPLE_ARGS[row.name]),
    ]


def clusters() -> list[ShardedEngine]:
    return [
        ShardedEngine(config(), n_shards=1),
        ShardedEngine(config(), n_shards=2),
        ShardedEngine(config(), partitioner=RangePartitioner([100])),
        ShardedEngine(config(), partitioner=RangePartitioner([10, 100])),
    ]


def test_every_row_has_a_sample_and_served_tags_are_unique():
    assert set(SAMPLE_ARGS) == set(OPS)
    assert len(SERVED) == sum(row.tag is not None for row in ROWS)
    assert 0x04 not in SERVED  # retired with range_delete, never reused
    assert 0x08 not in SERVED  # the protocol's own ping


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_both_engines_have_a_method_of_that_name(row):
    assert callable(getattr(LSMEngine, row.name))
    assert callable(getattr(ShardedEngine, row.name))


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_router_routes_as_the_row_says(row):
    partitioner = RangePartitioner([10, 100])
    operation = (row.name, *SAMPLE_ARGS[row.name])
    expected = {
        "point": lambda: (partitioner.shard_for(operation[1]),),
        "range": lambda: partitioner.shards_for_range(operation[1], operation[2]),
        "broadcast": partitioner.all_shards,
    }[row.route]()
    assert OperationRouter(partitioner).shards_for(operation) == expected


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_every_path_leaves_the_same_surface(row):
    """The same three-op stream through ``LSMEngine.ingest``, through
    ``ShardedEngine.ingest`` on hash and range clusters, and — for
    served rows — over a socket, ends in the same scan surface."""
    reference = LSMEngine(config())
    reference.ingest(stream(row))
    expected = reference.scan(*EVERYTHING)
    reference.close()
    for cluster in clusters():
        try:
            cluster.ingest(stream(row))
            assert cluster.scan(*EVERYTHING) == expected, cluster.partitioner
        finally:
            cluster.close()
    if row.tag is None:
        return
    for cluster in clusters():
        try:
            with LetheServer(cluster) as server:
                with LetheClient("127.0.0.1", server.port) as client:
                    *_, answer = client.execute(stream(row))
                    assert client.scan(*EVERYTHING) == expected
            if row.reply != "ok":  # a read answers what the cluster does
                assert answer == getattr(cluster, row.name)(
                    *SAMPLE_ARGS[row.name]
                )
        finally:
            cluster.close()


def test_a_name_outside_the_table_is_refused_everywhere():
    stranger = ("range_delete", 1, 5)
    engine = LSMEngine(config())
    cluster = ShardedEngine(config(), n_shards=2)
    try:
        with pytest.raises(LetheError, match="unknown operation"):
            engine.ingest([stranger])
        with pytest.raises(LetheError, match="unknown operation"):
            cluster.ingest([stranger])
        with pytest.raises(LetheError, match="unknown operation"):
            OperationRouter(cluster.partitioner).shards_for(stranger)
        with pytest.raises(ValueError, match="unknown request kind"):
            encode_request(stranger)
        # In-process-only rows have no frame either.
        for row in ROWS:
            if row.tag is None:
                with pytest.raises(ValueError, match="unknown request kind"):
                    encode_request((row.name, *SAMPLE_ARGS[row.name]))
    finally:
        engine.close()
        cluster.close()
