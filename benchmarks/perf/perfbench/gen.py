"""Seeded op generator and the dict model every result is checked against.

The program under test only ever receives generated ops. Each read op
carries the answer the model gives at that point of the stream, so the
timed loops compare with ``==`` and do no model work of their own.

Keys are even integers in ``[0, DOMAIN)``; odd keys are never written,
which gives zero-result lookups that no filter can have seen. Values are
short ``bytes`` (the wire and WAL codecs store them without pickling).
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from typing import Iterator

DOMAIN = 1 << 30

# The ingest stream's shape (ISSUE 11): per fresh insert one update, a
# point delete every 10th insert, a primary range delete of 1/2000 of the
# key domain every 2000 inserts, a secondary (retention) range delete
# every 5000 inserts.
DELETE_EVERY = 10
RANGE_DELETE_EVERY = 2000
RANGE_DELETE_WIDTH = DOMAIN // 2000
SRD_EVERY = 5000

# Point-read mix (ISSUE 11): 60 % skewed hits, 25 % uniform zero-result,
# 15 % keys that were deleted.
HIT_SHARE = 0.60
ABSENT_SHARE = 0.25
# Live keys a scan of the single-process workloads covers.
SCAN_WIDTH = 100


class _IndexedSet:
    """A set with O(1) add, discard and uniform random choice."""

    def __init__(self) -> None:
        self._items: list[int] = []
        self._at: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._items)

    def add(self, item: int) -> None:
        if item not in self._at:
            self._at[item] = len(self._items)
            self._items.append(item)

    def discard(self, item: int) -> None:
        index = self._at.pop(item, None)
        if index is None:
            return
        last = self._items.pop()
        if index < len(self._items):
            self._items[index] = last
            self._at[last] = index

    def choice(self, rng: random.Random) -> int:
        return self._items[rng.randrange(len(self._items))]


class Model:
    """What a correct store holds: ``key -> (value, delete_key)``.

    ``keys`` is the sorted list of live keys (scans and uniform picks);
    ``dead`` holds keys that were deleted and not written again. Fresh
    keys are drawn from ``[key_lo, key_hi)``.
    """

    def __init__(self, key_lo: int = 0, key_hi: int = DOMAIN) -> None:
        self.key_lo, self.key_hi = key_lo, key_hi
        self.live: dict[int, tuple[bytes, int]] = {}
        self.keys: list[int] = []
        self.dead = _IndexedSet()
        self._used: set[int] = set()

    def fresh_key(self, rng: random.Random) -> int:
        while True:
            key = 2 * rng.randrange(self.key_lo // 2, self.key_hi // 2)
            if key not in self._used:
                self._used.add(key)
                return key

    def random_live_key(self, rng: random.Random) -> int:
        return self.keys[rng.randrange(len(self.keys))]

    # -- the op vocabulary --------------------------------------------

    def put(self, key: int, value: bytes, delete_key: int) -> None:
        if key not in self.live:
            insort(self.keys, key)
            self.dead.discard(key)
            self._used.add(key)
        self.live[key] = (value, delete_key)

    def delete(self, key: int) -> None:
        if self.live.pop(key, None) is not None:
            del self.keys[bisect_left(self.keys, key)]
            self.dead.add(key)

    def delete_range(self, lo: int, hi: int) -> None:
        """Primary-key range delete over ``[lo, hi)``."""
        a, b = bisect_left(self.keys, lo), bisect_left(self.keys, hi)
        for key in self.keys[a:b]:
            del self.live[key]
            self.dead.add(key)
        del self.keys[a:b]

    def secondary_range_delete(self, d_lo: int, d_hi: int) -> None:
        """Drop every key whose *current* delete key lies in ``[d_lo, d_hi)``."""
        victims = [
            key for key, (_, dk) in self.live.items() if d_lo <= dk < d_hi
        ]
        for key in victims:
            del self.live[key]
            self.dead.add(key)
        if victims:
            self.keys = sorted(self.live)

    def get(self, key: int) -> bytes | None:
        held = self.live.get(key)
        return None if held is None else held[0]

    def scan(self, lo: int, hi: int) -> list[tuple[int, bytes]]:
        """Live pairs with ``lo <= key <= hi`` (the engine's scan is inclusive)."""
        a, b = bisect_left(self.keys, lo), bisect_right(self.keys, hi)
        return [(key, self.live[key][0]) for key in self.keys[a:b]]

    def secondary_range_lookup(self, d_lo: int, d_hi: int) -> list[tuple[int, bytes]]:
        return sorted(
            (key, value)
            for key, (value, dk) in self.live.items()
            if d_lo <= dk < d_hi
        )

    def pairs(self) -> list[tuple[int, bytes]]:
        return [(key, self.live[key][0]) for key in self.keys]

    def user_bytes(self) -> int:
        """Live user payload: 8-byte key, 8-byte delete key, the value."""
        return sum(16 + len(value) for value, _ in self.live.values())


def write_stream(
    rng: random.Random,
    model: Model,
    n_inserts: int,
    *,
    range_deletes: bool = True,
    secondary_deletes: bool = True,
) -> Iterator[tuple]:
    """The ingest stream; every op is applied to ``model`` as it is yielded."""
    for i in range(n_inserts):
        key = model.fresh_key(rng)
        value = b"%d.0" % i
        model.put(key, value, i)
        yield ("put", key, value, i)
        key = model.random_live_key(rng)
        value = b"%d.1" % i
        model.put(key, value, i)
        yield ("put", key, value, i)
        if i % DELETE_EVERY == DELETE_EVERY - 1:
            key = model.random_live_key(rng)
            model.delete(key)
            yield ("delete", key)
        if range_deletes and i % RANGE_DELETE_EVERY == RANGE_DELETE_EVERY - 1:
            lo = rng.randrange(DOMAIN - RANGE_DELETE_WIDTH)
            model.delete_range(lo, lo + RANGE_DELETE_WIDTH)
            yield ("delete_range", lo, lo + RANGE_DELETE_WIDTH)
        if secondary_deletes and i % SRD_EVERY == SRD_EVERY - 1:
            # Retention cut: everything stamped in the oldest quarter goes.
            model.secondary_range_delete(0, i // 4)
            yield ("secondary_range_delete", 0, i // 4)


def absent_key(rng: random.Random) -> int:
    return 2 * rng.randrange(DOMAIN // 2) + 1


def read_key(rng: random.Random, model: Model, hot: list[int]) -> int:
    """One point-read key from the 60/25/15 mix; ``hot`` is a shuffled
    copy of the keys that were live when it was made (rank skew: the cube
    of a uniform draw, so a tenth of the keys takes about half the hits)."""
    draw = rng.random()
    if draw < HIT_SHARE and hot:
        return hot[int(len(hot) * rng.random() ** 3)]
    if draw < HIT_SHARE + ABSENT_SHARE or not len(model.dead):
        return absent_key(rng)
    return model.dead.choice(rng)


def point_reads(rng: random.Random, model: Model, count: int) -> list[tuple]:
    """``("get", key, expected)`` ops against the model as it stands."""
    hot = list(model.keys)
    rng.shuffle(hot)
    ops = []
    for _ in range(count):
        key = read_key(rng, model, hot)
        ops.append(("get", key, model.get(key)))
    return ops


def scan_window(rng: random.Random, model: Model, width: int) -> tuple[int, int]:
    """``(start, end)`` positions of ``width`` consecutive live keys in
    ``model.keys``; the inclusive scan bounds are the first and last of them."""
    start = rng.randrange(max(1, len(model.keys) - width + 1))
    return start, min(start + width, len(model.keys))


def scan_reads(
    rng: random.Random, model: Model, count: int, width: int
) -> list[tuple]:
    """``("scan", lo, hi, expected)`` ops against the model as it stands."""
    ops = []
    for _ in range(count):
        start, end = scan_window(rng, model, width)
        lo, hi = model.keys[start], model.keys[end - 1]
        ops.append(("scan", lo, hi, model.scan(lo, hi)))
    return ops


def acked_key(rng: random.Random, model: Model) -> int:
    """A key for a read beside writes: mostly one that is live now, else
    one that was deleted (or, before any delete, one never written)."""
    if rng.random() < 0.8:
        return model.random_live_key(rng)
    return model.dead.choice(rng) if len(model.dead) else absent_key(rng)
