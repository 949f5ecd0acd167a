"""Entry model: key-value pairs, point tombstones, and range tombstones.

§3.1 of the paper fixes the on-disk record shapes this module mirrors:

* a **key-value pair** carries the sort key ``S``, a tombstone flag (clear),
  and a value whose attributes include the secondary **delete key** ``D``
  (e.g. a timestamp);
* a **point tombstone** carries the deleted sort key and a set flag — it is
  "orders of magnitude smaller than a key-value entry", which §3.2.1
  captures as the tombstone-size ratio ``λ = size(tombstone)/size(entry)``;
* a **range tombstone** invalidates a contiguous range of *sort* keys and
  is stored in a separate range-tombstone block within each file (§3.1.1).

Recency is decided by a monotonically increasing, insertion-driven
sequence number (*seqnum*), exactly as RocksDB does (§4.1.3): an entry with
a higher seqnum supersedes any entry with the same key and a lower seqnum.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class EntryKind(enum.Enum):
    """What a record represents."""

    PUT = "put"
    TOMBSTONE = "tombstone"


@dataclass(frozen=True, slots=True)
class Entry:
    """One record of the LSM-tree: a put or a point tombstone.

    Attributes
    ----------
    key:
        The sort key ``S``. Must be orderable and hashable; the library is
        generic, the test-suite and benches use integers.
    seqnum:
        Monotonic insertion sequence number; larger = more recent.
    kind:
        :class:`EntryKind.PUT` or :class:`EntryKind.TOMBSTONE`.
    value:
        Payload for puts, ``None`` for tombstones.
    delete_key:
        The secondary delete key ``D`` (e.g. creation timestamp) carried
        inside the value. Tombstones have no delete key (``None``).
    size:
        Declared on-disk footprint in bytes. Puts default to the configured
        entry size, tombstones to the (much smaller) tombstone size; the
        engine sets these at creation so space accounting honours λ.
    write_time:
        Simulated time the record entered the memory buffer. For
        tombstones this is what FADE's ``amax`` (age of the oldest
        tombstone in a file) is computed from (§4.1.3).

    The record is immutable, but it also carries one private slot,
    ``_digest``: the key's Bloom digest pair, which
    :func:`repro.filters.bloom.entry_digests` fills the first time a
    filter is built over the entry. Compaction rebuilds pages, tiles and
    filters but hands the same ``Entry`` objects on, so a key is digested
    once per entry rather than once per rewrite. The slot takes no part
    in equality, hashing, ``repr`` or construction.
    """

    key: Any
    seqnum: int
    kind: EntryKind
    value: Any = None
    delete_key: Any = None
    size: int = 1
    write_time: float = 0.0
    _digest: tuple[int, int] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.seqnum < 0:
            raise ValueError(f"seqnum must be non-negative, got {self.seqnum}")
        if self.size < 1:
            raise ValueError(f"size must be >= 1 byte, got {self.size}")
        if self.kind is EntryKind.TOMBSTONE and self.value is not None:
            raise ValueError("tombstones must not carry a value")

    @property
    def is_tombstone(self) -> bool:
        """True for point tombstones."""
        return self.kind is EntryKind.TOMBSTONE

    def supersedes(self, other: "Entry") -> bool:
        """True if this record invalidates ``other`` (same key, newer)."""
        return self.key == other.key and self.seqnum > other.seqnum

    def sort_token(self) -> tuple:
        """Total order used inside sorted runs: by key, then newest first.

        Within one run a key appears at most once, but merge iterators rely
        on this order to see the most recent version of a key first.
        """
        return (self.key, -self.seqnum)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "DEL" if self.is_tombstone else "PUT"
        return f"Entry({tag} key={self.key!r} seq={self.seqnum} D={self.delete_key!r})"


@dataclass(frozen=True)
class RangeTombstone:
    """A range delete on the sort key: invalidates ``[start, end)``.

    Stored in a separate range-tombstone block within files (§3.1.1); point
    and range lookups consult these blocks (the paper's in-memory
    "histogram of deleted ranges") to suppress older matching entries.

    Attributes
    ----------
    start, end:
        Half-open sort-key interval ``[start, end)``; ``start < end``.
    seqnum:
        Insertion sequence number; covers entries with smaller seqnums.
    size:
        Declared bytes (two keys plus a flag).
    write_time:
        Simulated insertion time (feeds FADE's ``amax``).
    """

    start: Any
    end: Any
    seqnum: int
    size: int = 1
    write_time: float = 0.0

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise ValueError(
                f"range tombstone requires start < end, got [{self.start}, {self.end})"
            )
        if self.seqnum < 0:
            raise ValueError(f"seqnum must be non-negative, got {self.seqnum}")

    def covers(self, key: Any, seqnum: int) -> bool:
        """True if this tombstone invalidates version ``seqnum`` of ``key``."""
        return self.start <= key < self.end and seqnum < self.seqnum

    def overlaps_keys(self, lo: Any, hi: Any) -> bool:
        """True if ``[start, end)`` intersects the closed interval ``[lo, hi]``."""
        return self.start <= hi and lo < self.end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RangeTombstone([{self.start!r},{self.end!r}) seq={self.seqnum})"


@dataclass
class SequenceGenerator:
    """Monotonic seqnum source shared by one engine instance."""

    _next: int = 0

    def next(self) -> int:
        """Return the next sequence number (starting at 0)."""
        value = self._next
        self._next += 1
        return value

    @property
    def current(self) -> int:
        """The next seqnum that *would* be handed out."""
        return self._next


def latest_wins(entries: list[Entry]) -> Entry:
    """Return the most recent version among entries sharing one key.

    Raises ``ValueError`` on an empty list or mixed keys; used by merge
    code paths and by tests as an executable specification of recency.
    """
    if not entries:
        raise ValueError("latest_wins requires at least one entry")
    first_key = entries[0].key
    best = entries[0]
    for entry in entries[1:]:
        if entry.key != first_key:
            raise ValueError(
                f"latest_wins requires a single key, saw {first_key!r} and {entry.key!r}"
            )
        if entry.seqnum > best.seqnum:
            best = entry
    return best
