"""Bloom filters with explicit hash-cost accounting.

§2 ("Optimizing Lookups"): LSM engines keep one Bloom filter per run (in
practice per file) so point lookups skip runs that definitely do not hold
the key. §4.2.3: KiWi instead keeps one filter *per page*, so a full page
drop discards the page's filter without rebuilding anything, "the same
overall FPR is achieved with the same memory consumption ... since a
delete tile contains no duplicates".

§4.2.4 is the reason this module counts hashes: KiWi performs ``L · h``
(zero-result) or ``L · h / 4`` (non-zero) times more hash calculations,
but commercial engines derive all ``k`` probe positions from **a single
MurmurHash digest** (~80 ns) — three orders of magnitude cheaper than a
~100 µs page I/O — so trading hashing for I/O is profitable. We model
exactly that: each key probed or inserted costs *one* hash computation
(counted into :class:`~repro.core.stats.Statistics`), and the ``k`` bit
positions derive from the digest by double hashing.

Building filters digests each entry once in its life: the digest is
cached on the ``Entry`` (:func:`entry_digests`), and every rewrite of the
entry by compaction builds its new filters from that cached digest.
Probes stay charged one hash per filter touched, as in the §4.2.4 model,
however many filters share one lookup's digest.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Any, Iterable

from repro.core.stats import Statistics
from repro.storage.entry import Entry

_MASK64 = (1 << 64) - 1


def murmur_mix64(value: int) -> int:
    """The 64-bit MurmurHash3 finalizer (fmix64): a cheap, high-quality mixer.

    Deterministic across processes (unlike built-in ``hash`` on strings),
    which keeps every experiment reproducible.
    """
    h = value & _MASK64
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _MASK64
    h ^= h >> 33
    return h


def _fnv1a_64(data: bytes) -> int:
    """FNV-1a for non-integer keys; deterministic across processes."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


def key_digest(key: Any) -> int:
    """One 64-bit digest for any supported key (one 'hash computation')."""
    if isinstance(key, int):
        return murmur_mix64(key)
    if isinstance(key, bytes):
        return murmur_mix64(_fnv1a_64(key))
    if isinstance(key, str):
        return murmur_mix64(_fnv1a_64(key.encode("utf-8")))
    return murmur_mix64(_fnv1a_64(repr(key).encode("utf-8")))


def digest_pair(key: Any) -> tuple[int, int]:
    """``(h1, h2)`` of the key's one digest, the double-hashing seed.

    Probe ``i`` of a filter of ``m`` bits is ``(h1 + i · h2) mod m``.
    The pair depends on the key alone, so a point lookup computes it
    once and hands it to every filter it probes (§4.2.4).
    """
    digest = key_digest(key)
    # h2 is odd so the probes cycle through the whole array.
    return digest & 0xFFFFFFFF, (digest >> 32) | 1


def entry_digests(entries: Iterable[Entry]) -> list[tuple[int, int]]:
    """The :func:`digest_pair` of each entry's key, computed once per entry.

    The pair is cached in the entry's ``_digest`` slot the first time a
    filter is built over it. Compaction hands the same ``Entry`` objects
    from its inputs to its outputs, so an entry rewritten ``write_amp``
    times is still digested once. Two background workers building
    filters over the same entry may both fill the slot; they write the
    same value, so the race is benign.
    """
    pairs = []
    append = pairs.append
    for entry in entries:
        pair = entry._digest
        if pair is None:
            pair = digest_pair(entry.key)
            object.__setattr__(entry, "_digest", pair)
        append(pair)
    return pairs


def _set_probe_bits(
    bits: bytearray, num_bits: int, num_hashes: int, pairs: list[tuple[int, int]]
) -> None:
    """Set each pair's ``k`` bits ``(h1 + i · h2) mod m``, one probe at a time."""
    probes = range(num_hashes)
    for h1, h2 in pairs:
        for _ in probes:
            position = h1 % num_bits
            bits[position >> 3] |= 1 << (position & 7)
            h1 += h2


# A filter of at most this many bits is built from probe patterns. A
# pattern table holds at most ``m`` patterns of ``2m`` bits, so with the
# cache below the tables never exceed 16 · 2048 · 4096 bits (16 MiB);
# page filters (``m`` = 10..80) need a few kilobytes, and a 128-key
# file filter (``m`` = 1280) about half a megabyte once full.
_TABLE_MAX_BITS = 2048


def _probe_pattern(num_bits: int, num_hashes: int, step: int) -> int:
    """Bits ``i · step mod m`` for ``i < k``, doubled (``p | p << m``) so
    that ``pattern >> (m - r)`` holds the pattern rotated left by ``r`` in
    its low ``m`` bits."""
    pattern = 0
    for i in range(num_hashes):
        pattern |= 1 << (i * step % num_bits)
    return pattern | pattern << num_bits


@lru_cache(maxsize=16)
def _probe_patterns(num_bits: int, num_hashes: int) -> list[int | None]:
    """The probe pattern of every ``h2 mod m``, filled on first use.

    A key's bits are its pattern rotated by ``h1 mod m``, since
    ``(h1 + i · h2) mod m = (h1 mod m + i · (h2 mod m)) mod m``. Filling
    lazily keeps a table no larger than the steps actually seen, and a
    filter size seen only a few times costs about what the probe loop
    does. Two threads may fill one slot at once; both store the same
    pattern.
    """
    return [None] * num_bits


@lru_cache(maxsize=64)
def optimal_hash_count(bits_per_key: float) -> int:
    """``k = bits_per_key · ln 2``, the FPR-optimal number of probe bits.

    Memoised: every per-page filter of a KiWi file asks with the same
    budget, a quarter of a million times per ingest.
    """
    return max(1, round(bits_per_key * math.log(2)))


class BloomFilter:
    """A classic Bloom filter over sort keys.

    Parameters
    ----------
    expected_entries:
        Number of keys the filter is sized for.
    bits_per_key:
        Memory budget ``m/N`` (the evaluation uses 10 bits/key).
    stats:
        Optional shared counters; inserts and probes charge one hash
        computation each (single-digest model, §4.2.4), and probes also
        increment ``bloom_probes``. The charge is the model's, made per
        filter touched — a lookup that digests its key once and probes
        thirteen filters is still charged thirteen.
    """

    __slots__ = ("num_bits", "num_hashes", "bits_per_key", "_bits", "_count", "stats")

    def __init__(
        self,
        expected_entries: int,
        bits_per_key: float = 10.0,
        stats: Statistics | None = None,
    ):
        if expected_entries < 0:
            raise ValueError(f"expected_entries must be >= 0, got {expected_entries}")
        if bits_per_key <= 0:
            raise ValueError(f"bits_per_key must be positive, got {bits_per_key}")
        self.bits_per_key = float(bits_per_key)
        self.num_bits = max(8, int(math.ceil(expected_entries * bits_per_key)))
        self.num_hashes = optimal_hash_count(bits_per_key)
        self._bits = bytearray((self.num_bits + 7) // 8)
        self._count = 0
        self.stats = stats

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def add(self, key: Any) -> None:
        """Insert a key."""
        self.update((key,))

    def might_contain(
        self, key: Any, hashed: tuple[int, int] | None = None
    ) -> bool:
        """Probe: ``False`` is definitive, ``True`` may be a false positive.

        ``hashed`` is the key's :func:`digest_pair` when the caller
        already holds it (a lookup probing many filters digests once).
        The probe is charged one hash computation either way: the counter
        is the §4.2.4 *model* of a per-filter hash, not a count of the
        digests this process computed.
        """
        stats = self.stats
        if stats is not None:
            # Deliberately plain += on the hottest counters in the
            # codebase (every probe of every lookup): a background worker
            # building a filter may race a reader's probe and lose an
            # increment, which only undercounts a diagnostic counter —
            # a mutex here would tax every single-threaded experiment.
            stats.bloom_probes += 1
            stats.bloom_hash_computations += 1
        h1, h2 = hashed if hashed is not None else digest_pair(key)
        bits = self._bits
        num_bits = self.num_bits
        for _ in range(self.num_hashes):
            position = h1 % num_bits
            if not (bits[position >> 3] >> (position & 7)) & 1:
                return False
            h1 += h2
        return True

    def update(self, keys: Iterable[Any]) -> None:
        """Bulk insert (one hash computation charged per key)."""
        pairs = list(map(digest_pair, keys))
        _set_probe_bits(self._bits, self.num_bits, self.num_hashes, pairs)
        self._count += len(pairs)
        if self.stats is not None:
            self.stats.bloom_hash_computations += len(pairs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        """Keys inserted so far."""
        return self._count

    def expected_fpr(self) -> float:
        """Theoretical FPR at current load: ``(1 - e^{-kn/m})^k``.

        The paper's model (§3.2.2) uses the budget form
        ``e^{-(m/N)·ln(2)^2}``, which this converges to when the filter is
        loaded to its design point. Retained tombstones and invalid
        entries inflate ``n`` and thus the FPR — the mechanism behind
        Fig. 6D's read-throughput gap.
        """
        if self._count == 0:
            return 0.0
        exponent = -self.num_hashes * self._count / self.num_bits
        return (1.0 - math.exp(exponent)) ** self.num_hashes

    @classmethod
    def from_keys(
        cls,
        keys: Iterable[Any],
        bits_per_key: float = 10.0,
        stats: Statistics | None = None,
        expected_entries: int | None = None,
    ) -> "BloomFilter":
        """Build a filter over bare keys: :meth:`from_digests` of their
        :func:`digest_pair`. Run builders hold entries and use
        :func:`entry_digests` instead, which digests each entry once."""
        return cls.from_digests(
            list(map(digest_pair, keys)), bits_per_key, stats, expected_entries
        )

    @classmethod
    def from_digests(
        cls,
        pairs: list[tuple[int, int]],
        bits_per_key: float = 10.0,
        stats: Statistics | None = None,
        expected_entries: int | None = None,
    ) -> "BloomFilter":
        """Build a filter sized for (and filled with) keys given by their
        :func:`digest_pair`.

        The one bulk build path: compaction output, flushes, recovery and
        partial page rewrites all come here, with digests the entries
        already carry (:func:`entry_digests`). Up to
        :data:`_TABLE_MAX_BITS` bits, a key's ``k`` probe bits are one
        lookup in :func:`_probe_patterns` (the pattern of its ``h2``,
        rotated by its ``h1``), ORed into one integer per filter. Above
        that, the bits are set one probe at a time. Either way the bytes
        equal what :meth:`update` sets.

        Construction-time inserts are *not* charged to ``stats``: building
        a file's filters happens during compaction, whose cost the paper
        accounts as I/O, not query-path hashing. The live filter charges
        normally afterwards.
        """
        size = expected_entries if expected_entries is not None else len(pairs)
        bf = cls(max(size, 1), bits_per_key, stats=stats)
        num_bits = bf.num_bits
        if num_bits <= _TABLE_MAX_BITS:
            patterns = _probe_patterns(num_bits, bf.num_hashes)
            bits = 0
            for h1, h2 in pairs:
                step = h2 % num_bits
                pattern = patterns[step]
                if pattern is None:
                    pattern = patterns[step] = _probe_pattern(
                        num_bits, bf.num_hashes, step
                    )
                bits |= pattern >> (num_bits - h1 % num_bits)
            bits &= (1 << num_bits) - 1
            bf._bits = bytearray(bits.to_bytes(len(bf._bits), "little"))
        else:
            _set_probe_bits(bf._bits, num_bits, bf.num_hashes, pairs)
        bf._count = len(pairs)
        return bf

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BloomFilter(n={self._count}, bits={self.num_bits}, "
            f"k={self.num_hashes}, fpr≈{self.expected_fpr():.4f})"
        )
