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
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Any, Iterable

from repro.core.stats import Statistics

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
        bits = self._bits
        num_bits = self.num_bits
        probes = range(self.num_hashes)
        added = 0
        for key in keys:
            h1, h2 = digest_pair(key)
            for _ in probes:
                position = h1 % num_bits
                bits[position >> 3] |= 1 << (position & 7)
                h1 += h2
            added += 1
        self._count += added
        if self.stats is not None:
            self.stats.bloom_hash_computations += added

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
        """Build a filter sized for (and filled with) ``keys``.

        The one bulk build path (compaction output, flushes, recovery,
        partial page rewrites), in one pass over the keys. With ``h1`` and
        ``h2`` reduced modulo ``m``, a key's unreduced probe offsets
        ``h1 + i · h2`` (``i < k``) all lie below ``k · m``; their bits
        form a geometric series, ``(2^(k·h2) - 1) / (2^h2 - 1)`` shifted
        by ``h1``, ORed into one wide integer per filter. Folding that
        integer onto ``m`` bits reduces every offset modulo ``m``: the
        bits are exactly those :meth:`update` sets one probe at a time.

        Construction-time inserts are *not* charged to ``stats``: building
        a file's filters happens during compaction, whose cost the paper
        accounts as I/O, not query-path hashing. The live filter charges
        normally afterwards.
        """
        key_list = list(keys)
        size = expected_entries if expected_entries is not None else len(key_list)
        bf = cls(max(size, 1), bits_per_key, stats=stats)
        num_bits = bf.num_bits
        num_hashes = bf.num_hashes
        wide = 0
        for key in key_list:
            h1, h2 = digest_pair(key)
            h1 %= num_bits
            h2 %= num_bits
            if h2:
                wide |= ((1 << num_hashes * h2) - 1) // ((1 << h2) - 1) << h1
            else:
                wide |= 1 << h1  # every probe lands on h1
        bits = 0
        low_bits = (1 << num_bits) - 1
        while wide:
            bits |= wide & low_bits
            wide >>= num_bits
        bf._bits = bytearray(bits.to_bytes(len(bf._bits), "little"))
        bf._count = len(key_list)
        return bf

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BloomFilter(n={self._count}, bits={self.num_bits}, "
            f"k={self.num_hashes}, fpr≈{self.expected_fpr():.4f})"
        )
