"""Unit and property tests for the Bloom filter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import lethe_config
from repro.core.engine import LSMEngine
from repro.core.stats import Statistics
from repro.filters import bloom as bloom_module
from repro.filters.bloom import (
    BloomFilter,
    digest_pair,
    key_digest,
    murmur_mix64,
    optimal_hash_count,
)

from tests.conftest import TINY


class TestHashing:
    def test_mix_is_deterministic(self):
        assert murmur_mix64(12345) == murmur_mix64(12345)

    def test_mix_spreads_nearby_keys(self):
        digests = {murmur_mix64(i) for i in range(1000)}
        assert len(digests) == 1000

    def test_key_digest_supports_common_types(self):
        assert key_digest(42) == key_digest(42)
        assert key_digest("abc") == key_digest("abc")
        assert key_digest(b"abc") == key_digest(b"abc")
        assert key_digest("abc") != key_digest("abd")

    def test_optimal_hash_count(self):
        assert optimal_hash_count(10) == 7   # 10 · ln2 ≈ 6.93
        assert optimal_hash_count(1) == 1
        assert optimal_hash_count(16) == 11


class TestBasics:
    def test_no_false_negatives(self):
        bf = BloomFilter(100, bits_per_key=10)
        keys = list(range(0, 1000, 10))
        bf.update(keys)
        assert all(bf.might_contain(k) for k in keys)

    def test_false_positive_rate_near_theory(self):
        bf = BloomFilter(2000, bits_per_key=10)
        bf.update(range(2000))
        absent = range(10**6, 10**6 + 5000)
        fp = sum(1 for k in absent if bf.might_contain(k))
        rate = fp / 5000
        # theory ≈ 0.8%; allow generous slack for a 5000-sample estimate
        assert rate < 0.03

    def test_empty_filter_rejects_everything(self):
        bf = BloomFilter(10, bits_per_key=10)
        assert not bf.might_contain(5)
        assert bf.expected_fpr() == 0.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BloomFilter(-1)
        with pytest.raises(ValueError):
            BloomFilter(10, bits_per_key=0)

    def test_expected_fpr_grows_with_load(self):
        bf = BloomFilter(100, bits_per_key=10)
        bf.update(range(100))
        at_design = bf.expected_fpr()
        bf.update(range(100, 300))  # overload: the paper's polluted-filter effect
        assert bf.expected_fpr() > at_design


class TestStatsAccounting:
    def test_probe_counts_one_hash(self):
        """§4.2.4: one MurmurHash digest per key regardless of k."""
        stats = Statistics()
        bf = BloomFilter(10, bits_per_key=10, stats=stats)
        bf.might_contain(5)
        assert stats.bloom_probes == 1
        assert stats.bloom_hash_computations == 1

    def test_add_counts_one_hash(self):
        stats = Statistics()
        bf = BloomFilter(10, bits_per_key=10, stats=stats)
        bf.add(5)
        assert stats.bloom_hash_computations == 1

    def test_from_keys_construction_not_charged(self):
        stats = Statistics()
        bf = BloomFilter.from_keys(range(50), stats=stats)
        assert stats.bloom_hash_computations == 0
        bf.might_contain(1)
        assert stats.bloom_hash_computations == 1


class TestFromKeys:
    def test_sized_for_keys(self):
        bf = BloomFilter.from_keys(range(64), bits_per_key=10)
        assert bf.count == 64
        assert bf.num_bits >= 640

    def test_explicit_expected_entries(self):
        bf = BloomFilter.from_keys(range(10), expected_entries=100)
        assert bf.num_bits >= 1000


@given(st.sets(st.integers(min_value=0, max_value=2**60), min_size=1, max_size=300))
@settings(max_examples=50, deadline=None)
def test_property_no_false_negatives(keys):
    """Invariant: a Bloom filter never reports an inserted key as absent."""
    bf = BloomFilter.from_keys(keys, bits_per_key=10)
    assert all(bf.might_contain(k) for k in keys)


@given(
    st.sets(st.integers(min_value=0, max_value=10**6), min_size=10, max_size=200),
    st.floats(min_value=2.0, max_value=20.0),
)
@settings(max_examples=25, deadline=None)
def test_property_fpr_bounded(keys, bits_per_key):
    """At its design load the empirical FPR stays within ~5× of theory."""
    bf = BloomFilter.from_keys(keys, bits_per_key=bits_per_key)
    absent = [k + 10**9 for k in range(400)]
    fp = sum(1 for k in absent if bf.might_contain(k))
    theory = bf.expected_fpr()
    assert fp / 400 <= max(5 * theory, 0.08)


def reference_bits(keys, num_bits, num_hashes):
    """The double-hashing loop as first written: k positions per digest."""
    bits = bytearray((num_bits + 7) // 8)
    for key in keys:
        digest = key_digest(key)
        h1, h2 = digest & 0xFFFFFFFF, (digest >> 32) | 1
        for i in range(num_hashes):
            position = (h1 + i * h2) % num_bits
            bits[position >> 3] |= 1 << (position & 7)
    return bits


_any_key = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.text(max_size=12),
    st.binary(max_size=12),
)


@given(
    st.lists(_any_key, min_size=1, max_size=120),
    st.floats(min_value=1.0, max_value=20.0),
)
@settings(max_examples=60, deadline=None)
def test_property_build_matches_reference_loop(keys, bits_per_key):
    """Bulk ``from_keys`` and per-key ``add`` set exactly the reference's
    bits, and a probe handed the digest pair answers as one that hashes."""
    bulk = BloomFilter.from_keys(keys, bits_per_key=bits_per_key)
    one_by_one = BloomFilter(len(keys), bits_per_key=bits_per_key)
    for key in keys:
        one_by_one.add(key)
    expected = reference_bits(keys, bulk.num_bits, bulk.num_hashes)
    assert bulk._bits == expected
    assert one_by_one._bits == expected
    assert bulk.count == one_by_one.count == len(keys)
    for key in keys + list(range(50)):
        assert bulk.might_contain(key, digest_pair(key)) == bulk.might_contain(key)


def test_lookup_digests_once_and_charges_every_filter(monkeypatch):
    """§4.2.4: one digest per key however many filters the get probes;
    ``bloom_probes``/``bloom_hash_computations`` still count per filter."""
    engine = LSMEngine(
        lethe_config(
            delete_persistence_threshold=1e9, delete_tile_pages=4, **TINY
        )
    )
    # Even keys in a scattered order, so every level spans the key domain.
    for i in range(600):
        key = (i * 7919 * 2) % 1200
        engine.put(key, f"v{key}", delete_key=i)
    engine.flush()
    assert engine.tree.deepest_nonempty_level() >= 2

    digests = []
    real_digest = key_digest
    monkeypatch.setattr(
        bloom_module, "key_digest", lambda key: digests.append(key) or real_digest(key)
    )
    probed = []
    real_probe = BloomFilter.might_contain

    def counting_probe(self, key, hashed=None):
        probed.append(self)
        return real_probe(self, key, hashed)

    monkeypatch.setattr(BloomFilter, "might_contain", counting_probe)

    for key, expected in ((600, "v600"), (601, None)):
        digests.clear()
        probed.clear()
        before = engine.stats.snapshot()
        assert engine.get(key) == expected
        after = engine.stats.snapshot()
        assert digests == [key]
        assert after["bloom_probes"] - before["bloom_probes"] == len(probed)
        assert (
            after["bloom_hash_computations"] - before["bloom_hash_computations"]
            == len(probed)
        )
    assert len(probed) > 4  # the absent key: h page filters on each level

    # The blind-delete pre-check is the other caller: also one digest.
    digests.clear()
    probed.clear()
    engine.delete(603)
    assert digests == [603]
    assert len(probed) > 4
