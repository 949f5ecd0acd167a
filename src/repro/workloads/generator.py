"""The synthetic delete-aware workload generator (§5 "Workload").

Produces deterministic operation streams as tuples consumable by
:meth:`repro.core.engine.LSMEngine.ingest`:

* ``("put", key, value, delete_key)``
* ``("delete", key)``
* ``("delete_range", start, end)``
* ``("get", key)``
* ``("scan", lo, hi)``

The ingest phase interleaves fresh inserts, updates to existing keys
(YCSB-A's 50%), point deletes of existing keys (2–10% of ingestion,
uniformly spread through the workload), and optional sort-key range
deletes. The query phase issues point lookups on previously-inserted keys
— including keys that have since been deleted, matching Fig 6D — and/or
short range scans.

The generator is stateful: iterating :meth:`ingest_operations` populates
``inserted_keys``, which :meth:`query_operations` then samples from.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.workloads.distributions import UniformKeys, ZipfianKeys
from repro.workloads.spec import DeleteKeyMode, WorkloadSpec


class WorkloadGenerator:
    """Deterministic operation-stream factory for one :class:`WorkloadSpec`."""

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec
        self._rng = random.Random(spec.seed)
        low, high = spec.key_domain
        self._fresh_keys = UniformKeys(low, high, self._rng)
        if spec.zipfian:
            self._hot_keys = ZipfianKeys(low, high, self._rng, theta=spec.zipf_theta)
        else:
            self._hot_keys = None
        self._timestamp = 0
        self.inserted_keys: list[int] = []

    # ------------------------------------------------------------------
    # Ingest phase
    # ------------------------------------------------------------------

    def ingest_operations(self) -> Iterator[tuple]:
        """The write stream: inserts, updates, deletes, range deletes."""
        spec = self.spec
        inserted = self.inserted_keys
        inserted_set: set[int] = set()
        live: set[int] = set()

        n_deletes = int(spec.num_inserts * spec.delete_fraction)
        n_range_deletes = int(spec.num_inserts * spec.range_delete_fraction)
        updates_per_insert = (
            spec.update_fraction / (1 - spec.update_fraction)
            if spec.update_fraction < 1
            else 1.0
        )
        delete_every = max(1, spec.num_inserts // n_deletes) if n_deletes else None
        range_delete_every = (
            max(1, spec.num_inserts // n_range_deletes) if n_range_deletes else None
        )

        update_credit = 0.0
        for i in range(spec.num_inserts):
            key = self._sample_unused(inserted_set)
            inserted.append(key)
            inserted_set.add(key)
            live.add(key)
            yield ("put", key, self._value_for(key), self._delete_key_for(key))

            update_credit += updates_per_insert
            while update_credit >= 1.0 and inserted:
                update_credit -= 1.0
                victim = self._pick_existing(inserted)
                if victim in live:
                    yield (
                        "put",
                        victim,
                        self._value_for(victim),
                        self._delete_key_for(victim),
                    )

            if delete_every and (i + 1) % delete_every == 0 and live:
                victim = self._pick_live(inserted, live)
                if victim is not None:
                    live.discard(victim)
                    yield ("delete", victim)

            if range_delete_every and (i + 1) % range_delete_every == 0:
                start, end = self._range_delete_bounds()
                live.difference_update(
                    k for k in list(live) if start <= k < end
                )
                yield ("delete_range", start, end)

    # ------------------------------------------------------------------
    # Query phase
    # ------------------------------------------------------------------

    def query_operations(self) -> Iterator[tuple]:
        """Point/range lookups issued after the load completes (§5)."""
        spec = self.spec
        low, high = spec.key_domain
        inserted = self.inserted_keys
        for _ in range(spec.num_point_lookups):
            if spec.lookup_on_existing and inserted:
                key = inserted[self._rng.randrange(len(inserted))]
            else:
                key = self._rng.randint(low, high)
            yield ("get", key)
        for _ in range(spec.num_range_lookups):
            width = max(1, int((high - low) * spec.range_lookup_selectivity))
            start = self._rng.randint(low, max(low, high - width))
            yield ("scan", start, start + width)

    def all_operations(self) -> Iterator[tuple]:
        """Ingest phase followed by query phase."""
        yield from self.ingest_operations()
        yield from self.query_operations()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _sample_unused(self, used: set[int]) -> int:
        key = self._fresh_keys.sample()
        while key in used:
            key = self._fresh_keys.sample()
        return key

    def _pick_existing(self, inserted: list[int]) -> int:
        if self._hot_keys is not None:
            # Map the skewed draw onto the inserted population.
            index = self._hot_keys.sample() % len(inserted)
        else:
            index = self._rng.randrange(len(inserted))
        return inserted[index]

    def _pick_live(self, inserted: list[int], live: set[int]) -> int | None:
        for _ in range(16):
            candidate = self._pick_existing(inserted)
            if candidate in live:
                return candidate
        for candidate in inserted:
            if candidate in live:
                return candidate
        return None

    def _range_delete_bounds(self) -> tuple[int, int]:
        low, high = self.spec.key_domain
        width = max(1, int((high - low) * self.spec.range_delete_selectivity))
        start = self._rng.randint(low, max(low, high - width))
        return start, start + width

    def _value_for(self, key: int) -> str:
        return f"value-{key}-{self._rng.randrange(1 << 30)}"

    def _delete_key_for(self, key: int) -> int:
        mode = self.spec.delete_key_mode
        if mode is DeleteKeyMode.CORRELATED:
            return key
        if mode is DeleteKeyMode.TIMESTAMP:
            self._timestamp += 1
            return self._timestamp
        low, high = self.spec.key_domain
        return self._rng.randint(low, high)
