"""Unit tests for the workload generator and key distributions."""

import random

import pytest

from repro.core.errors import ConfigError
from repro.workloads.distributions import SequentialKeys, UniformKeys, ZipfianKeys
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec import DeleteKeyMode, WorkloadSpec


class TestDistributions:
    def test_uniform_within_domain(self):
        dist = UniformKeys(10, 20, random.Random(1))
        samples = [dist.sample() for _ in range(200)]
        assert all(10 <= s <= 20 for s in samples)
        assert dist.domain == (10, 20)

    def test_uniform_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            UniformKeys(5, 4, random.Random(1))

    def test_sequential(self):
        dist = SequentialKeys(0, 4)
        assert [dist.sample() for _ in range(7)] == [0, 1, 2, 3, 4, 0, 1]

    def test_zipfian_skews_toward_hot_set(self):
        dist = ZipfianKeys(0, 9999, random.Random(1), theta=0.99, scramble=False)
        samples = [dist.sample() for _ in range(5000)]
        assert all(0 <= s <= 9999 for s in samples)
        hot = sum(1 for s in samples if s < 100)
        assert hot > len(samples) * 0.3  # 1% of keys get >30% of draws

    def test_zipfian_scramble_spreads_hot_keys(self):
        dist = ZipfianKeys(0, 9999, random.Random(1), theta=0.99, scramble=True)
        samples = [dist.sample() for _ in range(2000)]
        assert max(samples) > 5000  # hot keys not clustered at the bottom

    def test_zipfian_theta_validated(self):
        with pytest.raises(ValueError):
            ZipfianKeys(0, 10, random.Random(1), theta=1.5)


class TestSpec:
    def test_defaults_valid(self):
        WorkloadSpec()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_inserts", 0),
            ("update_fraction", 1.5),
            ("delete_fraction", -0.1),
            ("range_delete_selectivity", 0.0),
            ("num_point_lookups", -1),
            ("key_domain", (10, 10)),
        ],
    )
    def test_invalid_rejected(self, field, value):
        with pytest.raises(ConfigError):
            WorkloadSpec(**{field: value})

    def test_total_write_ops_estimate(self):
        spec = WorkloadSpec(num_inserts=100, update_fraction=0.5,
                            delete_fraction=0.1)
        assert spec.total_write_ops == 100 + 100 + 10


class TestGenerator:
    def test_deterministic_given_seed(self):
        spec = WorkloadSpec(num_inserts=200, delete_fraction=0.05, seed=9)
        ops_a = list(WorkloadGenerator(spec).ingest_operations())
        ops_b = list(WorkloadGenerator(spec).ingest_operations())
        assert ops_a == ops_b

    def test_different_seeds_differ(self):
        base = dict(num_inserts=200, delete_fraction=0.05)
        ops_a = list(WorkloadGenerator(WorkloadSpec(seed=1, **base)).ingest_operations())
        ops_b = list(WorkloadGenerator(WorkloadSpec(seed=2, **base)).ingest_operations())
        assert ops_a != ops_b

    def test_composition_fractions(self):
        spec = WorkloadSpec(num_inserts=1000, update_fraction=0.5,
                            delete_fraction=0.10, seed=3)
        ops = list(WorkloadGenerator(spec).ingest_operations())
        puts = sum(1 for op in ops if op[0] == "put")
        deletes = sum(1 for op in ops if op[0] == "delete")
        assert deletes == pytest.approx(100, abs=5)
        # ~1000 inserts + ~1000 updates (50% general updates)
        assert puts == pytest.approx(2000, rel=0.1)

    def test_deletes_target_inserted_keys(self):
        spec = WorkloadSpec(num_inserts=500, delete_fraction=0.1, seed=4)
        generator = WorkloadGenerator(spec)
        inserted = set()
        for op in generator.ingest_operations():
            if op[0] == "put":
                inserted.add(op[1])
            elif op[0] == "delete":
                assert op[1] in inserted

    def test_no_duplicate_fresh_inserts(self):
        spec = WorkloadSpec(num_inserts=500, update_fraction=0.0, seed=5)
        generator = WorkloadGenerator(spec)
        keys = [op[1] for op in generator.ingest_operations() if op[0] == "put"]
        assert len(keys) == len(set(keys)) == 500

    def test_delete_key_modes(self):
        for mode, check in (
            (DeleteKeyMode.TIMESTAMP, lambda ops: all(
                op[3] >= 1 for op in ops)),
            (DeleteKeyMode.CORRELATED, lambda ops: all(
                op[3] == op[1] for op in ops)),
            (DeleteKeyMode.UNIFORM, lambda ops: True),
        ):
            spec = WorkloadSpec(num_inserts=100, update_fraction=0.0,
                                delete_key_mode=mode, seed=6)
            ops = [op for op in WorkloadGenerator(spec).ingest_operations()
                   if op[0] == "put"]
            assert check(ops)

    def test_timestamp_delete_keys_monotone(self):
        spec = WorkloadSpec(num_inserts=100, update_fraction=0.0,
                            delete_key_mode=DeleteKeyMode.TIMESTAMP, seed=6)
        dkeys = [op[3] for op in WorkloadGenerator(spec).ingest_operations()
                 if op[0] == "put"]
        assert dkeys == sorted(dkeys)

    def test_query_phase_on_existing(self):
        spec = WorkloadSpec(num_inserts=100, num_point_lookups=50, seed=7)
        generator = WorkloadGenerator(spec)
        list(generator.ingest_operations())
        queries = list(generator.query_operations())
        gets = [op for op in queries if op[0] == "get"]
        assert len(gets) == 50
        inserted = set(generator.inserted_keys)
        assert all(op[1] in inserted for op in gets)

    def test_range_lookups_generated(self):
        spec = WorkloadSpec(num_inserts=100, num_range_lookups=10, seed=8)
        generator = WorkloadGenerator(spec)
        list(generator.ingest_operations())
        scans = [op for op in generator.query_operations() if op[0] == "scan"]
        assert len(scans) == 10
        assert all(op[1] < op[2] for op in scans)

    def test_range_deletes_emitted(self):
        spec = WorkloadSpec(num_inserts=500, range_delete_fraction=0.01,
                            seed=9)
        ops = list(WorkloadGenerator(spec).ingest_operations())
        range_deletes = [op for op in ops if op[0] == "delete_range"]
        assert len(range_deletes) == 5

    def test_zipfian_updates_concentrate(self):
        spec = WorkloadSpec(num_inserts=500, update_fraction=0.5,
                            zipfian=True, seed=10)
        ops = list(WorkloadGenerator(spec).ingest_operations())
        puts = [op[1] for op in ops if op[0] == "put"]
        # updates concentrate on a hot subset → fewer distinct keys than ops
        assert len(set(puts)) < len(puts)

    def test_all_operations_concatenates(self):
        spec = WorkloadSpec(num_inserts=50, num_point_lookups=5, seed=11)
        ops = list(WorkloadGenerator(spec).all_operations())
        assert sum(1 for op in ops if op[0] == "get") == 5
