"""Unit tests for the simulated disk's accounting."""

import pytest

from repro.core.errors import StorageError
from repro.core.stats import Statistics
from repro.storage.disk import SimulatedDisk


@pytest.fixture
def disk():
    return SimulatedDisk(Statistics())


class TestCharging:
    def test_reads_and_writes_charged(self, disk):
        disk.charge_read(3)
        disk.charge_write(2)
        assert disk.stats.pages_read == 3
        assert disk.stats.pages_written == 2

    def test_negative_charges_rejected(self, disk):
        with pytest.raises(StorageError):
            disk.charge_read(-1)
        with pytest.raises(StorageError):
            disk.charge_write(-1)

    def test_stats_shared(self):
        stats = Statistics()
        disk = SimulatedDisk(stats)
        disk.charge_read(1)
        assert stats.pages_read == 1

    def test_default_stats_created(self):
        disk = SimulatedDisk()
        disk.charge_write(1)
        assert disk.stats.pages_written == 1
