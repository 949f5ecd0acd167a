"""Simulated disk: page-granularity I/O accounting.

The paper's evaluation metrics are all derived from I/O counts — pages
read and written, bytes compacted, latency as (I/O count × device access
time). This module substitutes the 240 GB SSD of the paper's testbed with
an accounting layer: every page read/write is charged to the shared
:class:`~repro.core.stats.Statistics`, and simulated elapsed time follows
the latency model of §4.2.4 (~100 µs per page I/O, 80 ns per hash).

Files themselves are not tracked here: the LSM-tree is the one record
of which run files are live, and each file knows its own pages. KiWi's
full page drops (§4.2.2) are released with no I/O and so charge nothing.
"""

from __future__ import annotations

import time

from repro.core.errors import StorageError
from repro.core.stats import Statistics


class SimulatedDisk:
    """Charges page I/O to the statistics registry.

    Parameters
    ----------
    stats:
        Shared counters; reads/writes increment ``pages_read`` /
        ``pages_written`` here so every component observes one truth.
    cache:
        Optional block cache; query-path page reads go through
        :meth:`read_cached` and are only charged on a miss.
    real_io_seconds:
        Wall-clock seconds slept per charged page (default 0: purely
        simulated accounting). When set, each charge sleeps once for the
        whole page count — the device wait of a real storage stack (the
        sleep releases the GIL to other threads). Mutable at runtime so a
        bench can preload at zero latency and then switch the device
        model on.
    """

    def __init__(
        self,
        stats: Statistics | None = None,
        cache=None,
        real_io_seconds: float = 0.0,
    ):
        if real_io_seconds < 0:
            raise StorageError(
                f"real_io_seconds must be >= 0, got {real_io_seconds}"
            )
        self.stats = stats if stats is not None else Statistics()
        self.cache = cache
        self.real_io_seconds = real_io_seconds

    def _device_wait(self, pages: int) -> None:
        if self.real_io_seconds > 0.0 and pages > 0:
            time.sleep(pages * self.real_io_seconds)

    def device_wait(self, pages: int) -> None:
        """The physical wait for ``pages`` page reads, without the
        accounting charge.

        Crash recovery uses this when it loads run blobs: the restart
        genuinely waits on the device, but recovered engines start with
        fresh statistics — charging the load into ``pages_read`` would
        pollute every post-restart metric.
        """
        if pages < 0:
            raise StorageError(f"negative wait ({pages} pages)")
        self._device_wait(pages)

    def charge_read(self, pages: int = 1) -> None:
        """Account for reading ``pages`` pages.

        Charged through the locked :meth:`~repro.core.stats.Statistics.
        add` — compaction workers read pages concurrently with the
        ingest thread's flush writes.
        """
        if pages < 0:
            raise StorageError(f"negative read ({pages} pages)")
        self.stats.add(pages_read=pages)
        self._device_wait(pages)

    def charge_write(self, pages: int = 1) -> None:
        """Account for writing ``pages`` pages (locked, see charge_read)."""
        if pages < 0:
            raise StorageError(f"negative write ({pages} pages)")
        self.stats.add(pages_written=pages)
        self._device_wait(pages)

    def read_cached(self, page_uid: int) -> bool:
        """Query-path page read through the block cache.

        Returns True on a cache hit (free); a miss charges one page read.
        With no cache configured every read misses.
        """
        if self.cache is not None and self.cache.access(page_uid):
            self.stats.cache_hits += 1
            return True
        if self.cache is not None:
            self.stats.cache_misses += 1
        self.stats.pages_read += 1
        self._device_wait(1)
        return False
