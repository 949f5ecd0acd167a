"""FADE: Fast Deletion — delete-aware compaction with TTL-bounded persistence.

§4.1: FADE guarantees every tombstone is persisted within the user's delete
persistence threshold ``D_th`` by assigning each level an exponentially
increasing TTL and compacting files whose oldest tombstone has outlived its
cumulative deadline.

TTL allocation (§4.1.2): for a tree with ``n`` disk levels and size ratio
``T``, level ``i`` gets ``d_i = d_1 · T^{i-1}`` with
``d_1 = D_th · (T − 1)/(T^n − 1)``, so ``Σ d_i = D_th`` and files expire at
a roughly constant rate per time unit (a flat ``D_th/n`` would make the
exponentially many files of large levels expire simultaneously). A file in
level ``i`` is **expired** once the age of its oldest tombstone exceeds the
cumulative deadline ``Σ_{j≤i} d_j`` — matching the cumulative ``d[i]``
computed by the paper's Figure 4 pseudocode.

Trigger and selection (§4.1.4):

* any expired file → **delete-driven trigger, delete-driven selection
  (DD)**: compact an expired file regardless of saturation. This check
  always runs first; DD is not a configurable mode;
* otherwise, saturation → **SO** (min overlap; write-amp optimal) or
  **SD** (highest estimated invalidation count ``b``; space-amp optimal),
  per ``config.file_selection``, the secondary optimization goal.

"FADE re-calculates d_i after every buffer flush" (§4.1.2): here every
expiry check derives the TTLs from the tree's current height, so they
are never stale.

Tie-breaks: smallest level first; oldest tombstone, then most tombstones
(DD/SD); most tombstones (SO).
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.core.config import CompactionTrigger, EngineConfig, FileSelectionMode
from repro.core.errors import ConfigError
from repro.lsm.runfile import RunFile
from repro.lsm.tree import LSMTree

from repro.compaction.base import (
    CompactionPolicy,
    CompactionTask,
    pick_highest_b,
    pick_min_overlap,
    saturated_levels,
)


class InvalidationEstimator:
    """Estimates ``b_f = p_f + rd_f`` for a file (§4.1.3).

    ``p_f`` is the exact point-tombstone count the file metadata already
    stores; ``rd_f`` estimates how many entries of the whole database the
    file's *range* tombstones invalidate, using the tree-wide key-domain
    histogram the engine maintains ("it is not possible to accurately
    calculate rd_f without accessing the entire database, hence, we
    estimate this value using the system-wide histograms").
    """

    def __init__(
        self,
        key_bounds: Callable[[], tuple[Any, Any] | None],
        total_entries: Callable[[], int],
    ):
        self._key_bounds = key_bounds
        self._total_entries = total_entries

    def estimate(self, run_file: RunFile) -> float:
        b = float(run_file.meta.num_point_tombstones)
        if not run_file.range_tombstones:
            return b
        bounds = self._key_bounds()
        total = self._total_entries()
        if bounds is None or total <= 0:
            return b + float(run_file.meta.num_range_tombstones)
        lo, hi = bounds
        try:
            span = float(hi) - float(lo)
        except (TypeError, ValueError):
            return b + float(run_file.meta.num_range_tombstones)
        if span <= 0:
            return b + float(run_file.meta.num_range_tombstones)
        for rt in run_file.range_tombstones:
            selectivity = max(0.0, min(1.0, (float(rt.end) - float(rt.start)) / span))
            b += selectivity * total
        return b


class FADEPolicy(CompactionPolicy):
    """The FADE family of compaction strategies."""

    def __init__(
        self,
        config: EngineConfig,
        estimator: InvalidationEstimator | None = None,
    ):
        if config.delete_persistence_threshold is None:
            raise ConfigError("FADE requires a delete_persistence_threshold")
        self.config = config
        self.d_th = float(config.delete_persistence_threshold)
        self.estimator = estimator or InvalidationEstimator(
            key_bounds=lambda: None, total_entries=lambda: 0
        )

    # ------------------------------------------------------------------
    # TTL machinery (§4.1.2)
    # ------------------------------------------------------------------

    def level_ttls(self, height: int) -> list[float]:
        """TTLs ``[d_0, d_1, .., d_{n-1}]`` for a tree of ``height`` disk levels.

        The paper numbers levels with the memory buffer as Level 0 and
        disk levels 1..L−1; TTLs cover levels 0..L−2 (a tombstone reaching
        the last level is persisted by that very compaction, so the last
        level needs no allowance): ``d_0 = D_th·(T−1)/(T^{L−1}−1)`` and
        ``d_i = T·d_{i−1}``. With ``height`` = n disk levels, L−1 = n, so
        the list has n entries — index 0 is the buffer's allowance, index
        i (1 ≤ i ≤ n−1) is disk level i's.
        """
        n = max(1, height)
        t = self.config.size_ratio
        d0 = self.d_th * (t - 1) / (t**n - 1)
        return [d0 * t**i for i in range(n)]

    def cumulative_deadline(self, level_number: int, height: int) -> float:
        """Age budget for a file at disk level ``i``: ``Σ_{j=0..i} d_j``.

        A tombstone written at time ``t`` sitting at disk level ``i`` is on
        schedule iff its age is at most the buffer allowance plus the
        allowances of disk levels 1..i — exactly the cumulative ``d[i]``
        of the paper's Figure 4 pseudocode. Files at (or past) the last
        level get the full ``D_th``: their expiry self-compacts the file
        to persist any tombstones it still carries (e.g. flushed while the
        tree had a single level).
        """
        n = max(1, height)
        if level_number >= n:
            return self.d_th
        ttls = self.level_ttls(n)
        return sum(ttls[: level_number + 1])

    def is_expired(
        self, run_file: RunFile, level_number: int, now: float, height: int
    ) -> bool:
        """File TTL check.

        Default (paper's Fig. 4): the oldest tombstone's total age exceeds
        the cumulative deadline ``Σ_{j≤i} d_j``. Arrival variant: the file
        has sat at its level longer than that level's own ``d_i``.
        """
        if not run_file.meta.has_tombstones:
            return False
        if self.config.fade_ttl_from_level_arrival:
            ttls = self.level_ttls(height)
            index = min(level_number, len(ttls) - 1)
            return run_file.meta.level_age(now) > ttls[index]
        return run_file.meta.amax(now) > self.cumulative_deadline(
            level_number, height
        )

    # ------------------------------------------------------------------
    # Selection (§4.1.4)
    # ------------------------------------------------------------------

    def select(self, tree: LSMTree, now: float) -> CompactionTask | None:
        task = self._select_expired(tree, now)
        if task is not None:
            return task
        return self._select_saturated(tree, now)

    def _select_expired(
        self, tree: LSMTree, now: float
    ) -> CompactionTask | None:
        height = max(1, tree.deepest_nonempty_level())
        for level in tree.levels:  # smallest level first (tie-break rule)
            expired = [
                f
                for f in level.files()
                if self.is_expired(f, level.number, now, height)
            ]
            if not expired:
                continue
            chosen = min(
                expired,
                key=lambda f: (
                    f.meta.oldest_tombstone_time
                    if f.meta.oldest_tombstone_time is not None
                    else math.inf,
                    -f.tombstone_count,
                    f.meta.file_number,
                ),
            )
            if tree.is_last_level(level.number):
                target = level.number  # self-compaction persists tombstones
            else:
                target = level.number + 1
            return CompactionTask(
                source_level=level.number,
                source_files=[chosen],
                target_level=target,
                trigger=CompactionTrigger.TTL_EXPIRY,
                description=f"ttl-expiry L{level.number}",
            )
        return None

    def _select_saturated(
        self, tree: LSMTree, now: float
    ) -> CompactionTask | None:
        trigger = (
            self.config.level1_run_trigger if self.config.level1_tiered else 0
        )
        mode = self.config.file_selection
        for level_number in saturated_levels(tree, trigger):
            level = tree.level(level_number)
            target = tree.ensure_level(level_number + 1)
            if mode is FileSelectionMode.SD and level.tombstone_count() > 0:
                chosen = pick_highest_b(level, self.estimator.estimate)
            else:
                chosen = pick_min_overlap(level, target)
            if chosen is None:
                continue
            return CompactionTask(
                source_level=level_number,
                source_files=[chosen],
                target_level=level_number + 1,
                trigger=CompactionTrigger.SATURATION,
                description=f"saturation L{level_number} ({mode.value})",
            )
        return None
