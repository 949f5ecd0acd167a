"""Tiered compaction: accumulate T runs per level, then merge them all.

§2: "With tiering, every level must accumulate T runs before they are
sort-merged." The merged run is pushed to the next level; when the level
is already the last one holding data, the merge happens in place (into a
single run), which is where a tiered tree persists deletes.
"""

from __future__ import annotations

from repro.core.config import CompactionTrigger, EngineConfig
from repro.lsm.tree import LSMTree

from repro.compaction.base import CompactionPolicy, CompactionTask


class TieredCompactionPolicy(CompactionPolicy):
    """Run-count / saturation triggered whole-level merges."""

    def __init__(self, config: EngineConfig):
        self.config = config

    def select(self, tree: LSMTree, now: float) -> CompactionTask | None:
        for level in tree.levels:
            if level.is_empty:
                continue
            run_quota_hit = level.run_count >= self.config.size_ratio
            if not run_quota_hit and not level.is_saturated():
                continue
            is_last = tree.is_last_level(level.number)
            if is_last and level.run_count > 1 and not level.is_saturated():
                # Consolidate the last level's runs in place: the only
                # point a tiered tree persists deletes.
                target = level.number
            elif is_last and level.run_count == 1 and not level.is_saturated():
                continue  # a single, within-capacity run: stable state
            elif is_last and not level.is_saturated():
                target = level.number
            elif is_last and level.run_count == 1:
                target = level.number + 1  # grow the tree
            elif is_last:
                # Saturated multi-run last level: consolidate first; if the
                # result still exceeds capacity the next round pushes down.
                target = level.number
            else:
                target = level.number + 1
            files = list(level.files())
            return CompactionTask(
                source_level=level.number,
                source_files=files,
                target_level=target,
                trigger=CompactionTrigger.SATURATION,
                whole_level=True,
                install_as_run=target != level.number,
                description=f"tier-merge L{level.number} ({level.run_count} runs)",
            )
        return None
