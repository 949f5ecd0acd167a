"""The state-of-the-art leveled compaction policy (the paper's baseline).

Trigger: level saturation only. Selection: minimal overlap with the next
level (§2 "Partial Compaction" — the write-amplification-optimal choice),
ties broken toward the file with more tombstones.
"""

from __future__ import annotations

from repro.core.config import CompactionTrigger, EngineConfig
from repro.lsm.tree import LSMTree

from repro.compaction.base import (
    CompactionPolicy,
    CompactionTask,
    pick_min_overlap,
    saturated_levels,
)


class LeveledCompactionPolicy(CompactionPolicy):
    """Saturation-triggered, overlap-minimizing partial compaction."""

    def __init__(self, config: EngineConfig):
        self.config = config

    def select(self, tree: LSMTree, now: float) -> CompactionTask | None:
        trigger = (
            self.config.level1_run_trigger if self.config.level1_tiered else 0
        )
        for level_number in saturated_levels(tree, trigger):
            level = tree.level(level_number)
            target = tree.ensure_level(level_number + 1)
            candidate = pick_min_overlap(level, target)
            if candidate is None:
                continue
            return CompactionTask(
                source_level=level_number,
                source_files=[candidate],
                target_level=level_number + 1,
                trigger=CompactionTrigger.SATURATION,
                description=f"saturation L{level_number}",
            )
        return None
