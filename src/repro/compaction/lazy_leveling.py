"""Lazy leveling: tiering everywhere except a leveled last level.

The hybrid compaction design the paper cites (Dostoevsky, [23]): the
small levels accumulate up to T runs before merging (cheap writes where
merges are frequent), while the last level — holding the vast majority of
the data — is kept as a single sorted run (cheap reads where most lookups
land). Deletes persist when data merges *into* the leveled last level.
"""

from __future__ import annotations

from repro.core.config import CompactionTrigger, EngineConfig
from repro.lsm.tree import LSMTree

from repro.compaction.base import CompactionPolicy, CompactionTask


class LazyLevelingPolicy(CompactionPolicy):
    """Run-quota-triggered merges; the deepest data level stays leveled."""

    def __init__(self, config: EngineConfig):
        self.config = config

    def select(self, tree: LSMTree, now: float) -> CompactionTask | None:
        for level in tree.levels:
            if level.is_empty:
                continue
            is_last = tree.is_last_level(level.number)
            quota_hit = level.run_count >= self.config.size_ratio
            if is_last:
                if level.run_count > 1:
                    # Restore the last level's leveled shape in place.
                    target = level.number
                elif level.is_saturated():
                    # The run outgrew its level: it becomes the new last.
                    target = level.number + 1
                else:
                    continue
                return CompactionTask(
                    source_level=level.number,
                    source_files=list(level.files()),
                    target_level=target,
                    trigger=CompactionTrigger.SATURATION,
                    whole_level=True,
                    install_as_run=False,
                    description=f"lazy-level L{level.number} consolidate",
                )
            if not quota_hit and not level.is_saturated():
                continue
            target = level.number + 1
            # Merging *into* the last level folds into its single run
            # (leveled); intermediate targets just gain a new run.
            into_last = tree.is_last_level(target)
            return CompactionTask(
                source_level=level.number,
                source_files=list(level.files()),
                target_level=target,
                trigger=CompactionTrigger.SATURATION,
                whole_level=True,
                install_as_run=not into_last,
                description=(
                    f"lazy-level L{level.number} -> L{target}"
                    f" ({'leveled' if into_last else 'tiered'} install)"
                ),
            )
        return None
