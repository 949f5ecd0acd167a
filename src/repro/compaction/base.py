"""Compaction framework: tasks, policies, and shared selection helpers.

§4.1.4: "For every compaction, there are two policies to be decided: the
compaction trigger policy and the file selection policy." A policy object
answers *whether* to compact (looking at saturation and, for FADE, TTL
expiry) and *which* file(s) to move; the executor then performs the merge.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable

from repro.core.config import CompactionTrigger
from repro.lsm.level import Level
from repro.lsm.runfile import RunFile
from repro.lsm.tree import LSMTree


@dataclass
class CompactionTask:
    """One unit of compaction work chosen by a policy.

    ``source_level == target_level`` encodes a *self-compaction*: a
    last-level file rewritten in place to persist its tombstones, or
    (with ``whole_level``) pure leveling's greedy merge of every Level-1
    run into one. Otherwise the output merges into the target level's
    overlapping files.
    """

    source_level: int
    source_files: list[RunFile]
    target_level: int
    trigger: CompactionTrigger
    whole_level: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if self.source_level < 1:
            raise ValueError(f"source_level must be >= 1, got {self.source_level}")
        if self.target_level not in (self.source_level, self.source_level + 1):
            raise ValueError(
                "compactions move files at most one level down "
                f"(got {self.source_level} -> {self.target_level})"
            )
        if not self.source_files:
            raise ValueError("a compaction task needs at least one source file")


class CompactionPolicy(abc.ABC):
    """Decides when to compact and which files participate."""

    @abc.abstractmethod
    def select(self, tree: LSMTree, now: float) -> CompactionTask | None:
        """Return the next task, or ``None`` when nothing needs compacting."""


# ----------------------------------------------------------------------
# Shared selection helpers (§4.1.4 tie-breaking rules)
# ----------------------------------------------------------------------


def saturated_levels(tree: LSMTree, level1_run_trigger: int = 0) -> list[int]:
    """Numbers of levels needing compaction, smallest first.

    A level is due when over nominal capacity; a tiered Level 1 is also due
    once it accumulates ``level1_run_trigger`` runs (RocksDB's L0
    file-count trigger). The paper breaks level ties by picking the
    smallest level "to avoid write stalls during compaction".
    """
    due: list[int] = []
    for level in tree.levels:
        if level.is_saturated():
            due.append(level.number)
        elif (
            level.number == 1
            and level1_run_trigger > 0
            and level.run_count >= level1_run_trigger
        ):
            due.append(level.number)
    return due


def overlap_entries(candidate: RunFile, target: Level) -> int:
    """Total entries in target files overlapping the candidate — the actual
    merge work a choice implies (finer-grained than file counts)."""
    return sum(f.meta.num_entries for f in target.files() if f.overlaps(candidate))


def pick_min_overlap(
    level: Level, target: Level
) -> RunFile | None:
    """SO selection: file with minimal overlap with the next level.

    "to optimize write throughput, we select files from Level i with
    minimal overlap with files in Level i+1" (§2); "a tie in SO [is
    broken] by picking the file with the most tombstones" (§4.1.4).
    """
    best: RunFile | None = None
    best_key: tuple | None = None
    for candidate in level.files():
        key = (
            overlap_entries(candidate, target),
            -candidate.tombstone_count,
            candidate.meta.file_number,
        )
        if best_key is None or key < best_key:
            best, best_key = candidate, key
    return best


def pick_highest_b(
    level: Level, estimate_b: Callable[[RunFile], float]
) -> RunFile | None:
    """SD selection: file with the highest estimated invalidation count.

    "A tie in SD ... is broken by picking the file that contains the
    oldest tombstone" (§4.1.4); final tie on file number.
    """
    best: RunFile | None = None
    best_key: tuple | None = None
    for candidate in level.files():
        oldest = candidate.meta.oldest_tombstone_time
        key = (
            -estimate_b(candidate),
            oldest if oldest is not None else float("inf"),
            -candidate.tombstone_count,
            candidate.meta.file_number,
        )
        if best_key is None or key < best_key:
            best, best_key = candidate, key
    return best
