"""Full-tree compaction: the state of the art's blunt instrument.

§3.1.3: "to ensure time-bounded persistence of logical deletes and to
facilitate secondary range deletes, data stores resort to periodic
full-tree compaction. However, this is an extremely expensive solution as
it involves superfluous disk I/Os, increases write amplification and
results in latency spikes."

The baseline engine uses this routine for (a) forced delete persistence
(the "tuned RocksDB" point of Figure 1B) and (b) secondary range deletes
on the classic layout, where qualifying entries are scattered across
every file and "there is no way to identify the affected files" (§3.3).
"""

from __future__ import annotations

from typing import Callable

from repro.core.config import EngineConfig
from repro.core.stats import Statistics
from repro.lsm.builder import build_run
from repro.lsm.iterator import merge_for_compaction
from repro.lsm.runfile import RunFile
from repro.lsm.tree import LSMTree
from repro.storage.disk import SimulatedDisk
from repro.storage.entry import Entry


def full_tree_compaction(
    tree: LSMTree,
    config: EngineConfig,
    disk: SimulatedDisk,
    stats: Statistics,
    now: float,
    on_tombstone_persisted: Callable[[object], None] | None = None,
    drop_predicate: Callable[[Entry], bool] | None = None,
) -> list[RunFile]:
    """Read, merge, and rewrite the whole tree into its last level.

    Every tombstone is persisted (the output is by definition the last
    level). ``drop_predicate`` additionally discards matching live entries
    during the rewrite — this is how the classic layout executes a
    secondary range delete: one full pass over all ``N/B`` pages (§3.3),
    at a cost independent of the delete's selectivity.

    Returns the files of the new, single-run tree.
    """
    all_files = list(tree.all_files())
    if not all_files:
        stats.full_tree_compactions += 1
        stats.compactions += 1
        return []

    runs = [f.entries() for f in all_files]
    range_tombstones = [rt for f in all_files for rt in f.range_tombstones]

    pages_in = sum(f.num_pages for f in all_files)
    bytes_in = sum(f.size_bytes for f in all_files)
    disk.charge_read(pages_in)
    stats.compaction_bytes_read += bytes_in
    stats.compaction_entries_in += sum(f.meta.num_entries for f in all_files)

    outcome = merge_for_compaction(
        runs, range_tombstones, into_last_level=True
    )
    survivors = outcome.entries
    if drop_predicate is not None:
        kept: list[Entry] = []
        purged = 0
        for entry in survivors:
            if not entry.is_tombstone and drop_predicate(entry):
                purged += 1
            else:
                kept.append(entry)
        survivors = kept
        stats.invalid_entries_purged += purged

    target_level = max(1, tree.deepest_nonempty_level())
    output_files = build_run(
        survivors,
        [],
        config=config,
        disk=disk,
        stats=stats,
        now=now,
        level=target_level,
    )
    pages_out = sum(f.num_pages for f in output_files)
    bytes_out = sum(f.size_bytes for f in output_files)
    disk.charge_write(pages_out)
    stats.compaction_bytes_written += bytes_out
    stats.compaction_entries_out += len(survivors)
    stats.invalid_entries_purged += outcome.invalid_entries_dropped
    stats.tombstones_dropped += len(outcome.dropped_tombstones) + len(
        outcome.dropped_range_tombstones
    )
    if on_tombstone_persisted is not None:
        for tombstone in outcome.dropped_tombstones:
            on_tombstone_persisted(tombstone)
        for rt in outcome.dropped_range_tombstones:
            on_tombstone_persisted(rt)

    # Install: wipe every level, put the single run at the target level —
    # one tree.install() section, so concurrent readers see either the
    # old tree or the new single run, never a half-wiped middle state.
    with tree.install():
        for level in tree.levels:
            level.runs = []
        target = tree.ensure_level(target_level)
        target.merge_into_single_run(output_files)

    stats.full_tree_compactions += 1
    stats.compactions += 1
    stats.saturation_triggered_compactions += 1
    return output_files
