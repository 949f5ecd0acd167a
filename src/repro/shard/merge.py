"""Result merging for scatter-gather reads and deletes.

The second half of every fan-out: shards answer independently, and this
module folds their per-shard answers into the one result a single engine
would have produced.

* :func:`kway_merge` — merges per-shard *sorted* result lists (every
  shard's ``scan`` and ``secondary_range_lookup`` emit key-ascending
  lists) into one key-sorted list via a heap merge, ``O(R log k)`` for
  ``R`` total results over ``k`` shards. The partitioner guarantees each
  key lives on exactly one shard, so deduplication never fires in a
  healthy cluster — it exists as a safety net (and an assertion point)
  for routing bugs: on a misroute the lowest shard index wins and the
  merged answer stays a function of the key.
* :func:`combine_reports` — element-wise sum of per-shard
  :class:`~repro.kiwi.range_delete.SecondaryDeleteReport`\\ s, producing
  the cluster-wide page bill of a scatter-gather secondary range delete
  (exactly the paper's per-tree cost model, times the fan-out).

Both functions consume results *positionally*: the cluster's fan-out
returns them in shard order, so a merged answer depends only on the
per-shard answers.
"""

from __future__ import annotations

import heapq
from dataclasses import fields
from typing import Any, Callable, Iterable, Sequence

from repro.kiwi.range_delete import SecondaryDeleteReport


def kway_merge(
    per_shard: Sequence[Sequence[Any]],
    key: Callable[[Any], Any] = lambda item: item[0],
) -> list[Any]:
    """Merge per-shard sorted result lists into one key-sorted list.

    Deduplicates on ``key``: when two shards return the same key (a
    routing-invariant violation), the lower shard index wins and the
    duplicate is dropped, keeping the merged answer a function even under
    a misroute. Ties between shards order by shard index, so the merge is
    deterministic.
    """
    merged: list[Any] = []
    last_key: Any = None
    for item in heapq.merge(
        *(
            ((key(item), shard, item) for item in results)
            for shard, results in enumerate(per_shard)
        )
    ):
        item_key, _, payload = item
        if merged and item_key == last_key:
            continue
        merged.append(payload)
        last_key = item_key
    return merged


def combine_reports(
    reports: Iterable[SecondaryDeleteReport],
) -> SecondaryDeleteReport:
    """Element-wise sum of per-shard secondary-delete reports."""
    total = SecondaryDeleteReport()
    for report in reports:
        for spec in fields(SecondaryDeleteReport):
            setattr(
                total,
                spec.name,
                getattr(total, spec.name) + getattr(report, spec.name),
            )
    return total
