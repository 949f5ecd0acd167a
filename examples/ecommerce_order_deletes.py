"""Scenario 1 (§1, "EComp"): order history deletion under a privacy SLA.

An e-commerce company stores order details sorted by ``order_id``. A
user's right-to-be-forgotten request translates into point and range
deletes on the sort key, and the GDPR-style SLA demands the data be
*persistently* gone within a fixed threshold — not merely hidden behind
tombstones that a state-of-the-art LSM engine may retain indefinitely.

The script runs the same deletion story on the RocksDB-like baseline and
on Lethe, then audits both: how many tombstones still sit on disk, how
old they are, and whether the SLA held.

Run:  python examples/ecommerce_order_deletes.py
"""

import random

from repro import LSMEngine

SLA_SECONDS = 1.0  # the delete persistence threshold D_th
NUM_ORDERS = 9000
ORDERS_PER_USER = 8


def load_orders(engine: LSMEngine, rng: random.Random) -> dict[int, list[int]]:
    """Insert orders; each user owns a contiguous block of order ids."""
    orders_of_user: dict[int, list[int]] = {}
    order_id = 0
    for user_id in range(NUM_ORDERS // ORDERS_PER_USER):
        block = []
        for _ in range(ORDERS_PER_USER):
            engine.put(
                key=order_id,
                value={"user": user_id, "amount": rng.randrange(5, 500)},
                delete_key=order_id,  # not used in this scenario
            )
            block.append(order_id)
            order_id += 1
        orders_of_user[user_id] = block
    return orders_of_user


def forget_user(engine: LSMEngine, orders: list[int]) -> None:
    """The right-to-be-forgotten request: range delete the user's block
    plus a couple of point deletes for stragglers."""
    engine.delete_range(orders[0], orders[-1] + 1)


def audit(name: str, engine: LSMEngine) -> None:
    latencies = engine.stats.persisted_latencies()
    worst = max(latencies) if latencies else 0.0
    pending = engine.stats.unpersisted_count()
    oldest_file = engine.max_tombstone_file_age()
    # FADE checks TTLs at flush boundaries (Fig 4), so the contract is
    # D_th plus one buffer-flush interval of slack.
    slack = engine.config.buffer_entries / engine.config.ingestion_rate
    bound = SLA_SECONDS + slack
    print(f"--- audit: {name} ---")
    print(f"  tombstones on disk:        {engine.tombstones_on_disk()}")
    print(f"  oldest tombstone-file age: {oldest_file:.2f}s")
    print(f"  deletions persisted:       {len(latencies)} "
          f"(worst latency {worst:.2f}s)")
    print(f"  deletions still pending:   {pending}")
    met = worst <= bound and oldest_file <= bound and pending == 0
    print(f"  SLA of {SLA_SECONDS:.0f}s (+{slack:.2f}s flush slack): "
          f"{'MET' if met else 'NOT MET'}")


def run(engine: LSMEngine, name: str) -> None:
    rng = random.Random(2020)
    orders_of_user = load_orders(engine, rng)

    # 40 users exercise their right to be forgotten.
    forgotten = rng.sample(sorted(orders_of_user), 40)
    for user_id in forgotten:
        forget_user(engine, orders_of_user[user_id])

    # Business continues: more orders arrive, time passes beyond the SLA.
    for extra in range(NUM_ORDERS, NUM_ORDERS + 1500):
        engine.put(key=extra, value={"user": -1, "amount": 1}, delete_key=extra)
    engine.advance_time(SLA_SECONDS + 1.0)

    # Reads: a forgotten user's orders must be unreadable...
    sample_user = forgotten[0]
    block = orders_of_user[sample_user]
    visible = [oid for oid in block if engine.get(oid) is not None]
    print(f"\n{name}: forgotten user {sample_user} readable orders: {visible}")
    audit(name, engine)


def main() -> None:
    common = dict(buffer_pages=16, file_pages=32, level1_tiered=True)
    print("=" * 60)
    run(LSMEngine.rocksdb_baseline(**common), "RocksDB baseline")
    print("\n" + "=" * 60)
    run(
        LSMEngine.lethe(delete_persistence_threshold=SLA_SECONDS, **common),
        f"Lethe (D_th = {SLA_SECONDS:.0f}s)",
    )
    print("\nNote: both engines hide deleted data from reads immediately;")
    print("only Lethe guarantees the physical copies are gone within the SLA.")


if __name__ == "__main__":
    main()
