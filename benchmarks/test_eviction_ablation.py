"""E10 — eviction policy ablation.

Plasma's LRU-with-pinning is what the paper's eviction discussion builds
on; this ablation quantifies the policy choice under a streaming workload
with a hot set:

  * a producer streams large cold batches through a store far smaller than
    the stream (eviction constantly active);
  * a small set of hot objects is re-read every round;
  * whenever a hot object has been evicted, the producer must recreate it
    (the cost the policy is supposed to avoid).

Expected shape: LRU protects the hot set (recency), largest-first protects
it even harder (hot objects are small), FIFO sacrifices it.
"""

from __future__ import annotations

import pytest

from repro.common.config import ClusterConfig
from repro.common.ids import ObjectID
from repro.common.units import KB, MiB
from repro.core import Cluster

STORE_CAPACITY = 24 * MiB
COLD_BATCH = 2 * MiB
HOT_OBJECTS = 8
HOT_SIZE = 64 * KB
ROUNDS = 40


def run_streaming_workload(policy: str) -> dict:
    cfg = ClusterConfig().with_store(
        capacity_bytes=STORE_CAPACITY, eviction_policy=policy
    )
    cluster = Cluster(cfg, n_nodes=2, check_remote_uniqueness=False)
    producer = cluster.client("node0")
    hot_ids = [ObjectID.from_int(i) for i in range(HOT_OBJECTS)]
    hot_payload = bytes(HOT_SIZE)
    for oid in hot_ids:
        producer.put_bytes(oid, hot_payload)

    recreations = 0
    t0 = cluster.clock.now_ns
    for round_no in range(ROUNDS):
        producer.put_bytes(
            ObjectID.from_int(1000 + round_no), bytes(COLD_BATCH)
        )
        for oid in hot_ids:
            if not cluster.store("node0").contains(oid):
                producer.put_bytes(oid, hot_payload)  # the miss penalty
                recreations += 1
            producer.get_one(oid)
            producer.release(oid)
    elapsed_ms = (cluster.clock.now_ns - t0) / 1e6
    return {
        "policy": policy,
        "recreations": recreations,
        "elapsed_ms": elapsed_ms,
        "evictions": cluster.store("node0").counters.get("objects_evicted"),
    }


def test_eviction_policy_ablation(benchmark):
    rows = benchmark.pedantic(
        lambda: [run_streaming_workload(p) for p in ("lru", "fifo", "largest_first")],
        rounds=1,
        iterations=1,
    )
    print("\nEviction-policy ablation (hot set under streaming pressure):")
    for row in rows:
        print(
            f"  {row['policy']:<14} hot-recreations={row['recreations']:>3} "
            f"evictions={row['evictions']:>3} total={row['elapsed_ms']:8.2f} ms"
        )
    by = {row["policy"]: row for row in rows}
    # FIFO keeps evicting the (old) hot set; recency/size-aware policies
    # protect it.
    assert by["fifo"]["recreations"] > by["lru"]["recreations"]
    assert by["largest_first"]["recreations"] <= by["lru"]["recreations"]
    # Which shows up as end-to-end time.
    assert by["lru"]["elapsed_ms"] <= by["fifo"]["elapsed_ms"]


def test_eviction_throughput_wall_clock(benchmark):
    """Real wall-time of an eviction-heavy create loop (policy machinery
    itself must stay cheap)."""
    capacity = 8 * MiB
    cfg = ClusterConfig().with_store(capacity_bytes=capacity)
    cluster = Cluster(cfg, n_nodes=2, check_remote_uniqueness=False)
    producer = cluster.client("node0")
    counter = iter(range(10_000_000))

    def op():
        producer.put_bytes(
            ObjectID.from_int(10_000 + next(counter)), bytes(MiB)
        )

    benchmark(op)
    # Under --benchmark-disable ``op`` ran once, and one 1 MiB object cannot
    # fill the store: keep driving it (at most twice the capacity) until it
    # has evicted, so the assertion holds with and without the timing loop.
    counters = cluster.store("node0").counters
    for _ in range(2 * capacity // MiB):
        if counters.get("objects_evicted"):
            break
        op()
    assert counters.get("objects_evicted") > 0
