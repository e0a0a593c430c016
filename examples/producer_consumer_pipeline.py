#!/usr/bin/env python3
"""Streaming producer/consumer with notifications, eviction and pinning.

Plasma's consumer-supplier dynamic (paper §II-B): "A single source may have
multiple consumers querying it." This example streams a window of sensor
batches through a 2-node cluster and demonstrates the operational
behaviours the store guarantees:

* consumers discover new objects via **seal notifications**;
* under memory pressure the home store **evicts** the oldest consumed
  batches (LRU) and keeps running;
* a batch a remote consumer still holds is **pinned** when distributed
  usage sharing is on — the eviction-safety extension of §V-B.

Run:  python examples/producer_consumer_pipeline.py
"""

from __future__ import annotations

import numpy as np

from repro import Cluster
from repro.common.config import ClusterConfig
from repro.common.rng import DeterministicRng
from repro.common.units import MiB

BATCH_BYTES = 2 * MiB
N_BATCHES = 40
STORE_CAPACITY = 24 * MiB  # deliberately < N_BATCHES * BATCH_BYTES


def main() -> None:
    cfg = ClusterConfig().with_store(
        capacity_bytes=STORE_CAPACITY, share_usage=True, check_remote_uniqueness=False
    )
    cluster = Cluster(cfg)
    producer = cluster.client("node0", "sensor-gateway")
    analyst = cluster.client("node1", "stream-analyst")
    feed = cluster.store("node0").subscribe()
    rng = DeterministicRng(123)

    # The analyst keeps the very first batch open as a long-lived baseline —
    # with usage sharing on, the home store must never evict it.
    baseline_buffer = None
    baseline_id = None
    running_mean = []

    print(
        f"streaming {N_BATCHES} x {BATCH_BYTES // MiB} MiB batches through a "
        f"{STORE_CAPACITY // MiB} MiB store (eviction inevitable)"
    )
    for seq in range(N_BATCHES):
        oid = cluster.new_object_id()
        batch = rng.spawn(str(seq)).payload(BATCH_BYTES)
        producer.put_bytes(oid, batch)

        # Drain notifications and process newly sealed batches remotely.
        note = feed.pop()
        while note is not None:
            if not note.deleted:
                buf = analyst.get_one(note.object_id)
                data = np.frombuffer(buf.view(), dtype=np.uint8)
                running_mean.append(float(data.mean()))
                if baseline_buffer is None:
                    baseline_buffer = buf  # hold it forever
                    baseline_id = note.object_id
                else:
                    analyst.release(note.object_id)
            note = feed.pop()

    store0 = cluster.store("node0")
    evicted = store0.counters.get("objects_evicted")
    print(f"processed {len(running_mean)} batches, "
          f"global mean of means = {np.mean(running_mean):.2f}")
    print(f"home store evicted {evicted} cold batches under pressure")

    # The pinned baseline batch survived all of it.
    assert store0.contains(baseline_id), "pinned baseline was evicted!"
    entry = store0.table.get(baseline_id)
    print(
        f"baseline batch still resident (remote_ref_count="
        f"{entry.remote_ref_count}); first bytes still valid: "
        f"{bytes(baseline_buffer.view()[:8]).hex()}"
    )
    analyst.release(baseline_id)
    print("released baseline; it is now evictable:",
          store0.table.get(baseline_id).evictable)


if __name__ == "__main__":
    main()
