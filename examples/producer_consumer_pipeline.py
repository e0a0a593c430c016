#!/usr/bin/env python3
"""Streaming producer/consumer with notifications, eviction and a held baseline.

Plasma's consumer-supplier dynamic (paper §II-B): "A single source may have
multiple consumers querying it." This example streams a window of sensor
batches through a 2-node cluster and demonstrates the operational
behaviours the store guarantees:

* consumers discover new objects via **seal notifications**;
* under memory pressure the home store **evicts** the oldest consumed
  batches (LRU) and keeps running;
* a batch a client on the **home** node holds is in use, so Plasma never
  evicts it. A remote consumer's hold is invisible to the home (§IV-A2): it
  reads intact bytes until the home evicts or deletes the batch, and after
  that its handle fails typed (``StaleDescriptorError``), never with
  another object's bytes. A long-lived hold therefore lives on the home.

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
        capacity_bytes=STORE_CAPACITY, check_remote_uniqueness=False
    )
    cluster = Cluster(cfg)
    producer = cluster.client("node0", "sensor-gateway")
    analyst = cluster.client("node1", "stream-analyst")
    archivist = cluster.client("node0", "baseline-archivist")
    feed = cluster.store("node0").subscribe()
    rng = DeterministicRng(123)

    # The archivist, on the home node, keeps the very first batch open as a
    # long-lived baseline: in use at its home, it is never evicted.
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
                analyst.release(note.object_id)
                if baseline_buffer is None:
                    baseline_id = note.object_id
                    baseline_buffer = archivist.get_one(baseline_id)  # hold it
            note = feed.pop()

    store0 = cluster.store("node0")
    evicted = store0.counters.objects_evicted
    print(f"processed {len(running_mean)} batches, "
          f"global mean of means = {np.mean(running_mean):.2f}")
    print(f"home store evicted {evicted} cold batches under pressure")

    # The held baseline batch survived all of it.
    assert store0.contains(baseline_id), "held baseline was evicted!"
    entry = store0.table.get(baseline_id)
    print(
        f"baseline batch still resident (ref_count={entry.ref_count}); "
        f"first bytes still valid: {bytes(baseline_buffer.view()[:8]).hex()}"
    )
    archivist.release(baseline_id)
    print("released baseline; it is now evictable:",
          store0.table.get(baseline_id).evictable)


if __name__ == "__main__":
    main()
