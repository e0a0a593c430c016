#!/usr/bin/env python3
"""Wide-dependency shuffle: the big-data pattern the paper motivates.

§V-B: "Especially wide-dependency operations (commonly used in big data
applications) pose an interesting subset for performance evaluation due to
the ability of several nodes to operate on the distributed data in
parallel."

This example runs a Spark-style two-stage job on a 4-node cluster:

  stage 1 (map):    every node holds an input partition of (key, value)
                    records and re-partitions it by key hash, committing
                    one intermediate object per destination node;
  shuffle:          NO bulk network traffic — each reducer simply `get`s
                    the intermediate objects, local or remote, through the
                    disaggregated store;
  stage 2 (reduce): every node aggregates the values for its key range.

The same job is replayed on the scale-out baseline for comparison: there,
every remote intermediate is copied over the LAN into local memory first.

Run:  python examples/wide_dependency_shuffle.py
"""

from __future__ import annotations

import numpy as np

from repro import Cluster, ObjectID, ScaleOutCluster
from repro.common.config import ClusterConfig
from repro.common.rng import DeterministicRng
from repro.common.units import MiB

N_NODES = 4
RECORDS_PER_NODE = 200_000  # (key, value) pairs, 8 bytes each


def make_input(rng: DeterministicRng, node_index: int) -> np.ndarray:
    """A partition of uint32 (key, value) records as a structured array."""
    keys = np.frombuffer(
        rng.bytes(RECORDS_PER_NODE * 4), dtype=np.uint32
    ) % 10_000
    values = np.full(RECORDS_PER_NODE, node_index + 1, dtype=np.uint32)
    return np.stack([keys, values], axis=1)


def intermediate_id(src: str, dst: str) -> ObjectID:
    return ObjectID.from_name(f"shuffle/{src}->{dst}")


def run_job(cluster, label: str) -> dict[int, int]:
    """Map, shuffle and reduce on whichever cluster flavour is passed in."""
    names = cluster.node_names()
    clients = {name: cluster.client(name) for name in names}
    rng = DeterministicRng(99)

    # -- stage 1: map + partition by key hash --------------------------------
    for i, name in enumerate(names):
        partition = make_input(rng.spawn(name), i)
        dest = partition[:, 0] % len(names)  # key -> destination node
        for j, dst in enumerate(names):
            chunk = partition[dest == j]
            clients[name].put_bytes(intermediate_id(name, dst), chunk.tobytes())

    # -- stage 2: shuffle-read + reduce ---------------------------------------
    t0 = cluster.clock.now_ns
    totals: dict[int, int] = {}
    for j, dst in enumerate(names):
        reducer = clients[dst]
        for src in names:
            raw = reducer.get_bytes(intermediate_id(src, dst))
            chunk = np.frombuffer(raw, dtype=np.uint32).reshape(-1, 2)
            # Aggregate: sum of values per key, merged into the global map.
            keys, sums = np.unique(chunk[:, 0], return_inverse=False), None
            for key in np.unique(chunk[:, 0]):
                totals[int(key)] = totals.get(int(key), 0) + int(
                    chunk[chunk[:, 0] == key, 1].sum()
                )
    elapsed_ms = (cluster.clock.now_ns - t0) / 1e6
    print(f"  {label}: shuffle+reduce took {elapsed_ms:10.2f} ms (simulated)")
    return totals


def main() -> None:
    cfg = ClusterConfig().with_store(capacity_bytes=128 * MiB)

    print(f"{N_NODES}-node wide-dependency job, "
          f"{RECORDS_PER_NODE} records/node:")

    disaggregated = Cluster(cfg.with_store(check_remote_uniqueness=False), N_NODES)
    totals_dis = run_job(disaggregated, "disaggregated (fabric reads)")

    scale_out = ScaleOutCluster(cfg, N_NODES)
    totals_so = run_job(scale_out, "scale-out     (LAN copies) ")

    assert totals_dis == totals_so, "both architectures must agree on results"
    checksum = sum(totals_dis.values())
    print(f"  results agree; global checksum = {checksum}")

    link_bytes = sum(
        link.counters.get("read_bytes")
        for link in disaggregated.fabric.links()
    )
    lan_bytes = scale_out.network.counters.get("bytes_transferred")
    print(f"  disaggregated moved {link_bytes / MiB:.1f} MiB over the fabric;")
    print(f"  scale-out moved     {lan_bytes / MiB:.1f} MiB over the LAN "
          f"(and duplicated it in local memory)")


if __name__ == "__main__":
    main()
