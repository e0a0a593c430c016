"""E8 — multi-node (> 2) operation (paper §V-B future work, implemented).

"The currently presented system is implemented to accommodate a 2 node
system. For rack-scale solutions, this needs to be modified to accommodate
multiple nodes. The current system design allows for this modification."

Measures the wide-dependency exchange (every node reads every node's
partition) as the cluster grows, using Table I spec 4's object size.
"""

from __future__ import annotations

import pytest

from repro.common.config import ClusterConfig
from repro.common.units import KB, MiB
from repro.core import Cluster

OBJECT_SIZE = 1000 * KB
PARTITIONS_PER_NODE = 4


def cfg():
    return ClusterConfig().with_store(capacity_bytes=64 * MiB)


def wide_exchange(n_nodes: int) -> dict:
    """All-to-all consumption; returns simulated timings and counters."""
    cluster = Cluster(cfg().with_store(check_remote_uniqueness=False), n_nodes)
    clients = {n: cluster.client(n) for n in cluster.node_names()}
    ids_by_node = {}
    payload = bytes(OBJECT_SIZE)
    for name in cluster.node_names():
        ids = cluster.new_object_ids(PARTITIONS_PER_NODE)
        for oid in ids:
            clients[name].put_bytes(oid, payload)
        ids_by_node[name] = ids
    t0 = cluster.clock.now_ns
    for reader_name, reader in clients.items():
        for home_name, ids in ids_by_node.items():
            bufs = reader.get(ids)
            for buf in bufs:
                buf.charge_sequential_read()
            for oid in ids:
                reader.release(oid)
    elapsed_ms = (cluster.clock.now_ns - t0) / 1e6
    total_reads = n_nodes * n_nodes * PARTITIONS_PER_NODE
    return {
        "nodes": n_nodes,
        "elapsed_ms": elapsed_ms,
        "per_read_ms": elapsed_ms / total_reads,
        "remote_fraction": (n_nodes - 1) / n_nodes,
    }


def test_scaling_2_to_6_nodes(benchmark):
    def run():
        return [wide_exchange(n) for n in (2, 3, 4, 6)]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nWide-dependency all-to-all exchange (spec-4 sized objects):")
    for row in rows:
        print(
            f"  {row['nodes']} nodes: total {row['elapsed_ms']:8.1f} ms, "
            f"per read {row['per_read_ms']:.3f} ms "
            f"(remote fraction {row['remote_fraction']:.0%})"
        )
    # Total work grows ~quadratically with node count (all-to-all)...
    assert rows[-1]["elapsed_ms"] > rows[0]["elapsed_ms"] * 4
    # ...while per-read cost grows slowly (only the remote fraction and the
    # per-batch RPC change), staying ms-order — the design scales.
    assert rows[-1]["per_read_ms"] < 4 * rows[0]["per_read_ms"]


def test_placement_transparency_at_scale(benchmark):
    """At 6 nodes a client still resolves any object with one batched RPC
    per peer at worst, stopping at the first claimant."""
    cluster = Cluster(cfg().with_store(check_remote_uniqueness=False), 6)
    producer = cluster.client("node5")
    ids = cluster.new_object_ids(10)
    for oid in ids:
        producer.put_bytes(oid, bytes(1000))
    consumer = cluster.client("node0")

    def op():
        bufs = consumer.get(ids)
        for oid in ids:
            consumer.release(oid)
        return bufs

    bufs = benchmark(op)
    assert all(b.location == "remote:node5" for b in bufs)
