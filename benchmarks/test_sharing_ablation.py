"""E6 — object-sharing strategy ablation (paper §IV-A2).

The paper enumerates three ways stores could share object information and
picks gRPC; its future work suggests the disaggregated-memory hash map
"would likely improve performance but requires additional work". This
benchmark measures the two the system keeps, plus the scale-out baseline
the introduction argues against:

  strategy            metadata path                      payload path
  ------------------  ---------------------------------  -------------
  rpc (paper)         gRPC Lookup (~2.3 ms round trip)   fabric read
  hashmap (future)    fabric line loads (~1.1 us/probe)  fabric read
  scale-out (Fig 1a)  gRPC lookup                        LAN bulk copy
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baseline import ScaleOutCluster
from repro.common.config import ClusterConfig
from repro.common.units import KB, MiB
from repro.core import Cluster

N_OBJECTS = 50
OBJECT_SIZE = 1000 * KB  # Table I spec 4 object size


def _commit(cluster):
    producer = cluster.client("node0")
    ids = cluster.new_object_ids(N_OBJECTS)
    payload = bytes(OBJECT_SIZE)
    for oid in ids:
        producer.put_bytes(oid, payload)
    return ids


def _consume_remote(cluster, ids) -> float:
    """Remote client retrieves and reads everything; returns simulated ms."""
    consumer = cluster.client("node1")
    t0 = cluster.clock.now_ns
    bufs = consumer.get(ids)
    for buf in bufs:
        buf.charge_sequential_read()
    for oid in ids:
        consumer.release(oid)
    return (cluster.clock.now_ns - t0) / 1e6


def cfg():
    return ClusterConfig().with_store(capacity_bytes=128 * MiB)


def test_sharing_strategy_comparison(benchmark):
    def run():
        rows = {}
        cl = Cluster(cfg().with_store(check_remote_uniqueness=False))
        rows["rpc"] = _consume_remote(cl, _commit(cl))

        cl = Cluster(
            replace(cfg(), sharing="hashmap").with_store(check_remote_uniqueness=False),
        )
        rows["hashmap"] = _consume_remote(cl, _commit(cl))

        so = ScaleOutCluster(cfg())
        ids = _commit(so)
        consumer = so.client("node1")
        t0 = so.clock.now_ns
        bufs = consumer.get(ids)  # fetch = full LAN copy
        for buf in bufs:
            buf.charge_sequential_read()
        for oid in ids:
            consumer.release(oid)
        rows["scale-out"] = (so.clock.now_ns - t0) / 1e6
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nRemote consumption of {N_OBJECTS} x {OBJECT_SIZE // KB} kB "
        f"(simulated ms): "
        + ", ".join(f"{k}={v:.2f}" for k, v in rows.items())
    )
    # Who wins, and by roughly what factor:
    # the fabric metadata plane avoids the gRPC round trip -> beats rpc.
    assert rows["hashmap"] < rows["rpc"]
    # All disaggregated strategies beat copying the payload over the LAN.
    assert rows["rpc"] < rows["scale-out"] / 2
    # The rpc/fabric-metadata gap is roughly the gRPC round trip (~2.3 ms),
    # not orders of magnitude — the paper's argument that LAN lookup is
    # "simple, robust and performant" enough for a prototype.
    assert rows["rpc"] - rows["hashmap"] < 5.0


def test_hashmap_probe_cost_scaling(benchmark):
    """Directory lookups stay cheap even under collision pressure."""

    def run():
        cl = Cluster(
            replace(cfg(), sharing="hashmap", directory_buckets=256).with_store(
                check_remote_uniqueness=False
            ),
        )
        producer = cl.client("node0")
        consumer = cl.client("node1")
        ids = cl.new_object_ids(128)  # 50 % load factor
        for oid in ids:
            producer.put_bytes(oid, b"x" * 64)
        t0 = cl.clock.now_ns
        for oid in ids:
            consumer.get_one(oid)
            consumer.release(oid)
        elapsed_us_per_lookup = (cl.clock.now_ns - t0) / len(ids) / 1e3
        return elapsed_us_per_lookup

    us = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nper-lookup cost at 50% load: {us:.1f} us (incl. IPC)")
    # Dominated by the ~55 us IPC, with a handful of ~1.1 us probes on top;
    # far below the ~2300 us gRPC path.
    assert us < 300


def test_rpc_lookup_wall_clock(bench_cluster, benchmark):
    """Real wall-time of one batched Lookup RPC for 50 ids."""
    p = bench_cluster.client("node0")
    ids = bench_cluster.new_object_ids(50)
    for oid in ids:
        p.put_bytes(oid, b"y")
    stub = bench_cluster.node("node1").channels["node0"].stub(
        "plasma.StoreService"
    )
    payload = {"object_ids": [oid.binary() for oid in ids]}

    response = benchmark(lambda: stub.Lookup(payload))
    assert len(response["found"]) == 50
