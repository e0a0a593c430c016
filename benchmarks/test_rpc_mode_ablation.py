"""E9 — gRPC configuration ablation (paper §IV-A2 design choices).

"The gRPC protocol was configured in synchronous mode due to its favorable
servicing latency. ... Additionally, gRPC was configured in unary mode to
minimize protocol overhead for the messages being sent."

Three ways a store could resolve N remote ids:

  per-object unary   — one Lookup call per id (N round trips);
  batched unary      — the paper's actual protocol: all ids in one message;
  streaming          — one connection round trip, one framed message per id.

The expected shape: batched unary wins (the paper's choice is right for
this workload); streaming recovers most of the gap for callers that cannot
batch; per-object unary is catastrophically round-trip-bound.
"""

from __future__ import annotations

import pytest

from repro.common.config import ClusterConfig
from repro.common.units import MiB
from repro.core import Cluster

N_IDS = 200


@pytest.fixture()
def loaded_cluster():
    cfg = ClusterConfig().with_store(
        capacity_bytes=64 * MiB, check_remote_uniqueness=False
    )
    cluster = Cluster(cfg)
    producer = cluster.client("node0")
    ids = cluster.new_object_ids(N_IDS)
    for oid in ids:
        producer.put_bytes(oid, b"k" * 256)
    return cluster, ids


def test_rpc_mode_comparison(loaded_cluster, benchmark):
    cluster, ids = loaded_cluster
    stub_channel = cluster.node("node1").channels["node0"]
    service = "plasma.StoreService"

    rounds = 20  # average out the ~18% log-normal gRPC jitter

    def run():
        rows = {}
        t0 = cluster.clock.now_ns
        for oid in ids:
            stub_channel.unary_call(service, "Lookup", {"object_ids": [oid.binary()]})
        rows["per-object unary"] = (cluster.clock.now_ns - t0) / 1e6
        t0 = cluster.clock.now_ns
        for _ in range(rounds):
            stub_channel.unary_call(
                service, "Lookup", {"object_ids": [oid.binary() for oid in ids]}
            )
        rows["batched unary"] = (cluster.clock.now_ns - t0) / 1e6 / rounds
        t0 = cluster.clock.now_ns
        for _ in range(rounds):
            stub_channel.stream_call(
                service, "Lookup", [{"object_ids": [oid.binary()]} for oid in ids]
            )
        rows["streaming"] = (cluster.clock.now_ns - t0) / 1e6 / rounds
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nResolving {N_IDS} remote ids (simulated ms):")
    for label, ms in rows.items():
        print(f"  {label:<18}: {ms:9.2f} ms")

    # Shape: batched unary (the paper's protocol) is fastest; streaming is
    # within ~2x of it; per-object unary pays ~N round trips.
    assert rows["batched unary"] < rows["streaming"]
    assert rows["streaming"] < rows["per-object unary"] / 20
    assert rows["per-object unary"] > N_IDS * 2.0  # >= N x ~2.3 ms RTT


def test_streaming_wall_clock(loaded_cluster, benchmark):
    """Real wall-time of a 200-message streaming Lookup."""
    cluster, ids = loaded_cluster
    channel = cluster.node("node1").channels["node0"]
    requests = [{"object_ids": [oid.binary()]} for oid in ids]

    responses = benchmark(
        lambda: channel.stream_call("plasma.StoreService", "Lookup", requests)
    )
    assert len(responses) == N_IDS


def test_retry_overhead_under_faults(benchmark):
    """With a lossy LAN (25 % attempt failure), retries keep the protocol
    correct at a quantifiable latency cost."""
    import dataclasses

    def run():
        rows = {}
        for label, rate in (("clean", 0.0), ("lossy 25%", 0.25)):
            base = ClusterConfig().with_store(capacity_bytes=64 * MiB)
            cfg = dataclasses.replace(
                base,
                rpc=dataclasses.replace(
                    base.rpc, inject_failure_rate=rate, max_retries=8
                ),
            )
            cluster = Cluster(cfg.with_store(check_remote_uniqueness=False))
            producer = cluster.client("node0")
            consumer = cluster.client("node1")
            ids = cluster.new_object_ids(40)
            for oid in ids:
                producer.put_bytes(oid, b"r" * 128)
            t0 = cluster.clock.now_ns
            for oid in ids:
                consumer.get_one(oid)
                consumer.release(oid)
            rows[label] = (cluster.clock.now_ns - t0) / 1e6
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n40 remote gets: clean {rows['clean']:.1f} ms, "
          f"lossy {rows['lossy 25%']:.1f} ms "
          f"({rows['lossy 25%'] / rows['clean']:.2f}x)")
    assert rows["lossy 25%"] > rows["clean"] * 1.1
    assert rows["lossy 25%"] < rows["clean"] * 3.0  # retries, not collapse