#!/usr/bin/env python3
"""Quickstart: a 2-node memory-disaggregated object store in ~30 lines.

Mirrors the paper's deployment: two nodes, each running a Plasma store that
allocates objects in its ThymesisFlow-exposed memory; a producer on node0
commits an object; consumers on both nodes retrieve it — the remote one
transparently reads the payload through the memory fabric after a gRPC-style
lookup.

Run:  python examples/quickstart.py
"""

from repro import Cluster
from repro.common.units import MiB, format_duration_ns


def main() -> None:
    cluster = Cluster()

    producer = cluster.client("node0")
    local_consumer = cluster.client("node0")
    remote_consumer = cluster.client("node1")

    # Produce: create -> write -> seal (the object is now immutable and
    # visible to every client in the cluster).
    object_id = cluster.new_object_id()
    payload = b"hello, disaggregated world! " * 1000
    producer.put_bytes(object_id, payload)
    print(f"committed object {object_id!r} ({len(payload)} bytes) on node0")

    # Consume locally: handle arrives over the Unix-socket IPC.
    t0 = cluster.clock.now_ns
    data = local_consumer.get_bytes(object_id)
    assert data == payload
    print(f"local  get+read: {format_duration_ns(cluster.clock.now_ns - t0)}")

    # Consume remotely: the node1 store looks the id up at node0 over RPC,
    # then the client reads the bytes straight out of node0's memory
    # through the ThymesisFlow aperture — no bulk data on the LAN.
    t0 = cluster.clock.now_ns
    data = remote_consumer.get_bytes(object_id)
    assert data == payload
    print(f"remote get+read: {format_duration_ns(cluster.clock.now_ns - t0)}")

    # The same API scales to larger objects at fabric bandwidth.
    big_id = cluster.new_object_id()
    producer.put_bytes(big_id, bytes(32 * MiB))
    t0 = cluster.clock.now_ns
    buf = remote_consumer.get_one(big_id)
    buf.charge_sequential_read()  # timing-only read of all 32 MiB
    elapsed = cluster.clock.now_ns - t0
    gibps = (32 * MiB / (1 << 30)) / (elapsed / 1e9)
    print(f"remote 32 MiB sequential read: {gibps:.2f} GiB/s (paper: ~5.75)")
    remote_consumer.release(big_id)

    print("\nper-node state:")
    for name, stats in cluster.stats().items():
        print(
            f"  {name}: {stats['objects']} objects, "
            f"{stats['used_bytes']} / {stats['capacity_bytes']} bytes used"
        )


if __name__ == "__main__":
    main()
