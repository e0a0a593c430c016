"""The paper's concurrency design, exercised with real threads.

§IV-A2: the store main thread and the gRPC server thread share the object
identifier map; a mutex guards it. These tests run a producer thread (the
"main thread" path) against concurrent RPC dispatch threads (the "gRPC
server" path) on the same store and assert nothing corrupts.

Timing note: the SimClock is not part of what is asserted here (wall-clock
concurrency and simulated time are orthogonal); these tests are about
mutual exclusion and state integrity.
"""

from __future__ import annotations

import threading

import pytest

from repro.common.config import testing_config as make_testing_config
from repro.common.ids import ObjectID
from repro.common.units import MiB
from repro.core import Cluster


@pytest.fixture
def cluster():
    return Cluster(
        make_testing_config(capacity_bytes=48 * MiB, seed=5).with_store(
            check_remote_uniqueness=False
        ),
    )


def test_producer_vs_rpc_lookup_threads(cluster):
    """One thread creates/seals objects on node0 while four threads hammer
    node0's RPC service with Lookup/Contains, exactly the contention the
    mutex exists for."""
    store0 = cluster.store("node0")
    server0 = cluster.node("node0").server
    producer = cluster.client("node0", "threaded-producer")
    n_objects = 300
    errors: list[Exception] = []
    produced: list[ObjectID] = []
    stop = threading.Event()

    def produce():
        try:
            for i in range(n_objects):
                oid = ObjectID.from_int(i)
                producer.put_bytes(oid, b"t" * 64)
                produced.append(oid)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)
        finally:
            stop.set()

    def rpc_hammer():
        try:
            while not stop.is_set() or len(produced) < n_objects:
                upto = len(produced)
                if upto == 0:
                    continue
                ids = [produced[j].binary() for j in range(max(0, upto - 20), upto)]
                if not ids:
                    continue
                status, response, _ = server0.dispatch(
                    "plasma.StoreService", "Lookup", {"object_ids": ids}
                )
                assert status.name == "OK"
                for descriptor in response["found"]:
                    assert descriptor["data_size"] == 64
                if stop.is_set():
                    break
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=produce)]
    threads += [threading.Thread(target=rpc_hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors
    assert store0.object_count() == n_objects
    # Every sealed object resolvable afterwards.
    status, response, _ = server0.dispatch(
        "plasma.StoreService",
        "Lookup",
        {"object_ids": [oid.binary() for oid in produced]},
    )
    assert len(response["found"]) == n_objects


def test_concurrent_refcount_churn_via_rpc(cluster):
    """Local get/release from many threads, with peers' Lookups dispatched
    concurrently against the same table mutex, must balance exactly."""
    p = cluster.client("node0")
    oid = cluster.new_object_id()
    p.put_bytes(oid, b"contended")
    server0 = cluster.node("node0").server
    errors: list[Exception] = []

    def churn(client):
        try:
            for _ in range(500):
                client.get_one(oid)
                client.release(oid)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    def lookups():
        try:
            for _ in range(500):
                status, response, detail = server0.dispatch(
                    "plasma.StoreService", "Lookup", {"object_ids": [oid.binary()]}
                )
                assert status.name == "OK", detail
                assert len(response["found"]) == 1
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(
            target=churn, args=(cluster.client("node0", client_name=f"churn{i}"),)
        )
        for i in range(8)
    ] + [threading.Thread(target=lookups) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors
    assert cluster.store("node0").table.get(oid).ref_count == 0


def test_concurrent_creates_from_two_nodes_with_uniqueness(cluster):
    """Two stores creating disjoint id ranges concurrently (each create
    RPC-checks the peer) must not deadlock or interleave wrongly.

    The uniqueness check deliberately runs outside the table mutex — this
    test is the regression guard for that deadlock.
    """
    cl = Cluster(
        make_testing_config(capacity_bytes=48 * MiB, seed=6).with_store(
            check_remote_uniqueness=True
        ),
    )
    errors: list[Exception] = []

    def produce(node: str, base: int):
        try:
            client = cl.client(node)
            for i in range(100):
                client.put_bytes(ObjectID.from_int(base + i), b"c" * 32)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    t0 = threading.Thread(target=produce, args=("node0", 0))
    t1 = threading.Thread(target=produce, args=("node1", 10_000))
    t0.start()
    t1.start()
    t0.join(timeout=120)
    t1.join(timeout=120)
    assert not t0.is_alive() and not t1.is_alive(), "deadlock between stores"
    assert not errors
    assert cl.store("node0").object_count() == 100
    assert cl.store("node1").object_count() == 100
