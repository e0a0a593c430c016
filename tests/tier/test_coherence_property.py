"""Property-based cache coherence: under seeded random interleavings of
re-puts, deletes, and tier migrations, a read through the hot-object cache
never observes bytes other than the current incarnation's.

The staleness generator is delete + re-put of the same ObjectID with a
different payload (sealed payloads are immutable, so that is the only way
an id's bytes can change); migrations move the primary between nodes via
the promotion/demotion engine, bumping the generation each time. Every
read from every node is checked against a model of the live payloads.
"""

import pytest

from repro.common.config import ClusterConfig, PlacementConfig, TierConfig
from repro.common.errors import ReproError
from repro.common.ids import ObjectID
from repro.common.rng import DeterministicRng
from repro.core.cluster import Cluster

NODES = ("node0", "node1", "node2")
N_OBJECTS = 12
N_OPS = 150


def oid(n: int) -> ObjectID:
    return ObjectID.from_int(n)


def payload_for(obj: int, version: int) -> bytes:
    stamp = f"obj={obj} v={version} ".encode()
    return (stamp * (512 // len(stamp) + 1))[: 256 + 37 * (obj % 5)]


def find_holder(cluster: Cluster, object_id: ObjectID) -> str | None:
    for name in NODES:
        store = cluster.store(name)
        if object_id in store.deferred_retires():
            continue
        if store.is_replica(object_id):
            continue
        with store.table.lock:
            entry = store.table.lookup(object_id)
            if entry is not None and entry.is_sealed and not entry.quarantined:
                return name
    return None


@pytest.mark.parametrize("seed", [3, 17, 404, 2024, 9999])
def test_random_interleavings_never_serve_stale_bytes(seed):
    cluster = Cluster(
        ClusterConfig(placement=PlacementConfig(), tier=TierConfig()).with_store(
            lookup_cache=True
        ),
        3,
    )
    rng = DeterministicRng(seed).spawn("coherence")
    clients = {n: cluster.client(n) for n in NODES}
    model: dict[int, bytes] = {}  # live payloads only
    versions = {n: 0 for n in range(N_OBJECTS)}

    def do_read() -> None:
        obj = int(rng.integer(0, N_OBJECTS))
        node = str(rng.choice(list(NODES)))
        client = clients[node]
        if obj not in model:
            with pytest.raises(ReproError):
                client.get([oid(obj)])
            return
        buf = client.get([oid(obj)])[0]
        try:
            got = buf.read_all()
        finally:
            client.release(oid(obj))
        assert got == model[obj], (
            f"seed {seed}: read of obj {obj} at {node} saw stale bytes "
            f"(cache incoherence)"
        )

    def do_write() -> None:
        obj = int(rng.integer(0, N_OBJECTS))
        if obj in model:
            holder = find_holder(cluster, oid(obj))
            if holder is None:
                return
            cluster.store(holder).delete_object(oid(obj))
            del model[obj]
        versions[obj] += 1
        data = payload_for(obj, versions[obj])
        writer = str(rng.choice(list(NODES)))
        clients[writer].put_bytes(oid(obj), data)
        model[obj] = data

    def do_delete() -> None:
        live = sorted(model)
        if not live:
            return
        obj = int(rng.choice(live))
        holder = find_holder(cluster, oid(obj))
        if holder is None:
            return
        cluster.store(holder).delete_object(oid(obj))
        del model[obj]

    def do_promote() -> None:
        live = sorted(model)
        if not live:
            return
        obj = int(rng.choice(live))
        dest = str(rng.choice(list(NODES)))
        cluster.tier_engine.promote(oid(obj), dest)

    def do_demote() -> None:
        live = sorted(model)
        if not live:
            return
        obj = int(rng.choice(live))
        cluster.tier_engine.demote(oid(obj))

    def do_tick() -> None:
        cluster.clock.advance(2_000_000)
        cluster.tier_engine.tick()

    ops = (
        [do_read] * 45
        + [do_write] * 20
        + [do_delete] * 10
        + [do_promote] * 10
        + [do_demote] * 8
        + [do_tick] * 7
    )
    for _ in range(N_OPS):
        ops[int(rng.integer(0, len(ops)))]()

    # Final sweep: every live object reads coherently from every node.
    for obj, data in sorted(model.items()):
        for node in NODES:
            client = clients[node]
            buf = client.get([oid(obj)])[0]
            try:
                assert buf.read_all() == data
            finally:
                client.release(oid(obj))
