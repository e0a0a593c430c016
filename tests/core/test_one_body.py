"""One body per store operation under both drivers.

``get_buffers``, ``forward_put`` and ``delete_object`` each have a single
generator body, and so do the lookup and deletion fan-outs beneath
them. The caller picks the driver: ``repro.rpc.drive.drive`` runs a body
inline with blocking leaves (every facade, including one called from
inside a running task or by a caller that cannot suspend), or spawns it on
the event loop when handed the loop. The ``mode`` parameter below names
the driver (``tests.conftest.Driver``). These tests pin the seams that
arrangement relies on.
"""

from dataclasses import replace

import pytest

from repro.chaos import FaultPlan, LinkPartition
from repro.common.config import PlacementConfig, TierConfig
from repro.common.config import testing_config as make_config
from repro.common.errors import ObjectStoreError
from repro.common.ids import ObjectID
from repro.common.units import KiB, MiB
from repro.core import Cluster
from repro.core.store import DisaggregatedStore
from repro.plasma.client import copy_writer
from repro.rpc.aio.loop import EventLoop, Sleep
from repro.rpc.channel import Channel
from repro.workload import Scenario, ScenarioRunner
from tests.conftest import Driver, oid_homed_at
from tests.workload.conftest import MINI_OBJ, mini_obj


def make_cluster(
    *,
    capacity: int = 32 * MiB,
    tier: TierConfig | None = None,
    fault_plan: FaultPlan | None = None,
) -> Cluster:
    cfg = make_config(capacity_bytes=capacity, seed=99)
    cfg = replace(cfg, placement=PlacementConfig(), tier=tier)
    return Cluster(
        cfg.with_store(check_remote_uniqueness=False, lookup_cache=True),
        3,
        fault_plan=fault_plan,
    )


# -- (a) a facade called from inside a task blocks inline ----------------------------


def test_nested_facades_block_inline(monkeypatch):
    cluster = make_cluster()
    loop = cluster.loop
    producer, consumer = cluster.client("node0"), cluster.client("node1")
    read_oid = oid_homed_at(cluster, "node0")
    producer.put_bytes(read_oid, b"r" * 512)
    put_oid = oid_homed_at(cluster, "node0")

    entered = []
    run_until_complete = EventLoop.run_until_complete

    def counting(self, awaitable):
        entered.append(awaitable)
        return run_until_complete(self, awaitable)

    monkeypatch.setattr(EventLoop, "run_until_complete", counting)

    def script():
        # Every call below is a *synchronous* facade, issued by task code.
        [buffer] = consumer.get([read_oid])
        data = bytes(buffer.read_all())
        consumer.release(read_oid)
        forwarded = cluster.store("node1").forward_put(
            put_oid, *copy_writer(b"w" * 256), b"", "node0"
        )
        cluster.store("node0").delete_object(read_oid)
        return data, forwarded
        yield  # a generator, so the loop can run it as a task

    data, forwarded = loop.run_until_complete(loop.spawn(script()))
    assert data == b"r" * 512
    assert forwarded is True
    assert len(entered) == 1  # the nested facades never re-entered the driver
    assert loop.pending() == 0
    assert producer.get_bytes(put_oid) == b"w" * 256
    assert not cluster.store("node0").contains(read_oid)


# -- (b) the facades never touch the event loop ----------------------------------------


def test_sync_mode_never_schedules_on_the_loop(monkeypatch):
    def forbidden(self, *args, **kwargs):
        raise AssertionError("a facade scheduled work on the event loop")

    monkeypatch.setattr(EventLoop, "spawn", forbidden)
    monkeypatch.setattr(EventLoop, "call_later", forbidden)

    cluster = make_cluster(capacity=1 * MiB)
    writer, reader = cluster.client("node1"), cluster.client("node2")
    oids = [oid_homed_at(cluster, "node0") for _ in range(3)]
    for i, oid in enumerate(oids):
        writer.put_bytes(oid, bytes([i]) * KiB, replicas=2)  # forwarded put
    forwarded = cluster.store("node1").counters.placed_creates_forwarded
    assert forwarded == 3

    [buffer] = reader.get([oids[0]])  # remote get
    assert bytes(buffer.read_all()) == bytes([0]) * KiB
    reader.release(oids[0])
    assert reader.multi_get(oids) == [bytes([i]) * KiB for i in range(3)]

    holder = next(
        name for name in cluster.node_names()
        if cluster.store(name).contains(oids[1])
        and not cluster.store(name).is_replica(oids[1])
    )
    cluster.store(holder).delete_object(oids[1])  # broadcast + replica drop
    assert reader.multi_get([oids[1]]) == [None]

    # Capacity pressure on one store: eviction pushes NotifyDeleted too.
    node0 = cluster.client("node0")
    for _ in range(12):
        node0.put_bytes(oid_homed_at(cluster, "node0"), bytes(128 * KiB))
    assert cluster.store("node0").counters.objects_evicted > 0
    assert cluster.loop.pending() == 0


# -- (c) both drivers show the client the same thing ---------------------------------------

PARITY_COUNTERS = (
    "gets_local",
    "gets_remote",
    "lookup_cache_hits",
    "placed_creates_forwarded",
    "placed_creates_fallback",
    "placed_creates_received",
)


def error_of(fn) -> tuple:
    with pytest.raises(ObjectStoreError) as caught:
        fn()
    exc = caught.value
    return type(exc).__name__, getattr(exc, "unreachable_peers", ())


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_mode_parity(mode):
    cluster = make_cluster(tier=TierConfig())
    run = Driver(cluster, mode)
    c0, c1 = cluster.client("node0"), cluster.client("node1")
    local = oid_homed_at(cluster, "node1")
    remote = oid_homed_at(cluster, "node0")
    run.put_bytes(c1, local, b"L" * 300)
    run.put_bytes(c1, remote, b"R" * 700)  # forwarded to node0

    seen = {}
    seen["get"] = [bytes(b.read_all()) for b in run.get(c1, [local, remote])]
    c1.release(local)
    c1.release(remote)
    # The first remote read cached the descriptor and admitted the payload
    # to node1's hot cache; the second resolves and reads from them without
    # a Lookup.
    seen["again"] = run.get_bytes(c1, remote)
    ghost = cluster.new_object_id()
    seen["multi_get"] = run.multi_get(c1, [remote, ghost, local])

    seen["missing"] = error_of(lambda: run.get(c1, [ghost]))
    unsealed = oid_homed_at(cluster, "node1")
    c1.create(unsealed, 64)
    seen["unsealed_local"] = error_of(lambda: run.get(c1, [unsealed]))
    seen["unsealed_remote"] = error_of(lambda: run.get(c0, [unsealed]))
    cluster.node("node2").server.shutdown()
    seen["unreachable"] = error_of(lambda: run.get(c1, [ghost]))

    seen["counters"] = {
        name: {
            key: getattr(cluster.store(name).counters, key) for key in PARITY_COUNTERS
        }
        for name in ("node0", "node1")
    }
    assert seen == {
        "get": [b"L" * 300, b"R" * 700],
        "again": b"R" * 700,
        "multi_get": [b"R" * 700, None, b"L" * 300],
        "missing": ("ObjectNotFoundError", ()),
        "unsealed_local": ("ObjectNotFoundError", ()),
        "unsealed_remote": ("ObjectNotFoundError", ()),
        "unreachable": ("ObjectUnavailableError", ("node2",)),
        "counters": {
            "node0": {
                "gets_local": 0,
                "gets_remote": 0,  # its one Get failed before it was counted
                "lookup_cache_hits": 0,
                "placed_creates_forwarded": 0,
                "placed_creates_fallback": 0,
                "placed_creates_received": 1,
            },
            "node1": {
                "gets_local": 2,
                "gets_remote": 3,
                "lookup_cache_hits": 2,
                "placed_creates_forwarded": 1,
                "placed_creates_fallback": 0,
                "placed_creates_received": 0,
            },
        },
    }
    assert cluster.loop.pending() == 0


# -- (c') one deletion plan, sent peer by peer or as one gather ---------------------------
#
# A delete tells every peer exactly once: ``DropReplica`` if it holds a
# copy (the handler invalidates before it drops), ``NotifyDeleted``
# otherwise. *parent* marks what the two-phase form (commit 6c245ca:
# NotifyDeleted to everyone, then DropReplica to holders) did here.

PAYLOAD = b"d" * 900


def replicated_and_cached(mode: str):
    """An object at node0, read (so cached) by node1 and node2, and only
    then replicated to node1: a holder that also holds a cached descriptor
    and hot-cache payload, which only an invalidation can remove."""
    cluster = make_cluster(tier=TierConfig())
    run = Driver(cluster, mode)
    oid = oid_homed_at(cluster, "node0")
    run.put_bytes(cluster.client("node0"), oid, PAYLOAD)
    generation = cluster.store("node0").lookup_descriptor(oid)["generation"]
    for peer in ("node1", "node2"):
        assert run.get_bytes(cluster.client(peer), oid) == PAYLOAD
        assert holds_cached(cluster, peer, oid, generation) == (True, True)
    assert cluster.store("node0").replicate_object(oid, "node1") == "node1"
    return cluster, run, oid, generation


def holds_cached(
    cluster: Cluster, node: str, oid: ObjectID, generation: int
) -> tuple[bool, bool]:
    """(descriptor in the lookup cache, that incarnation's payload in the
    hot-object cache)."""
    store = cluster.store(node)
    return (
        oid in store.lookup_cache,
        store.tier_agent.cache.lookup(oid, generation) is not None,
    )


def calls(rpc_log, mode: str) -> list[tuple[str, str]]:
    """(peer, method) per RPC: in order peer by peer, sorted for the gather
    (the loop's seeded tie ranks order simultaneous wake-ups)."""
    pairs = [(host, method) for host, method, _ in rpc_log]
    return pairs if mode == "sync" else sorted(pairs)


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_delete_sends_each_peer_one_message(mode, rpc_log):
    cluster, run, oid, generation = replicated_and_cached(mode)
    holder = cluster.store("node1")
    used = holder.used_bytes
    del rpc_log[:]

    run.delete(cluster.store("node0"), oid)

    # parent: node1 NotifyDeleted, node2 NotifyDeleted, node1 DropReplica.
    expected = [("node2", "NotifyDeleted"), ("node1", "DropReplica")]
    assert calls(rpc_log, mode) == (expected if mode == "sync" else sorted(expected))
    assert all(ids == [oid] for _, _, ids in rpc_log)
    assert holds_cached(cluster, "node1", oid, generation) == (False, False)
    assert holds_cached(cluster, "node2", oid, generation) == (False, False)
    assert not holder.contains(oid) and not holder.is_replica(oid)
    assert holder.used_bytes < used
    assert holder.counters.replicas_dropped == 1
    assert cluster.store("node0").counters.delete_notifications == 1
    assert run.multi_get(cluster.client("node2"), [oid]) == [None]
    assert cluster.loop.pending() == 0


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_pinned_replica_outlives_the_delete_its_cached_descriptor_does_not(mode):
    cluster, run, oid, generation = replicated_and_cached(mode)
    reader = cluster.client("node1")
    [buffer] = run.get(reader, [oid])  # the local replica, now pinned

    run.delete(cluster.store("node0"), oid)

    holder = cluster.store("node1")
    assert holder.contains(oid) and holder.is_replica(oid)
    assert holder.counters.replicas_dropped == 0
    assert holds_cached(cluster, "node1", oid, generation) == (False, False)
    assert bytes(buffer.read_all()) == PAYLOAD
    reader.release(oid)


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_unreachable_holder_is_tolerated(mode, rpc_log):
    cluster, run, oid, generation = replicated_and_cached(mode)
    cluster.node("node1").server.shutdown()
    del rpc_log[:]

    run.delete(cluster.store("node0"), oid)

    home = cluster.store("node0")
    assert not home.contains(oid) and home.replica_locations(oid) == ()
    # parent: 2 — its NotifyDeleted and its DropReplica both went unanswered.
    assert home.counters.peers_unavailable == 1
    assert {method for host, method, _ in rpc_log if host == "node1"} == {"DropReplica"}
    assert [method for host, method, _ in rpc_log if host == "node2"] == ["NotifyDeleted"]
    assert holds_cached(cluster, "node2", oid, generation) == (False, False)


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_partitioned_peer_misses_the_push_and_is_counted(mode, rpc_log):
    """The first peer of the plan is cut off: the peer after it still
    hears (the blocking sweep goes past an unreachable peer), and the lost
    push is counted, not raised."""
    cluster = make_cluster(fault_plan=FaultPlan())
    run = Driver(cluster, mode)
    oid = oid_homed_at(cluster, "node0")
    run.put_bytes(cluster.client("node0"), oid, PAYLOAD)
    for peer in ("node1", "node2"):
        assert run.get_bytes(cluster.client(peer), oid) == PAYLOAD
    cluster.chaos.inject(
        LinkPartition(at_ns=cluster.clock.now_ns, node_a="node0", node_b="node1")
    )
    cluster.chaos.poll()
    home = cluster.store("node0")
    unavailable = home.counters.peers_unavailable
    del rpc_log[:]

    run.delete(home, oid)

    assert not home.contains(oid)
    assert home.counters.peers_unavailable == unavailable + 1
    assert home.counters.delete_notifications == 1
    assert [(host, method) for host, method, _ in rpc_log] == [("node2", "NotifyDeleted")]
    assert oid not in cluster.store("node2").lookup_cache
    assert oid in cluster.store("node1").lookup_cache  # the lost push
    assert cluster.loop.pending() == 0


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_delete_without_holders_is_the_plain_broadcast(mode, rpc_log):
    """A delete with no replica holder sends only NotifyDeleted — since
    directed invalidation, to the sharers rather than to every peer."""
    cluster = make_cluster()
    run = Driver(cluster, mode)
    oid = oid_homed_at(cluster, "node0")
    run.put_bytes(cluster.client("node0"), oid, PAYLOAD)
    assert run.get_bytes(cluster.client("node1"), oid) == PAYLOAD
    del rpc_log[:]

    run.delete(cluster.store("node0"), oid)

    # The directed plan, the same call for call in both modes: node1
    # resolved the object at node0, node2 never did (parent: both told).
    assert calls(rpc_log, mode) == [("node1", "NotifyDeleted")]
    assert rpc_log[0][2] == [oid]
    assert oid not in cluster.store("node1").lookup_cache


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_restarted_home_falls_back_to_notifying_every_peer(mode, rpc_log):
    cluster = make_cluster()
    run = Driver(cluster, mode)
    oid = oid_homed_at(cluster, "node0")
    run.put_bytes(cluster.client("node0"), oid, PAYLOAD, replicas=2)
    [holder] = cluster.store("node0").replica_locations(oid)
    cluster.recover_node("node0")  # the replica map died with the process
    assert cluster.store("node0").replica_locations(oid) == ()
    del rpc_log[:]

    run.delete(cluster.store("node0"), oid)

    assert calls(rpc_log, mode) == [("node1", "NotifyDeleted"), ("node2", "NotifyDeleted")]
    assert cluster.store(holder).is_replica(oid)  # stray until the scrubber finds it


# -- (d) the inline driver refuses a body that suspends ---------------------------------------


def suspends(*args, **kwargs):
    yield Sleep(1)


def call_channel(cluster: Cluster) -> None:
    cluster.node("node0").channels["node1"].unary_call("Store", "Lookup", {})


def call_store_facade(cluster: Cluster) -> None:
    cluster.store("node0").delete_object(cluster.new_object_id())


def get_remote_object(cluster: Cluster) -> None:
    """A Get whose id lives at the peer: it looks the id up."""
    oid = cluster.new_object_id()
    cluster.client("node1").put_bytes(oid, b"r" * 64)
    cluster.client("node0").get([oid])


def quarantine_local_object(cluster: Cluster) -> None:
    """A synchronous caller of the deletion fan-out."""
    oid = cluster.new_object_id()
    cluster.client("node0").put_bytes(oid, b"q" * 64)
    cluster.store("node0").quarantine_object(oid)


def run_scenario_op(cluster: Cluster) -> None:
    obj = mini_obj(traffic={**MINI_OBJ["traffic"], "mix": {"read": 100}})
    ScenarioRunner(Scenario.from_obj(obj)).run()


@pytest.mark.parametrize(
    "owner, body, call",
    [
        (Channel, "_call", call_channel),
        (DisaggregatedStore, "delete_object_task", call_store_facade),
        (ScenarioRunner, "_do_read", run_scenario_op),
        (DisaggregatedStore, "_rpc_lookup_task", get_remote_object),
        (DisaggregatedStore, "_announce_deleted_task", quarantine_local_object),
    ],
    ids=["channel", "store", "runner", "lookup", "deletion"],
)
def test_inline_driver_raises_if_the_body_suspends(cluster, monkeypatch, owner, body, call):
    """``drive`` runs a body inline; one that suspends anyway —
    a channel call, a store facade, a runner op, a store fan-out — is a
    bug, never a hang."""
    monkeypatch.setattr(owner, body, suspends)
    with pytest.raises(RuntimeError, match="suspended on Sleep"):
        call(cluster)
