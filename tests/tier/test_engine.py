"""TierEngine over a real cluster: heat-driven plans, placement registry."""

import pytest

from repro.common.config import ClusterConfig, PlacementConfig, TierConfig
from repro.common.ids import ObjectID
from repro.core.cluster import Cluster


def oid(n: int) -> ObjectID:
    return ObjectID.from_int(n)


def holder_of(cluster: Cluster, object_id: ObjectID) -> str | None:
    for name in sorted(cluster.node_names()):
        store = cluster.store(name)
        if store.is_replica(object_id):
            continue
        with store.table.lock:
            entry = store.table.lookup(object_id)
            if entry is not None and entry.is_sealed:
                return name
    return None


@pytest.fixture()
def cluster():
    return Cluster(
        ClusterConfig(placement=PlacementConfig(), tier=TierConfig()).with_store(
            lookup_cache=True
        ),
        3,
    )


class TestTargetedMoves:
    def test_promote_moves_primary_to_reader(self, cluster):
        client = cluster.client("node0")
        client.put_bytes(oid(1), b"p" * 2048)
        home = holder_of(cluster, oid(1))
        dest = next(
            n for n in ("node0", "node1", "node2") if n != home
        )
        result = cluster.tier_engine.promote(oid(1), dest)
        assert result is not None and result.moved
        assert holder_of(cluster, oid(1)) == dest
        assert cluster.tier_engine.is_tier_placed(oid(1))

    def test_promote_to_current_holder_is_noop(self, cluster):
        cluster.client("node0").put_bytes(oid(1), b"p" * 512)
        home = holder_of(cluster, oid(1))
        assert cluster.tier_engine.promote(oid(1), home) is None

    def test_promoted_bytes_read_back_exactly(self, cluster):
        payload = bytes(range(256)) * 8
        cluster.client("node0").put_bytes(oid(1), payload)
        home = holder_of(cluster, oid(1))
        dest = next(n for n in ("node0", "node1", "node2") if n != home)
        assert cluster.tier_engine.promote(oid(1), dest).moved
        reader = next(
            n for n in ("node0", "node1", "node2") if n != dest
        )
        client = cluster.client(reader)
        buf = client.get([oid(1)])[0]
        try:
            assert buf.read_all() == payload
        finally:
            client.release(oid(1))

    def test_demote_targets_most_free_node(self, cluster):
        cluster.client("node0").put_bytes(oid(1), b"d" * 4096)
        source = holder_of(cluster, oid(1))
        result = cluster.tier_engine.demote(oid(1))
        assert result is not None and result.moved
        assert holder_of(cluster, oid(1)) != source


class TestHeatDrivenTicks:
    def test_hot_remote_reads_promote_home(self, cluster):
        client0 = cluster.client("node0")
        client0.put_bytes(oid(1), b"h" * 1024)
        home = holder_of(cluster, oid(1))
        reader = next(n for n in ("node0", "node1", "node2") if n != home)
        client = cluster.client(reader)
        # Drive decayed remote heat at the reader past promote_min_heat.
        for _ in range(6):
            buf = client.get([oid(1)])[0]
            buf.read_all()
            client.release(oid(1))
        plan = cluster.tier_engine.promotion_plan()
        assert (reader, oid(1)) in [(n, o) for n, o, _ in plan]
        report = cluster.tier_engine.tick()
        assert report.promoted_objects == 1
        assert holder_of(cluster, oid(1)) == reader

    def test_promotion_forgets_remote_heat_at_dest(self, cluster):
        client0 = cluster.client("node0")
        client0.put_bytes(oid(1), b"h" * 1024)
        home = holder_of(cluster, oid(1))
        reader = next(n for n in ("node0", "node1", "node2") if n != home)
        client = cluster.client(reader)
        for _ in range(6):
            buf = client.get([oid(1)])[0]
            buf.read_all()
            client.release(oid(1))
        cluster.tier_engine.tick()
        agent = cluster.tier_agent(reader)
        assert agent.remote_heat.heat(oid(1)) == 0.0
        # No promotion pressure remains: the plan is empty again.
        assert cluster.tier_engine.promotion_plan() == []


class TestPlacementRegistry:
    def test_clear_placements_returns_authority_to_ring(self, cluster):
        cluster.client("node0").put_bytes(oid(1), b"r" * 1024)
        home = holder_of(cluster, oid(1))
        dest = next(n for n in ("node0", "node1", "node2") if n != home)
        cluster.tier_engine.promote(oid(1), dest)
        assert cluster.tier_engine.clear_placements() == 1
        assert not cluster.tier_engine.is_tier_placed(oid(1))
        # The rebalancer now re-homes the object at its ring home.
        report = cluster.rebalancer.run_until_converged()
        assert report.converged
        assert holder_of(cluster, oid(1)) == home

    def test_rebalancer_leaves_tier_placed_objects_alone(self, cluster):
        cluster.client("node0").put_bytes(oid(1), b"r" * 1024)
        home = holder_of(cluster, oid(1))
        dest = next(n for n in ("node0", "node1", "node2") if n != home)
        cluster.tier_engine.promote(oid(1), dest)
        report = cluster.rebalancer.run_until_converged()
        assert report.converged
        assert holder_of(cluster, oid(1)) == dest

    def test_delete_prunes_placement_registry(self, cluster):
        cluster.client("node0").put_bytes(oid(1), b"r" * 1024)
        home = holder_of(cluster, oid(1))
        dest = next(n for n in ("node0", "node1", "node2") if n != home)
        cluster.tier_engine.promote(oid(1), dest)
        cluster.store(dest).delete_object(oid(1))
        cluster.tier_engine.tick()
        assert not cluster.tier_engine.is_tier_placed(oid(1))
