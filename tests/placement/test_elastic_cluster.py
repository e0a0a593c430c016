"""Elastic membership end to end: join, drain, remove, crash reconcile."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.chaos import FaultPlan
from repro.chaos.plan import NodeCrash, NodeRestart
from repro.common.config import PlacementConfig
from repro.common.config import testing_config as make_testing_config
from repro.common.errors import PlacementError
from repro.common.units import MiB
from repro.core import Cluster
from repro.placement import NodeStatus

PAYLOAD = b"\xabelastic" * 512  # 4 KiB


def make_cluster(n=3, seed=23, fault_plan=None):
    return Cluster(
        replace(
            make_testing_config(capacity_bytes=32 * MiB, seed=seed),
            placement=PlacementConfig(),
        ),
        n,
        fault_plan=fault_plan,
    )


def seed_objects(cluster, n):
    client = cluster.client("node0")
    ids = cluster.new_object_ids(n)
    client.put_batch([(oid, PAYLOAD) for oid in ids])
    return ids


def assert_all_readable(cluster, ids, node="node0"):
    reader = cluster.client(node)
    for oid in ids:
        assert bytes(reader.get_bytes(oid)) == PAYLOAD


class TestAddNode:
    def test_join_bumps_epoch_and_routes_creates(self):
        cluster = make_cluster(3)
        ids = seed_objects(cluster, 30)
        cluster.add_node("node3")
        assert cluster.membership.epoch == 2
        assert "node3" in cluster.placement_ring().members()
        # Enough new creates must land on the joiner.
        new_ids = seed_objects(cluster, 40)
        assert cluster.store("node3").object_count() > 0
        assert_all_readable(cluster, ids + new_ids)
        assert_all_readable(cluster, ids + new_ids, node="node3")

    def test_rebalance_fills_the_joiner(self):
        cluster = make_cluster(3)
        ids = seed_objects(cluster, 60)
        cluster.add_node("node3")
        report = cluster.rebalancer.run_until_converged()
        assert report.converged
        assert report.moved_objects > 0
        assert cluster.store("node3").object_count() > 0
        assert cluster.rebalancer.misplaced_bytes() == 0
        assert_all_readable(cluster, ids, node="node3")

    def test_duplicate_join_rejected(self):
        cluster = make_cluster(2)
        with pytest.raises(ValueError, match="already has a node"):
            cluster.add_node("node1")


class TestDrainAndRemove:
    def test_drain_excludes_from_ring_but_keeps_reads(self):
        cluster = make_cluster(3)
        ids = seed_objects(cluster, 30)
        held_before = cluster.store("node1").object_count()
        assert held_before > 0
        cluster.drain_node("node1")
        assert "node1" not in cluster.placement_ring().members()
        assert cluster.membership.status("node1") is NodeStatus.DRAINING
        # Objects have not moved yet; everything still readable.
        assert cluster.store("node1").object_count() == held_before
        assert_all_readable(cluster, ids, node="node2")
        # New creates avoid the draining node.
        new_ids = seed_objects(cluster, 20)
        assert cluster.store("node1").object_count() == held_before
        assert_all_readable(cluster, new_ids)

    def test_remove_requires_drain_and_empty(self):
        cluster = make_cluster(3)
        seed_objects(cluster, 30)
        with pytest.raises(PlacementError, match="ACTIVE"):
            cluster.remove_node("node1")
        cluster.drain_node("node1")
        with pytest.raises(PlacementError, match="still holds"):
            cluster.remove_node("node1")

    def test_full_scale_down_lifecycle(self):
        cluster = make_cluster(4)
        ids = seed_objects(cluster, 50)
        cluster.drain_node("node2")
        report = cluster.rebalancer.run_until_converged()
        assert report.converged
        assert cluster.store("node2").object_count() == 0
        cluster.remove_node("node2")
        assert cluster.node_names() == ["node0", "node1", "node3"]
        assert "node2" not in cluster.membership.names()
        for node in cluster.node_names():
            assert "node2" not in cluster.store(node).peers()
            assert_all_readable(cluster, ids, node=node)
        # The departed name is gone from everyone's failure detector too.
        for node in cluster.node_names():
            monitor = cluster.monitor(node)
            assert "node2" not in monitor.peers()


class TestCrashReconcile:
    def advance_past_suspicion(self, cluster, rounds=8):
        timeout = cluster.config.health.suspicion_timeout_ns
        for _ in range(rounds):
            cluster.clock.advance(timeout / 4)
            cluster.health_tick()

    def test_suspected_node_marked_down_and_unplaced(self):
        cluster = make_cluster(3, fault_plan=FaultPlan())
        ids = seed_objects(cluster, 24)
        cluster.health_tick()  # a pre-crash ack anchors the silence window
        cluster.chaos.inject(
            NodeCrash(at_ns=cluster.clock.now_ns + 1, node="node2")
        )
        self.advance_past_suspicion(cluster)
        assert cluster.membership.status("node2") is NodeStatus.DOWN
        assert "node2" not in cluster.placement_ring().members()
        assert cluster.membership.epoch >= 2
        # Peers' stores learned the new view over RPC.
        assert cluster.store("node0").topology_epoch == cluster.membership.epoch
        assert cluster.store("node1").topology_epoch == cluster.membership.epoch
        # New creates route around the dead node.
        new_ids = seed_objects(cluster, 16)
        for oid in new_ids:
            assert cluster.placement_ring().home(oid) != "node2"
        del ids  # reads of node2-homed objects would need replicas

    def test_recover_reactivates_and_catches_up(self):
        cluster = make_cluster(3, fault_plan=FaultPlan())
        seed_objects(cluster, 24)
        cluster.health_tick()  # a pre-crash ack anchors the silence window
        cluster.chaos.inject(
            NodeCrash(at_ns=cluster.clock.now_ns + 1, node="node2")
        )
        self.advance_past_suspicion(cluster)
        down_epoch = cluster.membership.epoch
        assert cluster.membership.status("node2") is NodeStatus.DOWN
        # The process comes back (chaos un-crashes the server), then the
        # store rebuilds from headers and rejoins the topology.
        cluster.chaos.inject(
            NodeRestart(at_ns=cluster.clock.now_ns + 1, node="node2")
        )
        cluster.clock.advance(2)
        cluster.chaos.poll()
        cluster.recover_node("node2")
        assert cluster.membership.status("node2") is NodeStatus.ACTIVE
        assert cluster.membership.epoch == down_epoch + 1
        # The recovered store pulled/installed a current view.
        assert cluster.store("node2").topology_epoch == cluster.membership.epoch
        assert "node2" in cluster.placement_ring().members()
