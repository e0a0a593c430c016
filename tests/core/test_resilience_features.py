"""Node-failure resilience and allow-missing gets."""

import pytest

from repro.common.errors import ObjectNotFoundError
from repro.common.units import MiB


class TestNodeFailure:
    def test_down_peer_objects_become_unreachable(self, cluster):
        p = cluster.client("node0")
        c = cluster.client("node1")
        oid = cluster.new_object_id()
        p.put_bytes(oid, b"orphaned")
        cluster.node("node0").server.shutdown()
        with pytest.raises(ObjectNotFoundError):
            c.get([oid])
        assert cluster.store("node1").counters.peers_unavailable >= 1

    def test_cluster_keeps_serving_survivors(self, small_config):
        from repro.core import Cluster

        cl = Cluster(small_config.with_store(check_remote_uniqueness=False), 3)
        p1 = cl.client("node1")
        c2 = cl.client("node2")
        oid = cl.new_object_id()
        p1.put_bytes(oid, b"alive")
        cl.node("node0").server.shutdown()
        # node2 can still resolve node1's object (lookups skip node0).
        assert c2.get_bytes(oid) == b"alive"

    def test_creates_proceed_on_surviving_quorum(self, cluster_paper_mode):
        cluster_paper_mode.node("node1").server.shutdown()
        p = cluster_paper_mode.client("node0")
        oid = cluster_paper_mode.new_object_id()
        p.put_bytes(oid, b"created-during-outage")  # Contains check skips node1
        assert cluster_paper_mode.store("node0").contains(oid)

    def test_restart_restores_service(self, cluster):
        p = cluster.client("node0")
        c = cluster.client("node1")
        oid = cluster.new_object_id()
        p.put_bytes(oid, b"back-online")
        server = cluster.node("node0").server
        server.shutdown()
        with pytest.raises(ObjectNotFoundError):
            c.get([oid])
        server.restart()
        assert c.get_bytes(oid) == b"back-online"

    def test_exposed_memory_outlives_the_store_process(self, cluster):
        """The disaggregation-specific property: a peer that already holds
        a descriptor can keep reading the dead store's memory over the
        fabric."""
        p = cluster.client("node0")
        c = cluster.client("node1")
        oid = cluster.new_object_id()
        p.put_bytes(oid, b"survives-process-death")
        buf = c.get_one(oid)  # descriptor resolved while node0 was alive
        cluster.node("node0").server.shutdown()
        assert buf.read_all() == b"survives-process-death"


class TestAllowMissing:
    def test_local_missing_yields_none(self, cluster):
        p = cluster.client("node0")
        have = cluster.new_object_id()
        p.put_bytes(have, b"present")
        missing = cluster.new_object_id()
        c = cluster.client("node0")
        results = c.get([have, missing, have], allow_missing=True)
        assert results[1] is None
        assert results[0].read_all() == b"present"
        assert results[2].read_all() == b"present"
        c.release(have)
        c.release(have)

    def test_remote_missing_yields_none(self, cluster):
        c = cluster.client("node1")
        results = c.get([cluster.new_object_id()], allow_missing=True)
        assert results == [None]

    def test_unsealed_counts_as_missing(self, cluster):
        p = cluster.client("node0")
        oid = cluster.new_object_id()
        p.create(oid, 8)  # never sealed
        c = cluster.client("node0")
        assert c.get([oid], allow_missing=True) == [None]

    def test_no_references_leak_for_missing(self, cluster):
        c = cluster.client("node1")
        c.get([cluster.new_object_id()], allow_missing=True)
        assert c.held_ids() == []

    def test_default_still_raises(self, cluster):
        c = cluster.client("node1")
        with pytest.raises(ObjectNotFoundError):
            c.get([cluster.new_object_id()])
