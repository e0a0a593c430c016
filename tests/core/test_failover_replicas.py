"""Opt-in replication and failover reads when a home store dies."""

import pytest

from repro.common.config import testing_config as make_testing_config
from repro.common.errors import (
    ObjectNotFoundError,
    ObjectStoreError,
    ObjectUnavailableError,
)
from repro.common.units import MiB
from repro.core import Cluster


@pytest.fixture
def cluster3():
    config = make_testing_config(capacity_bytes=32 * MiB, seed=99)
    return Cluster(config.with_store(check_remote_uniqueness=False), 3)


class TestReplication:
    def test_put_bytes_with_replicas_pushes_a_copy(self, cluster):
        client = cluster.client("node0")
        oid = cluster.new_object_id()
        payload = b"replicated payload" * 100
        client.put_bytes(oid, payload, replicas=2)
        assert cluster.store("node0").replica_locations(oid) == ("node1",)
        assert cluster.store("node1").is_replica(oid)
        assert cluster.store("node0").counters.get("replicas_created") == 1
        assert cluster.store("node1").counters.get("replicas_held") == 1
        # The replica is a faithful, locally sealed copy.
        reader = cluster.client("node1")
        assert reader.get_bytes(oid) == payload

    def test_replica_payload_pulled_over_fabric(self, cluster):
        client = cluster.client("node0")
        oid = cluster.new_object_id()
        link = cluster.fabric.link_between("node1", "node0")
        read0 = link.counters.get("read_bytes")
        client.put_bytes(oid, b"x" * 4096, replicas=2)
        assert link.counters.get("read_bytes") - read0 >= 4096

    def test_put_batch_replicates_every_object(self, cluster):
        client = cluster.client("node0")
        ids = cluster.new_object_ids(4)
        client.put_batch([(oid, b"v" * 64) for oid in ids], replicas=2)
        store1 = cluster.store("node1")
        assert all(store1.is_replica(oid) for oid in ids)

    def test_replica_count_validation(self, cluster):
        client = cluster.client("node0")
        oid = cluster.new_object_id()
        with pytest.raises(ValueError, match="replicas"):
            client.put_bytes(oid, b"x", replicas=0)
        with pytest.raises(ValueError, match="peers"):
            client.put_bytes(oid, b"x", replicas=3)  # only one peer

    def test_peer_choice_is_deterministic(self, cluster3):
        oid = cluster3.new_object_id()
        client = cluster3.client("node0")
        client.put_bytes(oid, b"d" * 128, replicas=2)
        first = cluster3.store("node0").replica_locations(oid)
        # A second replica must land on the remaining peer, not repeat.
        second = cluster3.store("node0").replicate_object(oid)
        assert second not in first
        assert set(cluster3.store("node0").replica_locations(oid)) == {
            "node1",
            "node2",
        }
        with pytest.raises(ObjectStoreError, match="no peer left"):
            cluster3.store("node0").replicate_object(oid)

    def test_replication_degrades_when_target_is_down(self, cluster):
        cluster.node("node1").server.shutdown()
        client = cluster.client("node0")
        oid = cluster.new_object_id()
        client.put_bytes(oid, b"lonely" * 10, replicas=2)  # must not raise
        store0 = cluster.store("node0")
        assert store0.replica_locations(oid) == ()
        assert store0.counters.get("replicas_skipped") == 1
        assert client.get_bytes(oid) == b"lonely" * 10  # local copy fine


class TestFailoverReads:
    def test_reader_fails_over_to_the_replica(self, cluster3):
        producer = cluster3.client("node0")
        oid = cluster3.new_object_id()
        payload = bytes(range(256)) * 16
        producer.put_bytes(oid, payload)
        # Pin the replica on node2 so the reader (node1) must resolve it
        # by RPC lookup, not from its own table.
        assert cluster3.store("node0").replicate_object(oid, "node2") == "node2"
        cluster3.node("node0").server.shutdown()
        reader = cluster3.client("node1")
        assert reader.get_bytes(oid) == payload
        assert cluster3.store("node1").counters.get("peers_unavailable") >= 1

    def test_unreplicated_object_raises_typed_unavailable(self, cluster):
        producer = cluster.client("node0")
        oid = cluster.new_object_id()
        producer.put_bytes(oid, b"single copy")  # replicas=1
        cluster.node("node0").server.shutdown()
        reader = cluster.client("node1")
        with pytest.raises(ObjectUnavailableError) as exc:
            reader.get_bytes(oid)
        assert exc.value.unreachable_peers == ("node0",)

    def test_unavailable_is_a_not_found_subtype(self, cluster):
        # Existing callers that catch ObjectNotFoundError keep working.
        assert issubclass(ObjectUnavailableError, ObjectNotFoundError)

    def test_reads_recover_after_restart(self, cluster):
        producer = cluster.client("node0")
        oid = cluster.new_object_id()
        producer.put_bytes(oid, b"back soon")
        cluster.node("node0").server.shutdown()
        reader = cluster.client("node1")
        with pytest.raises(ObjectUnavailableError):
            reader.get_bytes(oid)
        cluster.node("node0").server.restart()
        assert reader.get_bytes(oid) == b"back soon"


class TestReplicaLifecycle:
    def test_delete_drops_remote_replicas(self, cluster):
        client = cluster.client("node0")
        oid = cluster.new_object_id()
        client.put_bytes(oid, b"ephemeral" * 8, replicas=2)
        assert cluster.store("node1").is_replica(oid)
        client.delete(oid)
        store1 = cluster.store("node1")
        assert not store1.is_replica(oid)
        assert store1.counters.get("replicas_dropped") == 1
        with cluster.store("node1").table.lock:
            assert store1.table.lookup(oid) is None

    def test_in_use_replica_survives_drop(self, cluster):
        producer = cluster.client("node0")
        oid = cluster.new_object_id()
        producer.put_bytes(oid, b"pinned" * 20, replicas=2)
        reader = cluster.client("node1")
        [buffer] = reader.get([oid])  # local replica, ref held
        producer.delete(oid)
        store1 = cluster.store("node1")
        assert store1.is_replica(oid)  # still readable by its holder
        assert buffer.read_all() == b"pinned" * 20
        reader.release(oid)

    def test_delete_tolerates_dead_replica_holder(self, cluster):
        client = cluster.client("node0")
        oid = cluster.new_object_id()
        client.put_bytes(oid, b"zz" * 32, replicas=2)
        cluster.node("node1").server.shutdown()
        client.delete(oid)  # DropReplica is best-effort
        with cluster.store("node0").table.lock:
            assert cluster.store("node0").table.lookup(oid) is None
