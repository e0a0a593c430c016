"""Cluster wiring and the StoreService RPC surface."""

import pytest

from repro.common.errors import RpcStatusError
from repro.core import Cluster
from repro.rpc.status import StatusCode


class TestClusterConstruction:
    def test_default_two_nodes(self, small_config):
        cl = Cluster(small_config)
        assert cl.node_names() == ["node0", "node1"]

    def test_custom_names(self, small_config):
        cl = Cluster(small_config, ["alpha", "beta", "gamma"])
        assert cl.node_names() == ["alpha", "beta", "gamma"]
        assert cl.store("alpha").peers() == ["beta", "gamma"]

    def test_unknown_node_lookup(self, cluster):
        with pytest.raises(KeyError):
            cluster.node("node99")

    def test_full_mesh_links(self, small_config):
        cl = Cluster(small_config, 4)
        assert len(cl.fabric.links()) == 6  # C(4,2)

    def test_exposed_region_hosts_store(self, cluster):
        for name in cluster.node_names():
            store = cluster.store(name)
            assert store.endpoint.has_exposed
            assert store.region.size == store.capacity_bytes

    def test_id_stream_is_deterministic(self, small_config):
        a = Cluster(small_config)
        b = Cluster(small_config)
        assert a.new_object_ids(5) == b.new_object_ids(5)

    def test_client_names_unique(self, cluster):
        c1 = cluster.client("node0")
        c2 = cluster.client("node0")
        assert c1.name != c2.name

    def test_stats_snapshot(self, cluster):
        p = cluster.client("node0")
        p.put_bytes(cluster.new_object_id(), b"counted")
        stats = cluster.stats()
        assert stats["node0"]["objects"] == 1
        assert stats["node0"]["used_bytes"] > 0
        assert stats["node1"]["objects"] == 0

    def test_repr(self, cluster):
        assert "node0" in repr(cluster)


class TestStoreServiceRpc:
    """Exercise the service through a real channel, as a peer would."""

    def _stub(self, cluster, from_node="node1", to_node="node0"):
        return cluster.node(from_node).channels[to_node].stub(
            "plasma.StoreService"
        )

    def test_lookup_returns_descriptors(self, cluster):
        p = cluster.client("node0")
        oid = cluster.new_object_id()
        p.put_bytes(oid, b"descriptor-me")
        stub = self._stub(cluster)
        response = stub.Lookup({"object_ids": [oid.binary()]})
        assert response["store"] == "node0"
        (descriptor,) = response["found"]
        assert descriptor["object_id"] == oid.binary()
        assert descriptor["data_size"] == 13
        assert descriptor["sealed"] is True

    def test_lookup_omits_unknown_and_unsealed(self, cluster):
        p = cluster.client("node0")
        sealed, unsealed = cluster.new_object_ids(2)
        p.put_bytes(sealed, b"yes")
        p.create(unsealed, 4)
        stub = self._stub(cluster)
        response = stub.Lookup(
            {
                "object_ids": [
                    sealed.binary(),
                    unsealed.binary(),
                    cluster.new_object_id().binary(),
                ]
            }
        )
        assert len(response["found"]) == 1

    def test_contains_orders_match_request(self, cluster):
        p = cluster.client("node0")
        known = cluster.new_object_id()
        p.put_bytes(known, b"here")
        unknown = cluster.new_object_id()
        stub = self._stub(cluster)
        response = stub.Contains(
            {"object_ids": [unknown.binary(), known.binary()]}
        )
        assert response["present"] == [False, True]

    def test_addref_releaseref_roundtrip(self, cluster):
        p = cluster.client("node0")
        oid = cluster.new_object_id()
        p.put_bytes(oid, b"ref-me")
        stub = self._stub(cluster)
        stub.AddRef({"object_ids": [oid.binary()]})
        entry = cluster.store("node0").table.get(oid)
        assert entry.remote_ref_count == 1
        stub.ReleaseRef({"object_ids": [oid.binary()]})
        assert entry.remote_ref_count == 0

    def test_addref_unknown_object_is_not_found(self, cluster):
        stub = self._stub(cluster)
        with pytest.raises(RpcStatusError) as excinfo:
            stub.AddRef({"object_ids": [cluster.new_object_id().binary()]})
        assert excinfo.value.code is StatusCode.NOT_FOUND

    def test_empty_id_list_is_invalid_argument(self, cluster):
        stub = self._stub(cluster)
        with pytest.raises(RpcStatusError) as excinfo:
            stub.Lookup({"object_ids": []})
        assert excinfo.value.code is StatusCode.INVALID_ARGUMENT

    def test_malformed_id_is_invalid_argument(self, cluster):
        stub = self._stub(cluster)
        with pytest.raises(RpcStatusError) as excinfo:
            stub.Lookup({"object_ids": [b"short"]})
        assert excinfo.value.code is StatusCode.INVALID_ARGUMENT
