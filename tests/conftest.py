"""Shared fixtures: small deterministic clusters and building blocks."""

from __future__ import annotations

import pytest

from repro.common.clock import SimClock
from repro.common.config import ClusterConfig, RpcConfig, testing_config
from repro.common.ids import ObjectID, UniqueIDGenerator
from repro.common.rng import DeterministicRng
from repro.common.units import MiB
from repro.core import Cluster
from repro.plasma.client import copy_writer
from repro.rpc.drive import drive
from repro.rpc.server import RpcServer


@pytest.fixture
def rng() -> DeterministicRng:
    return DeterministicRng(1234)


@pytest.fixture
def np_rng(rng):
    """Shared numpy generator, seeded from the deterministic fixture so
    every test's randomness is replayable from one place (no bare
    ``np.random.default_rng(<literal>)`` in test bodies — see
    docs/testing.md and tests/common/test_rng_hygiene.py)."""
    import numpy as np

    return np.random.default_rng(rng.spawn("numpy-tests").seed)


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def small_config() -> ClusterConfig:
    return testing_config(capacity_bytes=32 * MiB, seed=99)


@pytest.fixture
def cluster(small_config) -> Cluster:
    """A 2-node disaggregated cluster with batched uniqueness checks."""
    return Cluster(small_config.with_store(check_remote_uniqueness=False))


#: The smallest forwarded put that takes the fabric write window (PlacedCreate,
#: fill, PlacedSeal) under the default RPC cost model; anything smaller rides
#: one PlacedPut (``size * per_byte_ns < round_trip_ns``).
WINDOW_PUT_MIN_BYTES = int(RpcConfig.round_trip_ns // RpcConfig.per_byte_ns) + 1


def oid_homed_at(cluster: Cluster, home: str) -> ObjectID:
    """A fresh id whose ring home is *home* (placement clusters)."""
    ring = cluster.placement_ring()
    while True:
        oid = cluster.new_object_id()
        if ring.home(oid) == home:
            return oid


class Driver:
    """The client and store operations run one way, picked by the caller:
    ``"sync"`` runs each body inline, exactly as the facades do;
    ``"async"`` spawns it as an event-loop task and drives the loop until
    that task finishes. Every method takes the client or store it acts on
    first, then that facade's own arguments."""

    def __init__(self, cluster: Cluster, mode: str):
        assert mode in ("sync", "async"), mode
        self.loop = cluster.loop if mode == "async" else None

    def get(self, client, object_ids, allow_missing: bool = False):
        return drive(client.get_task, list(object_ids), allow_missing, loop=self.loop)

    def get_bytes(self, client, object_id: ObjectID) -> bytes:
        [buffer] = self.get(client, [object_id])
        try:
            return buffer.read_all()
        finally:
            client.release(object_id)

    def multi_get(self, client, object_ids, *, allow_missing: bool = True):
        return drive(
            client.multi_get_task,
            list(object_ids),
            allow_missing=allow_missing,
            loop=self.loop,
        )

    def put_into(self, client, object_id: ObjectID, size: int, write,
                 *, metadata: bytes = b"", replicas: int = 1) -> ObjectID:
        return drive(
            client.put_into_task,
            object_id,
            size,
            write,
            metadata=metadata,
            replicas=replicas,
            loop=self.loop,
        )

    def put_bytes(self, client, object_id: ObjectID, data, metadata: bytes = b"",
                  *, replicas: int = 1) -> ObjectID:
        return self.put_into(
            client, object_id, *copy_writer(data), metadata=metadata, replicas=replicas
        )

    def forward_put(self, store, object_id, size, write, metadata, home,
                    *, replicas: int = 1) -> bool:
        return drive(
            store.forward_put_task, object_id, size, write, metadata, home,
            replicas=replicas, loop=self.loop,
        )

    def delete(self, store, object_id: ObjectID) -> None:
        drive(store.delete_object_task, object_id, loop=self.loop)


@pytest.fixture
def rpc_log(monkeypatch) -> list:
    """Every request any RPC server is handed while the test runs, in
    order, as ``(server host, method, [object ids])`` — a shut-down server's
    UNAVAILABLE answers included."""
    log = []
    dispatch = RpcServer.dispatch

    def recording(self, service, method, request):
        raw_ids = request.get("object_ids", ()) if isinstance(request, dict) else ()
        log.append((self.host, method, [ObjectID(raw) for raw in raw_ids]))
        return dispatch(self, service, method, request)

    monkeypatch.setattr(RpcServer, "dispatch", recording)
    return log


@pytest.fixture
def cluster_paper_mode(small_config) -> Cluster:
    """A 2-node cluster with the paper's per-create uniqueness RPCs."""
    return Cluster(small_config.with_store(check_remote_uniqueness=True))


@pytest.fixture
def ids(rng) -> UniqueIDGenerator:
    return UniqueIDGenerator(rng.spawn("test-ids"))


@pytest.fixture
def cluster_factory(small_config):
    """Fresh clusters on demand — for hypothesis tests, which must not
    share function-scoped state across examples."""

    def make() -> Cluster:
        return Cluster(small_config.with_store(check_remote_uniqueness=False))

    return make


def cluster_fingerprint(cluster: Cluster) -> dict:
    """Every simulated observable a host-only change to the data path must
    leave alone: the clock, fabric/endpoint/aperture/store counters, tier
    cache stats and the retained span trees."""
    names = cluster.node_names()
    spans = cluster.spans
    return {
        "now_ns": cluster.clock.now_ns,
        "links": [link.counters.snapshot() for link in cluster.fabric.links()],
        "endpoints": {
            n: cluster.node(n).endpoint.counters.snapshot() for n in names
        },
        "apertures": {
            (n, peer): cluster.store(n).peer(peer).remote_region.counters.snapshot()
            for n in names
            for peer in cluster.store(n).peers()
        },
        "stores": cluster.stats(),
        "tier": cluster.tier_stats(),
        "spans": None
        if spans is None
        else [
            (t["name"], t["duration_ns"], t["components_ns"], len(t["spans"]))
            for t in spans.traces()
        ],
    }
