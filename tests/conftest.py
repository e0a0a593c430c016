"""Shared fixtures: small deterministic clusters and building blocks."""

from __future__ import annotations

import pytest

from repro.common.clock import SimClock
from repro.common.config import ClusterConfig, testing_config
from repro.common.ids import ObjectID, UniqueIDGenerator
from repro.common.rng import DeterministicRng
from repro.common.units import MiB
from repro.core import Cluster
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


def oid_homed_at(cluster: Cluster, home: str) -> ObjectID:
    """A fresh id whose ring home is *home* (placement clusters)."""
    ring = cluster.placement_ring()
    while True:
        oid = cluster.new_object_id()
        if ring.home(oid) == home:
            return oid


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
