"""Failure injection and the hazards the paper's design is built around.

Two classes of scenario:

* **Coherency hazards** — demonstrating WHY the framework communicates via
  RPC instead of writing into remote disaggregated memory (Fig 3b), end to
  end through the fabric.
* **Failure injection** — RPC-level faults (peer errors, lost objects
  between lookup and pin) surfacing as clean framework exceptions, never
  corruption or hangs.
"""

from __future__ import annotations

import pytest

from repro.common.config import testing_config as make_testing_config
from repro.common.errors import ObjectNotFoundError, RpcStatusError
from repro.common.units import MiB
from repro.core import Cluster
from repro.rpc.drive import drive
from repro.rpc.service import Service, rpc_method
from repro.rpc.status import StatusCode


@pytest.fixture
def cluster():
    return Cluster(
        make_testing_config(capacity_bytes=32 * MiB, seed=31).with_store(
            check_remote_uniqueness=False
        ),
    )


class TestCoherencyHazardEndToEnd:
    def test_remote_write_is_a_trap_the_framework_avoids(self, cluster):
        """If a peer DID write into remote disaggregated memory (the
        approach §IV-A2 rejects), the home node could keep reading its
        stale cache. The framework therefore never issues remote writes on
        any metadata path — asserted by fabric write counters staying zero
        through a full workload."""
        p = cluster.client("node0")
        c = cluster.client("node1")
        ids = cluster.new_object_ids(10)
        for oid in ids:
            p.put_bytes(oid, b"clean" * 100)
        for oid in ids:
            assert c.get_bytes(oid) == b"clean" * 100
        link = cluster.fabric.link_between("node0", "node1")
        assert link.counters.write_bytes == 0
        assert link.counters.read_bytes > 0

    def test_manual_remote_write_demonstrates_the_staleness(self, cluster):
        """Drive the trap deliberately through the fabric API: home reads
        its own exposed memory, remote overwrites it, home still sees the
        old bytes until invalidation."""
        home_ep = cluster.node("node0").endpoint
        region = home_ep.exposed
        abs_base = region.absolute(0)
        home_ep.local_write(abs_base, b"HOME-VALUE")
        remote_window = cluster.store("node1").peer("node0").remote_region
        window, stale = remote_window.write_window(0, 10)
        window[:] = b"PEER-WRITE"
        assert stale == 10
        out = home_ep.local_read_view(abs_base, 10)
        assert bytes(out) == b"HOME-VALUE"  # the hazard, reproduced
        home_ep.invalidate_exposed(0, 10)
        out2 = home_ep.local_read_view(abs_base, 10)
        assert bytes(out2) == b"PEER-WRITE"  # the kernel-module fix


class _FlakyService(Service):
    """A peer stand-in whose Lookup always fails — wire-level fault."""

    SERVICE_NAME = "plasma.StoreService"

    @rpc_method
    def Lookup(self, request: dict) -> dict:
        raise RuntimeError("injected peer crash")

    @rpc_method
    def Contains(self, request: dict) -> dict:
        raise RuntimeError("injected peer crash")


class TestFailureInjection:
    def test_peer_handler_crash_surfaces_as_internal_status(self, cluster):
        from repro.rpc.server import RpcServer
        from repro.rpc.channel import Channel
        from repro.common.clock import SimClock
        from repro.common.config import RpcConfig
        from repro.common.rng import DeterministicRng

        bad_server = RpcServer("bad-node")
        bad_server.add_service(_FlakyService())
        channel = Channel(
            "probe", bad_server, SimClock(), RpcConfig(), DeterministicRng(1)
        )
        with pytest.raises(RpcStatusError) as excinfo:
            channel.stub("plasma.StoreService").Lookup({"object_ids": [b"x" * 20]})
        assert excinfo.value.code is StatusCode.INTERNAL
        assert "injected peer crash" in excinfo.value.detail

    def test_object_vanishing_between_lookup_and_pin(self, cluster):
        """share_usage pins via AddRef after Lookup; if the object is
        deleted in between, the client sees a clean not-found."""
        cfg = make_testing_config(capacity_bytes=32 * MiB, seed=77)
        cl = Cluster(cfg.with_store(share_usage=True, check_remote_uniqueness=False))
        p = cl.client("node0")
        c = cl.client("node1")
        oid = cl.new_object_id()
        p.put_bytes(oid, b"now-you-see-me")

        # Sabotage: intercept node1's AddRef path by deleting the object
        # right after the descriptor is cached but before pinning. We
        # emulate the race by pre-resolving the record, deleting at home,
        # then getting (which pins from the stale record).
        store1 = cl.store("node1")
        unresolved = drive(store1._rpc_lookup_task, [oid], {}, [])  # noqa: SLF001 — test taps the seam
        assert unresolved == []  # resolved
        p.delete(oid)
        with pytest.raises(ObjectNotFoundError):
            c.get([oid])

    def test_store_survives_failed_creates(self, cluster):
        """OOM on create must not leak table entries or allocator bytes."""
        from repro.common.errors import OutOfMemoryError

        p = cluster.client("node0")
        store = cluster.store("node0")
        pinned = cluster.new_object_ids(
            store.capacity_bytes // (4 * MiB)
        )
        for oid in pinned:
            p.put_bytes(oid, bytes(4 * MiB - 4096))
            p.get_one(oid)
        used = store.used_bytes
        count = store.object_count()
        for _ in range(5):
            with pytest.raises(OutOfMemoryError):
                p.create(cluster.new_object_id(), 8 * MiB)
        assert store.used_bytes == used
        assert store.object_count() == count
        store.allocator.audit()

    def test_rpc_error_counters_recorded(self, cluster):
        c1_channel = cluster.node("node1").channels["node0"]
        with pytest.raises(RpcStatusError):
            c1_channel.stub("plasma.StoreService").Lookup({"object_ids": []})
        assert c1_channel.counters.calls_failed == 1

    def test_unknown_object_error_names_count(self, cluster):
        c = cluster.client("node1")
        missing = cluster.new_object_ids(3)
        with pytest.raises(ObjectNotFoundError, match="3 object"):
            c.get(missing)
