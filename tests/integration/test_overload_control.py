"""End-to-end overload control: deadline propagation across forwarded
hops, expired-work shedding, and reads past a slow holder — all on the
sim clock."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.config import testing_config as _testing_config
from repro.common.errors import ObjectUnavailableError
from repro.common.units import MiB
from repro.core import Cluster
from repro.plasma.client import copy_writer
from tests.conftest import WINDOW_PUT_MIN_BYTES

MS = 1_000_000


def make_cluster(n_nodes=3, *, rpc_overrides=None):
    config = _testing_config(capacity_bytes=32 * MiB, seed=99)
    rpc = replace(config.rpc, jitter_sigma=0.0, **(rpc_overrides or {}))
    config = replace(config, rpc=rpc)
    return Cluster(config.with_store(check_remote_uniqueness=False), n_nodes)


def spy_deadlines(server, seen):
    """Record the deadline each dispatched method arrived with."""
    orig = server.dispatch_wire

    def spy(service, method, wire, correlation_id=None, deadline_ns=None, caller=None):
        seen.append((method, deadline_ns))
        return orig(
            service,
            method,
            wire,
            correlation_id=correlation_id,
            deadline_ns=deadline_ns,
            caller=caller,
        )

    server.dispatch_wire = spy


class TestDeadlinePropagation:
    def test_budget_shrinks_across_forwarded_hops(self):
        """PlacedSeal runs on whatever the PlacedCreate hop left of the
        operation's deadline budget — not on a fresh per-call deadline."""
        cl = make_cluster(2, rpc_overrides={"default_deadline_ns": 50 * MS})
        seen = []
        spy_deadlines(cl.node("node1").server, seen)
        oid = cl.new_object_id()
        assert cl.store("node0").forward_put(
            oid, *copy_writer(b"x" * (WINDOW_PUT_MIN_BYTES + 1024)), b"", "node1"
        )
        deadlines = dict(
            (m, d) for m, d in seen if m in ("PlacedCreate", "PlacedSeal")
        )
        assert set(deadlines) == {"PlacedCreate", "PlacedSeal"}
        assert deadlines["PlacedCreate"] is not None
        assert deadlines["PlacedSeal"] is not None
        # The first hop and the fabric write spent real sim time, so the
        # seal hop arrived with strictly less budget.
        assert 0 < deadlines["PlacedSeal"] < deadlines["PlacedCreate"]

    def test_small_put_carries_the_budget_in_its_one_hop(self):
        """A payload below the crossover makes one PlacedPut, and that hop
        arrives with the operation's deadline budget, not without one."""
        cl = make_cluster(2, rpc_overrides={"default_deadline_ns": 50 * MS})
        seen = []
        spy_deadlines(cl.node("node1").server, seen)
        assert cl.store("node0").forward_put(
            cl.new_object_id(), *copy_writer(b"x" * 1024), b"", "node1"
        )
        [(method, deadline)] = seen
        assert method == "PlacedPut"
        assert deadline is not None and 0 < deadline <= 50 * MS

    def test_no_default_deadline_means_no_propagation(self):
        cl = make_cluster(2)
        seen = []
        spy_deadlines(cl.node("node1").server, seen)
        oid = cl.new_object_id()
        assert cl.store("node0").forward_put(
            oid, *copy_writer(b"y" * 64), b"", "node1"
        )
        assert all(d is None for _, d in seen)


class TestExpiredWorkShed:
    def test_backlogged_server_sheds_doomed_reads(self):
        """A deadline that cannot cover the server's backlog is refused at
        admission instead of queued — the caller sees the typed outage."""
        cl = make_cluster(2, rpc_overrides={"default_deadline_ns": 20 * MS})
        producer = cl.client("node0")
        reader = cl.client("node1")
        oid = cl.new_object_id()
        producer.put_bytes(oid, b"stale-by-arrival")
        model = cl.node("node0").server.overload
        model.set_service_rate(100.0)
        model.add_backlog(50 * MS)
        with pytest.raises(ObjectUnavailableError):
            reader.get([oid])
        assert model.counters.shed_expired >= 1
        assert cl.store("node1").counters.lookups_shed >= 1
        # Drain the backlog: the same read now clears admission.
        cl.clock.advance(60 * MS)
        assert reader.get_bytes(oid) == b"stale-by-arrival"


class TestSlowHolder:
    """A blocking Lookup is a plain unary call: the sweep waits for a slow
    peer's answer (up to the call's deadline) rather than hedging past it."""

    def slow_node0_read(self, home):
        """Put at *home*, stall node0 (probed first) behind a 20 ms backlog
        at 10 ms per op, and read from node1: (cluster, payload, read
        latency ns)."""
        cl = make_cluster(3)
        target = cl.new_object_id()
        cl.client(home).put_bytes(target, b"payload-at-" + home.encode())
        model = cl.node("node0").server.overload
        model.set_service_rate(100.0)
        model.add_backlog(20 * MS)
        start_ns = cl.clock.now_ns
        payload = cl.client("node1").get_bytes(target)
        return cl, payload, cl.clock.now_ns - start_ns

    def test_slow_first_holder_exact_payload(self):
        """node0 is slow and holds nothing: the sweep waits for its
        answer, then node2 claims the id — the exact payload, no hedge,
        and the slow peer is never marked unreachable."""
        cl, payload, latency_ns = self.slow_node0_read("node2")
        assert payload == b"payload-at-node2"
        counters = cl.store("node1").counters
        assert counters.lookup_hedges_fired == 0
        assert counters.peers_unavailable == 0
        # The Lookup at node0 was admitted and waited out its backlog.
        assert cl.node("node0").server.overload.counters.admitted >= 1
        assert latency_ns >= 20 * MS

    def test_slow_sole_holder_is_still_read(self):
        """The slow peer is the only holder: the read still succeeds
        (availability), without marking it unreachable."""
        cl, payload, latency_ns = self.slow_node0_read("node0")
        assert payload == b"payload-at-node0"
        counters = cl.store("node1").counters
        assert counters.lookup_hedges_fired == 0
        assert counters.peers_unavailable == 0
        assert latency_ns >= 20 * MS

    def test_slow_holder_run_replays_identical(self):
        """The whole slow-holder read schedule is deterministic: same seed,
        same counters, same final clock."""

        def run():
            cl, payload, _ = self.slow_node0_read("node2")
            return (
                bytes(payload),
                sorted(cl.store("node1").counters.snapshot().items()),
                sorted(
                    cl.node("node0").server.overload.counters.snapshot().items()
                ),
                cl.clock.now_ns,
            )

        assert run() == run()
