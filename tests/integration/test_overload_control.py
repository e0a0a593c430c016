"""End-to-end overload control: deadline propagation across forwarded
hops, expired-work shedding, and hedged reads — all on the sim clock."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.config import testing_config as _testing_config
from repro.common.errors import ObjectUnavailableError
from repro.common.units import MiB
from repro.core import Cluster

MS = 1_000_000


def make_cluster(n_nodes=3, *, rpc_overrides=None):
    config = _testing_config(capacity_bytes=32 * MiB, seed=99)
    rpc = replace(config.rpc, jitter_sigma=0.0, **(rpc_overrides or {}))
    config = replace(config, rpc=rpc)
    return Cluster(config, n_nodes=n_nodes, check_remote_uniqueness=False)


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
        assert cl.store("node0").forward_put(oid, b"x" * 1024, b"", "node1")
        deadlines = dict(
            (m, d) for m, d in seen if m in ("PlacedCreate", "PlacedSeal")
        )
        assert set(deadlines) == {"PlacedCreate", "PlacedSeal"}
        assert deadlines["PlacedCreate"] is not None
        assert deadlines["PlacedSeal"] is not None
        # The first hop and the fabric write spent real sim time, so the
        # seal hop arrived with strictly less budget.
        assert 0 < deadlines["PlacedSeal"] < deadlines["PlacedCreate"]

    def test_no_default_deadline_means_no_propagation(self):
        cl = make_cluster(2)
        seen = []
        spy_deadlines(cl.node("node1").server, seen)
        oid = cl.new_object_id()
        assert cl.store("node0").forward_put(oid, b"y" * 64, b"", "node1")
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
        assert model.counters.get("shed_expired") >= 1
        assert cl.store("node1").counters.get("lookups_shed") >= 1
        # Drain the backlog: the same read now clears admission.
        cl.clock.advance(60 * MS)
        assert reader.get_bytes(oid) == b"stale-by-arrival"


def warm_hedge_samples(cl, reader_node, holder_node, n=3):
    """Seed the reader->holder channel's latency estimator with healthy
    round trips so hedge_delay_ns() has enough samples."""
    producer = cl.client(holder_node)
    reader = cl.client(reader_node)
    for i in range(n):
        oid = cl.new_object_id()
        producer.put_bytes(oid, b"warm%d" % i)
        assert reader.get_bytes(oid) == b"warm%d" % i


class TestHedgedReads:
    def make(self):
        return make_cluster(
            3, rpc_overrides={"hedge_quantile": 0.95, "hedge_min_samples": 3}
        )

    def test_hedge_wins_against_a_slow_holder(self):
        """The first probed peer is slow (sheds under the hedge clamp);
        the sweep hedges to the next holder, which answers — a hedge win,
        and the slow peer is never marked unreachable."""
        cl = self.make()
        warm_hedge_samples(cl, "node1", "node0")
        target = cl.new_object_id()
        cl.client("node2").put_bytes(target, b"hedged-payload")
        # node0 (probed first, non-final) now takes 10 ms per op — far
        # beyond the microsecond-scale hedge clamp learned while healthy.
        cl.node("node0").server.overload.set_service_rate(100.0)
        reader = cl.client("node1")
        assert reader.get_bytes(target) == b"hedged-payload"
        counters = cl.store("node1").counters
        assert counters.get("lookup_hedges_fired") >= 1
        assert counters.get("lookup_hedge_wins") >= 1
        assert counters.get("lookup_hedge_losses") == 0

    def test_hedge_loses_and_retries_with_full_deadline(self):
        """The hedged peer was the only holder: the clamped probe fails,
        every other peer comes up empty, and the sweep retries the slow
        peer with the full deadline — availability is preserved."""
        cl = self.make()
        warm_hedge_samples(cl, "node1", "node0")
        target = cl.new_object_id()
        cl.client("node0").put_bytes(target, b"only-copy")
        cl.node("node0").server.overload.set_service_rate(100.0)
        reader = cl.client("node1")
        assert reader.get_bytes(target) == b"only-copy"
        counters = cl.store("node1").counters
        assert counters.get("lookup_hedges_fired") >= 1
        assert counters.get("lookup_hedge_losses") >= 1
        assert counters.get("lookup_hedge_wins") == 0

    def test_hedged_run_replays_byte_identical(self):
        """The whole hedged-read schedule is deterministic: same seed,
        same counters, same final clock."""

        def run():
            cl = self.make()
            warm_hedge_samples(cl, "node1", "node0")
            target = cl.new_object_id()
            cl.client("node2").put_bytes(target, b"replay")
            cl.node("node0").server.overload.set_service_rate(100.0)
            payload = cl.client("node1").get_bytes(target)
            return (
                bytes(payload),
                sorted(cl.store("node1").counters.snapshot().items()),
                sorted(
                    cl.node("node0").server.overload.counters.snapshot().items()
                ),
                cl.clock.now_ns,
            )

        assert run() == run()
