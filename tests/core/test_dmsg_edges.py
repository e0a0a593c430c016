"""DmsgChannel edge behaviour not covered by the happy-path suite."""

from dataclasses import replace

import pytest

from repro.common.config import testing_config as make_testing_config
from repro.common.errors import RpcError
from repro.common.units import MiB
from repro.core import Cluster


@pytest.fixture
def dmsg_cluster():
    return Cluster(
        replace(
            make_testing_config(capacity_bytes=16 * MiB, seed=55), sharing="dmsg"
        ).with_store(check_remote_uniqueness=False),
    )


def test_closed_channel_rejects_calls(dmsg_cluster):
    channel = dmsg_cluster.node("node1").channels["node0"]
    channel.close()
    with pytest.raises(RpcError, match="closed"):
        channel.unary_call("plasma.StoreService", "Stats", {})


def test_counters_track_ring_traffic(dmsg_cluster):
    channel = dmsg_cluster.node("node1").channels["node0"]
    channel.unary_call("plasma.StoreService", "Stats", {})
    assert channel.counters.get("calls") == 1
    assert channel.counters.get("bytes_sent") > 0
    assert channel.counters.get("bytes_received") > 0


def test_failed_call_counted(dmsg_cluster):
    from repro.common.errors import RpcStatusError

    channel = dmsg_cluster.node("node1").channels["node0"]
    with pytest.raises(RpcStatusError):
        channel.unary_call("plasma.StoreService", "Lookup", {"object_ids": []})
    assert channel.counters.get("calls_failed") == 1


def test_stub_calls_share_the_channel_signature(dmsg_cluster):
    """The stub forwards ``deadline_ns`` to every transport; the rings carry
    no deadline header, so a dmsg call that asks for one is refused typed."""
    from repro.common.errors import RpcStatusError
    from repro.rpc.status import StatusCode

    channel = dmsg_cluster.node("node1").channels["node0"]
    stub = channel.stub("plasma.StoreService")
    assert isinstance(stub.Stats({}), dict)
    assert channel.counters.get("calls") == 1
    with pytest.raises(RpcStatusError) as excinfo:
        stub.Stats({}, deadline_ns=5_000_000.0)
    assert excinfo.value.code is StatusCode.UNIMPLEMENTED
    assert channel.counters.get("calls") == 1  # refused before the rings


def test_poll_delay_charged_twice_per_call(dmsg_cluster):
    """Request leg + response leg each wait ~poll_interval/2 on average."""
    channel = dmsg_cluster.node("node1").channels["node0"]
    clock = dmsg_cluster.clock
    costs = []
    for _ in range(50):
        t0 = clock.now_ns
        channel.unary_call("plasma.StoreService", "Stats", {})
        costs.append(clock.now_ns - t0)
    mean_us = sum(costs) / len(costs) / 1e3
    poll_us = dmsg_cluster.config.dmsg.poll_interval_ns / 1e3
    # Two half-interval waits plus ring/fabric costs: same order as one
    # full poll interval, three orders below the gRPC round trip.
    assert poll_us * 0.5 < mean_us < poll_us * 10
    assert mean_us < 100  # << 2300 us


def test_large_metadata_fits_rings(dmsg_cluster):
    """A batched Lookup for many ids must fit the default 1 MiB rings."""
    p = dmsg_cluster.client("node0")
    ids = dmsg_cluster.new_object_ids(500)
    for oid in ids:
        p.put_bytes(oid, b"x")
    c = dmsg_cluster.client("node1")
    bufs = c.get(ids)
    assert len(bufs) == 500
    for oid in ids:
        c.release(oid)
