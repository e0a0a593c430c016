"""ThymesisEndpoint: timed local access and exposed-region service."""

import pytest

from repro.common.clock import SimClock
from repro.common.config import LocalMemoryConfig
from repro.common.errors import FabricError
from repro.common.rng import DeterministicRng
from repro.common.units import MiB, gib_per_s
from repro.memory.host import HostMemory
from repro.thymesisflow.endpoint import ThymesisEndpoint


def make(capacity=8 * MiB, **cfg_kwargs):
    cfg = LocalMemoryConfig(jitter_sigma=0.0, **cfg_kwargs)
    clock = SimClock()
    mem = HostMemory(capacity, node="n0")
    return clock, ThymesisEndpoint("n0", mem, clock, cfg, DeterministicRng(3))


class TestTimedLocalAccess:
    def test_cold_read_hits_paper_bandwidth(self):
        clock, ep = make()
        cost = ep.local_read(0, 4 * MiB)
        assert gib_per_s(4 * MiB, cost) == pytest.approx(6.5, rel=0.02)
        assert clock.now_ns == round(cost)

    def test_warm_read_is_faster(self):
        _, ep = make()
        cold = ep.local_read(0, 1 * MiB)
        warm = ep.local_read(0, 1 * MiB)
        assert warm < cold

    def test_read_view_returns_observed_bytes(self):
        _, ep = make()
        ep.local_write(100, b"payload")
        out = ep.local_read_view(100, 7)
        assert bytes(out) == b"payload"
        assert out.readonly

    def test_write_roundtrip(self):
        _, ep = make()
        ep.local_write(0, b"abc")
        assert bytes(ep.local_view(0, 3)) == b"abc"

    def test_charge_local_write_times_without_copy(self):
        clock, ep = make()
        ep.local_write(0, b"keep")
        before = clock.now_ns
        cost = ep.charge_local_write(0, 4)
        assert clock.now_ns - before == round(cost)
        assert bytes(ep.local_view(0, 4)) == b"keep"  # DRAM untouched

    def test_counters(self):
        _, ep = make()
        ep.local_read(0, 100)
        ep.local_write(0, b"x" * 50)
        assert ep.counters.get("local_read_bytes") == 100
        assert ep.counters.get("local_write_bytes") == 50


class TestExposedRegion:
    def test_expose_once(self):
        _, ep = make()
        region = ep.expose(0, 4 * MiB)
        assert region.size == 4 * MiB
        with pytest.raises(FabricError):
            ep.expose(0, MiB)

    def test_exposed_property_requires_expose(self):
        _, ep = make()
        assert not ep.has_exposed
        with pytest.raises(FabricError):
            _ = ep.exposed

    def test_serve_remote_read_is_coherent_view(self):
        _, ep = make()
        ep.expose(MiB, 2 * MiB)
        ep.local_write(MiB + 10, b"shared")
        served = ep.serve_remote_read(10, 6)  # offsets are region-relative
        assert bytes(served) == b"shared"

    def test_serve_remote_write_creates_staleness(self):
        _, ep = make()
        ep.expose(0, MiB)
        ep.local_write(0, b"AAAA")
        stale = ep.serve_remote_write(0, b"BBBB")
        assert stale == 4
        out = ep.local_read_view(0, 4)
        assert bytes(out) == b"AAAA"  # Fig 3b: home CPU sees old value
        assert ep.counters.get("stale_bytes_created") == 4

    def test_invalidate_exposed_restores_visibility(self):
        _, ep = make()
        ep.expose(0, MiB)
        ep.local_write(0, b"AAAA")
        ep.serve_remote_write(0, b"BBBB")
        ep.invalidate_exposed(0, 4)
        out = ep.local_read_view(0, 4)
        assert bytes(out) == b"BBBB"

    def test_serve_remote_write_bounds_checked(self):
        _, ep = make()
        ep.expose(0, 1024)
        with pytest.raises(FabricError):
            ep.serve_remote_write(1020, b"too-long")
