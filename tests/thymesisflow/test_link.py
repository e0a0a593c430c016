"""OpenCapiLink cost regimes: streaming vs single access."""

import pytest

from repro.common.clock import SimClock
from repro.common.config import FabricLinkConfig
from repro.common.rng import DeterministicRng
from repro.common.units import GiB, MiB, gib_per_s
from repro.thymesisflow.link import OpenCapiLink


def make(sigma=0.0, **kwargs):
    cfg = FabricLinkConfig(jitter_sigma=sigma, **kwargs)
    clock = SimClock()
    return clock, OpenCapiLink("a", "b", clock, cfg, DeterministicRng(11))


class TestStreaming:
    def test_bulk_read_approaches_paper_bandwidth(self):
        clock, link = make()
        cost = link.charge_stream_read(256 * MiB)
        assert gib_per_s(256 * MiB, cost) == pytest.approx(5.75, rel=0.01)
        assert clock.now_ns == round(cost)

    def test_write_bandwidth_slower_than_read(self):
        _, link = make()
        read = link.charge_stream_read(64 * MiB)
        write = link.charge_stream_write(64 * MiB)
        assert write > read

    def test_burst_splitting_accumulates(self):
        cfg = FabricLinkConfig(jitter_sigma=0.0)
        _, link = make()
        one = link.charge_stream_read(cfg.max_burst_bytes)
        many = link.charge_stream_read(4 * cfg.max_burst_bytes)
        assert many == pytest.approx(4 * one, rel=0.01)

    def test_counters(self):
        _, link = make()
        link.charge_stream_read(1000)
        link.charge_stream_write(500)
        link.charge_single_access()
        assert link.counters.read_bytes == 1000
        assert link.counters.write_bytes == 500
        assert link.counters.single_accesses == 1


class TestSingleAccess:
    def test_single_access_pays_full_latency(self):
        _, link = make()
        cost = link.charge_single_access()
        assert cost == pytest.approx(FabricLinkConfig().added_latency_ns)

    def test_single_access_dwarfs_tiny_stream(self):
        """The unpipelined path is much more expensive per access than a
        pipelined small read — the reason bulk reads pipeline."""
        _, link = make()
        stream = link.charge_stream_read(64)
        single = link.charge_single_access()
        assert single > 10 * stream


class TestStructure:
    def test_connects(self):
        _, link = make()
        assert link.connects("a", "b") and link.connects("b", "a")
        assert not link.connects("a", "c")

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            OpenCapiLink(
                "a", "a", SimClock(), FabricLinkConfig(), DeterministicRng(1)
            )

    def test_endpoints_set(self):
        _, link = make()
        assert link.endpoints == frozenset({"a", "b"})
