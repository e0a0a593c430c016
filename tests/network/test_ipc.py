"""IPC channel: the fitted Fig 6 local cost model."""

import pytest

from repro.common.clock import SimClock
from repro.common.config import IpcConfig
from repro.common.rng import DeterministicRng
from repro.network.ipc import IpcChannel


def make(jitter=0.0, **kwargs):
    cfg = IpcConfig(jitter_sigma=jitter, **kwargs)
    clock = SimClock()
    return clock, IpcChannel(clock, cfg, DeterministicRng(2))


class TestCostModel:
    def test_fixed_plus_per_object(self):
        clock, ipc = make()
        cost = ipc.charge_request(nobjects=100)
        cfg = ipc.config
        assert cost == pytest.approx(
            cfg.request_overhead_ns + 100 * cfg.per_object_ns
        )
        assert clock.now_ns == round(cost)

    def test_fig6_local_anchor_1000_objects(self):
        _, ipc = make()
        cost = ipc.charge_request(nobjects=1000)
        assert cost / 1e6 == pytest.approx(1.885, rel=0.03)

    def test_fig6_local_anchor_10_objects(self):
        _, ipc = make()
        cost = ipc.charge_request(nobjects=10)
        assert cost / 1e6 == pytest.approx(0.075, rel=0.05)

    def test_zero_object_request_costs_overhead(self):
        _, ipc = make()
        assert ipc.charge_request() == pytest.approx(
            ipc.config.request_overhead_ns
        )

    def test_negative_rejected(self):
        _, ipc = make()
        with pytest.raises(ValueError):
            ipc.charge_request(nobjects=-1)
        with pytest.raises(ValueError):
            ipc.charge_request(nbytes=-1)

    def test_counters(self):
        _, ipc = make()
        ipc.charge_request(nobjects=3)
        ipc.charge_request(nobjects=2)
        assert ipc.counters.requests == 2
        assert ipc.counters.objects_referenced == 5

    def test_jitter_spreads_costs(self):
        _, ipc = make(jitter=0.2)
        costs = {round(ipc.charge_request(nobjects=10)) for _ in range(50)}
        assert len(costs) > 40
