"""A runner write allocates no payload-sized buffer.

The runner's writers fill the new extent in place, and a replica pull
lands chunk by chunk in its destination extent, so one 4 MiB write must
never allocate anything near 4 MiB on the host. ``tracemalloc`` sees every
Python and NumPy allocation, which makes this an exact, timing-free check
that the copies stay gone.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.common.units import KiB, MiB
from repro.workload import Scenario, runner
from tests.workload.conftest import mini_obj

OBJECT_BYTES = 4 * MiB
PEAK_LIMIT = 64 * KiB


def write_peaks(monkeypatch, mode: str, replicas: int) -> list[tuple[int, int]]:
    """Run a write-only scenario of 4 MiB objects; return, per write op,
    ``(forwarded puts it made, peak bytes traced while it ran)``."""
    peaks: list[tuple[int, int]] = []

    def forwarded(sim) -> int:
        return sum(c.counters.puts_forwarded for c in sim._clients)

    def start(sim) -> tuple[int, int]:
        before = forwarded(sim)
        tracemalloc.reset_peak()
        return before, tracemalloc.get_traced_memory()[0]

    def finish(sim, started, outcome):
        assert outcome == "ok"
        before, base = started
        peak = tracemalloc.get_traced_memory()[1] - base
        peaks.append((forwarded(sim) - before, peak))
        return outcome

    def measured(sim, op, attr, blocking=False):
        started = start(sim)
        outcome = yield from do_write(sim, op, attr, blocking)
        return finish(sim, started, outcome)

    # The one write body, run inline (sync) or as a task (async).
    do_write = runner.ScenarioRunner._do_write
    monkeypatch.setattr(runner.ScenarioRunner, "_do_write", measured)
    obj = mini_obj(
        cluster={"nodes": 2, "capacity_mib": 64, "replicas": replicas},
        population={"objects": 4, "size": {"dist": "fixed", "bytes": OBJECT_BYTES}},
        traffic={
            "ops": 8,
            "mix": {"write": 100},
            "scan_length": 2,
            "popularity": {"model": "uniform"},
            "arrival": {"mode": "closed", "clients": 1, "think_time_us": 10},
        },
        tenants=[{"name": "alpha", "weight": 1}],
        rpc={"mode": mode},
    )
    tracemalloc.start()
    try:
        runner.run_scenario(Scenario.from_obj(obj))
    finally:
        tracemalloc.stop()
    assert peaks, "the scenario made no writes"
    return peaks


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_local_and_forwarded_creates_stay_small(monkeypatch, mode):
    peaks = write_peaks(monkeypatch, mode, replicas=1)
    kinds = {fwd for fwd, _ in peaks}
    assert kinds == {0, 1}, "need both a local and a forwarded create"
    assert max(peak for _, peak in peaks) < PEAK_LIMIT, peaks


def test_async_replica_pull_stays_small(monkeypatch):
    peaks = write_peaks(monkeypatch, "async", replicas=2)
    assert max(peak for _, peak in peaks) < PEAK_LIMIT, peaks
