"""Async event-loop RPC core vs the unary baseline (zipfian-async anchor).

The same zipfian read-heavy mix, the same 1000 ops/s open-loop arrivals,
the same seed — once through the classic serial unary path and once
through the event-loop task plane (pipelined concurrent ops, coalesced
per-peer lookups, scans as one batched multi-get). The sync path is
serially bound by per-op round trips, so it saturates well below the
offered rate; the async path overlaps transport waits and must sustain
nearly all of it. Both runs are pure functions of
(scenario, seed): the async artifact must reproduce byte for byte.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.workload.report import dumps_bench
from repro.workload.runner import run_scenario
from repro.workload.scenario import load_scenario

SCENARIO = Path(__file__).parent / "scenarios" / "zipfian-async.json"


@pytest.fixture(scope="module")
def async_runs():
    scenario = load_scenario(SCENARIO)
    return run_scenario(scenario), run_scenario(scenario)


@pytest.fixture(scope="module")
def sync_payload():
    scenario = load_scenario(SCENARIO)
    scenario = dataclasses.replace(
        scenario, rpc=dataclasses.replace(scenario.rpc, mode="sync")
    )
    return run_scenario(scenario)[1]


def test_async_sustains_offered_rate_sync_saturates(async_runs, sync_payload):
    """What the anchor protects: the event-loop path keeps up with the
    offered load, the serial unary path cannot. Measured on this scenario
    and seed: async 0.957, sync 0.613 of the offered 1000 ops/s. Async is
    capped by the offered rate, so a ratio of the two drifts with every
    sync-path gain while these two bounds do not."""
    (_, async_payload), _ = async_runs
    offered = load_scenario(SCENARIO).traffic.arrival.base_rate_ops_per_s
    async_rate = async_payload["sim"]["ops_per_s"]
    sync_rate = sync_payload["sim"]["ops_per_s"]
    print(
        f"\nzipfian-async (offered {offered:.0f} ops/s): sync {sync_rate:.1f}, "
        f"async {async_rate:.1f} ops/s"
    )
    assert async_rate >= 0.9 * offered
    assert 0 < sync_rate <= 0.75 * offered


def test_async_run_twice_byte_identical(async_runs):
    (_, first), (_, second) = async_runs
    assert dumps_bench(first) == dumps_bench(second)


def test_async_pipelines_and_batches(async_runs):
    (result, payload), _ = async_runs
    counters = payload["rpc"]["counters"]
    # Concurrency actually happened: more than one request in flight to a
    # single peer, and id-list calls shared wire messages.
    assert counters["in_flight_peak"] >= 2
    assert counters["batches_sent"] >= 1
    assert counters["batched_ids"] >= counters["batched_requests"]
    assert counters["tasks_completed"] == counters["tasks_started"]
    assert result.rpc_mode == "async"


def test_async_attribution_sums_exactly(async_runs):
    (_, payload), _ = async_runs
    attribution = payload["rpc"]["attribution"]
    assert attribution["exact"] is True
    for table in (attribution["by_kind"], attribution["by_tenant"]):
        for slot in table.values():
            assert sum(slot["components_ns"].values()) == slot["observed_ns"]


def test_sync_mode_artifact_has_no_async_counters(sync_payload):
    counters = sync_payload["rpc"]["counters"]
    assert counters["tasks_started"] == 0
    assert counters["batches_sent"] == 0
