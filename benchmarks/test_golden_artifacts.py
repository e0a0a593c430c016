"""Every standing scenario must reproduce its committed golden artifact.

``benchmarks/golden/`` holds the canonical BENCH payload for each standing
scenario — the byte-level perf trajectory. A run is a pure function of
(scenario, seed), so any diff here is either an intentional perf change
(update the golden in the same commit, explain why) or a determinism
regression (fix it). In particular this pins the sync-path artifacts
across async-RPC-core changes: a scenario whose ops run inline (no
``rpc.mode: "async"``) must stay byte-identical to the unary baseline.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.workload.report import bench_artifact_name, dumps_bench
from repro.workload.runner import run_scenario
from repro.workload.scenario import load_scenario

SCENARIOS = Path(__file__).parent / "scenarios"
GOLDEN = Path(__file__).parent / "golden"

STANDING = (
    "uniform-smoke",
    "zipfian-read-heavy",
    "hotspot-multi-tenant",
    "diurnal-churn",
    "overload-burst",
    "zipfian-tiered",
    "zipfian-async",
)


def test_every_standing_scenario_has_a_golden():
    for name in STANDING:
        assert (GOLDEN / bench_artifact_name(name)).is_file(), name


@pytest.mark.parametrize("name", STANDING)
def test_artifact_matches_golden(name):
    scenario = load_scenario(SCENARIOS / f"{name}.json")
    _, payload = run_scenario(scenario)
    golden = (GOLDEN / bench_artifact_name(name)).read_text(encoding="utf-8")
    assert dumps_bench(payload) == golden
