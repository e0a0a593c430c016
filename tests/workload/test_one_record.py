"""Every latency and attribution table in a BENCH artifact folds the same
measured ops: the run records each op once, in its (kind, tenant) cell."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.workload.runner import run_scenario
from repro.workload.scenario import load_scenario

SCENARIOS = Path(__file__).parents[2] / "benchmarks" / "scenarios"


def _attribution(payload: dict) -> dict | None:
    if "latency_attribution" in payload:
        return payload["latency_attribution"]
    return payload.get("rpc", {}).get("attribution")


@pytest.mark.parametrize(
    "name,cells,attributed",
    [
        ("zipfian-read-heavy", 8, True),  # sync, span-traced
        ("zipfian-async", 8, True),  # async, task attribution
        ("hotspot-multi-tenant", 12, False),
        ("overload-burst", 4, False),  # sheds expired ops at the ingress
    ],
)
def test_every_table_folds_the_same_ops(name, cells, attributed):
    result, payload = run_scenario(load_scenario(SCENARIOS / f"{name}.json"))
    assert len(result.cells) == cells
    latency = payload["latency_ns"]
    count = latency["overall"]["count"]
    assert count == sum(block["count"] for block in latency["by_kind"].values())
    assert count == sum(
        tenant["latency_ns"]["count"] for tenant in payload["tenants"].values()
    )
    # Rejected and ingress-shed ops never reach the cluster or get timed;
    # every other outcome is one measured op.
    outcomes = payload["outcomes"]
    unmeasured = sum(
        n for outcome, n in outcomes.items()
        if outcome.startswith(("rejected:", "shed:"))
    )
    assert count == sum(outcomes.values()) - unmeasured
    # Only measured ops reached the cluster, so only they are executed.
    assert count == payload["sim"]["ops_executed"]

    attribution = _attribution(payload)
    assert (attribution is not None) == attributed
    if attribution is None:
        return
    assert attribution["exact"] is True
    observed = sum(sum(cell.latency.samples) for cell in result.cells.values())
    for table in ("by_kind", "by_tenant"):
        rows = attribution[table].values()
        assert sum(row["ops"] for row in rows) == count
        assert sum(row["observed_ns"] for row in rows) == observed
