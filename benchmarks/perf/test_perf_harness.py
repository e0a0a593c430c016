"""Quick-mode checks of the PERF harness (outside the tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_harness.py -q

Each workload runs both passes at ``--quick`` scale (<= 500 ops) in a
subprocess, exactly as the benchmark driver invokes ``run.py``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(workload, trace) -> (result object from the last stdout line, PERF section)."""
    out = tmp_path_factory.mktemp("perf")
    results = {}
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", "7", "--seconds", "1", "--trace", str(trace),
                    "--quick", "--out", str(out),
                ],
                capture_output=True, text=True, timeout=170, check=False,
            )
            assert done.returncode == 0, done.stdout + done.stderr
            report = json.loads((out / f"PERF_{workload}.json").read_text("utf-8"))
            results[workload, trace] = (
                json.loads(done.stdout.splitlines()[-1]),
                report[section],
            )
    return results


def test_names_are_plain():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(runs, workload, trace, section):
    result, _ = runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_sum_to_the_traced_total(runs, workload):
    result, detail = runs[workload, 1]
    assert detail["self_us_sum"] == pytest.approx(detail["traced_total_us"], rel=0.01)
    per_op = sum(
        m["value"] for n, m in result["metrics"].items() if n.endswith(".self_us_per_op")
    )
    assert per_op > 0


def test_sync_workload_never_enters_the_event_loop(runs):
    assert runs["small-sync", 1][0]["metrics"]["rpc.aio.calls_per_op"]["value"] == 0
    assert runs["small-async", 1][0]["metrics"]["rpc.aio.calls_per_op"]["value"] > 0


def test_only_write_churn_evicts(runs):
    for workload in WORKLOADS:
        evictions = runs[workload, 1][0]["metrics"]["plasma.store.evictions_per_write"]
        assert (evictions["value"] > 0) == (workload == "write-churn"), workload
