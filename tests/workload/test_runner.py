"""ScenarioRunner: real-cluster execution, BENCH payload, determinism."""

import pytest

from repro.workload import Scenario, run_scenario, runner
from repro.workload.report import bench_artifact_name, dumps_bench
from repro.workload.runner import payload_for

from tests.workload.conftest import mini_obj


@pytest.fixture(scope="module")
def mini_run():
    scenario = Scenario.from_obj(mini_obj())
    return run_scenario(scenario)


class TestRun:
    def test_ops_execute_against_the_cluster(self, mini_run):
        result, payload = mini_run
        assert result.executed_ops > 0
        assert result.duration_ns > 0
        assert result.bytes_read > 0
        assert payload["sim"]["ops_per_s"] > 0

    def test_latency_includes_queueing(self, mini_run):
        result, _ = mini_run
        dist = result.latency_overall
        assert dist.count == result.executed_ops
        assert dist.quantile(0.99) >= dist.quantile(0.5) > 0

    def test_per_tenant_accounting(self, mini_run):
        _, payload = mini_run
        assert set(payload["tenants"]) == {"alpha", "beta"}
        for block in payload["tenants"].values():
            assert block["admitted"] + block["rejected"] > 0
        # beta has a tight ops quota (40 ops/s, burst 2) against a 500/s
        # offered rate: it must see rejections, and alpha must not.
        assert payload["tenants"]["beta"]["rejected"] > 0
        assert payload["tenants"]["alpha"]["rejected"] == 0
        reasons = payload["tenants"]["beta"]["rejected_by_reason"]
        assert reasons.get("ops_rate", 0) > 0

    def test_per_tenant_latency_from_obs_plane(self, mini_run):
        _, payload = mini_run
        block = payload["tenants"]["alpha"]["latency_ns"]
        assert block["count"] > 0
        assert block["p50_ns"] <= block["p95_ns"] <= block["p99_ns"]

    def test_payload_names_artifact(self, mini_run):
        _, payload = mini_run
        assert payload["artifact"] == bench_artifact_name("mini")
        assert payload["scenario"] == "mini"
        assert payload["schema_version"] == 1

    def test_outcome_totals_match(self, mini_run):
        result, payload = mini_run
        rejected = sum(
            n for key, n in payload["outcomes"].items()
            if key.startswith("rejected:")
        )
        assert result.executed_ops + rejected == result.generated_ops


class TestDeterminism:
    def test_run_twice_byte_identical(self):
        scenario = Scenario.from_obj(mini_obj())
        _, a = run_scenario(scenario)
        _, b = run_scenario(scenario)
        assert dumps_bench(a) == dumps_bench(b)

    def test_seed_changes_the_artifact(self):
        scenario = Scenario.from_obj(mini_obj())
        _, a = run_scenario(scenario, 1)
        _, b = run_scenario(scenario, 2)
        assert a["seed"] == 1 and b["seed"] == 2
        assert dumps_bench(a) != dumps_bench(b)


class TestClosedLoop:
    def test_closed_loop_runs_and_self_limits(self):
        obj = mini_obj(name="mini-closed")
        obj["traffic"]["arrival"] = {
            "mode": "closed", "clients": 2, "think_time_us": 500,
        }
        del obj["tenants"][1]["quota"]  # rate quotas are arrival-dependent
        _, payload = run_scenario(Scenario.from_obj(obj))
        assert payload["sim"]["ops_executed"] == payload["sim"]["ops_generated"]
        assert payload["sim"]["ops_per_s"] > 0


class TestPayloadHelper:
    def test_payload_for_is_deterministic_fill(self):
        assert payload_for(3, 5, 8) == payload_for(3, 5, 8)
        assert len(payload_for(0, 1, 100)) == 100
        assert payload_for(1, 1, 4) != payload_for(2, 1, 4)


class TestPayloadSpotCheck:
    """Reads consume zero-copy views and only need their length, so the
    runner checks the first and last byte: bytes from the wrong place must
    fail the op, not pass on ``len()``."""

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_wrong_bytes_fail_reads_and_scans(self, monkeypatch, mode):
        def torn(slot, version, size):
            return payload_for(slot, version, size)[:-1] + b"\xff"  # never a fill

        monkeypatch.setattr(runner, "payload_for", torn)
        obj = mini_obj(rpc={"mode": mode})
        result, payload = run_scenario(Scenario.from_obj(obj))
        # Every read and scan that found an object failed typed; none
        # passed on its length.
        assert payload["outcomes"]["error:ObjectCorruptedError"] > 0
        assert result.bytes_read == 0

    def test_clean_run_has_no_corruption(self, mini_run):
        _, payload = mini_run
        assert not any(k.startswith("error:") for k in payload["outcomes"])

