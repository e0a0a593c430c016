"""ScenarioRunner: real-cluster execution, BENCH payload, determinism."""

import pytest

from repro.common.config import testing_config as make_config
from repro.common.errors import StaleDescriptorError
from repro.core import Cluster
from repro.plasma.buffer import PlasmaBuffer
from repro.workload import Scenario, run_scenario, runner
from repro.workload.report import bench_artifact_name, dumps_bench
from repro.workload.runner import _fill_byte, fill_writer

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
        result, payload = mini_run
        overall = payload["latency_ns"]["overall"]
        assert overall["count"] == result.executed_ops
        assert overall["p99_ns"] >= overall["p50_ns"] > 0

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
        unexecuted = sum(
            n for key, n in payload["outcomes"].items()
            if key.startswith(("rejected:", "shed:"))
        )
        assert result.executed_ops + unexecuted == result.generated_ops


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


def _filled(slot, version, size):
    out = bytearray(size)
    fill_writer(slot, version)(memoryview(out))
    return bytes(out)


class TestOneBodyPerOp:
    def test_sync_run_never_runs_the_event_loop(self):
        sim = runner.ScenarioRunner(Scenario.from_obj(mini_obj()))
        sim.run()
        assert not runner._runs_as_tasks(sim.scenario)
        assert sim.cluster.loop.events_run == 0

    def test_async_run_drives_every_op_on_the_loop(self):
        """The scenario's rpc.mode picks the driver: preload and ops run as
        loop tasks, and the loop is idle when the run returns."""
        sim = runner.ScenarioRunner(Scenario.from_obj(mini_obj(rpc={"mode": "async"})))
        result = sim.run()
        assert runner._runs_as_tasks(sim.scenario)
        assert result.rpc_mode == "async"
        assert sim.cluster.loop.events_run > 0
        assert sim.cluster.loop.pending() == 0

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_a_failed_scan_read_releases_every_reference(self, monkeypatch, mode):
        """Every third read of a scans-only run raises; each scan still
        gives back every reference its Get took, past the failed read."""
        read_view = PlasmaBuffer.read_view
        reads = []

        def every_third_read_fails(buffer):
            reads.append(buffer.object_id)
            if len(reads) % 3 == 2:
                raise StaleDescriptorError("injected: the home retired the extent")
            return read_view(buffer)

        monkeypatch.setattr(PlasmaBuffer, "read_view", every_third_read_fails)
        traffic = {**mini_obj()["traffic"], "mix": {"scan": 100}}
        sim = runner.ScenarioRunner(
            Scenario.from_obj(mini_obj(traffic=traffic, rpc={"mode": mode}))
        )
        result = sim.run()
        assert result.outcomes["error:StaleDescriptorError"] > 0
        assert [client.held_ids() for client in sim._clients] == [[], []]


class TestPayloadHelper:
    def test_fill_writer_is_deterministic_fill(self):
        assert _filled(3, 5, 8) == _filled(3, 5, 8)
        assert len(_filled(0, 1, 100)) == 100
        assert _filled(1, 1, 4) != _filled(2, 1, 4)
        # The bytes a put leaves at rest are the constant fill a payload
        # temporary used to carry, byte for byte.
        cluster = Cluster(make_config(), 2)
        oid = cluster.new_object_id()
        cluster.client("node0").put_into(oid, 4096, fill_writer(3, 5))
        store = cluster.store("node0")
        entry = store.table.lookup(oid)
        at_rest = store.region.view(entry.payload_offset, entry.data_size)
        assert bytes(at_rest) == bytes([_fill_byte(3, 5)]) * 4096


class TestPayloadSpotCheck:
    """Reads consume zero-copy views and only need their length, so the
    runner checks the first and last byte: bytes from the wrong place must
    fail the op, not pass on ``len()``."""

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_wrong_bytes_fail_reads_and_scans(self, monkeypatch, mode):
        def torn(slot, version):
            fill = fill_writer(slot, version)

            def write(view):
                fill(view)
                view[-1] = 0xFF  # never a fill

            return write

        monkeypatch.setattr(runner, "fill_writer", torn)
        obj = mini_obj(rpc={"mode": mode})
        result, payload = run_scenario(Scenario.from_obj(obj))
        # Every read and scan that found an object failed typed; none
        # passed on its length.
        assert payload["outcomes"]["error:ObjectCorruptedError"] > 0
        assert result.bytes_read == 0

    def test_clean_run_has_no_corruption(self, mini_run):
        _, payload = mini_run
        assert not any(k.startswith("error:") for k in payload["outcomes"])

