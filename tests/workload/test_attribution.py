"""Critical-path latency attribution through the workload runner.

The property under test is exactness: for every executed op, the
component buckets (queue, service, fabric, retry, hedge, client) sum to
the op's observed latency to the nanosecond, and the aggregated
``latency_attribution`` tables inherit that equality. Also pins the
BENCH byte-compatibility contract: artifacts without tracing are
unchanged, artifacts with tracing gain only the new section.
"""

from __future__ import annotations

import pytest

from repro.obs.spans import LEGACY_COMPONENTS
from repro.workload import Scenario, run_scenario
from repro.workload.report import build_workload_payload, dumps_bench
from repro.workload.scenario import TracingSpec

from tests.workload.conftest import mini_obj


def traced_obj(**overrides) -> dict:
    obj = mini_obj(**overrides)
    obj["tracing"] = {"enabled": True, "sample_rate": 1.0}
    return obj


@pytest.fixture()
def traced_scenario() -> Scenario:
    return Scenario.from_obj(traced_obj())


class TestExactness:
    def test_every_op_sums_to_observed_latency(self, traced_scenario):
        result, payload = run_scenario(traced_scenario)
        assert result.tracing_enabled
        assert result.attribution_exact
        assert payload["latency_attribution"]["exact"] is True

    def test_aggregate_tables_inherit_the_equality(self, traced_scenario):
        _, payload = run_scenario(traced_scenario)
        attribution = payload["latency_attribution"]
        for table in (attribution["by_kind"], attribution["by_tenant"]):
            assert table, "traced run produced an empty attribution table"
            for slot in table.values():
                # mini has no tiering block, so the report emits exactly
                # the pre-tier bucket set (the byte-compat contract).
                assert set(slot["components_ns"]) == set(LEGACY_COMPONENTS)
                assert (
                    sum(slot["components_ns"].values()) == slot["observed_ns"]
                )

    def test_kind_and_tenant_tables_agree_on_totals(self, traced_scenario):
        _, payload = run_scenario(traced_scenario)
        attribution = payload["latency_attribution"]
        by_kind = attribution["by_kind"]
        by_tenant = attribution["by_tenant"]
        assert sum(s["observed_ns"] for s in by_kind.values()) == sum(
            s["observed_ns"] for s in by_tenant.values()
        )
        assert sum(s["ops"] for s in by_kind.values()) == sum(
            s["ops"] for s in by_tenant.values()
        )

    def test_sampling_stats_account_for_every_root(self, traced_scenario):
        result, payload = run_scenario(traced_scenario)
        sampling = payload["latency_attribution"]["sampling"]
        assert sampling["roots"] > 0
        assert (
            sampling["kept_head"] + sampling["kept_tail"] + sampling["discarded"]
            == sampling["roots"]
        )

    def test_head_sampling_gates_retention_not_attribution(self):
        sampled = Scenario.from_obj(traced_obj())
        unsampled_obj = traced_obj()
        unsampled_obj["tracing"]["sample_rate"] = 0.0
        unsampled = Scenario.from_obj(unsampled_obj)
        _, full = run_scenario(sampled)
        _, none = run_scenario(unsampled)
        # Attribution is computed per executed op, before the keep/drop
        # decision — so the tables are identical at any sample rate.
        assert (
            full["latency_attribution"]["by_kind"]
            == none["latency_attribution"]["by_kind"]
        )
        assert (
            none["latency_attribution"]["sampling"]["kept_head"] == 0
        )


class TestByteCompatibility:
    def test_untraced_artifact_has_no_attribution_section(self, mini_scenario):
        result, payload = run_scenario(mini_scenario)
        assert not result.tracing_enabled
        assert "latency_attribution" not in payload

    def test_tracing_changes_nothing_but_the_new_section(self, mini_scenario):
        _, plain = run_scenario(mini_scenario)
        _, traced = run_scenario(Scenario.from_obj(traced_obj()))
        section = traced.pop("latency_attribution")
        assert section is not None
        assert dumps_bench(traced) == dumps_bench(plain)

    def test_disabled_tracing_block_matches_absent_block(self):
        disabled_obj = mini_obj()
        disabled_obj["tracing"] = {"enabled": False}
        _, disabled = run_scenario(Scenario.from_obj(disabled_obj))
        _, absent = run_scenario(Scenario.from_obj(mini_obj()))
        assert dumps_bench(disabled) == dumps_bench(absent)

    def test_traced_artifact_is_deterministic(self, traced_scenario):
        first = dumps_bench(run_scenario(traced_scenario)[1])
        second = dumps_bench(run_scenario(traced_scenario)[1])
        assert first == second


class TestResultSurface:
    def test_result_exposes_the_span_sink(self, traced_scenario):
        result, _ = run_scenario(traced_scenario)
        assert result.spans is not None
        traces = result.spans.traces()
        assert traces
        for trace in traces:
            # The runner folds an op's pre-dispatch backlog wait into the
            # queue bucket after the span closes, so the components cover
            # at least the span's own duration; the exact equality (against
            # issue-to-completion latency) is asserted per-op by the runner
            # itself and surfaced as ``attribution_exact``.
            assert (
                sum(trace["components_ns"].values()) >= trace["duration_ns"]
            )

    def test_payload_roundtrips_through_builder(self, traced_scenario):
        result, payload = run_scenario(traced_scenario)
        assert build_workload_payload(result) == payload


class TestTracingSpec:
    def test_defaults(self):
        spec = TracingSpec()
        assert spec.enabled and spec.sample_rate == 1.0

    def test_roundtrip(self):
        block = {"enabled": True, "sample_rate": 0.25, "tail_percentile": 0.9,
                 "flight_capacity": 64}
        spec = Scenario.from_obj({"name": "t", "tracing": block}).tracing
        assert spec == TracingSpec(**block)
