"""The span-tracing plane: attribution, sampling, flight rings, export.

The heart of the contract is the attribution invariant: every applied
clock advance while a root span is open lands in exactly one component
bucket, so the buckets sum to the root's observed duration to the
nanosecond — not approximately, by construction.
"""

import json

import pytest

from repro.common.clock import SimClock
from repro.common.rng import DeterministicRng
from repro.obs.spans import (
    BASE_COMPONENTS,
    COMPONENTS,
    FlightRecorder,
    SpanConfig,
    SpanSink,
)


def make_sink(**cfg) -> tuple[SimClock, SpanSink]:
    clock = SimClock()
    sink = SpanSink(
        clock, DeterministicRng(7).spawn("obs", "spans"), SpanConfig(**cfg)
    )
    return clock, sink


def build_reference_tree(sink: SpanSink, clock: SimClock) -> None:
    """One op with queueing, service, a fabric hop, and client residual."""
    with sink.span("op", "get", node="workload", tenant="t0"):
        with sink.span("rpc", "StoreService.Get", node="node0", rid=42):
            with sink.span("queue", "wait", node="node0"):
                clock.advance(1_000)
            with sink.span("rpc.server", "StoreService.Get", node="node0"):
                clock.advance(2_000)
        with sink.span("fabric", "stream_read", node="node0->node1", bytes=4096):
            clock.advance(500)
        clock.advance(250)


class TestAttribution:
    def test_components_sum_exactly_to_root_duration(self):
        clock, sink = make_sink()
        build_reference_tree(sink, clock)
        [trace] = sink.traces()
        assert trace["duration_ns"] == 3_750
        assert trace["components_ns"] == {
            "cache": 0,
            "client": 250,
            "fabric": 500,
            "hedge": 0,
            "queue": 1_000,
            "retry": 0,
            "service": 2_000,
        }
        assert sum(trace["components_ns"].values()) == trace["duration_ns"]

    def test_advance_outside_any_span_is_not_charged(self):
        clock, sink = make_sink()
        clock.advance(99_999)
        with sink.span("op", "noop", node="n"):
            clock.advance(10)
        [trace] = sink.traces()
        assert trace["duration_ns"] == 10
        assert sum(trace["components_ns"].values()) == 10

    def test_unmapped_root_category_falls_back_to_client(self):
        clock, sink = make_sink()
        with sink.span("op", "think", node="n"):
            clock.advance(123)
        [trace] = sink.traces()
        assert trace["components_ns"]["client"] == 123

    def test_component_override_beats_innermost_span(self):
        clock, sink = make_sink()
        with sink.span("op", "get", node="n"):
            with sink.span("rpc.server", "Svc.Get", node="n"):
                clock.advance(100)
                with sink.component("retry"):
                    clock.advance(40)
        [trace] = sink.traces()
        assert trace["components_ns"]["service"] == 100
        assert trace["components_ns"]["retry"] == 40

    def test_unknown_component_rejected(self):
        _, sink = make_sink()
        with pytest.raises(ValueError):
            sink.component("gc-pause")

    def test_add_component_folds_pre_span_wait(self):
        clock, sink = make_sink()
        with sink.span("op", "get", node="n") as root:
            clock.advance(10)
        root.add_component("queue", 990)
        [trace] = sink.traces()
        # The trace holds the components dict by reference, so the
        # post-close fold is visible in the export too.
        assert trace["components_ns"]["queue"] == 990
        assert sum(trace["components_ns"].values()) == 1_000

    def test_add_component_on_child_span_rejected(self):
        clock, sink = make_sink()
        with sink.span("op", "get", node="n"):
            with sink.span("rpc", "Svc.Get", node="n") as child:
                with pytest.raises(ValueError):
                    child.add_component("queue", 1)


class TestSampling:
    def test_head_rate_zero_discards_but_still_counts(self):
        # Descending durations: later ops are never "slowest so far", so
        # with head sampling off they must be discarded — yet every root
        # still lands in the counters and the attribution tables.
        clock, sink = make_sink(sample_rate=0.0, tail_percentile=0.99)
        for i in range(10):
            with sink.span("op", "get", node="n"):
                clock.advance(100 * (10 - i))
        stats = sink.sampling_stats()
        assert stats["roots"] == 10
        assert stats["kept_head"] == 0
        assert stats["discarded"] > 0
        assert stats["kept_head"] + stats["kept_tail"] + stats["discarded"] == 10

    def test_errors_are_tail_kept_despite_rate_zero(self):
        clock, sink = make_sink(sample_rate=0.0)
        with pytest.raises(RuntimeError):
            with sink.span("op", "get", node="n"):
                clock.advance(10)
                raise RuntimeError("boom")
        [trace] = sink.traces()
        assert trace["status"] == "error:RuntimeError"
        assert sink.sampling_stats()["kept_tail"] == 1

    def test_slowest_percentile_tail_kept(self):
        clock, sink = make_sink(sample_rate=0.0, tail_percentile=0.5)
        for i in range(10):
            with sink.span("op", "get", node="n"):
                clock.advance(100 * (10 - i))
        kept = sink.sampling_stats()["kept_tail"]
        assert 0 < kept < 10
        # The slowest op of the run is always among the retained traces.
        assert any(t["duration_ns"] == 1_000 for t in sink.traces())

    def test_max_traces_zero_overflows_to_counter(self):
        clock, sink = make_sink(max_traces=0)
        with sink.span("op", "get", node="n"):
            clock.advance(10)
        assert sink.traces() == []
        assert sink.sampling_stats()["traces_overflowed"] == 1
        # The flight ring still saw the spans — that's the crash-dump path.
        assert len(sink.flight_recorder("n")) == 1

    def test_disabled_sink_hands_out_inert_spans(self):
        clock, sink = make_sink()
        sink.enabled = False
        with sink.span("op", "get", node="n") as sp:
            clock.advance(10)
        assert not sp.span_id
        assert sink.traces() == []
        assert sink.sampling_stats()["roots"] == 0


class TestFlightRecorder:
    def test_ring_evicts_oldest_and_counts_drops(self):
        ring = FlightRecorder(capacity=3)
        for i in range(5):
            ring.record(i)
        assert ring.events() == [2, 3, 4]
        assert ring.dropped == 2
        assert len(ring) == 3

    def test_per_node_rings_and_dump_shape(self):
        clock, sink = make_sink(flight_capacity=2)
        build_reference_tree(sink, clock)
        dump = sink.flight_dump()
        assert dump["schema_version"] == 1
        assert set(dump["nodes"]) == {"workload", "node0", "node0->node1"}
        node0 = dump["nodes"]["node0"]
        assert node0["capacity"] == 2
        # node0 closed three spans into a capacity-2 ring: one dropped.
        assert node0["dropped"] == 1
        assert [s["name"] for s in node0["spans"]] == [
            "StoreService.Get", "StoreService.Get",
        ]

    def test_dump_is_deterministic(self):
        def run() -> str:
            clock, sink = make_sink(flight_capacity=4)
            build_reference_tree(sink, clock)
            return json.dumps(sink.flight_dump(), sort_keys=True)

        assert run() == run()


# Generated once from build_reference_tree on a fresh sink; the export is
# a pure function of the span tree and simulated timestamps, so these
# bytes are the contract.
GOLDEN_CHROME = (
    '{"displayTimeUnit": "ms", "traceEvents": [{"args": {"parent_id": '
    '"s00000002", "span_id": "s00000003", "trace_id": "t000001"}, "cat": '
    '"queue", "dur": 1.0, "name": "wait", "ph": "X", "pid": "node0", "tid": '
    '"queue", "ts": 0.0}, {"args": {"parent_id": "s00000002", "span_id": '
    '"s00000004", "trace_id": "t000001"}, "cat": "rpc.server", "dur": 2.0, '
    '"name": "StoreService.Get", "ph": "X", "pid": "node0", "tid": '
    '"rpc.server", "ts": 1.0}, {"args": {"parent_id": "s00000001", "rid": 42, '
    '"span_id": "s00000002", "trace_id": "t000001"}, "cat": "rpc", "dur": '
    '3.0, "name": "StoreService.Get", "ph": "X", "pid": "node0", "tid": '
    '"rpc", "ts": 0.0}, {"args": {"bytes": 4096, "parent_id": "s00000001", '
    '"span_id": "s00000005", "trace_id": "t000001"}, "cat": "fabric", "dur": '
    '0.5, "name": "stream_read", "ph": "X", "pid": "node0->node1", "tid": '
    '"fabric", "ts": 3.0}, {"args": {"span_id": "s00000001", "tenant": "t0", '
    '"trace_id": "t000001"}, "cat": "op", "dur": 3.75, "name": "get", "ph": '
    '"X", "pid": "workload", "tid": "op", "ts": 0.0}]}\n'
)


class TestExport:
    def test_chrome_trace_golden_bytes(self, tmp_path):
        clock, sink = make_sink()
        build_reference_tree(sink, clock)
        path = tmp_path / "trace.json"
        sink.write_chrome_trace(path)
        assert path.read_text(encoding="utf-8") == GOLDEN_CHROME

    def test_snapshot_shape(self):
        clock, sink = make_sink()
        build_reference_tree(sink, clock)
        snap = sink.snapshot()
        assert snap["schema_version"] == 1
        [trace] = snap["traces"]
        assert trace["name"] == "get"
        assert len(trace["spans"]) == 5
        assert sum(trace["components_ns"].values()) == trace["duration_ns"]


class TestClockNeutrality:
    def test_tracing_never_advances_the_clock(self):
        clock, sink = make_sink()
        before = clock.now_ns
        with sink.span("op", "get", node="n"):
            pass
        assert clock.now_ns == before
        assert sink.traces()[0]["duration_ns"] == 0

    def test_components_cover_exactly_the_base_set(self):
        # "pipeline" is materialize-on-charge: a run that never pins it
        # keeps exactly the base buckets, so pre-async traces replay
        # byte-identical.
        clock, sink = make_sink()
        with sink.span("op", "get", node="n"):
            clock.advance(1)
        assert set(sink.traces()[0]["components_ns"]) == set(BASE_COMPONENTS)

    def test_pipeline_component_materializes_on_charge(self):
        assert "pipeline" in COMPONENTS
        clock, sink = make_sink()
        with sink.span("op", "mget", node="n") as root:
            with sink.component("pipeline"):
                clock.advance(7)
            clock.advance(3)
        buckets = sink.traces()[0]["components_ns"]
        assert buckets["pipeline"] == 7
        assert sum(buckets.values()) == root.duration_ns


class TestClusterSpans:
    """A traced cluster's remote Get, read off the sink."""

    @staticmethod
    def _remote_get_spans(small_config) -> list:
        from repro.core import Cluster

        cluster = Cluster(
            small_config, n_nodes=2, check_remote_uniqueness=False, tracing=True
        )
        producer = cluster.client("node0")
        consumer = cluster.client("node1")
        oid = cluster.new_object_id()
        producer.put_bytes(oid, b"traced")
        consumer.get_one(oid)
        [get] = [t for t in cluster.spans.traces() if t["name"] == "get"]
        return get["spans"]

    def test_remote_get_produces_rpc_and_store_spans(self, small_config):
        spans = self._remote_get_spans(small_config)
        assert any(
            s.category == "store" and s.name == "get_buffers" for s in spans
        )
        assert any(s.category == "rpc" for s in spans)

    def test_rpc_spans_dominate_remote_get(self, small_config):
        """The Fig 6 claim, on a timeline: the gRPC span accounts for most
        of a remote retrieval."""
        spans = self._remote_get_spans(small_config)
        store_total = sum(s.duration_ns for s in spans if s.category == "store")
        rpc_total = sum(s.duration_ns for s in spans if s.category == "rpc")
        assert rpc_total > 0.8 * store_total  # lookup time ~= RPC time
