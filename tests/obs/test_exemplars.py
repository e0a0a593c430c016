"""Exemplars: histogram observations that point at a concrete span.

``Channel._observe_latency`` and ``RpcServer._dispatch_observed`` hand the
innermost open span to ``Histogram.observe(exemplar=…)``; the Prometheus
text then annotates ``_max`` lines and histogram buckets with
``# {span_id="…"}`` and the JSON snapshot carries the recent
``(value, span id)`` pairs. The expected strings below were generated on
the commit before span ids became integers rendered on read (PR 19), so
they pin that storing the reference unformatted changed no byte.
"""

from __future__ import annotations

import pytest

from repro.common.clock import SimClock
from repro.core import Cluster
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.spans import SpanSink

CLIENT_MAX = (
    'repro_rpc_client_latency_ns_max{method="Lookup",node="node1",peer="node0"} '
    '2402127 # {span_id="s00000009"} 2402127'
)
SERVER_MAX = (
    'repro_rpc_server_latency_ns_max{method="plasma.StoreService.Lookup",'
    'node="node0"} 0 # {span_id="s00000015"} 0'
)
#: (value, span id) pairs, oldest first, then the slowest.
CLIENT_EXEMPLARS = [
    [1848335.0, "s00000005"], [2402127.0, "s00000009"], [2142813.0, "s00000013"],
]
CLIENT_SLOWEST = [2402127.0, "s00000009"]
SERVER_EXEMPLARS = [[0.0, "s00000007"], [0.0, "s00000011"], [0.0, "s00000015"]]
SERVER_SLOWEST = [0.0, "s00000015"]

BUCKETED = """\
# HELP repro_demo_latency_ns Operational metric.
# TYPE repro_demo_latency_ns histogram
repro_demo_latency_ns_bucket{le="100",node="n"} 2 # {span_id="s00000004"} 60
repro_demo_latency_ns_bucket{le="1000",node="n"} 4 # {span_id="s00000006"} 700
repro_demo_latency_ns_bucket{le="10000",node="n"} 4
repro_demo_latency_ns_bucket{le="+Inf",node="n"} 5 # {span_id="s00000005"} 50000
repro_demo_latency_ns_sum{node="n"} 51600
repro_demo_latency_ns_count{node="n"} 5
"""
BUCKETED_EXEMPLARS = [
    [40.0, "s00000002"], [800.0, "s00000003"], [60.0, "s00000004"],
    [50000.0, "s00000005"], [700.0, "s00000006"],
]
BUCKETED_SLOWEST = [50000.0, "s00000005"]


def _histograms(cluster, family: str) -> list[dict]:
    return [
        series["histogram"]
        for node in cluster.metrics().snapshot().values()
        for fam in node["families"]
        if fam["name"] == family
        for series in fam["series"]
    ]


def test_remote_get_exemplars_in_scrape_and_snapshot(small_config):
    cluster = Cluster(
        small_config, n_nodes=2, check_remote_uniqueness=False,
        metrics=True, tracing=True,
    )
    producer, consumer = cluster.client("node0"), cluster.client("node1")
    oids = cluster.new_object_ids(3)
    for i, oid in enumerate(oids):
        producer.put_bytes(oid, bytes(1000 * (i + 1)))
    for oid in oids:
        consumer.get_one(oid)
        consumer.release(oid)

    annotated = [
        line for line in cluster.metrics().prometheus().splitlines()
        if "span_id" in line
    ]
    assert annotated == [CLIENT_MAX, SERVER_MAX]

    [client] = _histograms(cluster, "rpc_client_latency_ns")
    assert client["exemplars"] == CLIENT_EXEMPLARS
    assert client["max_exemplar"] == CLIENT_SLOWEST
    [server] = _histograms(cluster, "rpc_server_latency_ns")
    assert server["exemplars"] == SERVER_EXEMPLARS
    assert server["max_exemplar"] == SERVER_SLOWEST

    # The ids resolve: the client's slowest call was observed under the
    # store span of the second get; the server's newest is its own
    # dispatch span.
    spans = {
        s.span_id: s for trace in cluster.spans.traces() for s in trace["spans"]
    }
    assert spans[CLIENT_SLOWEST[1]].name == "get_buffers"
    assert spans[SERVER_SLOWEST[1]].category == "rpc.server"


@pytest.mark.parametrize("as_span", [True, False], ids=["span", "span_id"])
def test_bucket_exemplars_newest_in_bucket_and_slowest(as_span):
    """Each bucket line names the newest observation that fell in it, the
    snapshot the slowest one — whether the caller handed over the span
    itself (rendered on read) or its id string."""
    clock = SimClock()
    sink = SpanSink(clock)
    registry = MetricsRegistry(node="n")
    family = registry.histogram(
        "demo_latency_ns", buckets=(100.0, 1_000.0, 10_000.0)
    )
    child = family.labels()
    with sink.span("op", "demo", node="n"):
        for value in (40, 800, 60, 50_000, 700):
            with sink.span("rpc", "S.M", node="n") as sp:
                clock.advance(value)
                child.observe(value, exemplar=sp if as_span else sp.span_id)
    assert registry.prometheus() == BUCKETED
    [series] = registry.snapshot()["families"][0]["series"]
    assert series["histogram"]["exemplars"] == BUCKETED_EXEMPLARS
    assert series["histogram"]["max_exemplar"] == BUCKETED_SLOWEST
    assert child.exemplars == [tuple(pair) for pair in BUCKETED_EXEMPLARS]
    assert child.max_exemplar == tuple(BUCKETED_SLOWEST)


def test_no_exemplar_without_a_span():
    hist = Histogram()
    hist.observe(5)
    hist.observe(7, exemplar=None)
    hist.observe(9, exemplar="")
    assert hist.exemplars == [] and hist.max_exemplar is None
