"""Golden-file test of the Prometheus exposition output, plus histogram
edge cases and the cross-node Telemetry views."""

from pathlib import Path

from repro.obs.export import Telemetry, render_prometheus
from repro.obs.metrics import CounterGroup, MetricsRegistry

GOLDEN = Path(__file__).with_name("golden_scrape.txt")


class _RpcCounters(CounterGroup):
    calls = 0


def _build_registries() -> list[MetricsRegistry]:
    """Two per-node registries exercising every rendering feature: label
    escaping, summary quantiles, bucketed histograms, an empty family, a
    single-sample family, and cross-registry merging of one family."""
    n0 = MetricsRegistry(node="node0")
    n1 = MetricsRegistry(node="node1")

    # One counter family spanning both registries: exactly one HELP/TYPE
    # header.
    to_node1, to_node0 = _RpcCounters(), _RpcCounters()
    to_node1.calls += 5
    to_node0.calls += 2
    n0.register_group(to_node1, "rpc", peer="node1")
    n1.register_group(to_node0, "rpc", peer="node0")

    weird = n0.gauge("escape_check", 'Help with \\ and a "quote".', labels=("path",))
    weird.labels(path='C:\\data\n"x"').set_function(lambda: 1)

    latency = n0.histogram(
        "get_latency_ns", "Get latency in simulated ns.", labels=("store",)
    )
    child = latency.labels(store="node0")
    for v in (100.0, 200.0, 300.0, 400.0, 1000.0):
        child.observe(v)
    latency.labels(store="empty")  # registered but never observed
    single = latency.labels(store="single")
    single.observe(250.0)

    n1.histogram(
        "queue_depth", "Bucketed histogram.", buckets=(1.0, 5.0)
    ).labels().observe(3.0)
    return [n0, n1]


class TestGoldenScrape:
    def test_matches_golden_file(self):
        scrape = render_prometheus(_build_registries())
        assert scrape == GOLDEN.read_text(encoding="utf-8")

    def test_one_header_per_family_across_registries(self):
        scrape = render_prometheus(_build_registries())
        assert scrape.count("# TYPE repro_rpc_calls counter") == 1
        assert scrape.count("# HELP repro_rpc_calls ") == 1

    def test_label_escaping(self):
        scrape = render_prometheus(_build_registries())
        assert 'path="C:\\\\data\\n\\"x\\""' in scrape

    def test_summary_quantiles_and_max(self):
        scrape = render_prometheus(_build_registries())
        assert (
            'repro_get_latency_ns{node="node0",quantile="0.5",store="node0"} 300'
            in scrape
        )
        assert 'repro_get_latency_ns_max{node="node0",store="node0"} 1000' in scrape

    def test_empty_family_renders_zero_count_no_quantiles(self):
        scrape = render_prometheus(_build_registries())
        assert 'repro_get_latency_ns_count{node="node0",store="empty"} 0' in scrape
        assert 'quantile="0.5",store="empty"' not in scrape
        assert 'repro_get_latency_ns_max{node="node0",store="empty"}' not in scrape

    def test_single_sample_quantiles_collapse(self):
        scrape = render_prometheus(_build_registries())
        for q in ("0.5", "0.95", "0.99"):
            assert (
                f'repro_get_latency_ns{{node="node0",quantile="{q}",store="single"}} 250'
                in scrape
            )

    def test_bucketed_histogram_cumulative(self):
        scrape = render_prometheus(_build_registries())
        assert "# TYPE repro_queue_depth histogram" in scrape
        assert 'repro_queue_depth_bucket{le="1",node="node1"} 0' in scrape
        assert 'repro_queue_depth_bucket{le="5",node="node1"} 1' in scrape
        assert 'repro_queue_depth_bucket{le="+Inf",node="node1"} 1' in scrape

    def test_empty_registries_render_empty(self):
        assert render_prometheus([]) == ""
        assert render_prometheus([MetricsRegistry()]) == ""


class TestTelemetry:
    def test_top_latency_orders_by_total(self):
        registries = {r.node: r for r in _build_registries()}
        rows = Telemetry(registries).top_latency(k=3)
        assert rows[0]["family"] == "get_latency_ns"
        assert rows[0]["labels"] == {"store": "node0"}
        totals = [row["total_ns"] for row in rows]
        assert totals == sorted(totals, reverse=True)
        # Empty series never appear.
        assert all(row["count"] > 0 for row in rows)

    def test_format_top_mentions_quantile_columns(self):
        table = Telemetry({r.node: r for r in _build_registries()}).format_top(2)
        assert "p50_us" in table and "p99_us" in table

    def test_snapshot_is_per_node(self):
        telemetry = Telemetry({r.node: r for r in _build_registries()})
        snap = telemetry.snapshot()
        assert set(snap) == {"node0", "node1"}
        assert snap["node0"]["node"] == "node0"
