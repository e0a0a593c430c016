"""Unit tests for the metrics registry, instruments, and group binding."""

import pytest

from repro.obs.metrics import CounterGroup, MetricFamily, MetricsRegistry


class _Counters(CounterGroup):
    gets = puts = evictions = 0
    gets_local = scrub_passes = lookup_cache_hits = requests = 0


def _group_series(registry: MetricsRegistry) -> dict[str, float]:
    return {
        f["name"]: f["series"][0]["value"]
        for f in registry.collect()
        if f["type"] == "counter"
    }


class TestCounterGroup:
    def test_increments_are_attribute_adds(self):
        group = _Counters()
        group.gets += 1
        group.gets += 4
        assert group.gets == 5

    def test_snapshot_is_first_touch_order(self):
        group = _Counters()
        group.puts += 1
        group.gets += 2
        group.puts += 1
        group.evictions += 3
        assert list(group.snapshot().items()) == [
            ("puts", 2), ("gets", 2), ("evictions", 3),
        ]

    def test_snapshot_is_copy(self):
        group = _Counters()
        group.gets += 1
        snap = group.snapshot()
        snap["gets"] = 99
        assert group.gets == 1

    def test_zero_amount_increment_exports_a_zero_series(self):
        registry = MetricsRegistry()
        group = _Counters()
        group.scrub_passes += 0
        registry.register_group(group, "plasma")
        assert group.snapshot() == {"scrub_passes": 0}
        assert _group_series(registry) == {"plasma_scrub_passes": 0.0}

    def test_declared_but_untouched_reads_zero_and_does_not_export(self):
        registry = MetricsRegistry()
        group = _Counters()
        registry.register_group(group, "plasma")
        assert group.evictions == 0
        assert group.snapshot() == {}
        assert _group_series(registry) == {}

    def test_undeclared_name_raises(self):
        group = _Counters()
        with pytest.raises(AttributeError):
            group.misspelt += 1
        assert group.snapshot() == {}


class TestFamilies:
    def test_labeled_counts_are_groups_read_at_collect(self):
        """A labeled count is one group per label value, read at collect."""
        registry = MetricsRegistry()
        groups = {"n1": _Counters(), "n2": _Counters()}
        groups["n1"].requests += 3
        groups["n2"].requests += 1
        for peer, group in groups.items():
            registry.register_group(group, "rpc", peer=peer)

        def calls() -> dict[str, float]:
            [family] = [f for f in registry.collect() if f["name"] == "rpc_requests"]
            return {s["labels"]["peer"]: s["value"] for s in family["series"]}

        assert calls() == {"n1": 3.0, "n2": 1.0}
        groups["n1"].requests += 1
        assert calls()["n1"] == 4.0

    def test_no_counter_family(self):
        """CounterGroup is the one way to export a count."""
        assert not hasattr(MetricsRegistry, "counter")
        with pytest.raises(ValueError, match="unknown metric kind"):
            MetricFamily("c", "counter", "")

    def test_gauge_callback_is_read_at_collect(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth").labels()
        assert gauge.value == 0.0
        state = {"v": 7.0}
        gauge.set_function(lambda: state["v"])
        assert gauge.value == 7.0
        state["v"] = 9.0
        assert gauge.value == 9.0

    def test_children_store_no_value(self):
        registry = MetricsRegistry()
        for child in (registry.gauge("g").labels(),):
            for gone in ("inc", "set"):
                assert not hasattr(child, gone), gone

    def test_histogram_exact_quantiles(self):
        hist = MetricsRegistry().histogram("lat_ns").labels()
        for v in range(1, 101):
            hist.observe(float(v))
        assert hist.count == 100
        assert hist.sum == pytest.approx(5050.0)
        assert hist.max == 100.0
        q = hist.quantiles()
        assert q["0.5"] == pytest.approx(50.5)
        assert q["0.95"] == pytest.approx(95.05)
        assert q["0.99"] == pytest.approx(99.01)

    def test_label_names_validated(self):
        family = MetricsRegistry().gauge("c", labels=("peer",))
        with pytest.raises(ValueError):
            family.labels(host="x")
        with pytest.raises(ValueError):
            family.labels()

    def test_same_name_same_family(self):
        registry = MetricsRegistry()
        a = registry.gauge("c", "help", labels=("x",))
        b = registry.gauge("c", "ignored", labels=("x",))
        assert a is b

    def test_same_name_conflicting_kind_rejected(self):
        registry = MetricsRegistry()
        registry.gauge("c")
        with pytest.raises(ValueError):
            registry.histogram("c")
        with pytest.raises(ValueError):
            registry.gauge("c", labels=("other",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.gauge("bad name")
        with pytest.raises(ValueError):
            registry.gauge("ok", labels=("bad-label",))


class TestGroupBinding:
    def test_group_exports_prefixed_families(self):
        registry = MetricsRegistry(node="n0")
        group = _Counters()
        group.gets_local += 3
        registry.register_group(group, "plasma", store="n0")
        [family] = [
            f for f in registry.collect() if f["name"] == "plasma_gets_local"
        ]
        assert family["type"] == "counter"
        assert family["series"] == [
            {"labels": {"node": "n0", "store": "n0"}, "value": 3.0}
        ]

    def test_route_redirects_key_prefixes(self):
        registry = MetricsRegistry()
        group = _Counters()
        group.scrub_passes += 1
        group.lookup_cache_hits += 2
        group.gets_local += 5
        registry.register_group(
            group,
            "plasma",
            route={"scrub_": "scrub_", "lookup_cache_": "cache_"},
            store="n0",
        )
        names = {f["name"] for f in registry.collect()}
        assert names == {"scrub_passes", "cache_hits", "plasma_gets_local"}

    def test_rebind_replaces_old_group(self):
        """The store-restart path: a recovered store re-binds a fresh
        counter group under the same prefix+labels and the dead one stops
        being scraped."""
        registry = MetricsRegistry()
        old = _Counters()
        old.gets_local += 100
        old.requests += 1
        registry.register_group(old, "plasma", store="n0")
        new = _Counters()
        new.gets_local += 1
        registry.register_group(new, "plasma", store="n0")
        [family] = [
            f for f in registry.collect() if f["name"] == "plasma_gets_local"
        ]
        assert family["series"] == [{"labels": {"store": "n0"}, "value": 1.0}]
        old.gets_local += 1
        assert _group_series(registry) == {"plasma_gets_local": 1.0}

    def test_live_group_reflects_later_increments(self):
        registry = MetricsRegistry()
        group = _Counters()
        registry.register_group(group, "ipc")
        group.requests += 7
        [family] = [f for f in registry.collect() if f["name"] == "ipc_requests"]
        assert family["series"][0]["value"] == 7.0


class TestCollect:
    def test_node_label_injected(self):
        registry = MetricsRegistry(node="node3")
        registry.gauge("c", labels=("peer",)).labels(peer="x")
        [family] = registry.collect()
        assert family["series"][0]["labels"] == {"node": "node3", "peer": "x"}

    def test_histogram_payload(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(10.0, 100.0)).labels()
        hist.observe(5)
        hist.observe(50)
        hist.observe(500)
        [family] = registry.collect()
        payload = family["series"][0]["histogram"]
        assert payload["count"] == 3
        assert payload["sum"] == 555.0
        assert payload["max"] == 500.0
        assert payload["buckets"] == [[10.0, 1], [100.0, 2]]

    def test_empty_histogram_has_no_quantiles(self):
        registry = MetricsRegistry()
        registry.histogram("h").labels()
        [family] = registry.collect()
        payload = family["series"][0]["histogram"]
        assert payload["count"] == 0
        assert payload["quantiles"] == {}
        assert "max" not in payload

    def test_snapshot_shape(self):
        registry = MetricsRegistry(node="n0")
        registry.gauge("c").labels()
        snap = registry.snapshot()
        assert snap["node"] == "n0"
        assert snap["families"][0]["name"] == "c"

