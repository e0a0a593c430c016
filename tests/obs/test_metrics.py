"""Unit tests for the metrics registry, instruments, and group binding."""

import pytest

from repro.obs.metrics import CounterGroup, MetricsRegistry


class TestCounterGroup:
    def test_inc_and_get(self):
        group = CounterGroup()
        group.inc("gets")
        group.inc("gets", 4)
        assert group.get("gets") == 5
        assert group.get("absent") == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CounterGroup().inc("x", -1)

    def test_snapshot_is_copy(self):
        group = CounterGroup()
        group.inc("a")
        snap = group.snapshot()
        snap["a"] = 99
        assert group.get("a") == 1


class TestFamilies:
    def test_counter_child_accumulates(self):
        registry = MetricsRegistry()
        family = registry.counter("rpc_calls", "calls", labels=("peer",))
        family.labels(peer="n1").inc()
        family.labels(peer="n1").inc(2)
        family.labels(peer="n2").inc()
        assert family.labels(peer="n1").value == 3
        assert family.labels(peer="n2").value == 1

    def test_counter_rejects_negative(self):
        child = MetricsRegistry().counter("c").labels()
        with pytest.raises(ValueError):
            child.inc(-1)

    def test_gauge_set_and_callback(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth").labels()
        gauge.set(4)
        assert gauge.value == 4
        state = {"v": 7.0}
        gauge.set_function(lambda: state["v"])
        assert gauge.value == 7.0
        state["v"] = 9.0
        assert gauge.value == 9.0
        gauge.set(1)  # direct set replaces the callback
        assert gauge.value == 1

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
        family = MetricsRegistry().counter("c", labels=("peer",))
        with pytest.raises(ValueError):
            family.labels(host="x")
        with pytest.raises(ValueError):
            family.labels()

    def test_same_name_same_family(self):
        registry = MetricsRegistry()
        a = registry.counter("c", "help", labels=("x",))
        b = registry.counter("c", "ignored", labels=("x",))
        assert a is b

    def test_same_name_conflicting_kind_rejected(self):
        registry = MetricsRegistry()
        registry.counter("c")
        with pytest.raises(ValueError):
            registry.gauge("c")
        with pytest.raises(ValueError):
            registry.counter("c", labels=("other",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("ok", labels=("bad-label",))


class TestGroupBinding:
    def test_group_exports_prefixed_families(self):
        registry = MetricsRegistry(node="n0")
        group = CounterGroup()
        group.inc("gets_local", 3)
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
        group = CounterGroup()
        group.inc("scrub_passes")
        group.inc("lookup_cache_hits", 2)
        group.inc("gets_local", 5)
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
        CounterGroup under the same prefix+labels and the dead one stops
        being scraped."""
        registry = MetricsRegistry()
        old = CounterGroup()
        old.inc("gets_local", 100)
        registry.register_group(old, "plasma", store="n0")
        new = CounterGroup()
        new.inc("gets_local", 1)
        registry.register_group(new, "plasma", store="n0")
        [family] = [
            f for f in registry.collect() if f["name"] == "plasma_gets_local"
        ]
        assert family["series"][0]["value"] == 1.0

    def test_live_group_reflects_later_increments(self):
        registry = MetricsRegistry()
        group = CounterGroup()
        registry.register_group(group, "ipc")
        group.inc("requests", 7)
        [family] = [f for f in registry.collect() if f["name"] == "ipc_requests"]
        assert family["series"][0]["value"] == 7.0


class TestCollect:
    def test_node_label_injected(self):
        registry = MetricsRegistry(node="node3")
        registry.counter("c", labels=("peer",)).labels(peer="x").inc()
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
        registry.counter("c").labels().inc()
        snap = registry.snapshot()
        assert snap["node"] == "n0"
        assert snap["families"][0]["name"] == "c"

