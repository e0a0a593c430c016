"""The unified metrics surface: instruments, families, registries.

Every node of a cluster owns one :class:`MetricsRegistry`; components
register *labeled families* of three instrument kinds —

* :class:`Counter` — monotonically increasing event/byte counts;
* :class:`Gauge` — point-in-time values, settable directly or sampled
  through a callback at collect time (allocator utilisation, breaker
  state, cache sizes never need a write on the hot path);
* :class:`Histogram` — exact-quantile latency distributions in simulated
  nanoseconds, backed by :class:`repro.common.stats.Distribution` (raw
  samples, so p50/p95/p99/max are exact, and per-node histograms merge
  losslessly into cluster-wide views).

:class:`CounterGroup` is the migration path for the pre-registry ad-hoc
ad-hoc counter bags that used to be scattered across stores, links and
channels: the same dict-backed ``inc``/``get``/``snapshot`` hot path, plus
the ability to be *bound* to a registry so every key exports as a labeled
counter family at scrape time — binding costs nothing per increment.

Disabled mode is the default and is genuinely zero-overhead: components
hold ``None`` instrument handles until ``attach_metrics`` is called, and
every instrumented site guards with ``if self._m_x is not None`` — the same
pattern the opt-in :class:`~repro.obs.spans.SpanSink` uses. Nothing here
ever advances the simulated clock or consumes deterministic RNG, so a run
with metrics enabled is bit-identical in simulated time to one without.
:data:`NULL_REGISTRY` is an explicit no-op registry for call sites that
prefer passing a registry object over branching.
"""

from __future__ import annotations

import re
from typing import Callable

from repro.common.stats import Distribution

#: The exact quantiles every histogram family exports.
QUANTILES = (0.5, 0.95, 0.99)

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_KINDS = ("counter", "gauge", "histogram")


def _check_name(name: str, what: str = "metric") -> str:
    if not _NAME_RE.match(name or ""):
        raise ValueError(f"invalid {what} name {name!r}")
    return name


class CounterGroup:
    """A named bag of monotonically increasing counters.

    Drop-in successor of the removed ``repro.common.stats.Counter``:
    the hot path is one dict update, nothing else. Binding the group to a
    registry (:meth:`MetricsRegistry.register_group`) is done once at
    wiring time; afterwards every key appears as a counter family in the
    scrape with the bind-time labels attached.
    """

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: dict[str, int] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.values[name] = self.values.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self.values.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        return dict(self.values)


class Counter:
    """One counter child (a family member with fixed label values)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """One gauge child: set a value, or install a sampling callback."""

    __slots__ = ("_value", "_fn")

    def __init__(self) -> None:
        self._value = 0.0
        self._fn: Callable[[], float] | None = None

    def set(self, value: float) -> None:
        self._value = float(value)
        self._fn = None

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount
        self._fn = None

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Sample *fn* at collect time instead of storing writes — the
        zero-hot-path-cost mode used for allocator fragmentation, lookup
        cache stats and breaker state."""
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


def _rendered(pair: tuple) -> tuple[float, str]:
    """A stored ``(value, exemplar)`` pair with the reference as text."""
    value, ref = pair
    return value, str(getattr(ref, "span_id", ref))


class Histogram:
    """One histogram child: exact quantiles over raw samples.

    Values are simulated nanoseconds on every latency family this repo
    ships; the instrument itself is unit-agnostic.

    ``observe`` optionally takes an *exemplar* — a reference tying the
    observation to a concrete trace: a span from ``repro.obs.spans`` (kept
    as handed over; its ``span_id`` is rendered when the histogram is
    read) or a ready id string. A bounded ring of recent
    ``(value, exemplar)`` pairs plus the exemplar of the slowest
    observation are kept, so the Prometheus exposition can annotate each
    bucket (and ``_max``) with a trace to go look at. With no exemplars
    recorded, payloads and renders are byte-identical to before.
    """

    __slots__ = ("_dist", "_sum", "_exemplars", "_max_exemplar")

    #: Recent exemplars retained per child (enough to cover every bucket).
    EXEMPLAR_RING = 64

    def __init__(self) -> None:
        self._dist = Distribution()
        self._sum = 0.0
        self._exemplars: "deque | None" = None
        self._max_exemplar: tuple | None = None

    def observe(self, value: float, exemplar=None) -> None:
        self._dist.add(value)
        self._sum += float(value)
        if exemplar:
            if self._exemplars is None:
                from collections import deque

                self._exemplars = deque(maxlen=self.EXEMPLAR_RING)
            pair = (float(value), exemplar)
            self._exemplars.append(pair)
            if self._max_exemplar is None or value >= self._max_exemplar[0]:
                self._max_exemplar = pair

    @property
    def exemplars(self) -> list[tuple[float, str]]:
        """Recent (value, exemplar) pairs, oldest first."""
        return [_rendered(pair) for pair in self._exemplars or ()]

    @property
    def max_exemplar(self) -> tuple[float, str] | None:
        """The exemplar of the slowest observation seen so far."""
        pair = self._max_exemplar
        return None if pair is None else _rendered(pair)

    @property
    def count(self) -> int:
        return self._dist.count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def max(self) -> float:
        return self._dist.max

    @property
    def samples(self) -> list[float]:
        return self._dist.samples

    def quantile(self, q: float) -> float:
        return self._dist.quantile(q)

    def quantiles(self) -> dict[str, float]:
        if not self.count:
            return {}
        return {_q_label(q): self._dist.quantile(q) for q in QUANTILES}


def _q_label(q: float) -> str:
    # 0.5 -> "0.5", 0.95 -> "0.95" — no trailing zeros, Prometheus style.
    return f"{q:g}"


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}
#: Resolved ``labels(...)`` calls one family remembers; past it, calls still
#: work, they just take the checked path again.
_RESOLVED_LIMIT = 1024


class MetricFamily:
    """All series of one metric name: kind, help text, fixed label names.

    ``labels(**values)`` returns the memoized child for one label-value
    combination; resolving a child once at wiring time makes the hot path
    a plain method call on the child. Call sites whose label values vary
    per call (peer + method, tenant + kind) go through ``labels`` every
    time, so a repeat of the same keyword items is one dict lookup.
    """

    __slots__ = (
        "name", "kind", "help", "labelnames", "buckets", "_children", "_resolved",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] | None = None,
    ):
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        if buckets is not None and kind != "histogram":
            raise ValueError("buckets only apply to histogram families")
        self.name = _check_name(name, "family")
        self.kind = kind
        self.help = help
        self.labelnames = tuple(_check_name(ln, "label") for ln in labelnames)
        self.buckets = tuple(sorted(float(b) for b in buckets)) if buckets else None
        self._children: dict[tuple[str, ...], object] = {}
        # keyword items as passed -> child, for all-``str`` label values
        # (``1``/``True``/``1.0`` hash alike but label differently); bounded.
        self._resolved: dict[tuple, object] = {}

    def labels(self, **values: str):
        call = tuple(values.items())
        try:
            return self._resolved[call]
        except (KeyError, TypeError):  # first sight, or an unhashable value
            pass
        if set(values) != set(self.labelnames):
            raise ValueError(
                f"family {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(values))}"
            )
        key = tuple(str(values[ln]) for ln in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = _CHILD_TYPES[self.kind]()
            self._children[key] = child
        if len(self._resolved) < _RESOLVED_LIMIT and all(
            type(v) is str for v in values.values()
        ):
            self._resolved[call] = child
        return child

    def series(self) -> list[tuple[dict[str, str], object]]:
        """(labels dict, child) pairs in stable label order."""
        out = []
        for key in sorted(self._children):
            out.append((dict(zip(self.labelnames, key)), self._children[key]))
        return out

    def __repr__(self) -> str:
        return (
            f"MetricFamily({self.name}, {self.kind}, "
            f"{len(self._children)} series)"
        )


class MetricsRegistry:
    """The per-node registry: families, bound counter groups, collection.

    ``node`` (when non-empty) is stamped onto every exported series as a
    ``node`` label, so per-node scrapes concatenate into one cluster view
    without collisions.
    """

    enabled = True

    def __init__(self, node: str = ""):
        self.node = node
        self._families: dict[str, MetricFamily] = {}
        # (prefix, bind labels) -> (group, route); re-binding the same key
        # replaces the old group — exactly what a recovered store needs.
        self._groups: dict[tuple, tuple[CounterGroup, dict[str, str], dict]] = {}

    # -- family factories ---------------------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: tuple[str, ...],
        buckets=None,
    ) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.labelnames != tuple(labels):
                raise ValueError(
                    f"family {name!r} already registered as {existing.kind} "
                    f"with labels {existing.labelnames}"
                )
            return existing
        family = MetricFamily(name, kind, help, tuple(labels), buckets)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labels: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._family(name, "counter", help, labels)

    def gauge(
        self, name: str, help: str = "", labels: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._family(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] | None = None,
    ) -> MetricFamily:
        return self._family(name, "histogram", help, labels, buckets)

    # -- counter-group binding ------------------------------------------------------

    def register_group(
        self,
        group: CounterGroup,
        prefix: str,
        *,
        route: dict[str, str] | None = None,
        **labels: str,
    ) -> None:
        """Bind *group* so each key exports as family ``<prefix>_<key>``
        with the given labels.

        ``route`` redirects keys by prefix into a different family name:
        ``route={"scrub_": "scrub_", "lookup_cache_": "cache_"}`` sends a
        store's ``scrub_passes`` to the ``scrub_passes`` family and
        ``lookup_cache_hits`` to ``cache_hits`` instead of burying them
        under ``plasma_``. Re-binding with the same prefix+labels replaces
        the previous group (the store-restart path).
        """
        _check_name(prefix, "group prefix")
        key = (prefix, tuple(sorted((k, str(v)) for k, v in labels.items())))
        self._groups[key] = (
            group,
            {k: str(v) for k, v in labels.items()},
            dict(route or {}),
        )

    @staticmethod
    def _group_family_name(prefix: str, counter_key: str, route: dict) -> str:
        for match, replacement in route.items():
            if counter_key.startswith(match):
                return replacement + counter_key[len(match):]
        return f"{prefix}_{counter_key}"

    # -- collection -------------------------------------------------------------------

    def _with_node(self, labels: dict[str, str]) -> dict[str, str]:
        if not self.node:
            return dict(labels)
        return {"node": self.node, **labels}

    def collect(self, include_samples: bool = False) -> list[dict]:
        """Everything this registry knows, as plain sorted dicts.

        The structure doubles as the JSON snapshot; the Prometheus
        renderer consumes it too. ``include_samples`` additionally embeds
        raw histogram samples so cross-node merges stay exact.
        """
        by_name: dict[str, dict] = {}

        def family_slot(name: str, kind: str, help: str) -> dict:
            slot = by_name.get(name)
            if slot is None:
                slot = {"name": name, "type": kind, "help": help, "series": []}
                by_name[name] = slot
            return slot

        for name in sorted(self._families):
            family = self._families[name]
            slot = family_slot(family.name, family.kind, family.help)
            if family.buckets is not None:
                slot["buckets"] = list(family.buckets)
            for labels, child in family.series():
                series: dict = {"labels": self._with_node(labels)}
                if family.kind == "histogram":
                    series["histogram"] = self._histogram_payload(
                        child, family.buckets, include_samples
                    )
                else:
                    series["value"] = child.value
                slot["series"].append(series)

        for (prefix, _), (group, labels, route) in sorted(self._groups.items()):
            for counter_key in sorted(group.values):
                fname = self._group_family_name(prefix, counter_key, route)
                slot = family_slot(fname, "counter", "Operational event counter.")
                slot["series"].append(
                    {
                        "labels": self._with_node(labels),
                        "value": float(group.values[counter_key]),
                    }
                )

        out = [by_name[name] for name in sorted(by_name)]
        for slot in out:
            slot["series"].sort(key=lambda s: sorted(s["labels"].items()))
        return out

    @staticmethod
    def _histogram_payload(
        child: Histogram, buckets: tuple[float, ...] | None, include_samples: bool
    ) -> dict:
        payload: dict = {
            "count": child.count,
            "sum": child.sum,
            "quantiles": child.quantiles(),
        }
        if child.count:
            payload["max"] = child.max
        if buckets is not None:
            samples = child.samples
            payload["buckets"] = [
                [le, sum(1 for s in samples if s <= le)] for le in buckets
            ]
        exemplars = child.exemplars
        if exemplars:
            # Only present when a span sink supplied exemplars, so metric
            # snapshots without tracing stay byte-identical.
            payload["exemplars"] = [[value, ref] for value, ref in exemplars]
            payload["max_exemplar"] = list(child.max_exemplar)
        if include_samples:
            payload["samples"] = child.samples
        return payload

    # -- export -----------------------------------------------------------------------

    def prometheus(self) -> str:
        """This registry's scrape in Prometheus text exposition format."""
        from repro.obs.export import render_prometheus

        return render_prometheus([self])

    def snapshot(self) -> dict:
        """JSON-ready snapshot of every family and series."""
        return {"node": self.node, "families": self.collect()}

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(node={self.node!r}, "
            f"{len(self._families)} families, {len(self._groups)} groups)"
        )
