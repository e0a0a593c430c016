"""The unified metrics surface: component counters, families, registries.

Every node of a cluster owns one :class:`MetricsRegistry`, which stores no
counter or gauge value: it reads them at collect time. Counters are plain
``int`` attributes their component increments in place
(:class:`CounterGroup`, bound with :meth:`MetricsRegistry.register_group`);
:class:`Gauge` children sample a callback (allocator utilisation, breaker
state, cache sizes). Only :class:`Histogram` accumulates inside the
registry: exact quantiles in simulated nanoseconds over raw samples, so
per-node histograms merge losslessly into cluster-wide views.

With ``ClusterConfig.metrics`` off no registry is built: components still
count but export nowhere, and the ``_m_*`` histogram handles stay ``None``.
Nothing here advances the simulated clock or consumes deterministic RNG,
so a run with metrics on is bit-identical in simulated time to one without.
"""

from __future__ import annotations

import re
from typing import Callable

from repro.common.stats import Distribution

#: The exact quantiles every histogram family exports.
QUANTILES = (0.5, 0.95, 0.99)

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_KINDS = ("gauge", "histogram")


def _check_name(name: str, what: str = "metric") -> str:
    if not _NAME_RE.match(name or ""):
        raise ValueError(f"invalid {what} name {name!r}")
    return name


class CounterGroup:
    """A component's counters: plain ``int`` attributes it increments in place.

    A component declares them once, as class attributes set to ``0`` on a
    small subclass, and counts with ``counters.calls += 1``. The first
    ``+=`` creates the instance attribute, so ``vars()`` holds exactly the
    counters touched so far (a zero-amount increment included), in
    first-touch order; an untouched counter reads 0 and does not export, a
    misspelt one raises ``AttributeError``. The registry a group is bound
    to (:meth:`MetricsRegistry.register_group`) reads ``vars()`` at collect.
    """

    def snapshot(self) -> dict[str, int]:
        return dict(vars(self))


class Gauge:
    """One gauge child: the registry stores no value, it calls the function
    installed with :meth:`set_function` at collect time (0 until then)."""

    __slots__ = ("_fn",)

    def __init__(self) -> None:
        self._fn: Callable[[], float] | None = None

    def set_function(self, fn: Callable[[], float]) -> None:
        self._fn = fn

    @property
    def value(self) -> float:
        return 0.0 if self._fn is None else float(self._fn())


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

    def quantile(self, q: float) -> float:
        return self._dist.quantile(q)

    def quantiles(self) -> dict[str, float]:
        if not self.count:
            return {}
        return {_q_label(q): self._dist.quantile(q) for q in QUANTILES}


def _q_label(q: float) -> str:
    # 0.5 -> "0.5", 0.95 -> "0.95" — no trailing zeros, Prometheus style.
    return f"{q:g}"


_CHILD_TYPES = {"gauge": Gauge, "histogram": Histogram}
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
        """Bind *group* so each counter it has touched exports, read at
        collect time, as family ``<prefix>_<name>`` with the given labels.

        ``route`` redirects keys by prefix into a different family name:
        ``route={"scrub_": "scrub_", "lookup_cache_": "cache_"}`` sends a
        store's ``scrub_passes`` to the ``scrub_passes`` family and
        ``lookup_cache_hits`` to ``cache_hits`` instead of burying them
        under ``plasma_``. Re-binding with the same prefix+labels replaces
        the previous group (the store-restart path).
        """
        _check_name(prefix, "group prefix")
        str_labels = {k: str(v) for k, v in labels.items()}
        key = (prefix, tuple(sorted(str_labels.items())))
        self._groups[key] = (group, str_labels, dict(route or {}))

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
        raw histogram samples, for comparisons that must be exact.
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
            for counter_key, value in sorted(vars(group).items()):
                fname = self._group_family_name(prefix, counter_key, route)
                slot = family_slot(fname, "counter", "Operational event counter.")
                slot["series"].append(
                    {"labels": self._with_node(labels), "value": float(value)}
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
            samples = child._dist.samples
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
            payload["samples"] = child._dist.samples
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
