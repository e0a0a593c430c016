"""repro.obs — unified observability: metrics, exporters, correlation.

One metrics surface for the whole simulator: per-node
:class:`MetricsRegistry` instances hold labeled Counter/Gauge/Histogram
families (exact p50/p95/p99/max quantiles in simulated nanoseconds, built
on ``repro.common.stats``), legacy per-component :class:`CounterGroup`
bags bind into the same registries, :func:`render_prometheus` and
:class:`Telemetry` export everything as a Prometheus text scrape, JSON
snapshot, and cluster-merged view, and :class:`CorrelationContext` mints
deterministic per-operation request ids that stitch client, RPC, and
fabric trace spans of a single Get into one correlated story.

Instrumentation is strictly opt-in (``ClusterConfig(metrics=True)``) and
never advances the simulated clock or consumes deterministic RNG — with
metrics disabled, benchmark results are bit-identical to an uninstrumented
build, and the disabled hot path is a single ``is None`` check.
"""

from repro.obs.correlation import CorrelationContext
from repro.obs.export import Telemetry, group_by_label, render_prometheus
from repro.obs.metrics import (
    Counter,
    CounterGroup,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    QUANTILES,
)
from repro.obs.spans import (
    BASE_COMPONENTS,
    COMPONENTS,
    FlightRecorder,
    SpanConfig,
    SpanRecord,
    SpanSink,
)

__all__ = [
    "BASE_COMPONENTS",
    "COMPONENTS",
    "CorrelationContext",
    "Counter",
    "CounterGroup",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "QUANTILES",
    "SpanConfig",
    "SpanRecord",
    "SpanSink",
    "Telemetry",
    "group_by_label",
    "render_prometheus",
]
