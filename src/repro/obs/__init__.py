"""repro.obs — unified observability: metrics, exporters, correlation.

One metrics surface for the whole simulator: per-node
:class:`MetricsRegistry` instances read labeled Gauge families at
collect time and hold Histogram families (exact p50/p95/p99/max quantiles
in simulated nanoseconds, built on ``repro.common.stats``). Components own
their counters as plain ints on a :class:`CounterGroup` subclass, which the
same registries read at scrape. :func:`render_prometheus` and
:class:`Telemetry` export everything as a Prometheus text scrape or a JSON
snapshot. :class:`CorrelationContext` mints deterministic per-operation
request ids that stitch client, RPC, and fabric trace spans of a single
Get into one correlated story.

Instrumentation is strictly opt-in (``ClusterConfig(metrics=True)``) and
never advances the simulated clock or consumes deterministic RNG — with
metrics disabled, benchmark results are bit-identical to an uninstrumented
build, and the disabled hot path is a single ``is None`` check.
"""

from repro.obs.correlation import CorrelationContext
from repro.obs.export import Telemetry, render_prometheus
from repro.obs.metrics import (
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
    "render_prometheus",
]
