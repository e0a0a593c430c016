"""Exporters and cluster-wide telemetry views.

:func:`render_prometheus` turns one or more per-node registries into a
single Prometheus text-exposition scrape. Families are grouped *across*
registries so each metric name gets exactly one ``# HELP``/``# TYPE``
header; the per-registry ``node`` label keeps series distinct. Histogram
families without explicit buckets render as ``summary`` (exact p50/p95/p99
quantile lines plus ``_sum``/``_count``, with a companion ``_max`` gauge);
families with buckets render as classic cumulative ``histogram`` types.

:class:`Telemetry` is the cluster-facing handle returned by
``Cluster.metrics()``: per-node scrape and snapshot, a cross-node merged
view (counters/gauges summed, histogram samples concatenated so merged
quantiles stay exact), and ``top_latency``/``format_top`` for the CLI's
"where does the time go" table.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.obs.metrics import QUANTILES, MetricsRegistry, _q_label

_EXPORT_PREFIX = "repro_"


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(float(value))


def _format_le(le: float) -> str:
    return "+Inf" if le == math.inf else _format_value(le)


def _labels_text(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _sample_line(name: str, labels: dict[str, str], value: float) -> str:
    return f"{name}{_labels_text(labels)} {_format_value(value)}"


def _exemplar_suffix(exemplar) -> str:
    """OpenMetrics-style exemplar annotation: ``# {span_id="..."} value``.

    The ref is a span id from ``repro.obs.spans``, so a slow histogram
    bucket links straight to a concrete trace in the span export."""
    value, ref = exemplar
    return f' # {{span_id="{_escape_label_value(str(ref))}"}} {_format_value(value)}'


def _bucket_exemplar(exemplars, lo: float, hi: float):
    """Newest recorded exemplar whose value falls in ``(lo, hi]``."""
    for value, ref in reversed(exemplars):
        if lo < value <= hi:
            return (value, ref)
    return None


def _merge_collected(registries: Iterable) -> list[dict]:
    """Group collected families by name across registries, preserving the
    per-family sorted order."""
    by_name: dict[str, dict] = {}
    for registry in registries:
        for family in registry.collect():
            slot = by_name.get(family["name"])
            if slot is None:
                slot = {k: v for k, v in family.items() if k != "series"}
                slot["series"] = []
                by_name[family["name"]] = slot
            slot["series"].extend(family["series"])
    return [by_name[name] for name in sorted(by_name)]


def render_prometheus(registries: Iterable) -> str:
    """Render registries as one Prometheus text-exposition scrape."""
    lines: list[str] = []
    for family in _merge_collected(registries):
        name = _EXPORT_PREFIX + family["name"]
        kind = family["type"]
        bucketed = kind == "histogram" and family.get("buckets") is not None
        prom_type = (
            "histogram" if bucketed else "summary" if kind == "histogram" else kind
        )
        help_text = family.get("help") or "Operational metric."
        lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {prom_type}")
        max_lines: list[str] = []
        for series in family["series"]:
            labels = series["labels"]
            if kind != "histogram":
                lines.append(_sample_line(name, labels, series["value"]))
                continue
            hist = series["histogram"]
            exemplars = hist.get("exemplars") or ()
            if bucketed:
                cumulative = hist.get("buckets") or []
                prev_le = -math.inf
                for le, count in cumulative:
                    line = _sample_line(
                        f"{name}_bucket", {**labels, "le": _format_le(le)}, count
                    )
                    exemplar = _bucket_exemplar(exemplars, prev_le, le)
                    if exemplar is not None:
                        line += _exemplar_suffix(exemplar)
                    lines.append(line)
                    prev_le = le
                line = _sample_line(
                    f"{name}_bucket", {**labels, "le": "+Inf"}, hist["count"]
                )
                exemplar = _bucket_exemplar(exemplars, prev_le, math.inf)
                if exemplar is not None:
                    line += _exemplar_suffix(exemplar)
                lines.append(line)
            else:
                for q_text, q_value in hist["quantiles"].items():
                    lines.append(
                        _sample_line(name, {**labels, "quantile": q_text}, q_value)
                    )
                if hist["count"]:
                    line = _sample_line(f"{name}_max", labels, hist["max"])
                    if hist.get("max_exemplar"):
                        line += _exemplar_suffix(hist["max_exemplar"])
                    max_lines.append(line)
            lines.append(_sample_line(f"{name}_sum", labels, hist["sum"]))
            lines.append(_sample_line(f"{name}_count", labels, hist["count"]))
        if max_lines:
            lines.append(
                f"# HELP {name}_max Maximum observation of {name.removeprefix(_EXPORT_PREFIX)}."
            )
            lines.append(f"# TYPE {name}_max gauge")
            lines.extend(max_lines)
    return "\n".join(lines) + ("\n" if lines else "")


def group_by_label(registries: Iterable, label: str) -> dict:
    """Aggregate every family across *registries* by one label's values.

    Series carrying *label* fold into per-value totals: counters and
    gauges sum, histograms merge count/sum/max with exact quantiles from
    raw samples. Series without the label are ignored. Returns
    ``{label_value: {"counters": {family: total}, "gauges": {...},
    "histograms": {family: {...}}}}`` — the slicing the workload plane
    uses to report per-``tenant`` admission and latency.
    """
    counters: dict[tuple[str, str], float] = {}
    gauges: dict[tuple[str, str], float] = {}
    hist_samples: dict[tuple[str, str], list[float]] = {}
    for registry in registries:
        for family in registry.collect(include_samples=True):
            name = family["name"]
            for series in family["series"]:
                value = series["labels"].get(label)
                if value is None:
                    continue
                key = (str(value), name)
                if family["type"] == "counter":
                    counters[key] = counters.get(key, 0.0) + series["value"]
                elif family["type"] == "gauge":
                    gauges[key] = gauges.get(key, 0.0) + series["value"]
                else:
                    hist_samples.setdefault(key, []).extend(
                        series["histogram"].get("samples", [])
                    )
    grouped: dict[str, dict] = {}

    def _slot(value: str) -> dict:
        return grouped.setdefault(
            value, {"counters": {}, "gauges": {}, "histograms": {}}
        )

    for (value, name), total in sorted(counters.items()):
        _slot(value)["counters"][name] = total
    for (value, name), total in sorted(gauges.items()):
        _slot(value)["gauges"][name] = total
    for (value, name), samples in sorted(hist_samples.items()):
        entry: dict = {"count": len(samples), "sum": float(sum(samples))}
        if samples:
            from repro.common.stats import Distribution

            dist = Distribution()
            dist.extend(samples)
            entry["max"] = dist.max
            entry["quantiles"] = {_q_label(q): dist.quantile(q) for q in QUANTILES}
        _slot(value)["histograms"][name] = entry
    return dict(sorted(grouped.items()))


class Telemetry:
    """Cluster-wide view over the per-node metric registries."""

    def __init__(self, registries: dict[str, MetricsRegistry]):
        self._registries = dict(registries)

    def prometheus(self) -> str:
        """One merged scrape covering every node (node label per series)."""
        return render_prometheus(self._registries.values())

    def snapshot(self) -> dict:
        """JSON-ready per-node snapshot."""
        return {node: reg.snapshot() for node, reg in self._registries.items()}

    def top_latency(self, k: int = 8) -> list[dict]:
        """The k histogram series with the largest total time, with exact
        quantiles — the "where does the time go" decomposition."""
        rows = []
        for node, registry in self._registries.items():
            for family in registry.collect():
                if family["type"] != "histogram":
                    continue
                for series in family["series"]:
                    hist = series["histogram"]
                    if not hist["count"]:
                        continue
                    labels = {
                        name: value
                        for name, value in series["labels"].items()
                        if name != "node"
                    }
                    rows.append(
                        {
                            "family": family["name"],
                            "node": node,
                            "labels": labels,
                            "count": hist["count"],
                            "total_ns": hist["sum"],
                            "max_ns": hist["max"],
                            "quantiles": hist["quantiles"],
                        }
                    )
        rows.sort(key=lambda r: (-r["total_ns"], r["family"], r["node"]))
        return rows[:k]

    def format_top(self, k: int = 8) -> str:
        """Aligned text table of :meth:`top_latency` in microseconds."""
        rows = self.top_latency(k)
        if not rows:
            return "(no latency samples recorded)"
        headers = ("family", "node", "labels", "n", "p50_us", "p95_us", "p99_us", "max_us", "total_us")
        table = [headers]
        for row in rows:
            labels = ",".join(f"{n}={v}" for n, v in sorted(row["labels"].items()))
            table.append(
                (
                    row["family"],
                    row["node"],
                    labels or "-",
                    str(row["count"]),
                    f"{row['quantiles']['0.5'] / 1e3:.2f}",
                    f"{row['quantiles']['0.95'] / 1e3:.2f}",
                    f"{row['quantiles']['0.99'] / 1e3:.2f}",
                    f"{row['max_ns'] / 1e3:.2f}",
                    f"{row['total_ns'] / 1e3:.2f}",
                )
            )
        widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
        out = []
        for i, row in enumerate(table):
            out.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
            if i == 0:
                out.append("  ".join("-" * w for w in widths))
        return "\n".join(out)
