"""BENCH artifact emission: the standing perf-trajectory format.

Every scenario run collapses into one ``BENCH_workload_<scenario>.json``
file: ops/s, exact latency quantiles (overall, per op kind and per
tenant), per-tenant admission accounting, bytes moved, and outcome counts.
Every latency and attribution table is a fold of the run's per-(kind,
tenant) :class:`~repro.workload.runner.OpCell` records. The payload is a
pure function of (scenario, seed) — values come from simulated time and
deterministic draws, serialization is canonical (sorted keys, fixed
indent, trailing newline) — so re-running a scenario must reproduce the
artifact byte for byte; CI's ``workload-smoke`` job enforces exactly that.

:func:`write_bench_json` is the shared writer: the paper benches (Fig 6/7
via ``benchmarks/conftest.py --emit-bench-json``) emit their ``BENCH_*``
artifacts through the same path.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.common.clock import NS_PER_S
from repro.common.stats import Distribution
from repro.obs.spans import BASE_COMPONENTS, LEGACY_COMPONENTS

#: Version stamp inside every BENCH payload, bumped on field changes so
#: trajectory tooling can discriminate.
BENCH_SCHEMA_VERSION = 1

#: The latency quantiles every BENCH artifact reports (matches repro.obs).
BENCH_QUANTILES = (0.5, 0.95, 0.99)


def bench_artifact_name(scenario_name: str) -> str:
    return f"BENCH_workload_{scenario_name}.json"


def trace_artifact_name(scenario_name: str) -> str:
    """The Chrome trace-event artifact ``--trace`` writes next to the
    BENCH file (same byte-stability contract: deterministic sim-time
    stamps, canonical serialization)."""
    return f"TRACE_workload_{scenario_name}.json"


def dumps_bench(payload: dict) -> str:
    """Canonical BENCH serialization: sorted keys, indent 2, newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_bench_json(path: str | Path, payload: dict) -> Path:
    """Write *payload* canonically to *path*; returns the path written.

    The shared emission point for every ``BENCH_*.json`` in the repo —
    one serialization, one byte-stability contract.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_bench(payload), encoding="utf-8")
    return path


def latency_block(dist: Distribution) -> dict:
    """Quantile summary (integer ns) for one latency distribution."""
    if dist.count == 0:
        return {"count": 0}
    return {
        "count": dist.count,
        "mean_ns": int(round(dist.mean)),
        "p50_ns": int(round(dist.quantile(0.5))),
        "p95_ns": int(round(dist.quantile(0.95))),
        "p99_ns": int(round(dist.quantile(0.99))),
        "max_ns": int(round(dist.max)),
    }


def _group(cells: dict, axis: int) -> dict[str, list]:
    """The run's (kind, tenant) cells grouped by kind (*axis* 0) or by
    tenant (*axis* 1), sorted by that key."""
    groups: dict[str, list] = {}
    for key, cell in cells.items():
        groups.setdefault(key[axis], []).append(cell)
    return dict(sorted(groups.items()))


def _merged(cells) -> Distribution:
    """One latency distribution over every op of *cells*."""
    dist = Distribution()
    for cell in cells:
        dist.extend(cell.latency.samples)
    return dist


def build_workload_payload(result) -> dict:
    """The BENCH payload for one :class:`~repro.workload.runner.WorkloadResult`."""
    duration_s = result.duration_ns / NS_PER_S if result.duration_ns else 0.0
    executed = result.executed_ops
    by_tenant = _group(result.cells, 1)
    tenants = {}
    for tenant, acct in sorted(result.admission.items()):
        rejected = acct["rejected"]
        attempted = acct["admitted"] + rejected
        tenants[tenant] = {
            "admitted": acct["admitted"],
            "rejected": rejected,
            "rejected_by_reason": acct["rejected_by_reason"],
            "rejection_rate": round(rejected / attempted, 6) if attempted else 0.0,
            "stored_bytes": acct["stored_bytes"],
            "latency_ns": latency_block(_merged(by_tenant.get(tenant, ()))),
        }
    payload = {
        "artifact": bench_artifact_name(result.scenario_name),
        "schema_version": BENCH_SCHEMA_VERSION,
        "scenario": result.scenario_name,
        "seed": result.seed,
        "sim": {
            "duration_ns": result.duration_ns,
            "ops_generated": result.generated_ops,
            "ops_executed": executed,
            "ops_per_s": round(executed / duration_s, 3) if duration_s else 0.0,
        },
        "latency_ns": {
            "overall": latency_block(_merged(result.cells.values())),
            "by_kind": {
                kind: latency_block(_merged(cells))
                for kind, cells in _group(result.cells, 0).items()
            },
        },
        "tenants": tenants,
        "bytes": {
            "written": result.bytes_written,
            "read": result.bytes_read,
            "deleted": result.bytes_deleted,
        },
        "outcomes": dict(sorted(result.outcomes.items())),
    }
    if result.overload_enabled:
        payload["overload"] = overload_block(result, duration_s)
    if result.tracing_enabled:
        payload["latency_attribution"] = attribution_block(result)
    if result.tiering_enabled:
        payload["tiering"] = result.tiering
    if result.rpc_enabled:
        payload["rpc"] = rpc_block(result)
    return payload


def _attribution_table(groups: dict[str, list], known: tuple) -> dict:
    """Per key: the op count, the summed observed latency and the summed
    critical-path components of its cells (every *known* component shown,
    zero or not)."""
    out = {}
    for key, cells in groups.items():
        observed = 0.0
        components = dict.fromkeys(known, 0)
        for cell in cells:
            observed += sum(cell.latency.samples)
            for name, value in cell.components_ns.items():
                components[name] = components.get(name, 0) + value
        out[key] = {
            "ops": sum(cell.latency.count for cell in cells),
            "observed_ns": int(round(observed)),
            "components_ns": {
                name: int(round(value))
                for name, value in sorted(components.items())
            },
        }
    return out


def _attribution_tables(result) -> dict:
    """The per-kind and per-tenant attribution tables. Without a tiering
    block the "cache" component cannot acquire time (no tier agent
    exists), so only the legacy buckets are shown — pre-tiering artifacts
    stay byte-identical. The "pipeline" bucket likewise only appears once
    async mode charges it."""
    known = BASE_COMPONENTS if result.tiering_enabled else LEGACY_COMPONENTS
    return {
        "by_kind": _attribution_table(_group(result.cells, 0), known),
        "by_tenant": _attribution_table(_group(result.cells, 1), known),
    }


def attribution_block(result) -> dict:
    """The ``latency_attribution`` section of a BENCH payload: every
    measured op's observed latency decomposed into critical-path
    components (queue wait, server service time, fabric transfers, retry
    amplification, hedged waits, client residual), summed per op kind and
    per tenant. ``exact`` asserts the per-op invariant held for the whole
    run: components summed to observed latency to the nanosecond. Only
    present when the scenario ran with tracing — legacy artifacts stay
    byte-identical."""
    return {
        "exact": bool(result.attribution_exact),
        **_attribution_tables(result),
        "sampling": dict(result.sampling),
    }


def rpc_block(result) -> dict:
    """The ``rpc`` section of a BENCH payload: effective RPC mode, the
    merged per-channel pipelining/batching/hedging counters, and — in
    async mode — the task-plane latency attribution (per-kind and
    per-tenant components including ``pipeline``, with the ns-exact sum
    invariant). Only present when the scenario has an ``rpc`` block —
    legacy artifacts stay byte-identical."""
    out = {
        "mode": result.rpc_mode,
        "counters": dict(sorted(result.rpc_counters.items())),
    }
    if result.rpc_mode == "async":
        out["attribution"] = {
            "exact": bool(result.attribution_exact),
            **_attribution_tables(result),
        }
    return out


def overload_block(result, duration_s: float) -> dict:
    """The ``overload`` section of a BENCH payload: goodput (in-deadline
    "ok" ops/s), shed rate, queue-depth quantiles, and the merged
    server/client overload counters. Only present when the scenario ran
    with an ``overload`` block — legacy artifacts stay byte-identical."""
    server = dict(sorted(result.overload_server.items()))
    shed = server.get("shed_queue_full", 0) + server.get("shed_expired", 0)
    arrivals = server.get("admitted", 0) + shed
    queue = result.overload_queue
    if queue.count:
        queue_block = {
            "count": queue.count,
            "p50": int(round(queue.quantile(0.5))),
            "p99": int(round(queue.quantile(0.99))),
            "max": int(round(queue.max)),
        }
    else:
        queue_block = {"count": 0}
    return {
        "op_deadline_ms": result.op_deadline_ns / 1e6,
        "in_deadline_ops": result.in_deadline_ops,
        "goodput_ops_per_s": (
            round(result.in_deadline_ops / duration_s, 3) if duration_s else 0.0
        ),
        "shed_rate": round(shed / arrivals, 6) if arrivals else 0.0,
        "queue_depth": queue_block,
        "server": server,
        "client": dict(sorted(result.overload_client.items())),
    }
