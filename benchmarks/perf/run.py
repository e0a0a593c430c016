#!/usr/bin/env python3
"""Two-clock PERF benchmark: one command, every metric by name.

    python benchmarks/perf/run.py [--workload W] [--seed N] [--out DIR]

runs the four scaled scenarios under ``workloads/`` through the public
``repro.workload`` API (``ScenarioRunner`` + ``build_workload_payload``; there
is no second driver), prints every metric with its unit and the clock it was
read from, checks the outputs, and writes ``PERF_<workload>.json`` (and
``TRACE_perf_<workload>.json``) under ``--out``.

Two clocks are reported side by side:

* **host** — ``perf_counter`` / ``process_time`` / ``ru_maxrss`` of this
  process: noisy, reported as the median of the measured repeats with the
  min-max spread beside it;
* **sim** — ``SimClock`` nanoseconds out of the BENCH payload: a pure
  function of (scenario, seed), identical on every repeat (checked).

Load shape. Host time is a closed loop with one client: the Python thread
issues the next op when the last returns. In simulated time ``small-sync``
and ``large-tiered`` are open loop (Poisson arrivals on SimClock, latency
timed from the *scheduled* arrival, so generator lateness is 0 by
construction); ``small-async`` (one client) and ``write-churn`` (two) are
closed loop.

With ``--trace 0|1`` the script measures one workload in this process and
prints, as its last line, the result object the benchmark contract in
``BENCHMARK.json`` describes: the end-to-end metrics from untraced repeats
(``--trace 0``) or the per-layer metrics from the traced pass (``--trace 1``).
Without ``--trace`` it runs both passes, each in a fresh subprocess, for the
chosen workload or for all of them one after another.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import gc
import hashlib
import json
import resource
import statistics
import struct
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
QUICK_OPS = 500
#: Simulated attribution buckets reported as shares of observed latency.
SIM_SHARES = ("queue", "service", "fabric", "client", "cache", "retry", "pipeline")
#: Calibration tolerances, the ones benchmarks/test_fig6/7_*.py use.
FIG7_TOLERANCE = 0.05
FIG6_TOLERANCE = 0.25
CALIBRATION_REPETITIONS = 10
#: The machine speed every host time is normalised to: one ``spin()`` in 2 ms.
SPIN_NOMINAL_S = 0.002
SPIN_INTERVAL_S = 0.1


def _import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perf: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import repro.workload.runner as runner_module

    return runner_module


# --------------------------------------------------------------------------- one repeat


class OpLoopMark:
    """Stamps where set-up ends and the op loop begins.

    ``ScenarioRunner.run`` builds the cluster, preloads, and then draws the
    op stream; the draw is the first thing that belongs to the op loop, so a
    hook on the module's ``generate_stream`` name is the boundary. It costs
    one call per run, not per op.
    """

    def __init__(self, runner_module):
        self.wall = self.cpu = 0.0
        self.on_start = None
        draw = runner_module.generate_stream

        def generate_stream(*args, **kwargs):
            if self.on_start is not None:
                self.on_start()
            self.wall, self.cpu = time.perf_counter(), time.process_time()
            return draw(*args, **kwargs)

        runner_module.generate_stream = generate_stream


def spin() -> None:
    """A fixed piece of interpreter work shaped like the program's hot path:
    dict updates, struct packing, list joins, a 2 KiB copy."""
    table: dict[int, int] = {}
    out: list[bytes] = []
    blob = bytes(4096)
    pack = struct.Struct("<IQ").pack
    for i in range(12000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        out.append(pack(key, i))
        if not i & 63:
            out = [b"".join(out)[:64]]
            memoryview(blob)[16:2048].tobytes()


class SpeedProbe:
    """Reads the machine's speed *while* the workload runs.

    The box is shared: on this checkout, episodes lasting tens of seconds
    slowed all repeats of a run by 10-20 % (CPU time as much as wall time),
    which no median over repeats removes. So every ``SPIN_INTERVAL_S`` of the
    op loop the probe times one ``spin()`` (about 2 % of the loop), and
    host times are scaled to the speed at which a spin takes
    ``SPIN_NOMINAL_S``. The hook rides ``AdmissionController.admit``, the one
    public call every op makes first; it costs a clock read per op.
    """

    def __init__(self):
        from repro.workload.admission import AdmissionController

        self._due = float("inf")
        self.wall = self.cpu = 0.0
        self.samples = 0
        admit = AdmissionController.admit
        clock = time.perf_counter

        def probed_admit(*args, **kwargs):
            if clock() >= self._due:
                self.sample()
            return admit(*args, **kwargs)

        AdmissionController.admit = probed_admit

    def start(self) -> None:
        self.wall = self.cpu = 0.0
        self.samples = 0
        self._due = 0.0

    def sample(self) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        spin()
        self.wall += time.perf_counter() - wall
        self.cpu += time.process_time() - cpu
        self.samples += 1
        self._due = time.perf_counter() + SPIN_INTERVAL_S

    def stop(self) -> None:
        self.sample()
        self._due = float("inf")


def load_workload(name: str, quick: bool):
    from repro.workload import load_scenario

    scenario = load_scenario(HERE / "workloads" / f"{name}.json")
    if quick:
        traffic = replace(scenario.traffic, ops=min(scenario.traffic.ops, QUICK_OPS))
        scenario = replace(scenario, traffic=traffic)
    return scenario


def additive_counters(cluster) -> Counter:
    """Every monotone counter the cluster exposes, summed over nodes."""
    out: Counter = Counter()
    for name, stats in cluster.stats().items():
        for key, value in stats["counters"].items():
            out[f"store.{key}"] += value
        node = cluster.node(name)
        for _, channel in sorted(node.channels.items()):
            for key, value in channel.counters.snapshot().items():
                out[f"channel.{key}"] += value
            for key, value in (getattr(channel, "aio_counters", None) or {}).items():
                if key != "in_flight_peak":
                    out[f"aio.{key}"] += value
        cache = node.store.lookup_cache
        if cache is not None:
            out["lookup.hits"] += cache.hits
            out["lookup.misses"] += cache.misses
    for link in cluster.fabric.links():
        for key, value in link.counters.snapshot().items():
            out[f"link.{key}"] += value
    for stats in cluster.tier_stats().values():
        for key, value in (stats.get("cache") or {}).items():
            if key in ("hits", "misses", "admissions", "rejections"):
                out[f"tier.{key}"] += value
    if cluster.tier_engine is not None:
        for key, value in cluster.tier_engine.counters.snapshot().items():
            out[f"engine.{key}"] += value
    return out


def run_repeat(
    name: str, seed: int, quick: bool, mark: OpLoopMark, probe=None, tracer=None
) -> dict:
    """One fresh cluster, one pass over the op stream.

    With *probe* the op-loop times come back net of the probe's spins and
    with the machine speed they saw. With *tracer* the repeat also returns
    the layer window, the op-loop counters and its cluster (for the audit);
    an untraced repeat does not, because holding its cluster would keep that
    memory alive into the next repeat's ``peak_rss_mib``."""
    from repro.workload import ScenarioRunner
    from repro.workload.report import build_workload_payload, dumps_bench

    gc.collect()
    started = time.perf_counter()
    runner = ScenarioRunner(load_workload(name, quick), seed)
    before: Counter = Counter()

    def on_start():
        if tracer is not None:
            before.update(additive_counters(runner.cluster))
            tracer.reset()
        if probe is not None:
            probe.start()

    mark.on_start = on_start
    result = runner.run()
    if probe is not None:
        probe.stop()  # a last sample, still inside the timed window
    window = tracer.stop() if tracer is not None else None
    wall, cpu = time.perf_counter(), time.process_time()
    mark.on_start = None
    repeat = {
        "setup_s": mark.wall - started,
        "loop_s": wall - mark.wall,
        "cpu_s": cpu - mark.cpu,
    }
    if probe is not None:
        repeat["loop_s"] -= probe.wall
        repeat["cpu_s"] -= probe.cpu
        repeat["wall_speed"] = SPIN_NOMINAL_S / (probe.wall / probe.samples)
        repeat["cpu_speed"] = SPIN_NOMINAL_S / (probe.cpu / probe.samples)
    payload = build_workload_payload(result)
    repeat["payload"] = payload
    repeat["bench_json"] = dumps_bench(payload)
    if tracer is not None:
        repeat["window"] = window
        repeat["counters"] = additive_counters(runner.cluster)
        repeat["counters"].subtract(before)
        repeat["cluster"] = runner.cluster
    return repeat


def enough(measured_s: float, last_s: float, seconds: float) -> bool:
    """Stop when another repeat would overshoot ``--seconds`` by more than
    it undershoots now."""
    return measured_s + last_s / 2 >= seconds


# --------------------------------------------------------------------------- metrics


def outcome_count(payload: dict, *prefixes: str) -> int:
    return sum(n for kind, n in payload["outcomes"].items() if kind.startswith(prefixes))


def sim_metrics(payload: dict) -> tuple[dict[str, float], dict[str, int]]:
    """The SimClock end-to-end metrics and the sample count behind each."""
    sim = payload["sim"]
    kinds = payload["latency_ns"]["by_kind"]
    generated = sim["ops_generated"]
    failed = outcome_count(payload, "error:")
    refused = outcome_count(payload, "rejected:", "shed:")
    good = payload.get("overload", {}).get("in_deadline_ops", payload["outcomes"].get("ok", 0))
    seconds = sim["duration_ns"] / 1e9
    read, write = kinds["read"], kinds["write"]
    values = {
        "sim_ops_per_s": sim["ops_per_s"],
        "sim_goodput_ops_per_s": good / seconds,
        "sim_read_p50_us": read["p50_ns"] / 1e3,
        "sim_read_p99_us": read["p99_ns"] / 1e3,
        "sim_write_p50_us": write["p50_ns"] / 1e3,
        "sim_write_p95_us": write["p95_ns"] / 1e3,
        "completed_op_share": 1.0 - failed / generated,
        "admitted_op_share": 1.0 - refused / generated,
    }
    samples = {
        "sim_read_p50_us": read["count"],
        "sim_read_p99_us": read["count"],
        "sim_write_p50_us": write["count"],
        "sim_write_p95_us": write["count"],
    }
    return values, samples


def check_outcomes(payload: dict, problems: list[str]) -> int:
    """Every generated op has exactly one outcome; returns the failed count."""
    counted = sum(payload["outcomes"].values())
    generated = payload["sim"]["ops_generated"]
    if counted != generated:
        problems.append(f"outcomes sum to {counted}, generated {generated}")
    return outcome_count(payload, "error:")


def sim_shares(payload: dict) -> dict[str, float]:
    block = payload.get("latency_attribution") or payload.get("rpc", {}).get("attribution")
    totals: Counter = Counter()
    observed = 0
    for slot in (block or {}).get("by_kind", {}).values():
        observed += slot["observed_ns"]
        totals.update(slot["components_ns"])
    return {
        f"sim.{name}_share": totals[name] / observed if observed else 0.0
        for name in SIM_SHARES
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(repeat: dict) -> dict[str, float]:
    """Exact per-layer counts, read through public attributes after the run
    (op loop only: the preload's share is subtracted)."""
    c = repeat["counters"]
    payload = repeat["payload"]
    cluster = repeat["cluster"]
    ops = payload["sim"]["ops_executed"]
    gets = c["store.gets_local"] + c["store.gets_remote"]
    writes = payload["latency_ns"]["by_kind"]["write"]["count"]
    allocators = [cluster.store(n).allocator.stats() for n in cluster.node_names()]
    in_flight_peak = max(
        (getattr(channel, "aio_counters", None) or {}).get("in_flight_peak", 0)
        for n in cluster.node_names()
        for channel in cluster.node(n).channels.values()
    )
    sampling = payload.get("latency_attribution", {}).get("sampling", {})
    kept = sampling.get("kept_head", 0) + sampling.get("kept_tail", 0)
    out = {
        "rpc.channel.rpcs_per_op": ratio(c["channel.calls"], ops),
        "rpc.channel.wire_bytes_per_op": ratio(
            c["channel.bytes_sent"] + c["channel.bytes_received"], ops
        ),
        "rpc.aio.batch_fill": ratio(c["aio.batched_ids"], c["aio.batches_sent"]),
        "rpc.aio.in_flight_peak": float(in_flight_peak),
        "rpc.aio.tasks_per_op": ratio(c["aio.tasks_started"], ops),
        "core.store.lookup_rpcs_per_get": ratio(c["store.lookup_rpcs"], gets),
        "core.store.remote_get_share": ratio(c["store.gets_remote"], gets),
        "core.lookup_cache.hit_rate": ratio(
            c["lookup.hits"], c["lookup.hits"] + c["lookup.misses"]
        ),
        "plasma.store.evictions_per_write": ratio(c["store.objects_evicted"], writes),
        "allocator.external_fragmentation": statistics.fmean(
            s.external_fragmentation for s in allocators
        ),
        "allocator.utilization": statistics.fmean(s.utilization for s in allocators),
        "thymesisflow.read_bytes_per_op": ratio(c["link.read_bytes"], ops),
        "thymesisflow.read_bytes_avoided_share": ratio(
            c["link.read_bytes_avoided"],
            c["link.read_bytes"] + c["link.read_bytes_avoided"],
        ),
        "tier.cache_hit_rate": ratio(c["tier.hits"], c["tier.hits"] + c["tier.misses"]),
        "tier.cache_admission_rate": ratio(
            c["tier.admissions"], c["tier.admissions"] + c["tier.rejections"]
        ),
        "tier.promotions": float(c["engine.promotions"]),
        "obs.spans.kept_share": ratio(kept, sampling.get("roots", 0)),
    }
    out.update(sim_shares(payload))
    return out


def calibration(problems: list[str]) -> dict[str, float]:
    """The paper-anchor gate: the Table I specs among 1-4 that carry an
    anchor in ``repro.bench.reporting`` (1 and 4; 2 and 3 have none), at ten
    repetitions."""
    from repro.bench import MicroBenchConfig, reporting, run_spec, spec_by_index

    fig6_anchors = {
        index: anchor
        for index, anchor in reporting.PAPER_FIG6_REMOTE_MS.items()
        if anchor is not None and index <= 4
    }
    results = {
        index: run_spec(
            spec_by_index(index), MicroBenchConfig(repetitions=CALIBRATION_REPETITIONS)
        )
        for index in sorted({*fig6_anchors, 4})
    }
    plateau = results[4]  # the first spec on the Fig 7 plateau
    checks = [
        ("Fig 7 local GiB/s", plateau.local.read_gibps.median,
         reporting.PAPER_FIG7_LOCAL_GIBPS, FIG7_TOLERANCE),
        ("Fig 7 remote GiB/s", plateau.remote.read_gibps.median,
         reporting.PAPER_FIG7_REMOTE_GIBPS, FIG7_TOLERANCE),
    ] + [
        (f"Fig 6 remote ms, spec {index}", results[index].remote_retrieve_ms_mean,
         anchor, FIG6_TOLERANCE)
        for index, anchor in sorted(fig6_anchors.items())
    ]
    errors = []
    for label, value, anchor, tolerance in checks:
        errors.append(abs(value - anchor) / anchor)
        if errors[-1] > tolerance:
            problems.append(f"calibration: {label} {value:.3f} vs paper {anchor}")
    return {
        "calib.fig7_local_gib_per_s": checks[0][1],
        "calib.fig7_remote_gib_per_s": checks[1][1],
        "calib.fig6_remote_ms": checks[2][1],
        "calib.max_err_pct": 100.0 * max(errors),
    }


def audit(cluster, problems: list[str]) -> int:
    """Read every sealed, healthy object back through a client: each must
    be a constant-fill ``payload_for`` buffer of its recorded size."""
    checked = 0
    for name in cluster.node_names():
        store = cluster.store(name)
        client = cluster.client(name, client_name=f"audit-{name}")
        with store.table.lock:
            entries = [
                (entry.object_id, entry.data_size)
                for entry in store.table
                if entry.is_sealed and not entry.quarantined
            ]
        for oid, size in entries:
            buffer = client.get([oid])[0]
            try:
                data = buffer.read_all()
            finally:
                client.release(oid)
            checked += 1
            if len(data) != size or data.count(data[:1]) != size:
                problems.append(f"{oid!r} on {name}: not a constant fill of {size} B")
    return checked


# --------------------------------------------------------------------------- the two passes


def measure_end_to_end(args, mark: OpLoopMark, import_s: float) -> dict:
    problems: list[str] = []
    probe = SpeedProbe()
    warm_up = run_repeat(args.workload, args.seed, args.quick, mark, probe)
    measured: list[dict] = []
    measured_s = 0.0
    while True:
        measured.append(run_repeat(args.workload, args.seed, args.quick, mark, probe))
        spent = measured[-1]["setup_s"] + measured[-1]["loop_s"]
        measured_s += spent
        if enough(measured_s, spent, args.seconds):
            break
    failed = 0
    for repeat in measured:
        if repeat["bench_json"] != warm_up["bench_json"]:
            problems.append("BENCH payload differs between repeats of one seed")
        failed += check_outcomes(repeat["payload"], problems)
    payload = measured[0]["payload"]
    executed = payload["sim"]["ops_executed"]
    host = {
        # Warm set-ups only: the cold first one (first-touch page faults) is
        # up to 2x slower and would make every spread unresolvable.
        "setup_s": [import_s + r["setup_s"] for r in measured],
        "wall_ops_per_s": [executed / r["loop_s"] / r["wall_speed"] for r in measured],
        "cpu_us_per_op": [1e6 * r["cpu_s"] / executed * r["cpu_speed"] for r in measured],
    }
    sim_values, samples = sim_metrics(payload)
    metrics = {}
    for name, values in host.items():
        metrics[name] = {
            "value": statistics.median(values),
            "clock": "host",
            "min": min(values),
            "max": max(values),
            "repeats": len(values),
        }
    metrics["peak_rss_mib"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "clock": "host",
    }
    for name, value in sim_values.items():
        metrics[name] = {"value": value, "clock": "sim"}
        if name in samples:
            metrics[name]["samples"] = samples[name]
    return {
        "metrics": metrics,
        "attempted": payload["sim"]["ops_generated"] * len(measured),
        "failed": failed,
        "problems": problems,
        "detail": {
            "measured_repeats": len(measured),
            "machine_speed": [r["wall_speed"] for r in measured],
            "raw_wall_ops_per_s": [executed / r["loop_s"] for r in measured],
            "raw_cpu_us_per_op": [1e6 * r["cpu_s"] / executed for r in measured],
            "ops_per_repeat": payload["sim"]["ops_generated"],
            "outcomes": payload["outcomes"],
            "bench_sha256": hashlib.sha256(measured[0]["bench_json"].encode()).hexdigest(),
        },
    }


def measure_per_layer(args, mark: OpLoopMark) -> dict:
    from layers import LAYERS, LayerTracer

    problems: list[str] = []
    metrics = calibration(problems)
    # Warm up first: a cold reference (first-touch page faults) would make
    # the traced pass look cheaper than the untraced one.
    run_repeat(args.workload, args.seed, args.quick, mark)
    reference = run_repeat(args.workload, args.seed, args.quick, mark)  # untraced
    tracer = LayerTracer()
    tracer.install()
    self_ns: Counter = Counter()
    by_kind: dict[str, Counter] = {}
    calls: Counter = Counter()
    boundary_calls: Counter = Counter()
    moved = total_ns = ops = 0
    loops: list[float] = []
    trace = None
    repeat = None
    while True:
        del repeat  # its cluster must not live into the next one
        repeat = run_repeat(args.workload, args.seed, args.quick, mark, tracer=tracer)
        if repeat["bench_json"] != reference["bench_json"]:
            problems.append("tracing perturbed the BENCH payload")
        loops.append(repeat["loop_s"])
        window = repeat["window"]
        total_ns += window["total_ns"]
        ops += repeat["payload"]["sim"]["ops_executed"]
        for kind, row in window["self_ns_by_kind"].items():
            by_kind.setdefault(kind, Counter()).update(row)
            self_ns.update(row)
        calls.update(window["calls"])
        boundary_calls.update(window["boundary_calls"])
        moved += sum(window["bytes"].values())
        if trace is None:
            trace = tracer.chrome_trace()
            tracer.keep_ops = 0
        if enough(sum(loops), loops[-1], args.seconds):
            break
    failed = check_outcomes(repeat["payload"], problems)
    if sum(self_ns.values()) != total_ns:
        problems.append("layer self times do not sum to the traced total")
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_op"] = self_ns[layer] / 1e3 / ops
        metrics[f"{layer}.calls_per_op"] = calls[layer] / ops
    metrics.update(counter_metrics(repeat))
    moved_payload = repeat["payload"]["bytes"]
    metrics["memory.host.copy_amplification"] = ratio(
        moved, len(loops) * (moved_payload["read"] + moved_payload["written"])
    )
    metrics["obs.spans.spans_per_op"] = boundary_calls["obs.spans:SpanSink.span"] / ops
    metrics["trace.overhead_ratio"] = statistics.median(loops) / reference["loop_s"]
    audited = audit(repeat["cluster"], problems)
    return {
        "metrics": {name: {"value": value} for name, value in metrics.items()},
        "attempted": repeat["payload"]["sim"]["ops_generated"],
        "failed": failed,
        "problems": problems,
        "trace": trace,
        "detail": {
            "traced_repeats": len(loops),
            "traced_total_us": total_ns / 1e3,
            "self_us_sum": sum(self_ns.values()) / 1e3,
            "audited_objects": audited,
            "wrapped_callables": tracer.wrapped,
            "self_us_per_op_by_kind": {
                kind: {layer: ns / 1e3 / ops for layer, ns in row.items() if ns}
                for kind, row in sorted(by_kind.items())
            },
            "boundary_calls_per_op": {
                name: count / ops for name, count in boundary_calls.most_common(40)
            },
        },
    }


# --------------------------------------------------------------------------- output


def describe(name: str, entry: dict) -> str:
    notes = [entry["clock"]] if "clock" in entry else []
    if "repeats" in entry:
        notes.append(
            f"median of {entry['repeats']}, min {entry['min']:.6g} max {entry['max']:.6g}"
        )
    if "samples" in entry:
        notes.append(f"n={entry['samples']}")
    return f"  {name:<40} {entry['value']:>16.6g} {entry['unit']:<8} {'; '.join(notes)}"


def write_report(args, section: str, outcome: dict) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"PERF_{args.workload}.json"
    header = {"workload": args.workload, "seed": args.seed, "quick": args.quick}
    report = header
    if path.exists():
        previous = json.loads(path.read_text("utf-8"))
        if all(previous.get(key) == value for key, value in header.items()):
            report = previous
    report[section] = {
        "metrics": outcome["metrics"],
        "correct": not outcome["problems"],
        "problems": outcome["problems"],
        **outcome["detail"],
    }
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", "utf-8")
    if outcome.get("trace") is not None:
        (out / f"TRACE_perf_{args.workload}.json").write_text(
            json.dumps(outcome["trace"]) + "\n", "utf-8"
        )


def run_one(args, spec: dict) -> int:
    """Measure one workload in this process; last stdout line is the result."""
    runner_module = _import_program()
    import_s = time.perf_counter() - _PROCESS_START
    mark = OpLoopMark(runner_module)
    if args.trace:
        section, outcome = "per_layer", measure_per_layer(args, mark)
    else:
        section, outcome = "end_to_end", measure_end_to_end(args, mark, import_s)
    metrics = {}
    for metric in spec[section]:  # exactly the declared names, in their order
        metrics[metric["name"]] = outcome["metrics"][metric["name"]]
        metrics[metric["name"]]["unit"] = metric["unit"]
    outcome["metrics"] = metrics
    write_report(args, section, outcome)
    print(f"{args.workload} seed {args.seed} {section} ({'traced' if args.trace else 'untraced'})")
    for name, entry in metrics.items():
        print(describe(name, entry))
    for problem in outcome["problems"]:
        print(f"  INCORRECT: {problem}")
    correct = not outcome["problems"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Both passes of each chosen workload, one fresh subprocess each,
    strictly one after another (the box has two cores)."""
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    status = 0
    for workload in workloads:
        for trace in ("0", "1"):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", trace, "--out", args.out,
            ] + (["--quick"] if args.quick else [])
            status |= subprocess.run(command, check=False).returncode
    return status


def main(argv: list[str] | None = None) -> int:
    if not SPEC_PATH.is_file():
        sys.exit(f"perf: {SPEC_PATH} is missing")
    spec = json.loads(SPEC_PATH.read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", default=str(HERE / "out"))
    parser.add_argument(
        "--quick", action="store_true", help=f"at most {QUICK_OPS} ops per workload"
    )
    args = parser.parse_args(argv)
    if args.trace is None:
        return run_all(args, spec)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
