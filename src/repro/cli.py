"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``   — version, calibrated model constants, subsystem inventory.
* ``demo``   — the quickstart flow (commit on node0, consume locally and
  remotely, print latencies/throughput).
* ``bench``  — run Table I microbenchmarks and print the Fig 6 / Fig 7 /
  create-seal series with the paper's anchors alongside.
* ``ablation`` — run one of the ablation studies (allocator, sharing,
  cache).
* ``metrics`` — run a replicated workload with the telemetry plane
  enabled and print the cluster-wide Prometheus scrape plus the top-k
  latency families (exact p50/p95/p99 in simulated time); ``--out``
  writes the scrape (or ``--json`` snapshot) to a file instead.
* ``trace`` — run a replicated workload with the span-tracing plane
  enabled, write the Chrome trace-event artifact (open in Perfetto or
  chrome://tracing) plus an optional JSON snapshot, and print the
  critical-path latency attribution: every root operation's observed
  latency decomposed ns-exactly into queue/service/fabric/retry/hedge/
  client components.
* ``chaos``  — run a seeded fault-injection scenario (node crashes, link
  faults, blackholes) against a replicated workload and show the
  deterministic fault timeline plus degraded-mode outcome counts.
* ``recover`` — the end-to-end integrity drill: crash a node and flip a
  bit in its surviving region mid-workload, read through failover, rebuild
  the store by scanning sealed-object headers, then scrub-repair the
  corrupted object from a replica. Runs twice and verifies the replay is
  identical.
* ``topology`` — elastic-placement demo: build a placement-enabled
  cluster, route a batch of creates through the consistent-hash ring, and
  print the ring layout (ownership shares, vnodes, utilization, epoch);
  optionally drain a node and rebalance first.
* ``simtest`` — deterministic simulation testing: seeded random
  workloads + faults checked against a sequential oracle, with
  delta-debugging trace shrinking (``--shrink``), a sweep mode
  (``--seeds N`` / ``--profile``), a byte-identical replay check for a
  single ``--seed``, and a ``--self-check`` mode that plants a known
  bug and proves the harness catches and shrinks it.
* ``workload`` — scenario-driven traffic plane: run a committed scenario
  file (open/closed-loop load, skewed popularity, multi-tenant admission
  control) against a real cluster and emit the standing
  ``BENCH_workload_<scenario>.json`` artifact; ``--list`` enumerates
  scenarios, ``--twice`` proves the artifact is byte-identical across
  runs.
"""

from __future__ import annotations

import argparse
import sys

from repro.common.config import ClusterConfig
from repro.common.units import GiB, MiB, format_duration_ns


def _cmd_info(args: argparse.Namespace) -> int:
    import repro

    cfg = ClusterConfig()
    print(f"repro {repro.__version__} — memory-disaggregated object store")
    print("calibrated model constants (repro/common/config.py):")
    print(f"  local read bandwidth   : {cfg.local_memory.read_bandwidth_bps / GiB:.2f} GiB/s")
    print(f"  fabric read bandwidth  : {cfg.fabric.read_bandwidth_bps / GiB:.2f} GiB/s")
    print(f"  fabric single access   : {cfg.fabric.added_latency_ns:.0f} ns")
    print(f"  IPC request overhead   : {cfg.ipc.request_overhead_ns / 1e3:.1f} us")
    print(f"  IPC per object         : {cfg.ipc.per_object_ns / 1e3:.2f} us")
    print(f"  gRPC round trip        : {cfg.rpc.round_trip_ns / 1e6:.2f} ms")
    print(f"  default store capacity : {cfg.store.capacity_bytes / MiB:.0f} MiB")
    print("subsystems: memory, allocator(first_fit/dlmalloc/buddy), "
          "thymesisflow, network, rpc, plasma, core, placement, tier, chaos, "
          "obs, workload, simtest, baseline, columnar, dataset, bench, common")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import Cluster
    from repro.common.config import SpanConfig
    from repro.common.units import gib_per_s

    cluster = Cluster(
        ClusterConfig(tracing=SpanConfig(sample_rate=1.0) if args.trace else None),
        args.nodes,
    )
    producer = cluster.client("node0")
    remote = cluster.client(f"node{args.nodes - 1}")
    oid = cluster.new_object_id()
    payload = bytes(args.size_mib * MiB)
    producer.put_bytes(oid, payload)
    print(f"committed {args.size_mib} MiB object on node0")
    t0 = cluster.clock.now_ns
    buf = remote.get_one(oid)
    print(f"remote retrieval: {format_duration_ns(cluster.clock.now_ns - t0)}")
    t0 = cluster.clock.now_ns
    buf.charge_sequential_read()
    elapsed = cluster.clock.now_ns - t0
    print(
        f"remote sequential read: {format_duration_ns(elapsed)} "
        f"({gib_per_s(len(payload), elapsed):.2f} GiB/s; paper: ~5.75)"
    )
    remote.release(oid)
    if cluster.spans is not None:
        cluster.spans.write_chrome_trace(args.trace)
        n_spans = sum(len(trace["spans"]) for trace in cluster.spans.traces())
        print(f"wrote {n_spans} trace spans to {args.trace} "
              f"(open in chrome://tracing or Perfetto)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import MicroBenchConfig, run_spec, spec_by_index, TABLE_I
    from repro.bench.reporting import (
        format_create_seal,
        format_fig6,
        format_fig7,
        format_table1,
    )

    if args.spec is not None:
        specs = (spec_by_index(args.spec),)
    else:
        specs = TABLE_I
    print(format_table1())
    results = []
    for spec in specs:
        print(f"running {spec} x {args.reps} repetitions ...", file=sys.stderr)
        results.append(run_spec(spec, MicroBenchConfig(repetitions=args.reps)))
    print()
    print(format_fig6(results))
    print()
    print(format_fig7(results))
    print()
    print(format_create_seal(results))
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    if args.kind == "allocator":
        from repro.allocator import (
            ALLOCATOR_NAMES,
            create_allocator,
            fragmentation_report,
        )
        from repro.common.errors import OutOfMemoryError
        from repro.common.rng import DeterministicRng

        print("allocator ablation (fragmentation stress, 4 MiB arena):")
        for name in ALLOCATOR_NAMES:
            alloc = create_allocator(name, 4 * MiB)
            rng = DeterministicRng(7).spawn(name)
            live = []
            while True:
                try:
                    live.append(alloc.allocate(64 + rng.integer(0, 8192)))
                except OutOfMemoryError:
                    break
            for a in live[::2]:
                alloc.free(a.offset)
            print("  " + fragmentation_report(name, alloc).format_row())
        return 0

    from repro.common.units import KB
    from repro.core import Cluster

    cfg = ClusterConfig().with_store(
        capacity_bytes=128 * MiB, check_remote_uniqueness=False
    )

    def run_remote_consumption(cluster) -> float:
        producer = cluster.client("node0")
        consumer = cluster.client("node1")
        ids = cluster.new_object_ids(50)
        payload = bytes(1000 * KB)
        for oid in ids:
            producer.put_bytes(oid, payload)
        t0 = cluster.clock.now_ns
        bufs = consumer.get(ids)
        for buf in bufs:
            buf.charge_sequential_read()
        for oid in ids:
            consumer.release(oid)
        return (cluster.clock.now_ns - t0) / 1e6

    if args.kind == "sharing":
        from repro.baseline import ScaleOutCluster

        print("sharing-strategy ablation (50 x 1000 kB remote consumption):")
        cluster = Cluster(cfg)
        print(f"  {'rpc (paper)':<14}: {run_remote_consumption(cluster):8.2f} ms")
        so = ScaleOutCluster(cfg)
        print(f"  {'scale-out':<14}: {run_remote_consumption(so):8.2f} ms")
        return 0

    if args.kind == "cache":
        print("lookup-cache ablation (10 rounds x 20 remote objects):")
        for label, lookup_cache in (("no cache", False), ("cache", True)):
            cluster = Cluster(cfg.with_store(lookup_cache=lookup_cache))
            producer = cluster.client("node0")
            consumer = cluster.client("node1")
            ids = cluster.new_object_ids(20)
            for oid in ids:
                producer.put_bytes(oid, bytes(10 * KB))
            t0 = cluster.clock.now_ns
            for _ in range(10):
                bufs = consumer.get(ids)
                for buf in bufs:
                    buf.charge_sequential_read()
                for oid in ids:
                    consumer.release(oid)
            print(f"  {label:<10}: {(cluster.clock.now_ns - t0) / 1e6:8.2f} ms")
        return 0

    raise AssertionError(f"unhandled ablation {args.kind!r}")  # pragma: no cover


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.common.units import KB
    from repro.core import Cluster
    from repro.scrub import Scrubber

    if args.nodes < 2:
        print("error: metrics needs --nodes >= 2", file=sys.stderr)
        return 2
    cfg = ClusterConfig(seed=args.seed, metrics=True).with_store(
        capacity_bytes=256 * MiB, check_remote_uniqueness=False, lookup_cache=True
    )
    cluster = Cluster(cfg, args.nodes)
    producer = cluster.client("node0")
    consumer = cluster.client(f"node{args.nodes - 1}")
    ids = cluster.new_object_ids(args.objects)
    payload = bytes(args.size_kb * KB)
    for oid in ids:
        producer.put_bytes(oid, payload, replicas=2)
    for _ in range(args.rounds):
        bufs = consumer.get(ids)
        for buf in bufs:
            buf.charge_sequential_read()
        for oid in ids:
            consumer.release(oid)
        cluster.health_tick()
        cluster.clock.advance(5_000_000)
    # One anti-entropy pass so scrub counters appear in the scrape.
    Scrubber(cluster.store("node0"), replication_target=1).run()
    telemetry = cluster.metrics()
    if args.out is not None:
        if args.json:
            text = json.dumps(telemetry.snapshot(), indent=2, sort_keys=True)
        else:
            text = telemetry.prometheus()
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
        print(f"wrote {args.out}")
        return 0
    if args.json:
        print(json.dumps(telemetry.snapshot(), indent=2, sort_keys=True))
        return 0
    print(telemetry.prometheus())
    print(f"top {args.top} latency families (by total simulated time):")
    print(telemetry.format_top(args.top))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.common.config import SpanConfig
    from repro.common.units import KB
    from repro.core import Cluster

    if args.nodes < 2:
        print("error: trace needs --nodes >= 2", file=sys.stderr)
        return 2
    cfg = ClusterConfig(
        seed=args.seed, tracing=SpanConfig(sample_rate=args.sample_rate)
    ).with_store(
        capacity_bytes=256 * MiB, check_remote_uniqueness=False, lookup_cache=True
    )
    cluster = Cluster(cfg, args.nodes)
    producer = cluster.client("node0")
    consumer = cluster.client(f"node{args.nodes - 1}")
    ids = cluster.new_object_ids(args.objects)
    payload = bytes(args.size_kb * KB)
    for oid in ids:
        producer.put_bytes(oid, payload, replicas=min(2, args.nodes))
    for _ in range(args.rounds):
        bufs = consumer.get(ids)
        for buf in bufs:
            buf.charge_sequential_read()
        for oid in ids:
            consumer.release(oid)

    sink = cluster.spans
    sink.write_chrome_trace(args.out)
    stats = sink.sampling_stats()
    traces = sink.traces()
    print(
        f"traced {stats['roots']} root operation(s): kept "
        f"{stats['kept_head']} head + {stats['kept_tail']} tail, "
        f"{stats['discarded']} discarded (sample rate {stats['sample_rate']:g})"
    )
    # Critical-path attribution over the retained traces: every root's
    # observed latency decomposed into components that sum ns-exactly.
    by_name: dict[str, dict] = {}
    exact = True
    for trace in traces:
        slot = by_name.setdefault(
            trace["name"], {"ops": 0, "observed_ns": 0, "components_ns": {}}
        )
        slot["ops"] += 1
        slot["observed_ns"] += trace["duration_ns"]
        for component, ns in trace["components_ns"].items():
            slot["components_ns"][component] = (
                slot["components_ns"].get(component, 0) + ns
            )
        if sum(trace["components_ns"].values()) != trace["duration_ns"]:
            exact = False
    print(f"latency attribution (components sum exactly: {exact}):")
    for name, slot in sorted(by_name.items()):
        parts = " ".join(
            f"{component}={ns / 1e6:.3f}ms"
            for component, ns in sorted(slot["components_ns"].items())
            if ns
        )
        print(
            f"  {name:<10} x{slot['ops']:<4} "
            f"{slot['observed_ns'] / 1e6:9.3f} ms = {parts}"
        )
    print(f"wrote Chrome trace to {args.out} "
          f"(open in chrome://tracing or Perfetto)")
    if args.snapshot is not None:
        import json

        with open(args.snapshot, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(sink.snapshot(), indent=2, sort_keys=True))
            fh.write("\n")
        print(f"wrote JSON snapshot to {args.snapshot}")
    if args.flight is not None:
        sink.write_flight(args.flight)
        print(f"wrote flight recorder to {args.flight}")
    return 0 if exact else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.chaos import FaultPlan, NodeCrash
    from repro.common.errors import (
        LinkPartitionedError,
        ObjectNotFoundError,
        ObjectUnavailableError,
        RpcStatusError,
    )
    from repro.common.config import SpanConfig
    from repro.common.units import KB
    from repro.core import Cluster

    if args.nodes < 2:
        print("error: chaos needs --nodes >= 2", file=sys.stderr)
        return 2
    if not 1 <= args.replicas <= args.nodes:
        print(
            f"error: --replicas must be in [1, --nodes]; "
            f"{args.replicas} copies do not fit on {args.nodes} node(s)",
            file=sys.stderr,
        )
        return 2
    horizon_ns = int(args.horizon_ms * 1e6)
    node_names = [f"node{i}" for i in range(args.nodes)]
    if args.crash_at_ms is not None:
        plan = FaultPlan(
            [NodeCrash(at_ns=int(args.crash_at_ms * 1e6), node="node0")]
        )
    else:
        plan = FaultPlan.random(
            args.seed, node_names, horizon_ns, n_events=args.events
        )
    print("fault plan:")
    for line in plan.describe().splitlines():
        print(f"  {line}")

    def run_once() -> tuple[list[str], dict[str, int], dict, list[str], dict]:
        cfg = ClusterConfig(
            seed=args.seed,
            metrics=True,
            # Flight-recorder-only tracing: no sampled traces, just the
            # bounded per-node span rings — the black box a determinism
            # diff ships with. Tracing never advances the clock, so the
            # timeline/outcome comparison below is unaffected.
            tracing=SpanConfig(sample_rate=0.0, max_traces=0),
        ).with_store(capacity_bytes=256 * MiB, check_remote_uniqueness=False)
        if args.deadline_ms:
            cfg = dataclasses.replace(
                cfg,
                rpc=dataclasses.replace(
                    cfg.rpc, default_deadline_ns=args.deadline_ms * 1e6
                ),
            )
        cluster = Cluster(cfg, args.nodes, fault_plan=plan)
        producer = cluster.client("node0")
        consumer = cluster.client(f"node{args.nodes - 1}")
        ids = cluster.new_object_ids(args.objects)
        payload = bytes(args.size_kb * KB)
        for oid in ids:
            producer.put_bytes(oid, payload, replicas=args.replicas)
        outcomes = {"ok": 0, "unavailable": 0, "failed": 0}
        rounds = 5
        for _ in range(rounds):
            for oid in ids:
                try:
                    buf = consumer.get([oid])[0]
                    buf.charge_sequential_read()
                    consumer.release(oid)
                    outcomes["ok"] += 1
                except ObjectUnavailableError:
                    outcomes["unavailable"] += 1
                except (ObjectNotFoundError, RpcStatusError, LinkPartitionedError):
                    outcomes["failed"] += 1
            cluster.health_tick()
            cluster.clock.advance(horizon_ns / rounds)
        timeline = cluster.chaos.timeline()
        snapshot = cluster.health_snapshot()
        # Fault drills must be observable in the scrape, not just logged:
        # surface breaker trips and deadline expiries from the telemetry.
        scrape = cluster.metrics().prometheus()
        telemetry_lines = [
            line
            for line in scrape.splitlines()
            if line.startswith(
                ("repro_rpc_breaker_opens", "repro_rpc_client_deadline_exceeded")
            )
        ]
        flight = cluster.spans.flight_dump()
        return timeline, outcomes, snapshot, telemetry_lines, flight

    timeline, outcomes, snapshot, telemetry_lines, flight = run_once()
    timeline2, outcomes2, _, telemetry_lines2, flight2 = run_once()
    print("applied fault timeline:")
    for line in timeline:
        print(f"  {line}")
    print(f"reads: {outcomes['ok']} ok, {outcomes['unavailable']} unavailable, "
          f"{outcomes['failed']} failed "
          f"(replicas={args.replicas}, deadline={args.deadline_ms} ms)")
    print("peer health at end of run:")
    for node, peers in sorted(snapshot.items()):
        for peer, view in sorted(peers.items()):
            print(f"  {node} -> {peer}: breaker={view['breaker']} "
                  f"suspect={view['suspect']} "
                  f"missed={view['heartbeats_missed']}/{view['heartbeats_sent']}")
    if telemetry_lines:
        print("telemetry (metrics scrape excerpts):")
        for line in telemetry_lines:
            print(f"  {line}")
    deterministic = (
        timeline == timeline2
        and outcomes == outcomes2
        and telemetry_lines == telemetry_lines2
        and flight == flight2
    )
    print(f"replay with same seed identical: {'yes' if deterministic else 'NO'}")
    if not deterministic:
        # A determinism diff is exactly the failure the flight recorder
        # exists for: dump the per-node span rings of both runs so the
        # divergence can be localized to the first differing span.
        import json

        for label, dump in (("run1", flight), ("run2", flight2)):
            path = f"{args.flight_prefix}_{label}.json"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(dump, indent=2, sort_keys=True))
                fh.write("\n")
            print(f"wrote flight recorder to {path}")
    return 0 if deterministic else 1


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.chaos import BitFlip, FaultPlan, NodeCrash
    from repro.common.errors import (
        ObjectNotFoundError,
        ObjectUnavailableError,
        RpcStatusError,
    )
    from repro.common.units import KB
    from repro.core import Cluster
    from repro.scrub import Scrubber

    if args.nodes < 2:
        print("error: recover needs --nodes >= 2", file=sys.stderr)
        return 2
    if not 2 <= args.replicas <= args.nodes:
        print(
            f"error: --replicas must be in [2, --nodes]; recovery without "
            f"a replica cannot repair corruption ({args.replicas} given)",
            file=sys.stderr,
        )
        return 2

    def run_once() -> tuple[list[str], dict[str, int]]:
        cfg = ClusterConfig(seed=args.seed).with_store(
            capacity_bytes=256 * MiB, check_remote_uniqueness=False, lookup_cache=True
        )
        # Events are injected once offsets exist.
        cluster = Cluster(cfg, args.nodes, fault_plan=FaultPlan())
        producer = cluster.client("node0")
        consumer = cluster.client(f"node{args.nodes - 1}")
        ids = cluster.new_object_ids(args.objects)
        payload = bytes(args.size_kb * KB)
        for oid in ids:
            producer.put_bytes(oid, payload, replicas=args.replicas)
        # Mid-workload faults: node0's store process dies and — the part a
        # crash alone cannot model — a bit silently flips inside the first
        # object's payload bytes in node0's surviving exposed region.
        victim = ids[0]
        descriptor = cluster.store("node0").lookup_descriptor(victim)
        fault_ns = cluster.clock.now_ns + 1_000_000
        cluster.chaos.inject(
            NodeCrash(at_ns=fault_ns, node="node0"),
            BitFlip(
                at_ns=fault_ns,
                node="node0",
                offset=descriptor["offset"] + min(11, descriptor["data_size"] - 1),
                bit=5,
            ),
        )
        cluster.clock.advance(2_000_000)
        cluster.chaos.poll()
        # Degraded reads: node0's metadata plane is gone; lookups fail over
        # to replica holders.
        outcomes = {"ok": 0, "unavailable": 0, "failed": 0}
        for oid in ids:
            try:
                buf = consumer.get([oid])[0]
                buf.charge_sequential_read()
                consumer.release(oid)
                outcomes["ok"] += 1
            except ObjectUnavailableError:
                outcomes["unavailable"] += 1
            except (ObjectNotFoundError, RpcStatusError):
                outcomes["failed"] += 1
        # Restart: a fresh store over the same region rebuilds its table and
        # free list from the sealed-object headers; the bitflipped object is
        # recovered *quarantined* (its payload fails the seal-time CRC).
        report = cluster.recover_node("node0")
        # Anti-entropy: the scrubber repairs the quarantined object from a
        # replica holder and restores the replication factor.
        scrub = Scrubber(
            cluster.store("node0"), replication_target=args.replicas - 1
        ).run()
        repaired = cluster.client("node0", "verifier").get_bytes(victim)
        intact = bytes(repaired) == payload
        trace = list(cluster.chaos.timeline())
        trace.append("recovery: " + report.describe())
        trace.extend("scrub: " + line for line in scrub.describe().splitlines())
        trace.append(f"victim payload intact after repair: {intact}")
        return trace, outcomes

    trace, outcomes = run_once()
    trace2, outcomes2 = run_once()
    print("crash -> recover -> scrub timeline:")
    for line in trace:
        print(f"  {line}")
    print(
        f"degraded reads: {outcomes['ok']} ok, "
        f"{outcomes['unavailable']} unavailable, {outcomes['failed']} failed "
        f"(replicas={args.replicas})"
    )
    deterministic = trace == trace2 and outcomes == outcomes2
    print(f"replay with same seed identical: {'yes' if deterministic else 'NO'}")
    intact = any("intact after repair: True" in line for line in trace)
    return 0 if deterministic and intact else 1


def _cmd_topology(args: argparse.Namespace) -> int:
    import json

    from repro import Cluster
    from repro.common.config import PlacementConfig

    if args.nodes < 2:
        print("topology demo needs at least 2 nodes", file=sys.stderr)
        return 2
    cluster = Cluster(
        ClusterConfig(seed=args.seed, placement=PlacementConfig()), args.nodes
    )
    names = cluster.node_names()
    client = cluster.client("node0")
    payload_size = args.size_kb * 1024
    ids = cluster.new_object_ids(args.objects)
    client.put_batch([(oid, bytes(payload_size)) for oid in ids])

    drained = None
    if args.drain:
        if args.drain not in names:
            print(f"unknown node {args.drain!r}; have {names}", file=sys.stderr)
            return 2
        cluster.drain_node(args.drain)
        report = cluster.rebalancer.run_until_converged()
        drained = {"node": args.drain, "rebalance": report.describe()}

    snap = cluster.topology_snapshot()
    if args.json:
        if drained is not None:
            snap["drained"] = drained
        print(json.dumps(snap, indent=2, sort_keys=True))
        return 0

    print(
        f"topology @ epoch {snap['epoch']} — {len(snap['nodes'])} member(s), "
        f"ring imbalance {snap['imbalance']:.3f}, "
        f"misplaced {snap['misplaced_bytes']} B"
    )
    header = (
        f"{'node':<10} {'status':<10} {'weight':>6} {'vnodes':>6} "
        f"{'share':>7} {'util':>6} {'objects':>8} {'used':>12}"
    )
    print(header)
    print("-" * len(header))
    for name, info in sorted(snap["nodes"].items()):
        print(
            f"{name:<10} {info['status']:<10} {info['weight']:>6.2f} "
            f"{info['vnodes']:>6d} {info['ownership_share']:>6.1%} "
            f"{info['utilization']:>5.1%} {info['objects']:>8d} "
            f"{info['used_bytes']:>10d} B"
        )
    if drained is not None:
        print(f"drained {drained['node']}: {drained['rebalance']}")
    return 0


def _cmd_simtest(args: argparse.Namespace) -> int:
    import json

    from repro.simtest.harness import PROFILES, replay_trace, run_seed, run_seeds
    from repro.simtest.selfcheck import run_selfcheck
    from repro.simtest.shrink import emit_pytest, format_trace, shrink_result

    def emit_reproducer(report) -> None:
        """Write the shrunk pytest reproducer plus the flight recorder.

        The minimal trace is replayed once more and the per-node span
        rings of the (still-failing) run land next to the reproducer —
        the crash dump that shows what every node was doing when the
        oracle fired. The replay is deterministic, so the dump is
        byte-identical every time this trace is replayed.
        """
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(emit_pytest(report, expect="clean"))
        print(f"wrote reproducer to {args.emit}")
        replay = replay_trace(report.to_trace())
        if replay.flight is None:
            return
        flight_path = f"{args.emit}.flight.json"
        with open(flight_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(replay.flight, indent=2, sort_keys=True))
            fh.write("\n")
        print(f"wrote flight recorder to {flight_path}")

    if args.self_check:
        report = run_selfcheck(mutation=args.mutation or "skip_retire")
        print(report.summary())
        if not report.caught:
            return 1
        print(format_trace(report.shrink))
        if args.emit:
            with open(args.emit, "w", encoding="utf-8") as fh:
                fh.write(report.pytest_source)
            print(f"wrote reproducer to {args.emit}")
        return 0 if len(report.shrink.minimal) <= 25 else 1

    n_seeds, n_ops, profile = PROFILES[args.profile]
    if args.seeds is not None:
        n_seeds = args.seeds
    if args.ops is not None:
        n_ops = args.ops

    if args.seed is not None:
        # Single-seed mode: run twice, require byte-identical traces.
        first = run_seed(args.seed, n_ops, mutation=args.mutation,
                         profile=profile)
        second = run_seed(args.seed, n_ops, mutation=args.mutation,
                          profile=profile)
        identical = first.trace_text() == second.trace_text()
        print(first.trace_text(), end="")
        print(f"replay byte-identical: {identical}")
        print(first.report())
        if not first.ok and args.shrink:
            report = shrink_result(first)
            print(format_trace(report))
            if args.emit:
                emit_reproducer(report)
        return 0 if first.ok and identical else 1

    def progress(seed: int, result) -> None:
        if (seed - args.base_seed + 1) % 50 == 0:
            print(
                f"  ... {seed - args.base_seed + 1}/{n_seeds} seeds "
                f"({'clean' if result.ok else 'FAILING'})",
                file=sys.stderr,
            )

    sweep = run_seeds(
        n_seeds,
        n_ops,
        base_seed=args.base_seed,
        mutation=args.mutation,
        profile=profile,
        progress=progress,
    )
    print(sweep.summary())
    if not sweep.ok and args.shrink:
        report = shrink_result(sweep.failures[0])
        print(format_trace(report))
        if args.emit:
            emit_reproducer(report)
    return 0 if sweep.ok else 1


def _cmd_workload(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.workload import load_scenario, run_scenario
    from repro.workload.report import (
        bench_artifact_name,
        dumps_bench,
        trace_artifact_name,
    )
    from repro.workload.scenario import ScenarioError

    if args.list:
        directory = Path(args.dir)
        paths = sorted(
            list(directory.glob("*.json")) + list(directory.glob("*.toml"))
        )
        if not paths:
            print(f"no scenario files under {directory}", file=sys.stderr)
            return 1
        for path in paths:
            try:
                scenario = load_scenario(path)
            except ScenarioError as exc:
                print(f"{path.name}: INVALID ({exc})")
                continue
            arrival = scenario.traffic.arrival
            loop = (
                f"open {arrival.base_rate_ops_per_s:g}/s"
                if arrival.mode == "open"
                else f"closed x{arrival.clients}"
            )
            print(
                f"{scenario.name:<24} {scenario.traffic.ops:>6} ops  "
                f"{scenario.cluster.n_nodes} nodes  "
                f"{len(scenario.tenants)} tenant(s)  "
                f"{scenario.traffic.popularity.model:<8} {loop:<14} "
                f"- {scenario.description}"
            )
        return 0

    if args.scenario is None:
        print("error: give --scenario PATH (or --list)", file=sys.stderr)
        return 2
    try:
        scenario = load_scenario(args.scenario)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace and scenario.rpc is not None and scenario.rpc.mode == "async":
        print(
            f"error: --trace needs a sync scenario; {scenario.name!r} runs "
            "rpc.mode='async', where the span sink stays detached",
            file=sys.stderr,
        )
        return 2
    if args.trace and (scenario.tracing is None or not scenario.tracing.enabled):
        import dataclasses

        from repro.workload.scenario import TracingSpec

        scenario = dataclasses.replace(scenario, tracing=TracingSpec())
    seed = args.seed if args.seed is not None else scenario.seed

    def run_once() -> tuple[str, str | None]:
        result, payload = run_scenario(scenario, seed)
        trace_text = None
        if args.trace:
            trace_text = (
                json.dumps(result.spans.to_chrome_trace(), sort_keys=True) + "\n"
            )
        return dumps_bench(payload), trace_text

    text, trace_text = run_once()
    if args.twice:
        second, trace_second = run_once()
        if text != second or trace_text != trace_second:
            print("DETERMINISM FAILURE: two runs produced different "
                  "artifacts", file=sys.stderr)
            return 1
    out_path = Path(args.out) / bench_artifact_name(scenario.name)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(text, encoding="utf-8")
    trace_path = None
    if trace_text is not None:
        trace_path = Path(args.out) / trace_artifact_name(scenario.name)
        trace_path.write_text(trace_text, encoding="utf-8")
    payload = json.loads(text)
    sim = payload["sim"]
    if args.json:
        print(text, end="")
    else:
        overall = payload["latency_ns"]["overall"]
        print(
            f"{scenario.name}: {sim['ops_executed']}/{sim['ops_generated']} "
            f"ops in {sim['duration_ns'] / 1e6:.2f} sim-ms "
            f"({sim['ops_per_s']:g} ops/s)"
        )
        if overall.get("count"):
            print(
                f"  latency p50={overall['p50_ns'] / 1e6:.3f} ms "
                f"p95={overall['p95_ns'] / 1e6:.3f} ms "
                f"p99={overall['p99_ns'] / 1e6:.3f} ms"
            )
        for tenant, acct in sorted(payload["tenants"].items()):
            print(
                f"  tenant {tenant}: admitted={acct['admitted']} "
                f"rejected={acct['rejected']} "
                f"(rate {acct['rejection_rate']:.1%}) "
                f"stored={acct['stored_bytes']} B"
            )
        overload = payload.get("overload")
        if overload is not None:
            queue = overload["queue_depth"]
            depth = (
                f"queue p99={queue['p99']}" if queue.get("count") else "queue idle"
            )
            print(
                f"  overload: goodput={overload['goodput_ops_per_s']:g} ops/s "
                f"(in-deadline {overload['in_deadline_ops']}) "
                f"shed rate {overload['shed_rate']:.1%} {depth}"
            )
        attribution = payload.get("latency_attribution")
        if attribution is not None:
            sampling = attribution["sampling"]
            print(
                f"  attribution: exact={attribution['exact']} "
                f"(roots {sampling.get('roots', 0)}, "
                f"kept {sampling.get('kept_head', 0)} head "
                f"+ {sampling.get('kept_tail', 0)} tail)"
            )
            for kind, slot in sorted(attribution["by_kind"].items()):
                parts = " ".join(
                    f"{name}={ns / 1e6:.2f}ms"
                    for name, ns in sorted(slot["components_ns"].items())
                    if ns
                )
                print(
                    f"    {kind:<7} x{slot['ops']:<5} "
                    f"{slot['observed_ns'] / 1e6:8.2f} ms = {parts}"
                )
        if args.twice:
            print("  run-twice artifact byte-identical: yes")
    print(f"wrote {out_path}")
    if trace_path is not None:
        print(f"wrote {trace_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Memory-disaggregated in-memory object store (IPDPS'22 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="version and calibrated constants")

    demo = sub.add_parser("demo", help="quickstart flow on a fresh cluster")
    demo.add_argument("--nodes", type=int, default=2)
    demo.add_argument("--size-mib", type=int, default=32)
    demo.add_argument("--trace", metavar="PATH", default=None,
                      help="write a Chrome trace of the run to PATH")

    bench = sub.add_parser("bench", help="Table I microbenchmarks (Fig 6/7)")
    bench.add_argument("--spec", type=int, choices=range(1, 7), default=None,
                       help="run one benchmark spec (default: all six)")
    bench.add_argument("--reps", type=int, default=20)

    ablation = sub.add_parser("ablation", help="run an ablation study")
    ablation.add_argument("kind", choices=("allocator", "sharing", "cache"))

    metrics = sub.add_parser(
        "metrics",
        help="run a replicated workload and print the Prometheus scrape "
             "plus top-k latency families",
    )
    metrics.add_argument("--nodes", type=int, default=3)
    metrics.add_argument("--seed", type=int, default=7)
    metrics.add_argument("--objects", type=int, default=20)
    metrics.add_argument("--size-kb", type=int, default=100)
    metrics.add_argument("--rounds", type=int, default=5)
    metrics.add_argument("--top", type=int, default=8,
                         help="latency families to show in the summary table")
    metrics.add_argument("--json", action="store_true",
                         help="print the JSON snapshot instead of the scrape")
    metrics.add_argument("--out", metavar="PATH", default=None,
                         help="write the scrape (or --json snapshot) to PATH "
                              "instead of stdout")

    trace = sub.add_parser(
        "trace",
        help="run a replicated workload with span tracing and emit the "
             "Chrome trace plus critical-path latency attribution",
    )
    trace.add_argument("--nodes", type=int, default=3)
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--objects", type=int, default=12)
    trace.add_argument("--size-kb", type=int, default=100)
    trace.add_argument("--rounds", type=int, default=3)
    trace.add_argument("--sample-rate", type=float, default=1.0,
                       help="head-sampling probability for retained traces "
                            "(errors/slow ops are tail-kept regardless)")
    trace.add_argument("--out", metavar="PATH", default="TRACE_demo.json",
                       help="Chrome trace-event output path")
    trace.add_argument("--snapshot", metavar="PATH", default=None,
                       help="also write the JSON span snapshot to PATH")
    trace.add_argument("--flight", metavar="PATH", default=None,
                       help="also dump the per-node flight-recorder rings "
                            "to PATH")

    chaos = sub.add_parser(
        "chaos", help="seeded fault-injection scenario with resilience stats"
    )
    chaos.add_argument("--nodes", type=int, default=2)
    chaos.add_argument("--seed", type=int, default=7,
                       help="fault-plan and cluster seed (same seed = same run)")
    chaos.add_argument("--events", type=int, default=4,
                       help="random fault events to schedule")
    chaos.add_argument("--horizon-ms", type=float, default=50.0,
                       help="window the fault plan spans, in simulated ms")
    chaos.add_argument("--crash-at-ms", type=float, default=None,
                       help="replace the random plan with one node0 crash at T ms")
    chaos.add_argument("--objects", type=int, default=20)
    chaos.add_argument("--size-kb", type=int, default=100)
    chaos.add_argument("--replicas", type=int, default=2,
                       help="copies per object (1 = no failover)")
    chaos.add_argument("--deadline-ms", type=float, default=20.0,
                       help="per-call RPC deadline (0 = none)")
    chaos.add_argument("--flight-prefix", metavar="PREFIX",
                       default="FLIGHT_chaos",
                       help="on a determinism diff, dump both runs' "
                            "flight recorders to PREFIX_run{1,2}.json")

    recover = sub.add_parser(
        "recover",
        help="crash + bitflip -> header-scan recovery -> anti-entropy scrub",
    )
    recover.add_argument("--nodes", type=int, default=3)
    recover.add_argument("--seed", type=int, default=7,
                         help="cluster seed (same seed = same run)")
    recover.add_argument("--objects", type=int, default=10)
    recover.add_argument("--size-kb", type=int, default=100)
    recover.add_argument("--replicas", type=int, default=2,
                         help="copies per object (>= 2 so repair has a source)")

    topology = sub.add_parser(
        "topology",
        help="placement demo: ring layout, ownership shares, utilization "
             "and the current epoch on an elastic cluster",
    )
    topology.add_argument("--nodes", type=int, default=4)
    topology.add_argument("--seed", type=int, default=7,
                          help="cluster seed (same seed = same layout)")
    topology.add_argument("--objects", type=int, default=64)
    topology.add_argument("--size-kb", type=int, default=64)
    topology.add_argument("--drain", metavar="NODE", default=None,
                          help="drain NODE and rebalance before printing")
    topology.add_argument("--json", action="store_true",
                          help="print the snapshot as JSON")

    simtest = sub.add_parser(
        "simtest",
        help="deterministic simulation testing: model-checked cluster "
             "fuzzing with trace shrinking",
    )
    simtest.add_argument("--seed", type=int, default=None,
                         help="run one seed twice and require byte-identical "
                              "traces (default: sweep mode)")
    simtest.add_argument("--seeds", type=int, default=None,
                         help="number of seeds to sweep (overrides --profile)")
    simtest.add_argument("--ops", type=int, default=None,
                         help="ops per seed (overrides --profile)")
    simtest.add_argument("--base-seed", type=int, default=0,
                         help="first seed of the sweep")
    simtest.add_argument("--profile",
                         choices=("smoke", "nightly", "concurrency",
                                  "tier-hazards"),
                         default="smoke",
                         help="seed budget preset: smoke=100x200, "
                              "nightly=500x300, concurrency=300x200 on the "
                              "async event-loop RPC workload, "
                              "tier-hazards=100x200 reusing hot-cached "
                              "extents")
    simtest.add_argument("--shrink", action="store_true",
                         help="delta-debug the first failing trace to a "
                              "minimal reproducer")
    simtest.add_argument("--self-check", action="store_true",
                         help="plant a known mutation and assert the harness "
                              "catches and shrinks it")
    simtest.add_argument("--mutation", default=None,
                         help="apply a named mutation during the run "
                              "(self-check default: skip_retire)")
    simtest.add_argument("--emit", metavar="PATH", default=None,
                         help="write the shrunk reproducer as a pytest file")

    workload = sub.add_parser(
        "workload",
        help="run a scenario file against a real cluster and emit the "
             "standing BENCH_workload_<scenario>.json artifact",
    )
    workload.add_argument("--scenario", metavar="PATH", default=None,
                          help="scenario file (.json, or .toml on "
                               "Python >= 3.11)")
    workload.add_argument("--seed", type=int, default=None,
                          help="override the scenario's seed")
    workload.add_argument("--out", metavar="DIR", default=".",
                          help="directory for the BENCH artifact "
                               "(default: cwd)")
    workload.add_argument("--twice", action="store_true",
                          help="run twice and fail unless the artifact is "
                               "byte-identical")
    workload.add_argument("--trace", action="store_true",
                          help="force span tracing on and write the "
                               "TRACE_workload_<scenario>.json Chrome trace "
                               "next to the BENCH artifact")
    workload.add_argument("--json", action="store_true",
                          help="print the full BENCH payload instead of the "
                               "summary")
    workload.add_argument("--list", action="store_true",
                          help="list scenario files under --dir instead of "
                               "running")
    workload.add_argument("--dir", metavar="DIR",
                          default="benchmarks/scenarios",
                          help="scenario directory for --list")

    return parser


_COMMANDS = {
    "info": _cmd_info,
    "demo": _cmd_demo,
    "bench": _cmd_bench,
    "ablation": _cmd_ablation,
    "metrics": _cmd_metrics,
    "trace": _cmd_trace,
    "chaos": _cmd_chaos,
    "recover": _cmd_recover,
    "topology": _cmd_topology,
    "simtest": _cmd_simtest,
    "workload": _cmd_workload,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
