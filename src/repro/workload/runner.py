"""Deterministic scenario execution against a real cluster.

:class:`ScenarioRunner` stands up a placement+chaos+RPC
:class:`~repro.core.cluster.Cluster` shaped by the scenario (node count,
per-node ring weights, link-profile factors, store capacity), preloads the
object population with tenant ownership, then drives the generated op
stream on simulated time:

* **open loop** — the clock is advanced to each op's arrival timestamp
  (offset by preload end); per-op latency is completion minus arrival, so
  queueing delay when the cluster falls behind is *in* the number;
* **closed loop** — N logical clients pull ops from the stream as they
  become ready (completion + think time), scheduled earliest-ready-first.

Every op passes multi-tenant admission first; rejected ops consume no
cluster work and are tallied per tenant/reason. Writes replace the slot's
current object (delete old version, put new — filled in place in its
extent, no payload built), deletes empty the slot, and
scans batch-read consecutive slots. Each measured op is recorded once,
in its (kind, tenant) :class:`OpCell`; the BENCH payload folds the cells
into every latency and attribution table. Everything observable is a
pure function of (scenario, seed).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.common.config import (
    ClusterConfig,
    OverloadConfig,
    PlacementConfig,
    SpanConfig,
    TierConfig,
)
from repro.common.errors import (
    AdmissionRejectedError,
    ObjectCorruptedError,
    ReproError,
)
from repro.common.ids import ObjectID
from repro.common.rng import DeterministicRng
from repro.common.stats import Distribution
from repro.common.units import MiB
from repro.core.cluster import Cluster
from repro.rpc.aio.loop import Sleep, TaskAttribution
from repro.rpc.drive import drive
from repro.workload.admission import AdmissionController, TenantQuota
from repro.workload.arrival import closed_loop_next
from repro.workload.report import build_workload_payload
from repro.workload.scenario import Scenario
from repro.workload.traffic import WorkloadOp, _weighted_names, generate_stream


def _fill_byte(slot: int, version: int) -> int:
    return (slot * 131 + version * 17) % 251


def fill_writer(slot: int, version: int) -> Callable[[memoryview], None]:
    """The put writer of one slot version: fills the new extent in place
    with a deterministic constant (contents don't affect modelled timing;
    a recognizable fill makes corruption visible). No payload is built."""
    fill = _fill_byte(slot, version)

    def write(view: memoryview) -> None:
        np.frombuffer(view, np.uint8).fill(fill)

    return write


def _checked_len(data, slot: int, version: int) -> int:
    """The length of one read's payload after an O(1) spot check (no
    clock): the first and last byte must carry the slot version's fill, so
    a read served from the wrong offset fails the op instead of passing on
    its length."""
    fill = _fill_byte(slot, version)
    if data[0] != fill or data[-1] != fill:
        raise ObjectCorruptedError(
            f"slot {slot} version {version}: read {data[0]:#04x}..{data[-1]:#04x}, "
            f"expected fill {fill:#04x}"
        )
    return len(data)


@dataclass
class _Slot:
    """Current object behind one key slot."""

    oid_int: int
    size: int
    tenant: str


@dataclass
class OpCell:
    """Every measured op of one (kind, tenant) pair: its latencies and,
    when attribution runs, the sums of its critical-path components."""

    latency: Distribution = field(default_factory=Distribution)
    components_ns: dict[str, int] = field(default_factory=dict)


@dataclass
class WorkloadResult:
    """Everything a scenario run measured (feed to build_workload_payload)."""

    scenario_name: str
    seed: int
    generated_ops: int
    executed_ops: int = 0
    duration_ns: int = 0
    # (kind, tenant) -> the pair's measured ops, in first-op order.
    cells: dict[tuple[str, str], OpCell] = field(default_factory=dict)
    outcomes: dict[str, int] = field(default_factory=dict)
    bytes_written: int = 0
    bytes_read: int = 0
    bytes_deleted: int = 0
    admission: dict = field(default_factory=dict)
    # Overload-control measurements (populated only when the scenario has
    # an ``overload`` block): goodput = "ok" ops whose latency fit the op
    # deadline, queue depth sampled per admitted request, and the merged
    # server/client shed-and-retry counters.
    overload_enabled: bool = False
    op_deadline_ns: float = 0.0
    in_deadline_ops: int = 0
    overload_queue: Distribution = field(default_factory=Distribution)
    overload_server: dict[str, int] = field(default_factory=dict)
    overload_client: dict[str, int] = field(default_factory=dict)
    # Span-tracing measurements (populated only when the scenario has an
    # enabled ``tracing`` block): the cells' component sums — every
    # measured op's observed latency decomposed ns-exact into
    # queue/service/fabric/retry/hedge/client — plus the sink's sampling
    # stats and the sink itself (for trace export).
    tracing_enabled: bool = False
    attribution_exact: bool = True
    sampling: dict = field(default_factory=dict)
    spans: object | None = None
    # Tiering measurements (populated only when the scenario has a
    # ``tiering`` block): merged per-node hot-object cache stats, tier
    # engine counters, and the fabric bytes the cache kept off the wire.
    tiering_enabled: bool = False
    tiering: dict = field(default_factory=dict)
    # Async-RPC measurements (populated only when the scenario has an
    # ``rpc`` block): effective mode and the merged per-channel pipelining
    # counters (batches sent, ids coalesced, hedges fired, in-flight peak).
    # In async mode the cells' component sums are filled from task-local
    # :class:`TaskAttribution` instead of the span plane.
    rpc_enabled: bool = False
    rpc_mode: str = "sync"
    rpc_counters: dict[str, int] = field(default_factory=dict)


def _runs_as_tasks(scenario: Scenario) -> bool:
    """True when the scenario's ``rpc.mode`` asks for its ops to run as
    event-loop tasks; otherwise each op runs inline, one at a time."""
    return scenario.rpc is not None and scenario.rpc.mode == "async"


def _config_for(scenario: Scenario, seed: int) -> ClusterConfig:
    """The one description of the cluster a scenario runs against (built
    over ``scenario.cluster.node_weights()``'s names)."""
    shape = scenario.cluster
    config = ClusterConfig(seed=seed).with_store(
        capacity_bytes=shape.capacity_mib * MiB,
        check_remote_uniqueness=False,
        lookup_cache=True,
    )
    rpc = config.rpc
    overload = config.overload
    spec = scenario.overload
    if spec is not None:
        overload = OverloadConfig(
            service_rate_ops_per_s=spec.service_rate_ops_per_s,
            queue_depth=spec.queue_depth,
            queue_discipline=spec.queue_discipline,
            shed_expired=spec.shed_expired,
        )
        rpc = replace(
            rpc,
            default_deadline_ns=spec.op_deadline_ms * 1e6,
            retry_budget_per_s=spec.retry_budget_per_s,
            retry_budget_burst=spec.retry_budget_burst,
        )
    rspec = scenario.rpc
    if rspec is not None:
        rpc = replace(
            rpc,
            batch_window_ns=rspec.batch_window_ns,
            max_batch=rspec.max_batch,
            hedge_stagger_ns=rspec.hedge_stagger_ns,
        )
    placement = None
    if shape.placement:
        weights = shape.node_weights()
        heterogeneous = any(w != 1.0 for w in weights.values())
        placement = PlacementConfig(weights=weights if heterogeneous else None)
    tier = None
    tspec = scenario.tiering
    if tspec is not None:
        # tick_interval_ns stays 0: engine ticks ride the op stream (every
        # ``tick_every_ops`` executed ops), so the only clock advances are
        # the migrations' own modelled transfer costs.
        tier = TierConfig(
            cache_capacity_bytes=tspec.cache_capacity_mib * MiB,
            heat_half_life_ns=tspec.heat_half_life_ms * 1e6,
            promote_min_heat=tspec.promote_min_heat,
            bytes_per_tick=tspec.bytes_per_tick_mib * MiB,
            tick_interval_ns=0.0,
        )
    tracing = None
    trspec = scenario.tracing
    if trspec is not None and trspec.enabled and not _runs_as_tasks(scenario):
        # The span sink attributes clock advances through a single
        # open-root stack — sound only while one op is on the clock at
        # a time. Under the event loop attribution is carried per task
        # (TaskAttribution), so the sink stays detached in async mode.
        tracing = SpanConfig(
            sample_rate=trspec.sample_rate,
            tail_percentile=trspec.tail_percentile,
        )
    return replace(
        config,
        rpc=rpc,
        overload=overload,
        placement=placement,
        tier=tier,
        tracing=tracing,
    )


class ScenarioRunner:
    """Execute one scenario deterministically and collect measurements."""

    def __init__(self, scenario: Scenario, seed: int | None = None):
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else int(seed)
        self._burst_model = None
        self._shed_expired_ingress = False
        self.admission = AdmissionController()
        for tenant in scenario.tenants:
            q = tenant.quota
            self.admission.set_quota(
                tenant.name,
                TenantQuota(
                    max_stored_bytes=q.max_stored_bytes,
                    ops_per_s=q.ops_per_s,
                    burst_ops=q.burst_ops,
                    write_bytes_per_s=q.write_bytes_per_s,
                    burst_bytes=q.burst_bytes,
                ),
            )
        self.cluster: Cluster | None = None
        self._clock = None  # the cluster's SimClock, once run() built it
        self._spans = None
        self._slots: dict[int, _Slot] = {}
        self._next_oid = 0
        self._clients: list = []
        self._tier_engine = None
        self._tier_tick_every = 0
        self._ops_since_tier_tick = 0
        # slot -> (reads, remote reads, cache hits); armed only when
        # tiering is on.
        self._read_stats: dict[int, tuple[int, int, int]] | None = None
        self.result = WorkloadResult(
            scenario_name=scenario.name,
            seed=self.seed,
            generated_ops=scenario.traffic.ops,
        )

    # ------------------------------------------------------------------ setup

    def _fresh_oid(self) -> ObjectID:
        self._next_oid += 1
        return ObjectID.from_int(self._next_oid)

    def _client(self, index: int):
        return self._clients[index % len(self._clients)]

    def _preload(self) -> None:
        """Create the initial population with tenant ownership by weight."""
        scenario = self.scenario
        rng = DeterministicRng(self.seed)
        owners = _weighted_names(
            rng.spawn("owners"),
            [(t.name, float(t.weight)) for t in scenario.tenants],
            scenario.population.objects,
        )
        size_rng = rng.spawn("preload-sizes")
        replicas = scenario.cluster.replicas
        loop = self.cluster.loop if _runs_as_tasks(scenario) else None
        for slot in range(scenario.population.objects):
            size = scenario.population.size.draw(size_rng)
            oid = self._fresh_oid()
            drive(
                self._client(slot).put_into_task,
                oid,
                size,
                fill_writer(slot, self._next_oid),
                replicas=replicas,
                loop=loop,
            )
            tenant = owners[slot]
            self._slots[slot] = _Slot(self._next_oid, size, tenant)
            self.admission.record_stored(tenant, size)

    # ------------------------------------------------------------------ ops

    # Each op kind has ONE body, a generator taking the op's TaskAttribution
    # (None when blocking) and ``blocking``: _execute_inner runs it inline
    # through repro.rpc.drive.drive(), _op_task yields from it as an
    # event-loop task when the scenario's rpc.mode is async. The client and
    # store bodies below it take the same two arguments, so the op observes
    # exactly as its driver does — root spans when blocking, per-task
    # attribution otherwise.

    def _delete_slot(self, slot: int, attr, blocking: bool):
        """Empty *slot*, deleting its object at the holder; False if it
        was already empty."""
        state = self._slots.pop(slot, None)
        if state is None:
            return False
        oid = ObjectID.from_int(state.oid_int)
        holder = self.cluster.primary_holder(oid, self.cluster.node_names())
        if holder is not None:
            yield from self.cluster.store(holder).delete_object_task(
                oid, attr, blocking
            )
        self.admission.record_stored(state.tenant, -state.size)
        self.result.bytes_deleted += state.size
        return True

    def _arm_hit_probe(self, client):
        """Per-slot hit attribution for the BENCH hot-set breakdown: the
        issuing node's cache stamps last_served on every serve, so clearing
        it before the get tells us whether *this* read hit. Returns the
        cache to check afterwards (None when tiering is off)."""
        if self._read_stats is None:
            return None
        agent = client.store.tier_agent
        cache = agent.cache if agent is not None else None
        if cache is not None:
            cache.last_served = None
        return cache

    def _do_read(self, op: WorkloadOp, attr, blocking: bool = False):
        state = self._slots.get(op.slot)
        if state is None:
            return "miss"
        client = self._client(op.seq)
        oid = ObjectID.from_int(state.oid_int)
        cache = self._arm_hit_probe(client)
        [buffer] = yield from client.get_task([oid], True, attr, blocking)
        if attr is not None:
            attr.settle("service")
        if buffer is None:
            return "miss"
        try:
            nbytes = _checked_len(buffer.read_view(), op.slot, state.oid_int)
        finally:
            client.release(oid)
        if attr is not None:
            attr.settle("fabric")
        if self._read_stats is not None:
            # Only remote reads are cache-eligible: a home-local get never
            # consults the cache and would dilute the hit rate it reports.
            remote = buffer.is_remote
            hit = (
                cache is not None
                and cache.last_served is not None
                and cache.last_served[0] == oid
            )
            reads, remotes, hits = self._read_stats.get(op.slot, (0, 0, 0))
            self._read_stats[op.slot] = (
                reads + 1,
                remotes + int(remote),
                hits + int(hit),
            )
        self.result.bytes_read += nbytes
        return "ok"

    def _do_write(self, op: WorkloadOp, attr, blocking: bool = False):
        yield from self._delete_slot(op.slot, attr, blocking)
        oid = self._fresh_oid()
        # Concurrent writes keep allocating ids while a task is suspended,
        # so pin this object's id now rather than re-reading the allocator
        # after the put completes.
        oid_int = self._next_oid
        yield from self._client(op.seq).put_into_task(
            oid,
            op.size_bytes,
            fill_writer(op.slot, oid_int),
            replicas=self.scenario.cluster.replicas,
            attr=attr,
            blocking=blocking,
        )
        if attr is not None:
            attr.settle("service")
        self._slots[op.slot] = _Slot(oid_int, op.size_bytes, op.tenant)
        self.admission.record_stored(op.tenant, op.size_bytes)
        self.result.bytes_written += op.size_bytes
        return "ok"

    def _do_delete(self, op: WorkloadOp, attr, blocking: bool = False):
        deleted = yield from self._delete_slot(op.slot, attr, blocking)
        if attr is not None:
            attr.settle("service")
        return "ok" if deleted else "miss"

    def _do_scan(self, op: WorkloadOp, attr, blocking: bool = False):
        """One Get over the consecutive live slots, then a zero-copy
        spot-checked read and a release per buffer — every reference is
        released, even past a read that raises."""
        n_slots = self.scenario.population.objects
        targets = []
        for offset in range(self.scenario.traffic.scan_length):
            slot = (op.slot + offset) % n_slots
            state = self._slots.get(slot)
            if state is not None:
                targets.append((slot, state.oid_int))
        if not targets:
            return "empty"
        oids = [ObjectID.from_int(version) for _, version in targets]
        client = self._client(op.seq)
        buffers = yield from client.get_task(oids, True, attr, blocking)
        if attr is not None:
            attr.settle("service")
        read = 0
        pending = iter(zip(oids, buffers, targets))
        try:
            for oid, buffer, (slot, version) in pending:
                if buffer is None:
                    continue
                try:
                    read += _checked_len(buffer.read_view(), slot, version)
                finally:
                    client.release(oid)
        finally:
            for oid, buffer, _ in pending:  # only left over when a read raised
                if buffer is not None:
                    client.release(oid)
        if attr is not None:
            attr.settle("fabric")
        self.result.bytes_read += read
        return "ok"

    def _op_task(self, op: WorkloadOp, issue_ns: int):
        """One op as an event-loop task — ``_execute``/``_execute_inner``
        with per-task attribution in place of the root span."""
        if not self._ingress(op, issue_ns):
            return
        attr = TaskAttribution(self._clock, issue_ns)
        # Between the op's scheduled arrival and the task actually starting
        # the loop may have been busy with other ops: that is queueing.
        attr.settle("queue")
        try:
            outcome = yield from getattr(self, f"_do_{op.kind}")(op, attr)
        except ReproError as exc:
            outcome = f"error:{type(exc).__name__}"
        attr.settle("client")
        latency = self._complete(op, issue_ns, outcome)
        if attr.total_ns() != latency:
            self.result.attribution_exact = False
        self._attribute(op, attr.components)
        self._maybe_tier_tick()

    # ------------------------------------------------------------------ run

    def _maybe_burst(self) -> None:
        """Inject every periodic stall that has come due on the burst node
        (``burst_backlog_ms`` of queued work each ``burst_period_s``)."""
        if self._burst_model is None:
            return
        while self._clock.now_ns >= self._next_burst_ns:
            self._burst_model.add_backlog(self._burst_backlog_ns)
            self._next_burst_ns += self._burst_period_ns

    def _execute(self, op: WorkloadOp, issue_ns: int) -> None:
        spans = self._spans
        if spans is None:
            self._execute_inner(op, issue_ns)
            return
        clock = self._clock
        # The op's deadline (and observed latency) is anchored at its
        # scheduled arrival; by the time _execute runs, the clock may be
        # past it — that pre-dispatch backlog wait is queueing delay.
        wait = clock.now_ns - issue_ns
        with spans.span(
            "op", op.kind, "workload", {"tenant": op.tenant, "slot": op.slot}
        ) as sp:
            latency = self._execute_inner(op, issue_ns)
        if latency is None:
            return  # shed at ingress or rejected: no latency was measured
        if wait > 0:
            # Fold the backlog wait into the root's components post-close:
            # the kept trace holds the same dict, so the export agrees.
            sp.add_component("queue", wait)
        components = sp.components
        if sum(components.values()) != latency:
            self.result.attribution_exact = False
        self._attribute(op, components)

    def _attribute(self, op: WorkloadOp, components: dict) -> None:
        """Add one measured op's latency decomposition to its (kind, tenant)
        cell's component sums — integers, so the order the report folds
        cells in cannot matter."""
        sums = self.result.cells[op.kind, op.tenant].components_ns
        for component, value in components.items():
            if value:
                try:
                    sums[component] += value
                except KeyError:
                    sums[component] = value

    def _ingress(self, op: WorkloadOp, issue_ns: int) -> bool:
        """The ingress every op passes first: due bursts, the expired-
        ingress shed, tenant admission. False when the op ends here (its
        outcome is already tallied and no latency is measured)."""
        clock = self._clock
        result = self.result
        self._maybe_burst()
        if (
            self._shed_expired_ingress
            and clock.now_ns - issue_ns >= result.op_deadline_ns
        ):
            # The op's deadline is anchored at its *scheduled* arrival, and
            # it expired while the op sat in the dispatch backlog. Serving
            # it now would burn cluster time nobody is waiting for — shed
            # at the ingress, the client-side twin of the server's
            # expired-work shedding. This is what lets goodput survive
            # past the knee: stale work exits for free, fresh work runs.
            # It never reaches the cluster, so it is not an executed op.
            result.outcomes["shed:expired"] = (
                result.outcomes.get("shed:expired", 0) + 1
            )
            result.overload_client["ingress_shed"] = (
                result.overload_client.get("ingress_shed", 0) + 1
            )
            return False
        try:
            self.admission.admit(
                op.tenant, op.kind, op.size_bytes, clock.now_ns
            )
        except AdmissionRejectedError as exc:
            outcome = f"rejected:{exc.reason}"
            result.outcomes[outcome] = result.outcomes.get(outcome, 0) + 1
            return False
        return True

    def _complete(self, op: WorkloadOp, issue_ns: int, outcome: str) -> int:
        """Tally one executed op's outcome; returns its latency (ns)."""
        result = self.result
        latency = self._clock.now_ns - issue_ns
        result.executed_ops += 1
        if outcome == "ok" and (
            result.op_deadline_ns <= 0 or latency <= result.op_deadline_ns
        ):
            result.in_deadline_ops += 1
        result.outcomes[outcome] = result.outcomes.get(outcome, 0) + 1
        cell = result.cells.get((op.kind, op.tenant))
        if cell is None:
            cell = result.cells[op.kind, op.tenant] = OpCell()
        cell.latency.add(latency)
        return latency

    def _execute_inner(self, op: WorkloadOp, issue_ns: int):
        """Run one op; returns the measured latency (ns), or ``None`` when
        the op was shed/rejected before reaching the cluster."""
        if not self._ingress(op, issue_ns):
            return None
        try:
            outcome = drive(getattr(self, f"_do_{op.kind}"), op, None)
        except ReproError as exc:
            outcome = f"error:{type(exc).__name__}"
        return self._complete(op, issue_ns, outcome)

    def _maybe_tier_tick(self) -> None:
        """Run one tier-engine tick every ``tick_every_ops`` driven ops —
        the traffic-plane stand-in for a background tiering thread."""
        if self._tier_engine is None:
            return
        self._ops_since_tier_tick += 1
        if self._ops_since_tier_tick >= self._tier_tick_every:
            self._ops_since_tier_tick = 0
            self._tier_engine.tick()

    def _collect_tiering(self) -> dict:
        """Merge per-node cache stats, engine counters and fabric savings
        into the result's ``tiering`` block (node order → deterministic)."""
        keys = (
            "hits", "misses", "admissions", "rejections", "evictions",
            "invalidations", "bytes_avoided", "entries", "used_bytes",
            "capacity_bytes",
        )
        totals = {key: 0 for key in keys}
        per_node: dict[str, dict] = {}
        for name in self.cluster.node_names():
            agent = self.cluster.tier_agent(name)
            if agent is None:
                continue
            cache = agent.stats().get("cache")
            if cache is None:
                continue
            per_node[name] = cache
            for key in keys:
                totals[key] += int(cache.get(key, 0))
        lookups = totals["hits"] + totals["misses"]
        out: dict = {
            "cache": {
                **totals,
                "hit_rate": totals["hits"] / lookups if lookups else 0.0,
            },
            "per_node": per_node,
        }
        if self._tier_engine is not None:
            out["engine"] = dict(
                sorted(self._tier_engine.counters.snapshot().items())
            )
        read_bytes = avoided = 0
        for link in self.cluster.fabric.links():
            read_bytes += link.counters.read_bytes
            avoided += link.counters.read_bytes_avoided
        out["fabric"] = {
            "read_bytes": read_bytes,
            "read_bytes_avoided": avoided,
        }
        if self._read_stats:
            # The hot set: the most-read tenth of the slots that saw any
            # reads (at least one slot), ranked by observed read count —
            # the zipfian head the cache exists to serve. Hit rate is over
            # *remote* reads only; a home-local get never consults the
            # cache. (slot, count) ordering keeps ties deterministic.
            ranked = sorted(
                self._read_stats.items(),
                key=lambda item: (-item[1][0], item[0]),
            )
            top = max(1, len(ranked) // 10)
            hot = [stats for _, stats in ranked[:top]]
            hot_reads = sum(reads for reads, _, _ in hot)
            hot_remote = sum(remotes for _, remotes, _ in hot)
            hot_hits = sum(hits for _, _, hits in hot)
            all_reads = sum(reads for _, (reads, _, _) in ranked)
            all_remote = sum(remotes for _, (_, remotes, _) in ranked)
            all_hits = sum(hits for _, (_, _, hits) in ranked)
            out["hot_set"] = {
                "slots": top,
                "reads": hot_reads,
                "remote_reads": hot_remote,
                "hits": hot_hits,
                "hit_rate": hot_hits / hot_remote if hot_remote else 0.0,
                "read_share": hot_reads / all_reads if all_reads else 0.0,
                "all_remote_hit_rate": (
                    all_hits / all_remote if all_remote else 0.0
                ),
            }
        return out

    def _collect_overload(self) -> None:
        """Merge per-server admission stats and per-channel retry/hedge
        counters into the result (node order → deterministic)."""
        result = self.result
        for name in self.cluster.node_names():
            node = self.cluster.node(name)
            model = node.server.overload
            if model is not None:
                result.overload_queue.extend(model.queue_samples.samples)
                for key, value in sorted(model.counters.snapshot().items()):
                    result.overload_server[key] = (
                        result.overload_server.get(key, 0) + value
                    )
            for _, channel in sorted(node.channels.items()):
                for key in ("attempts_shed", "retries", "retries_suppressed"):
                    value = getattr(channel.counters, key)
                    if value:
                        result.overload_client[key] = (
                            result.overload_client.get(key, 0) + value
                        )

    def run(self) -> WorkloadResult:
        scenario = self.scenario
        if scenario.overload is not None:
            self.result.overload_enabled = True
            self.result.op_deadline_ns = scenario.overload.op_deadline_ms * 1e6
            self._shed_expired_ingress = (
                scenario.overload.shed_expired
                and scenario.overload.op_deadline_ms > 0
            )
        self.cluster = Cluster(
            _config_for(scenario, self.seed), list(scenario.cluster.node_weights())
        )
        self._clock = self.cluster.clock
        if scenario.tiering is not None:
            self.result.tiering_enabled = True
            self._tier_engine = self.cluster.tier_engine
            self._tier_tick_every = scenario.tiering.tick_every_ops
            self._read_stats = {}
        self._spans = self.cluster.spans
        if self._spans is not None:
            self.result.tracing_enabled = True
            self.result.spans = self._spans
        self._clients = [
            self.cluster.client(name, client_name=f"wl-{name}")
            for name in self.cluster.node_names()
        ]
        if scenario.overload is not None:
            # Preload is setup, not measured traffic: build the population
            # at infinite capacity, then arm the finite service rate with a
            # clean queue so the experiment starts from steady state.
            for name in self.cluster.node_names():
                self.cluster.node(name).server.overload.set_service_rate(0.0)
        if self._spans is not None:
            # Preload puts are setup, not measured ops: park the sink so
            # they neither open spans nor skew the tail-keep distribution.
            self._spans.enabled = False
        self._preload()
        if self._spans is not None:
            self._spans.enabled = True
        if scenario.overload is not None:
            for name in self.cluster.node_names():
                model = self.cluster.node(name).server.overload
                model.reset()
                model.set_service_rate(scenario.overload.service_rate_ops_per_s)
        ops = generate_stream(scenario, self.seed)
        clock = self.cluster.clock
        t0 = clock.now_ns

        # Periodic one-node stalls (traffic-plane OverloadBurst analogue).
        self._burst_model = None
        spec = scenario.overload
        if (
            spec is not None
            and spec.burst_backlog_ms > 0
            and spec.burst_period_s > 0
        ):
            names = self.cluster.node_names()
            target = names[spec.burst_node % len(names)]
            self._burst_model = self.cluster.node(target).server.overload
            self._burst_backlog_ns = spec.burst_backlog_ms * 1e6
            self._burst_period_ns = spec.burst_period_s * 1e9
            self._next_burst_ns = t0 + self._burst_period_ns

        arrival = scenario.traffic.arrival
        if _runs_as_tasks(scenario):
            self._run_async(ops, t0, arrival)
        elif arrival.mode == "open":
            for op in ops:
                at = t0 + op.at_ns
                if clock.now_ns < at:
                    clock.advance(at - clock.now_ns)
                self._execute(op, at)
                self._maybe_tier_tick()
        else:
            # Earliest-ready client pulls the next op from the stream.
            ready = [(t0, client_id) for client_id in range(arrival.clients)]
            heapq.heapify(ready)
            for op in ops:
                ready_ns, client_id = heapq.heappop(ready)
                if clock.now_ns < ready_ns:
                    clock.advance(ready_ns - clock.now_ns)
                self._execute(op, ready_ns)
                self._maybe_tier_tick()
                heapq.heappush(
                    ready,
                    (
                        closed_loop_next(clock.now_ns, arrival.think_time_us),
                        client_id,
                    ),
                )

        self.result.duration_ns = clock.now_ns - t0
        self.result.admission = self.admission.snapshot()
        if self.result.overload_enabled:
            self._collect_overload()
        if self.result.tiering_enabled:
            self.result.tiering = self._collect_tiering()
        if self._spans is not None:
            self.result.sampling = self._spans.sampling_stats()
        if scenario.rpc is not None:
            self.result.rpc_enabled = True
            self.result.rpc_mode = scenario.rpc.mode
            self._collect_rpc()
        return self.result

    def _run_async(self, ops, t0: int, arrival) -> None:
        """Drive the op stream through the event loop.

        Open loop: one task per op, spawned at its scheduled arrival —
        in-flight ops overlap in simulated time instead of serializing.
        Closed loop: ``clients`` puller tasks, each taking the next op from
        the shared stream and sleeping its think time between ops.
        """
        loop = self.cluster.loop
        clock = self.cluster.clock
        if arrival.mode == "open":
            for op in ops:
                at = t0 + op.at_ns
                loop.run_until(at)
                loop.spawn(self._op_task(op, at), name=("op", op.seq))
            loop.drain()
            return
        queue = deque(ops)
        think = arrival.think_time_us

        def puller():
            while queue:
                op = queue.popleft()
                yield from self._op_task(op, clock.now_ns)
                ready = closed_loop_next(clock.now_ns, think)
                if ready > clock.now_ns:
                    yield Sleep(ready - clock.now_ns)

        for client_id in range(arrival.clients):
            loop.spawn(puller(), name=("client", client_id))
        loop.drain()

    def _collect_rpc(self) -> None:
        """Merge per-channel async-plane counters into the result (node
        order → deterministic; ``in_flight_peak`` is a max, the rest sum)."""
        merged = self.result.rpc_counters
        for name in self.cluster.node_names():
            node = self.cluster.node(name)
            for _, channel in sorted(node.channels.items()):
                for key, value in channel.aio_counters.items():
                    if key == "in_flight_peak":
                        merged[key] = max(merged.get(key, 0), value)
                    else:
                        merged[key] = merged.get(key, 0) + value


def run_scenario(
    scenario: Scenario, seed: int | None = None
) -> tuple[WorkloadResult, dict]:
    """Run *scenario* and return ``(result, BENCH payload)``."""
    result = ScenarioRunner(scenario, seed).run()
    return result, build_workload_payload(result)
