"""Simulation runner: apply a trace to a real Cluster, check the oracle.

The runner owns a three-node seed cluster (placement + chaos + RPC
sharing enabled), executes ops one at a time, and records a one-line
outcome per op. Because every component runs on the simulated clock and
all randomness flows from the seed, the recorded trace text is
byte-identical across runs — the determinism the shrinker and the
golden-seed corpus rely on.

Invariants checked (violations stop the run):

* **oracle agreement** — get outcomes must be consistent with the
  sequential model (no phantom objects, no lost objects on a quiet
  cluster, no resurrection after a clean delete, bytes always exact);
* **sealed immutability / CRC** — every sealed extent passes
  ``verify_object`` and its at-rest bytes equal the generated payload;
* **no duplicate primaries** — at most one live sealed non-replica
  extent per object id (crash-recovery amnesty aside);
* **allocator accounting** — ``used_bytes`` equals the sum of live
  extent padded sizes, and ``Allocator.audit()`` holds;
* **topology epochs** — per-node epochs never move backwards;
* **convergence** — after healing every fault, breakers close, the
  rebalancer converges, and every surviving object is readable from its
  ring home with exact bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.chaos import (
    FaultPlan,
    LinkDegrade,
    LinkHeal,
    LinkPartition,
    LinkRestore,
    NodeCrash,
    NodeRestart,
    OverloadBurst,
    RpcBlackhole,
)
from repro.common.clock import NS_PER_MS
from repro.common.config import (
    ClusterConfig,
    OverloadConfig,
    PlacementConfig,
    RpcConfig,
    SpanConfig,
    TierConfig,
)
from repro.common.errors import (
    AdmissionRejectedError,
    ObjectCorruptedError,
    ObjectNotFoundError,
    ObjectUnavailableError,
    ReproError,
    StaleDescriptorError,
)
from repro.common.ids import ObjectID
from repro.common.units import MiB
from repro.core import Cluster
from repro.core.health import BreakerState
from repro.placement.membership import NodeStatus
from repro.scrub import Scrubber
from repro.simtest import mutations
from repro.simtest.model import Model, ObjState, metadata_for, payload_for
from repro.simtest.ops import Op
from repro.simtest.workload import SEED_NODES, generate_ops
from repro.workload.admission import AdmissionController, TenantQuota

#: Per-node region size. Large enough that the *generated* workload never
#: triggers eviction; a hand-written trace can, with puts of hundreds of
#: KiB (see ``_note_evictions`` for what the oracle then stops expecting).
CAPACITY_BYTES = 8 * MiB

#: Structural (allocator/table/at-rest-bytes) checks run every N ops.
DEEP_CHECK_EVERY = 25

#: Bounded per-server request queue. Inert until a trace sets a finite
#: service rate (``set_service_rate``), so legacy traces replay
#: unchanged; small enough that an ``overload_burst`` can fill it and
#: force RESOURCE_EXHAUSTED sheds.
OVERLOAD_QUEUE_DEPTH = 16

#: Async hedged-lookup stagger armed in every harness cluster. Only the
#: event-loop probe path reads it, so traces that never issue
#: ``set_rpc_mode(mode=async)`` replay byte-identical; once a trace goes
#: async, a blackholed primary (1–20 ms holes) outlives the stagger and
#: the hedge probe actually races.
HEDGE_STAGGER_NS = 4 * NS_PER_MS

#: Every harness cluster, seeded per run: lookup cache on, placement,
#: the tiering plane armed (every get runs through the hot-object cache,
#: exercising its coherence machinery under faults; the promote/demote ops
#: drive the tier engine directly) and flight-recorder-only tracing (no
#: head sampling, no retained traces — just the bounded per-node rings a
#: violation ships with; tracing never advances the clock, so trace text
#: is unchanged).
CLUSTER_CONFIG = ClusterConfig(
    rpc=RpcConfig(hedge_stagger_ns=HEDGE_STAGGER_NS),
    overload=OverloadConfig(queue_depth=OVERLOAD_QUEUE_DEPTH),
    placement=PlacementConfig(),
    tier=TierConfig(),
    tracing=SpanConfig(sample_rate=0.0, max_traces=0),
).with_store(
    capacity_bytes=CAPACITY_BYTES, check_remote_uniqueness=False, lookup_cache=True
)

#: Sweep presets: (n_seeds, n_ops, workload profile). The concurrency
#: profile runs the async event-loop RPC plane under the same oracle —
#: pipelined data-path ops, batched multi-gets, mid-trace mode flips.
PROFILES = {
    "smoke": (100, 200, "default"),
    "nightly": (500, 300, "default"),
    "concurrency": (300, 200, "concurrency"),
}


@dataclass(frozen=True)
class Violation:
    kind: str
    op_index: int
    message: str

    def describe(self) -> str:
        return f"[{self.kind}] at op {self.op_index}: {self.message}"


@dataclass
class RunResult:
    seed: int
    ops: list[Op]
    steps: list[str]
    violations: list[Violation]
    mutation: str | None = None
    # Post-mortem span dump: the per-node flight-recorder rings at the
    # moment the run stopped (populated only when violations fired).
    # Deterministic — replaying the same trace reproduces it byte for
    # byte — so it ships next to the shrunk reproducer.
    flight: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def trace_text(self) -> str:
        return "\n".join(self.steps) + "\n"

    def report(self) -> str:
        lines = [f"seed={self.seed} ops={len(self.ops)} "
                 f"{'OK' if self.ok else 'FAILED'}"]
        lines += [v.describe() for v in self.violations]
        return "\n".join(lines)

    def to_trace(self) -> dict:
        out = {"seed": self.seed, "ops": [op.to_obj() for op in self.ops]}
        if self.mutation is not None:
            out["mutation"] = self.mutation
        return out


class SimulationRunner:
    """Execute one op trace against a fresh cluster and judge the result."""

    def __init__(self, seed: int, *, mutation: str | None = None):
        self.seed = seed
        self.mutation = mutation
        self.model = Model()
        self.steps: list[str] = []
        self.violations: list[Violation] = []
        self._op_index = -1
        self._present: list[str] = list(SEED_NODES)
        self._crashed: set[str] = set()
        self._removed: set[str] = set()
        self._partitions: set[tuple[str, str]] = set()
        self._degraded: set[tuple[str, str]] = set()
        self._blackhole_until = 0
        self._epochs: dict[str, int] = {}
        # node -> its store's objects_evicted count as of the last op.
        self._evictions_seen: dict[str, int] = {}
        self._clients: dict[str, object] = {}
        # Admission-control state fuzzed alongside the cluster: set_quota
        # installs byte quotas, tenant_put routes through admit() first.
        # Accounting is client-side and approximate on purpose (a crash
        # wiping a store does not refund the tenant), mirroring how the
        # workload plane tracks footprint.
        self.admission = AdmissionController()
        self._tenant_of: dict[int, tuple[str, int]] = {}
        # Cache-coherence oracle state: set by _read when the hot-object
        # cache (not the fabric) produced the bytes of the last get.
        self._last_cached: tuple[int, str] | None = None
        self.cluster: Cluster | None = None

    # ------------------------------------------------------------------ run

    def run(self, ops: list[Op]) -> RunResult:
        with mutations.apply(self.mutation):
            self.cluster = Cluster(
                replace(CLUSTER_CONFIG, seed=self.seed),
                list(SEED_NODES),
                fault_plan=FaultPlan(),
            )
            for index, op in enumerate(ops):
                self._op_index = index
                outcome = self._execute(op)
                if self.cluster.rpc_mode == "async":
                    # Run stragglers out (hedge losers, coalesced flushes):
                    # the facade drive returns when *its* task resolves, and
                    # a pending admitted call would otherwise pin breaker
                    # probe slots across ops — in a real deployment the
                    # loop never stops between requests.
                    self.cluster.loop.drain()
                self.steps.append(f"{index:04d} {op.format()} -> {outcome}")
                self._note_evictions()
                self._check_epochs()
                if not self.violations and (index + 1) % DEEP_CHECK_EVERY == 0:
                    self._deep_check()
                if self.violations:
                    break
            if not self.violations:
                self._deep_check()
            if not self.violations:
                self._converge_and_sweep()
        for violation in self.violations:
            self.steps.append(f"VIOLATION {violation.describe()}")
        flight = None
        if self.violations and self.cluster is not None:
            sink = self.cluster.spans
            if sink is not None:
                flight = sink.flight_dump()
        return RunResult(
            seed=self.seed,
            ops=list(ops),
            steps=self.steps,
            violations=list(self.violations),
            mutation=self.mutation,
            flight=flight,
        )

    # ------------------------------------------------------------------ helpers

    def _violate(self, kind: str, message: str) -> None:
        self.violations.append(Violation(kind, self._op_index, message))

    def _now(self) -> int:
        return self.cluster.clock.now_ns

    def _up(self) -> list[str]:
        return [n for n in self._present if n not in self._crashed]

    def _client(self, node: str):
        client = self._clients.get(node)
        if client is None:
            client = self.cluster.client(node, client_name=f"sim-{node}")
            self._clients[node] = client
        return client

    def _drop_client(self, node: str) -> None:
        self._clients.pop(node, None)

    def _faults_active(self) -> bool:
        return bool(
            self._crashed
            or self._partitions
            or self._now() < self._blackhole_until
            or self._overload_active()
        )

    def _overload_active(self) -> bool:
        """True while any server can shed: a finite service rate is set
        or injected backlog has not drained. Sheds (RESOURCE_EXHAUSTED)
        make reads fail and writes land as MAYBE, so the oracle excuses
        quiet-cluster guarantees exactly as it does for link faults."""
        for name in self._present:
            if name in self._crashed:
                continue
            model = getattr(self.cluster.node(name).server, "overload", None)
            if model is not None and model.active:
                return True
        return False

    def _breakers_closed(self, node: str) -> bool:
        for peer, channel in sorted(self.cluster.node(node).channels.items()):
            if peer not in self._present or peer in self._crashed:
                continue
            breaker = channel.breaker
            if breaker is not None and breaker.state is not BreakerState.CLOSED:
                return False
        return True

    def _degraded_visibility(self, node: str) -> bool:
        """True when a failed read from ``node`` is excusable."""

        return self._faults_active() or not self._breakers_closed(node)

    @staticmethod
    def _obj_of(object_id: ObjectID) -> int:
        return int.from_bytes(object_id.binary(), "big")

    def _mark_exposure(self, node: str) -> None:
        """A node's store state is about to be wiped (crash or rebuild):
        give every object with an extent there dirty-delete/dup amnesty."""

        store = self.cluster.store(node)
        with store.table.lock:
            objs = {self._obj_of(e.object_id) for e in store.table}
        self.model.mark_crash_exposure(objs)

    def _find_holder(self, object_id: ObjectID) -> str | None:
        """Node holding the live sealed primary extent, if any."""

        for name in sorted(self._up()):
            store = self.cluster.store(name)
            if object_id in store.deferred_retires():
                continue
            if store.is_replica(object_id):
                continue
            with store.table.lock:
                entry = store.table.lookup(object_id)
                if entry is not None and entry.is_sealed and not entry.quarantined:
                    return name
        return None

    # ------------------------------------------------------------------ ops

    def _execute(self, op: Op) -> str:
        handler = getattr(self, f"_do_{op.kind}")
        try:
            return handler(op)
        except Exception as exc:  # noqa: BLE001 - an exception escaping the
            # handler (ReproError or not) is a finding worth shrinking, not a
            # harness crash.
            self._violate(
                "unexpected-exception",
                f"{op.format()} raised {type(exc).__name__}: {exc}",
            )
            return f"crash:{type(exc).__name__}"

    def _do_put(self, op: Op) -> str:
        node = str(op["node"])
        obj = int(op["obj"])
        if node not in self._up():
            return "skip:node-down"
        if self.model.state(obj) is not None:
            return "skip:obj-reused"
        size = int(op["size"])
        oid = ObjectID.from_int(obj)
        store = self.cluster.store(node)
        replicas = min(int(op["replicas"]), 1 + len(store.peers()))
        try:
            self._client(node).put_bytes(
                oid, payload_for(obj, size), metadata_for(obj), replicas=replicas
            )
        except ReproError as exc:
            self.model.record_put_failed(obj, size)
            return f"fail:{type(exc).__name__}"
        self.model.record_put_ok(obj, size)
        return "ok"

    def _do_set_quota(self, op: Op) -> str:
        self.admission.set_quota(
            str(op["tenant"]),
            TenantQuota(max_stored_bytes=int(op["bytes"])),
            now_ns=self._now(),
        )
        return "ok"

    def _do_tenant_put(self, op: Op) -> str:
        node = str(op["node"])
        obj = int(op["obj"])
        tenant = str(op["tenant"])
        if node not in self._up():
            return "skip:node-down"
        if self.model.state(obj) is not None:
            return "skip:obj-reused"
        size = int(op["size"])
        try:
            self.admission.admit(tenant, "write", size, self._now())
        except AdmissionRejectedError as exc:
            # Refused at the entry point: no cluster work happened, the
            # model must keep treating the object as never-created.
            return f"rejected:{exc.reason}"
        oid = ObjectID.from_int(obj)
        store = self.cluster.store(node)
        replicas = min(int(op["replicas"]), 1 + len(store.peers()))
        try:
            self._client(node).put_bytes(
                oid, payload_for(obj, size), metadata_for(obj), replicas=replicas
            )
        except ReproError as exc:
            self.model.record_put_failed(obj, size)
            return f"fail:{type(exc).__name__}"
        self.model.record_put_ok(obj, size)
        self.admission.record_stored(tenant, size)
        self._tenant_of[obj] = (tenant, size)
        return "ok"

    def _do_get(self, op: Op) -> str:
        node = str(op["node"])
        obj = int(op["obj"])
        if node not in self._up():
            return "skip:node-down"
        oid = ObjectID.from_int(obj)
        state = self.model.state(obj)
        outcome, data = self._read(node, oid)
        self._judge_get(obj, state, node, outcome, data)
        return outcome

    def _read(self, node: str, oid: ObjectID) -> tuple[str, bytes | None]:
        client = self._client(node)
        # Arm the coherence oracle: clear the node cache's last-served
        # stamp so a hit during *this* get is unambiguously attributable.
        agent = client.store.tier_agent
        cache = agent.cache if agent is not None else None
        self._last_cached = None
        if cache is not None:
            cache.last_served = None
        try:
            buffers = client.get([oid], allow_missing=True)
        except ObjectUnavailableError:
            return "unavailable", None
        except ObjectCorruptedError:
            return "corrupt", None
        except StaleDescriptorError:
            return "stale", None
        except ReproError as exc:
            return f"error:{type(exc).__name__}", None
        buffer = buffers[0]
        if buffer is None:
            return "notfound", None
        try:
            data = buffer.read_all()
        except ObjectCorruptedError:
            return "corrupt", None
        except StaleDescriptorError:
            return "stale", None
        except ReproError as exc:
            return f"error:{type(exc).__name__}", None
        finally:
            client.release(oid)
        if (
            cache is not None
            and cache.last_served is not None
            and cache.last_served[0] == oid
        ):
            self._last_cached = (cache.last_served[1], node)
        return "ok", data

    def _judge_get(
        self,
        obj: int,
        state: ObjState | None,
        node: str,
        outcome: str,
        data: bytes | None,
    ) -> None:
        excused = self._degraded_visibility(node)
        if outcome == "ok":
            cached = self._last_cached
            if state is None:
                self._violate("phantom-object", f"get({obj}) returned bytes "
                              "for an object that was never put")
            elif state is ObjState.DELETED_CLEAN:
                self._violate("resurrection", f"get({obj}) returned bytes "
                              "after a clean delete")
                if cached is not None:
                    # The dangerous staleness the cache could introduce: a
                    # serve that outlived the object's delete-invalidation
                    # push. Reported under its own kind so shrinking homes
                    # in on the coherence machinery, not the delete path.
                    self._violate(
                        "cache-incoherence",
                        f"get({obj}) on {node} was served generation "
                        f"{cached[0]} from the hot-object cache after a "
                        "clean delete",
                    )
            elif data != payload_for(obj, self.model.size(obj)):
                self._violate("wrong-bytes", f"get({obj}) returned "
                              f"{len(data)} bytes that do not match the "
                              "generated payload")
                if cached is not None:
                    self._violate(
                        "cache-incoherence",
                        f"get({obj}) on {node}: hot-object cache served "
                        f"generation {cached[0]} whose bytes do not match "
                        "the model payload",
                    )
            return
        if outcome == "corrupt":
            self._violate("corruption", f"get({obj}) raised corruption")
            return
        if state is ObjState.LIVE:
            if outcome == "notfound" and not excused:
                self._violate("lost-object", f"get({obj}) -> notfound on a "
                              "quiet cluster for a live object")
            elif outcome in ("unavailable", "stale") and not excused:
                self._violate("unavailable-quiet", f"get({obj}) -> {outcome} "
                              "on a quiet cluster for a live object")
            elif outcome.startswith("error:") and not excused:
                self._violate("unavailable-quiet", f"get({obj}) -> {outcome} "
                              "on a quiet cluster for a live object")

    def _do_set_rpc_mode(self, op: Op) -> str:
        self.cluster.set_rpc_mode(str(op["mode"]))
        return "ok"

    def _do_multi_get(self, op: Op) -> str:
        node = str(op["node"])
        if node not in self._up():
            return "skip:node-down"
        objs = [int(item) for item in str(op["objs"]).split(",")]
        states = [self.model.state(obj) for obj in objs]
        outcomes, payloads = self._multi_read(node, objs)
        for obj, state, outcome, data in zip(objs, states, outcomes, payloads):
            self._judge_get(obj, state, node, outcome, data)
        return ",".join(outcomes)

    def _multi_read(
        self, node: str, objs: list[int]
    ) -> tuple[list[str], list[bytes | None]]:
        """One id-list read; in async mode this is a coalesced batched
        lookup (hedged under faults). A whole-call failure stamps every
        slot with the same outcome — the judge excuses it exactly like a
        failed single get. The coherence oracle stays disarmed: a batch
        has no single unambiguous cache serve to attribute."""

        client = self._client(node)
        self._last_cached = None
        oids = [ObjectID.from_int(obj) for obj in objs]
        try:
            payloads = client.multi_get(oids, allow_missing=True)
        except ObjectUnavailableError:
            return ["unavailable"] * len(objs), [None] * len(objs)
        except ObjectCorruptedError:
            return ["corrupt"] * len(objs), [None] * len(objs)
        except StaleDescriptorError:
            return ["stale"] * len(objs), [None] * len(objs)
        except ReproError as exc:
            outcome = f"error:{type(exc).__name__}"
            return [outcome] * len(objs), [None] * len(objs)
        outcomes = [
            "notfound" if data is None else "ok" for data in payloads
        ]
        return outcomes, list(payloads)

    def _do_delete(self, op: Op) -> str:
        obj = int(op["obj"])
        state = self.model.state(obj)
        if state not in (ObjState.LIVE, ObjState.MAYBE):
            return "skip:not-live"
        oid = ObjectID.from_int(obj)
        holder = self._find_holder(oid)
        if holder is None:
            if state is ObjState.LIVE and not self._faults_active():
                self._violate("lost-object",
                              f"delete({obj}): live object has no sealed "
                              "primary extent on a quiet cluster")
            return "skip:no-holder"
        clean = (
            state is ObjState.LIVE
            and not self._faults_active()
            and obj not in self.model.dirty_delete
            and self._breakers_closed(holder)
        )
        try:
            self.cluster.store(holder).delete_object(oid)
        except ReproError as exc:
            self.model.record_deleted(obj, clean=False)
            return f"fail:{type(exc).__name__}"
        self.model.record_deleted(obj, clean=clean)
        owner = self._tenant_of.pop(obj, None)
        if owner is not None:
            self.admission.record_stored(owner[0], -owner[1])
        return "ok:clean" if clean else "ok:dirty"

    def _do_crash(self, op: Op) -> str:
        node = str(op["node"])
        if node not in self._up() or len(self._up()) < 2:
            return "skip"
        self._mark_exposure(node)
        self.cluster.chaos.inject(NodeCrash(at_ns=self._now(), node=node))
        self.cluster.chaos.poll()
        self._crashed.add(node)
        self._drop_client(node)
        return "ok"

    def _do_recover(self, op: Op) -> str:
        node = str(op["node"])
        if node not in self._crashed or node not in self._present:
            return "skip"
        self._recover_one(node)
        return "ok"

    def _recover_one(self, node: str) -> None:
        self._mark_exposure(node)
        if node in self._crashed:
            self.cluster.chaos.inject(NodeRestart(at_ns=self._now(), node=node))
            self.cluster.chaos.poll()
        self.cluster.recover_node(node)
        self._crashed.discard(node)
        self._drop_client(node)
        self._epochs.pop(node, None)

    def _do_partition(self, op: Op) -> str:
        a, b = str(op["a"]), str(op["b"])
        pair = (min(a, b), max(a, b))
        if a == b or a in self._removed or b in self._removed:
            return "skip"
        if pair in self._partitions:
            return "skip:already"
        self.cluster.chaos.inject(
            LinkPartition(at_ns=self._now(), node_a=a, node_b=b)
        )
        self.cluster.chaos.poll()
        self._partitions.add(pair)
        return "ok"

    def _do_heal(self, op: Op) -> str:
        a, b = str(op["a"]), str(op["b"])
        pair = (min(a, b), max(a, b))
        if pair not in self._partitions:
            return "skip"
        self.cluster.chaos.inject(LinkHeal(at_ns=self._now(), node_a=a, node_b=b))
        self.cluster.chaos.poll()
        self._partitions.discard(pair)
        return "ok"

    def _do_degrade(self, op: Op) -> str:
        a, b = str(op["a"]), str(op["b"])
        pair = (min(a, b), max(a, b))
        if a == b or a in self._removed or b in self._removed:
            return "skip"
        if pair in self._degraded:
            return "skip:already"
        self.cluster.chaos.inject(
            LinkDegrade(at_ns=self._now(), node_a=a, node_b=b)
        )
        self.cluster.chaos.poll()
        self._degraded.add(pair)
        return "ok"

    def _do_restore(self, op: Op) -> str:
        a, b = str(op["a"]), str(op["b"])
        pair = (min(a, b), max(a, b))
        if pair not in self._degraded:
            return "skip"
        self.cluster.chaos.inject(
            LinkRestore(at_ns=self._now(), node_a=a, node_b=b)
        )
        self.cluster.chaos.poll()
        self._degraded.discard(pair)
        return "ok"

    def _do_blackhole(self, op: Op) -> str:
        src, dst = str(op["src"]), str(op["dst"])
        if src == dst or src in self._removed or dst in self._removed:
            return "skip"
        duration_ns = int(op["ms"]) * NS_PER_MS
        self.cluster.chaos.inject(
            RpcBlackhole(
                at_ns=self._now(), src=src, dst=dst, duration_ns=duration_ns
            )
        )
        self.cluster.chaos.poll()
        self._blackhole_until = max(
            self._blackhole_until, self._now() + duration_ns
        )
        return "ok"

    def _do_set_service_rate(self, op: Op) -> str:
        node = str(op["node"])
        if node not in self._present or node in self._crashed:
            return "skip"
        model = getattr(self.cluster.node(node).server, "overload", None)
        if model is None:
            return "skip:no-model"
        model.set_service_rate(float(int(op["rate"])))
        return "ok"

    def _do_overload_burst(self, op: Op) -> str:
        node = str(op["node"])
        if node not in self._present or node in self._crashed:
            return "skip"
        self.cluster.chaos.inject(
            OverloadBurst(
                at_ns=self._now(), node=node, backlog_ms=float(int(op["ms"]))
            )
        )
        self.cluster.chaos.poll()
        return "ok"

    def _do_add_node(self, op: Op) -> str:
        node = str(op["node"])
        if node in self.cluster.node_names() or node in self._removed:
            return "skip:exists"
        try:
            self.cluster.add_node(node)
        except ReproError as exc:
            return f"fail:{type(exc).__name__}"
        self._present.append(node)
        return "ok"

    def _do_drain(self, op: Op) -> str:
        node = str(op["node"])
        if node not in self._up():
            return "skip"
        view = self.cluster.membership.view()
        active = [
            n for n in view.names() if view.status(n) is NodeStatus.ACTIVE
        ]
        if node not in active or len(active) < 3:
            return "skip:not-enough-active"
        try:
            self.cluster.drain_node(node)
        except ReproError as exc:
            return f"fail:{type(exc).__name__}"
        return "ok"

    def _do_remove(self, op: Op) -> str:
        node = str(op["node"])
        if node not in self._present or node in self._crashed:
            return "skip"
        if len(self._up()) < 3:
            return "skip:too-few"
        view = self.cluster.membership.view()
        if node not in view.names():
            return "skip:not-member"
        if view.status(node) is NodeStatus.ACTIVE:
            return "skip:still-active"
        try:
            self.cluster.remove_node(node)
        except ReproError as exc:
            return f"fail:{type(exc).__name__}"
        self._present.remove(node)
        self._removed.add(node)
        self._drop_client(node)
        self._epochs.pop(node, None)
        self._partitions = {
            p for p in self._partitions if node not in p
        }
        self._degraded = {p for p in self._degraded if node not in p}
        return "ok"

    def _do_promote(self, op: Op) -> str:
        node = str(op["node"])
        obj = int(op["obj"])
        engine = self.cluster.tier_engine
        if engine is None:
            return "skip:no-tier"
        if node not in self._up():
            return "skip:node-down"
        try:
            result = engine.promote(ObjectID.from_int(obj), node)
        except ReproError as exc:
            return f"fail:{type(exc).__name__}"
        if result is None:
            return "skip:no-source"
        return "ok:moved" if result.moved else f"abort:{result.status}"

    def _do_demote(self, op: Op) -> str:
        obj = int(op["obj"])
        engine = self.cluster.tier_engine
        if engine is None:
            return "skip:no-tier"
        try:
            result = engine.demote(ObjectID.from_int(obj))
        except ReproError as exc:
            return f"fail:{type(exc).__name__}"
        if result is None:
            return "skip:no-dest"
        return "ok:moved" if result.moved else f"abort:{result.status}"

    def _do_scrub(self, op: Op) -> str:
        node = str(op["node"])
        if node not in self._up():
            return "skip:node-down"
        report = Scrubber(self.cluster.store(node)).run()
        return f"ok:scanned={report.scanned}:quarantined={report.quarantined}"

    def _do_rebalance(self, op: Op) -> str:
        try:
            self.cluster.rebalancer.tick()
        except ReproError as exc:
            return f"fail:{type(exc).__name__}"
        return "ok"

    def _do_health(self, op: Op) -> str:
        self.cluster.health_tick()
        return "ok"

    def _do_advance(self, op: Op) -> str:
        self.cluster.clock.advance(int(op["ms"]) * NS_PER_MS)
        self.cluster.chaos.poll()
        return "ok"

    # ------------------------------------------------------------------ checks

    def _note_evictions(self) -> None:
        """Capacity pressure evicted something during the last op: a LIVE
        object whose primary extent is gone is no longer owed to readers.
        A replica, or a hot cache that missed the push, may still serve it
        — exact bytes or a typed miss, which is the MAYBE contract."""

        evicted = False
        for name in self._up():
            # A recovered node's fresh store counts from zero again, so a
            # drop is not an eviction; only a rise is.
            count = self.cluster.store(name).counters.get("objects_evicted")
            evicted = evicted or count > self._evictions_seen.get(name, 0)
            self._evictions_seen[name] = count
        if not evicted:
            return
        for obj in self.model.live_objects():
            if self._find_holder(ObjectID.from_int(obj)) is None:
                self.model.record_evicted(obj)

    def _check_epochs(self) -> None:
        for name in sorted(set(self._up())):
            store = self.cluster.store(name)
            epoch = store.topology_epoch
            last = self._epochs.get(name)
            if last is not None and epoch < last:
                self._violate(
                    "epoch-regression",
                    f"{name}: topology epoch went {last} -> {epoch}",
                )
            self._epochs[name] = epoch

    def _deep_check(self) -> None:
        primaries: dict[int, list[str]] = {}
        for name in sorted(self._up()):
            store = self.cluster.store(name)
            try:
                store.allocator.audit()
            except ReproError as exc:
                self._violate("alloc-overlap", f"{name}: audit failed: {exc}")
                return
            with store.table.lock:
                entries = list(store.table)
            expected_used = sum(e.allocation.padded_size for e in entries)
            if store.allocator.used_bytes != expected_used:
                self._violate(
                    "alloc-accounting",
                    f"{name}: allocator used={store.allocator.used_bytes} "
                    f"but table extents sum to {expected_used}",
                )
            deferred = store.deferred_retires()
            for entry in entries:
                if not entry.is_sealed or entry.quarantined:
                    continue
                reason = store.verify_object(entry)
                if reason is not None:
                    self._violate(
                        "corruption",
                        f"{name}: sealed extent fails verify: {reason}",
                    )
                    continue
                obj = self._obj_of(entry.object_id)
                if obj in self.model.sizes and entry.data_size == self.model.size(obj):
                    at_rest = bytes(
                        store.region.view(entry.payload_offset, entry.data_size)
                    )
                    if at_rest != payload_for(obj, entry.data_size):
                        self._violate(
                            "wrong-bytes",
                            f"{name}: at-rest bytes for object {obj} do not "
                            "match the generated payload",
                        )
                if entry.object_id in deferred or store.is_replica(entry.object_id):
                    continue
                primaries.setdefault(obj, []).append(name)
                if (
                    self.model.state(obj) is ObjState.DELETED_CLEAN
                    and obj not in self.model.amnesty
                ):
                    self._violate(
                        "resurrection",
                        f"{name}: live sealed extent for cleanly deleted "
                        f"object {obj}",
                    )
        for obj, holders in sorted(primaries.items()):
            if len(holders) > 1 and obj not in self.model.amnesty:
                self._violate(
                    "dup-primary",
                    f"object {obj} has sealed primary extents on "
                    f"{holders}",
                )

    # ------------------------------------------------------------------ converge

    def _settle(self, *, require_quiet: bool, max_ticks: int = 60) -> bool:
        """Tick health until breakers close (and, optionally, monitors
        report no suspects). Returns False if it never settles."""

        cluster = self.cluster
        for _ in range(max_ticks):
            cluster.health_tick()
            cluster.clock.advance(60 * NS_PER_MS)
            breakers_ok = all(
                self._breakers_closed(n) for n in sorted(self._present)
            )
            monitors_quiet = all(
                not cluster.node(n).monitor.suspects()
                for n in sorted(self._present)
            )
            if breakers_ok and (monitors_quiet or not require_quiet):
                return True
        return False

    def _converge_and_sweep(self) -> None:
        self._op_index = len(self.steps)
        cluster = self.cluster
        now = self._now()
        for a, b in sorted(self._partitions):
            cluster.chaos.inject(LinkHeal(at_ns=now, node_a=a, node_b=b))
        for a, b in sorted(self._degraded):
            cluster.chaos.inject(LinkRestore(at_ns=now, node_a=a, node_b=b))
        cluster.chaos.poll()
        self._partitions.clear()
        self._degraded.clear()
        if self._now() < self._blackhole_until:
            cluster.clock.advance(self._blackhole_until - self._now() + NS_PER_MS)
            cluster.chaos.poll()
        for node in sorted(self._crashed):
            self._recover_one(node)
        # Overload is an operator-induced condition, not a fault the mesh
        # can heal: lift every throttle and drop injected backlog so the
        # final sweep judges a genuinely quiet cluster.
        for node in sorted(self._present):
            model = getattr(cluster.node(node).server, "overload", None)
            if model is not None:
                model.reset()
                model.set_service_rate(0.0)

        # Phase 1: drive heartbeats until every breaker closes. Reconcile
        # may still (re-)demote suspected members during this window.
        if not self._settle(require_quiet=False):
            self._violate(
                "no-breaker-convergence",
                "breakers did not close after healing all faults",
            )
            return
        # Phase 2: membership only ever demotes on its own; re-activate
        # every DOWN member now that the mesh is healthy again.
        view = cluster.membership.view()
        for node in sorted(view.names()):
            if node in self._removed or node not in self._present:
                continue
            if view.status(node) is NodeStatus.DOWN:
                self._recover_one(node)
        # Phase 3: everything should now go and stay quiet.
        if not self._settle(require_quiet=True):
            self._violate(
                "no-breaker-convergence",
                "monitors/breakers did not settle after re-activating "
                "suspected members",
            )
            return

        # Tier placements are deliberate deviations from the ring; hand
        # authority back so the sweep can hold every object to its ring
        # home (the rebalancer re-homes whatever the tier engine moved).
        if cluster.tier_engine is not None:
            cluster.tier_engine.clear_placements()
        report = cluster.rebalancer.run_until_converged()
        if not report.converged:
            self._violate(
                "no-rebalance-convergence",
                "rebalancer did not converge after healing all faults",
            )
            return
        for node in sorted(self._present):
            Scrubber(cluster.store(node)).run()
        self.steps.append("conv: healed, recovered, settled, rebalanced, scrubbed")

        self._deep_check()
        if self.violations:
            return
        self._final_sweep()

    def _final_sweep(self) -> None:
        cluster = self.cluster
        reader = sorted(self._present)[0]
        ring = cluster.placement_ring()
        for obj in self.model.objects():
            state = self.model.state(obj)
            oid = ObjectID.from_int(obj)
            if state is ObjState.LIVE:
                home = ring.home(oid)
                outcome, data = self._read(home, oid)
                if outcome != "ok":
                    self._violate(
                        "unreadable-at-home",
                        f"object {obj}: read from ring home {home} after "
                        f"convergence -> {outcome}",
                    )
                    continue
                if data != payload_for(obj, self.model.size(obj)):
                    self._violate(
                        "wrong-bytes",
                        f"object {obj}: bytes read from ring home {home} "
                        "do not match the generated payload",
                    )
                    continue
                holder = self._find_holder(oid)
                if holder != home:
                    self._violate(
                        "misplaced-after-converge",
                        f"object {obj}: primary extent on {holder!r}, ring "
                        f"home is {home!r}",
                    )
                others = [n for n in sorted(self._present) if n != home]
                if others:
                    outcome, data = self._read(others[0], oid)
                    if outcome == "ok" and data != payload_for(
                        obj, self.model.size(obj)
                    ):
                        self._violate(
                            "wrong-bytes",
                            f"object {obj}: remote read from {others[0]} "
                            "returned mismatched bytes",
                        )
                    elif outcome != "ok":
                        self._violate(
                            "unreadable-after-converge",
                            f"object {obj}: remote read from {others[0]} "
                            f"-> {outcome}",
                        )
            elif state is ObjState.DELETED_CLEAN:
                outcome, data = self._read(reader, oid)
                if outcome == "ok":
                    self._violate(
                        "resurrection",
                        f"object {obj}: readable after a clean delete "
                        "(post-convergence)",
                    )
            else:  # MAYBE / DELETED_DIRTY: bytes, if any, must be exact
                outcome, data = self._read(reader, oid)
                if outcome == "ok" and data != payload_for(
                    obj, self.model.size(obj)
                ):
                    self._violate(
                        "wrong-bytes",
                        f"object {obj}: surviving copy has mismatched bytes",
                    )
        self.steps.append(
            f"sweep: {len(self.model.objects())} objects checked"
        )


# ---------------------------------------------------------------------- entry points


def run_seed(
    seed: int,
    n_ops: int,
    *,
    mutation: str | None = None,
    profile: str = "default",
) -> RunResult:
    """Generate the trace for ``seed`` and run it."""

    ops = generate_ops(seed, n_ops, profile=profile)
    return SimulationRunner(seed, mutation=mutation).run(ops)


def replay_trace(trace: dict) -> RunResult:
    """Replay a serialized trace (see :meth:`RunResult.to_trace`)."""

    ops = [Op.from_obj(item) for item in trace["ops"]]
    runner = SimulationRunner(
        int(trace.get("seed", 0)), mutation=trace.get("mutation")
    )
    return runner.run(ops)


@dataclass
class SweepResult:
    seeds_run: int
    n_ops: int
    failures: list[RunResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.ok:
            return (
                f"{self.seeds_run} seeds x {self.n_ops} ops: "
                "no invariant violations"
            )
        lines = [
            f"{self.seeds_run} seeds x {self.n_ops} ops: "
            f"{len(self.failures)} failing seed(s)"
        ]
        for result in self.failures:
            lines.append(result.report())
        return "\n".join(lines)


def run_seeds(
    n_seeds: int,
    n_ops: int,
    *,
    base_seed: int = 0,
    mutation: str | None = None,
    profile: str = "default",
    stop_on_failure: bool = False,
    progress=None,
) -> SweepResult:
    """Schedule explorer: run ``n_seeds`` independent seeded schedules."""

    sweep = SweepResult(seeds_run=0, n_ops=n_ops)
    for offset in range(n_seeds):
        seed = base_seed + offset
        result = run_seed(seed, n_ops, mutation=mutation, profile=profile)
        sweep.seeds_run += 1
        if not result.ok:
            sweep.failures.append(result)
            if stop_on_failure:
                break
        if progress is not None:
            progress(seed, result)
    return sweep
