"""Seeded weighted workload generator.

``generate_ops(seed, n)`` is a pure function: the same seed always
yields the same op list, independent of any cluster state. The
generator keeps its own *approximate* bookkeeping (which nodes it has
crashed/drained/removed, which object ids it has put) purely to bias
the stream toward interesting schedules; the harness re-validates every
precondition at execution time, so the bookkeeping here only has to be
deterministic, not exact.
"""

from __future__ import annotations

from repro.common.rng import DeterministicRng, derive_seed
from repro.simtest.ops import Op, make

SEED_NODES = ("node0", "node1", "node2")
MAX_NODES = 6

_SIZES = (64, 256, 1024, 4096, 8192)
_REPLICAS = (1, 1, 1, 2, 2, 3)
_ADVANCE_MS = (1, 2, 5, 10, 60, 300)
_BLACKHOLE_MS = (1, 5, 20)
#: Service rates ``set_service_rate`` toggles between (0 = infinite) and
#: the stall sizes ``overload_burst`` injects. Rates must be low enough
#: that one service time exceeds a typical inter-arrival gap, else the
#: bounded queue never fills between sequential ops.
_SERVICE_RATES = (0, 50, 200, 1000)
_BURST_MS = (5, 20, 100)
#: Tenants the admission-control ops draw from, and the byte-quota levels
#: set_quota installs — small enough that a few tenant_puts trip them.
TENANTS = ("alpha", "beta")
_QUOTA_BYTES = (1024, 8192, 65536)

#: Ids per multi_get in the concurrency profile: wide enough that one
#: call usually spans several holders (scatter-gather + coalescing).
_MULTI_GET_FANOUT = (2, 3, 4, 6)

#: (kind, weight) — relative frequency of each op kind in the stream.
WEIGHTS: tuple[tuple[str, int], ...] = (
    ("put", 20),
    ("tenant_put", 6),
    ("set_quota", 3),
    ("get", 22),
    ("delete", 7),
    ("crash", 4),
    ("recover", 8),
    ("partition", 3),
    ("heal", 5),
    ("degrade", 2),
    ("restore", 3),
    ("blackhole", 2),
    ("set_service_rate", 2),
    ("overload_burst", 2),
    ("promote", 3),
    ("demote", 2),
    ("add_node", 2),
    ("drain", 2),
    ("remove", 1),
    ("scrub", 3),
    ("rebalance", 5),
    ("health", 8),
    ("advance", 9),
)

#: Concurrency-stress weighting: the data-path ops that exercise the
#: async task plane (gets, puts, deletes, batched multi-gets) dominate,
#: with crashes and blackholes kept so batches land mid-fault and hedges
#: actually fire; occasional set_rpc_mode switches stress the boundary
#: between inline and task-driven ops itself. The drain/remove/overload
#: machinery is left out — it is covered by the default profile and only
#: dilutes the schedule space this profile explores.
CONCURRENCY_WEIGHTS: tuple[tuple[str, int], ...] = (
    ("put", 24),
    ("get", 20),
    ("multi_get", 14),
    ("delete", 10),
    ("set_rpc_mode", 2),
    ("crash", 3),
    ("recover", 6),
    ("partition", 2),
    ("heal", 4),
    ("blackhole", 4),
    ("promote", 2),
    ("demote", 2),
    ("scrub", 2),
    ("rebalance", 3),
    ("health", 5),
    ("advance", 7),
)

#: Hot-cache hazard weighting: puts and remote gets fill the readers' hot
#: caches, partitions swallow the delete invalidations meant for them
#: (a blackhole of at most 20 ms never outlasts the sender's retries), and
#: fresh puts reuse the freed extents while a reader still holds a cached
#: view of the old bytes — which its next get of the deleted id serves.
TIER_HAZARD_WEIGHTS: tuple[tuple[str, int], ...] = (
    ("put", 20),
    ("get", 40),
    ("delete", 10),
    ("partition", 6),
    ("heal", 3),
)

PROFILE_WEIGHTS: dict[str, tuple[tuple[str, int], ...]] = {
    "default": WEIGHTS,
    "concurrency": CONCURRENCY_WEIGHTS,
    "tier-hazards": TIER_HAZARD_WEIGHTS,
}


class _Book:
    """Generator-side bookkeeping, deterministic mirror of likely cluster state."""

    def __init__(self) -> None:
        self.nodes: list[str] = list(SEED_NODES)
        self.crashed: set[str] = set()
        self.drained: set[str] = set()
        self.removed: set[str] = set()
        self.partitions: set[tuple[str, str]] = set()
        self.degraded: set[tuple[str, str]] = set()
        self.next_obj = 0
        self.next_node = 0
        self.live_objs: list[int] = []

    def present(self) -> list[str]:
        return [n for n in self.nodes if n not in self.removed]

    def up(self) -> list[str]:
        return [n for n in self.present() if n not in self.crashed]

    def active(self) -> list[str]:
        return [n for n in self.up() if n not in self.drained]


def _pair(rng: DeterministicRng, names: list[str]) -> tuple[str, str]:
    a = rng.choice(names)
    rest = [n for n in names if n != a]
    return a, rng.choice(rest)


def generate_ops(seed: int, n_ops: int, profile: str = "default") -> list[Op]:
    """Produce a deterministic trace of ``n_ops`` ops for ``seed``.

    ``profile`` selects the kind weighting (:data:`PROFILE_WEIGHTS`).
    The default profile draws exactly the entropy it always has, so
    every pre-existing trace and golden seed stays byte-identical. The
    ``concurrency`` profile pins op 0 to ``set_rpc_mode(mode=async)``
    so the bulk of the trace runs on the event-loop task plane.
    """

    rng = DeterministicRng(derive_seed(seed, "simtest-workload"))
    kinds = [k for k, w in PROFILE_WEIGHTS[profile] for _ in range(w)]
    book = _Book()
    ops: list[Op] = []
    if profile == "concurrency" and n_ops > 0:
        ops.append(make("set_rpc_mode", mode="async"))

    def fallback() -> Op:
        # Substituted when a drawn kind has no valid target; keeps the
        # trace length exact and still consumes deterministic entropy.
        if rng.integer(0, 2) == 0:
            return make("health")
        return make("advance", ms=int(rng.choice(list(_ADVANCE_MS))))

    while len(ops) < n_ops:
        kind = str(rng.choice(kinds))
        op: Op | None = None

        if kind == "put":
            node = rng.choice(book.up()) if book.up() else None
            if node is not None:
                obj = book.next_obj
                book.next_obj += 1
                book.live_objs.append(obj)
                op = make(
                    "put",
                    obj=obj,
                    node=str(node),
                    size=int(rng.choice(list(_SIZES))),
                    replicas=int(rng.choice(list(_REPLICAS))),
                )
        elif kind == "tenant_put":
            node = rng.choice(book.up()) if book.up() else None
            if node is not None:
                obj = book.next_obj
                book.next_obj += 1
                # Approximate: the put may be refused by admission control,
                # but gets on a never-created id are judged notfound-OK.
                book.live_objs.append(obj)
                op = make(
                    "tenant_put",
                    obj=obj,
                    node=str(node),
                    size=int(rng.choice(list(_SIZES))),
                    replicas=int(rng.choice(list(_REPLICAS))),
                    tenant=str(rng.choice(list(TENANTS))),
                )
        elif kind == "set_quota":
            op = make(
                "set_quota",
                tenant=str(rng.choice(list(TENANTS))),
                bytes=int(rng.choice(list(_QUOTA_BYTES))),
            )
        elif kind == "get":
            if book.live_objs and book.up():
                # Mostly read known-live objects, sometimes stale/unknown ids.
                if book.next_obj and rng.integer(0, 100) < 15:
                    obj = rng.integer(0, book.next_obj)
                else:
                    obj = int(rng.choice(book.live_objs))
                op = make("get", obj=obj, node=str(rng.choice(book.up())))
        elif kind == "multi_get":
            if book.live_objs and book.up():
                count = int(rng.choice(list(_MULTI_GET_FANOUT)))
                picks = [
                    int(rng.choice(book.live_objs)) for _ in range(count)
                ]
                # Occasionally poison one slot with a stale/unknown id so
                # batched lookups mix hits and misses in one wire message.
                if book.next_obj and rng.integer(0, 100) < 15:
                    picks[0] = int(rng.integer(0, book.next_obj))
                op = make(
                    "multi_get",
                    objs=",".join(str(o) for o in picks),
                    node=str(rng.choice(book.up())),
                )
        elif kind == "set_rpc_mode":
            # Mostly stay async (the plane under stress), sometimes flip
            # back to sync so mode switches interleave with faults.
            mode = "sync" if rng.integer(0, 4) == 0 else "async"
            op = make("set_rpc_mode", mode=mode)
        elif kind == "delete":
            if book.live_objs:
                obj = int(rng.choice(book.live_objs))
                book.live_objs.remove(obj)
                op = make("delete", obj=obj)
        elif kind == "crash":
            if len(book.up()) >= 2:
                node = str(rng.choice(book.up()))
                book.crashed.add(node)
                op = make("crash", node=node)
        elif kind == "recover":
            if book.crashed:
                node = str(rng.choice(sorted(book.crashed)))
                book.crashed.discard(node)
                op = make("recover", node=node)
        elif kind == "partition":
            if len(book.present()) >= 2:
                a, b = _pair(rng, book.present())
                book.partitions.add((min(a, b), max(a, b)))
                op = make("partition", a=a, b=b)
        elif kind == "heal":
            if book.partitions:
                a, b = rng.choice(sorted(book.partitions))
                book.partitions.discard((a, b))
                op = make("heal", a=a, b=b)
        elif kind == "degrade":
            if len(book.present()) >= 2:
                a, b = _pair(rng, book.present())
                book.degraded.add((min(a, b), max(a, b)))
                op = make("degrade", a=a, b=b)
        elif kind == "restore":
            if book.degraded:
                a, b = rng.choice(sorted(book.degraded))
                book.degraded.discard((a, b))
                op = make("restore", a=a, b=b)
        elif kind == "blackhole":
            if len(book.present()) >= 2:
                src, dst = _pair(rng, book.present())
                op = make(
                    "blackhole",
                    src=src,
                    dst=dst,
                    ms=int(rng.choice(list(_BLACKHOLE_MS))),
                )
        elif kind == "set_service_rate":
            if book.present():
                op = make(
                    "set_service_rate",
                    node=str(rng.choice(book.present())),
                    rate=int(rng.choice(list(_SERVICE_RATES))),
                )
        elif kind == "overload_burst":
            if book.present():
                op = make(
                    "overload_burst",
                    node=str(rng.choice(book.present())),
                    ms=int(rng.choice(list(_BURST_MS))),
                )
        elif kind == "promote":
            if book.live_objs and book.up():
                op = make(
                    "promote",
                    obj=int(rng.choice(book.live_objs)),
                    node=str(rng.choice(book.up())),
                )
        elif kind == "demote":
            if book.live_objs:
                op = make("demote", obj=int(rng.choice(book.live_objs)))
        elif kind == "add_node":
            if len(book.present()) < MAX_NODES:
                name = f"sim{book.next_node}"
                book.next_node += 1
                book.nodes.append(name)
                op = make("add_node", node=name)
        elif kind == "drain":
            if len(book.active()) >= 3:
                node = str(rng.choice(book.active()))
                book.drained.add(node)
                op = make("drain", node=node)
        elif kind == "remove":
            drained_up = sorted(set(book.drained) - book.crashed - book.removed)
            if drained_up and len(book.present()) >= 3:
                node = str(rng.choice(drained_up))
                book.removed.add(node)
                op = make("remove", node=node)
        elif kind == "scrub":
            if book.up():
                op = make("scrub", node=str(rng.choice(book.up())))
        elif kind == "rebalance":
            op = make("rebalance")
        elif kind == "health":
            op = make("health")
        elif kind == "advance":
            op = make("advance", ms=int(rng.choice(list(_ADVANCE_MS))))

        ops.append(op if op is not None else fallback())

    return ops
