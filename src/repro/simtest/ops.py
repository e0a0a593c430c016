"""Serializable operation vocabulary for simulation traces.

A trace is a list of :class:`Op` values. Each op is a pure-data record
(kind + scalar args) so traces round-trip through JSON byte-for-byte,
which is what makes golden-seed corpora and emitted pytest reproducers
possible. Every op is *replay-safe*: the harness treats an op whose
precondition no longer holds (node gone, object unknown, too few live
nodes) as a recorded no-op instead of an error, so arbitrary sub-slices
of a trace — as produced by the delta-debugging shrinker — are still
valid traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

#: Op kinds and the argument names each carries. Values are ints or strings.
OP_SCHEMA: Mapping[str, tuple[str, ...]] = {
    # Object lifecycle. ``obj`` is a small int mapped to ObjectID.from_int.
    "put": ("obj", "node", "size", "replicas"),
    "get": ("obj", "node"),
    "delete": ("obj",),
    # Multi-tenant admission control (repro.workload.admission) fuzzed
    # alongside cluster state: tenant_put routes through admit() first, so
    # a put can be refused by a byte quota installed by set_quota.
    "set_quota": ("tenant", "bytes"),
    "tenant_put": ("obj", "node", "size", "replicas", "tenant"),
    # Node lifecycle.
    "add_node": ("node",),
    "drain": ("node",),
    "remove": ("node",),
    "crash": ("node",),
    "recover": ("node",),
    # Fault injection (applied through ChaosRuntime at the current time).
    "partition": ("a", "b"),
    "heal": ("a", "b"),
    "degrade": ("a", "b"),
    "restore": ("a", "b"),
    "blackhole": ("src", "dst", "ms"),
    # Overload control (repro.rpc.overload): throttle one node's service
    # rate live, or inject a burst of queued work its admission model
    # then drains (and sheds) at that rate.
    "set_service_rate": ("node", "rate"),
    "overload_burst": ("node", "ms"),
    # Async RPC core (repro.rpc.aio): flip the mesh between sync and
    # async execution mid-trace, and issue an id-list read the async
    # plane resolves as one coalesced per-peer batched lookup (hedged
    # under faults). ``objs`` is a comma-joined list of small ints —
    # op args are scalars only, so the list rides as a string.
    "set_rpc_mode": ("mode",),
    "multi_get": ("objs", "node"),
    # Tiered memory (repro.tier): targeted moves through the promotion/
    # demotion engine — promote pulls an object's primary to a reading
    # node, demote pushes it to the most capacity-rich peer. Both reuse
    # two-phase migration, so they interleave with crashes and partitions
    # exactly like rebalancer moves.
    "promote": ("obj", "node"),
    "demote": ("obj",),
    # Maintenance / time.
    "scrub": ("node",),
    "rebalance": (),
    "health": (),
    "advance": ("ms",),
}

KINDS = frozenset(OP_SCHEMA)


@dataclass(frozen=True)
class Op:
    """One trace step: an op kind plus a sorted tuple of (name, value) args."""

    kind: str
    args: tuple[tuple[str, int | str], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}")
        names = tuple(sorted(name for name, _ in self.args))
        expected = tuple(sorted(OP_SCHEMA[self.kind]))
        if names != expected:
            raise ValueError(
                f"op {self.kind!r} expects args {expected}, got {names}"
            )

    def __getitem__(self, name: str) -> int | str:
        for key, value in self.args:
            if key == name:
                return value
        raise KeyError(name)

    def to_obj(self) -> dict[str, int | str]:
        out: dict[str, int | str] = {"op": self.kind}
        out.update(self.args)
        return out

    @classmethod
    def from_obj(cls, obj: Mapping[str, int | str]) -> "Op":
        data = dict(obj)
        kind = data.pop("op")
        if not isinstance(kind, str):
            raise ValueError(f"op kind must be a string, got {kind!r}")
        return cls(kind, tuple(sorted(data.items())))

    def format(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.args)
        return f"{self.kind}({inner})"


def make(kind: str, **args: int | str) -> Op:
    """Build an op with keyword args: ``make("put", obj=0, node="node0", ...)``."""

    return Op(kind, tuple(sorted(args.items())))
