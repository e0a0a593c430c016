"""Membership & topology: epoch-numbered views of who is in the cluster.

The membership service is the control plane the paper's fixed two-node
deployment never needed: nodes join, drain and leave, and every change
produces a new :class:`TopologyView` with a strictly increasing epoch.
Views propagate over the existing RPC layer (``UpdateTopology`` pushes from
the coordinator; ``Topology`` pulls on restart) and are reconciled with
``repro.core.health`` liveness — a suspected peer is marked DOWN, which
removes it from the placement ring without touching its exposed memory.

Epoch discipline: a store only installs a view with a *higher* epoch than
the one it holds, so re-ordered or replayed pushes are harmless, and every
lookup-cache entry is stamped with the epoch it was learned under (stale
entries are re-looked-up rather than trusted across a topology change).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.common.errors import PlacementError


class NodeStatus(enum.Enum):
    """Lifecycle of a member.

    ACTIVE   — owns ring arcs; creates route to it.
    DRAINING — serves reads, owns no arcs; the rebalancer empties it.
    DOWN     — failure detector lost it; owns no arcs, metadata plane
               unreachable (its exposed bytes may still be).
    """

    ACTIVE = "active"
    DRAINING = "draining"
    DOWN = "down"

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.value


@dataclass(frozen=True)
class MemberInfo:
    status: NodeStatus
    weight: float = 1.0
    # Allocator utilization (0..1) sampled at publish time; feeds the
    # ring's capacity derate.
    utilization: float = 0.0


@dataclass(frozen=True)
class TopologyView:
    """One immutable, epoch-stamped snapshot of cluster membership."""

    epoch: int
    members: dict[str, MemberInfo] = field(default_factory=dict)

    def names(self) -> list[str]:
        return sorted(self.members)

    def placeable_names(self) -> list[str]:
        """Members that may own ring arcs (ACTIVE only)."""
        return sorted(
            name
            for name, m in self.members.items()
            if m.status is NodeStatus.ACTIVE
        )

    def status(self, name: str) -> NodeStatus:
        try:
            return self.members[name].status
        except KeyError:
            raise PlacementError(f"{name!r} is not a cluster member") from None

    # -- wire format (rpc codec: ints, floats, strings, lists, dicts) -------

    def to_wire(self) -> dict:
        return {
            "epoch": self.epoch,
            "members": [
                {
                    "name": name,
                    "status": m.status.value,
                    "weight": m.weight,
                    "utilization": m.utilization,
                }
                for name, m in sorted(self.members.items())
            ],
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "TopologyView":
        members = {}
        for item in wire.get("members", []):
            members[str(item["name"])] = MemberInfo(
                status=NodeStatus(str(item["status"])),
                weight=float(item.get("weight", 1.0)),
                utilization=float(item.get("utilization", 0.0)),
            )
        return cls(epoch=int(wire["epoch"]), members=members)


class Membership:
    """The authoritative membership record (the coordinator's state).

    Mutations return the new :class:`TopologyView`; every mutation bumps
    the epoch exactly once. Utilization refreshes do *not* bump the epoch —
    they piggyback on the next published change."""

    def __init__(self, names, *, weights: "dict[str, float] | None" = None):
        # Seed weights are checked where they are configured
        # (PlacementConfig / ClusterConfig.validate); unnamed members weigh 1.
        names = list(names)
        if not names:
            raise PlacementError("membership needs at least one node")
        weights = weights or {}
        self._epoch = 1
        self._members: dict[str, MemberInfo] = {
            name: MemberInfo(NodeStatus.ACTIVE, float(weights.get(name, 1.0)))
            for name in names
        }

    @property
    def epoch(self) -> int:
        return self._epoch

    def names(self) -> list[str]:
        return sorted(self._members)

    def status(self, name: str) -> NodeStatus:
        return self.view().status(name)

    def view(self) -> TopologyView:
        return TopologyView(self._epoch, dict(self._members))

    def update_utilization(self, utilization: dict[str, float]) -> None:
        """Refresh the per-member allocator-utilization sample (no epoch
        bump; callers publish the change alongside a membership event)."""
        for name, u in utilization.items():
            member = self._members.get(name)
            if member is not None:
                self._members[name] = replace(member, utilization=float(u))

    # -- transitions ---------------------------------------------------------

    def _member(self, name: str) -> MemberInfo:
        try:
            return self._members[name]
        except KeyError:
            raise PlacementError(f"{name!r} is not a cluster member") from None

    def _bump(self) -> TopologyView:
        self._epoch += 1
        return self.view()

    def join(self, name: str, weight: float = 1.0) -> TopologyView:
        if name in self._members:
            raise PlacementError(f"{name!r} is already a cluster member")
        if weight <= 0:
            raise PlacementError("member weight must be positive")
        self._members[name] = MemberInfo(NodeStatus.ACTIVE, float(weight))
        return self._bump()

    def drain(self, name: str) -> TopologyView:
        member = self._member(name)
        if member.status is NodeStatus.DRAINING:
            raise PlacementError(f"{name!r} is already draining")
        self._members[name] = replace(member, status=NodeStatus.DRAINING)
        return self._bump()

    def reactivate(self, name: str) -> TopologyView:
        member = self._member(name)
        if member.status is NodeStatus.ACTIVE:
            return self.view()
        self._members[name] = replace(member, status=NodeStatus.ACTIVE)
        return self._bump()

    def remove(self, name: str) -> TopologyView:
        member = self._member(name)
        if member.status is NodeStatus.ACTIVE:
            raise PlacementError(
                f"cannot remove ACTIVE member {name!r}; drain it first"
            )
        if len(self._members) == 1:
            raise PlacementError("cannot remove the last cluster member")
        del self._members[name]
        return self._bump()

    def reconcile(self, suspects) -> TopologyView | None:
        """Fold failure-detector suspicion into membership: every suspected
        ACTIVE member goes DOWN. Returns the new view if anything changed
        (one epoch bump for the whole batch), else None."""
        changed = False
        for name in sorted(suspects):
            member = self._members.get(name)
            if member is not None and member.status is NodeStatus.ACTIVE:
                self._members[name] = replace(member, status=NodeStatus.DOWN)
                changed = True
        return self._bump() if changed else None

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}:{m.status.value}" for name, m in sorted(self._members.items())
        )
        return f"Membership(epoch={self._epoch}, {parts})"
