"""Consistent-hash placement ring with weighted virtual nodes.

Every ACTIVE member contributes ``round(vnodes * effective_weight)``
virtual points on a 64-bit hash circle; an object's home is the owner of
the first point clockwise of ``hash(object_id)``. Virtual-node positions
are pure functions of ``(member name, index)`` — no RNG is consumed and no
clock is read, so ring construction never perturbs the simulation and two
nodes that install the same topology view compute byte-identical rings.

Capacity awareness (ISSUE: "capacity-aware via allocator utilization
gauges"): a member whose allocator utilization crosses the high watermark
has its weight derated toward ``min_capacity_factor``, shrinking its arc so
new objects prefer emptier stores. The derate is a step-free ramp above the
watermark only — below it utilization does *not* move the ring, otherwise
every migration would shift arcs and the rebalancer could chase its own
tail instead of converging.
"""

from __future__ import annotations

import bisect
import hashlib

from repro.common.errors import PlacementError
from repro.common.ids import ObjectID

_HASH_SPACE = 1 << 64


def _hash64(data: bytes) -> int:
    """Position on the 64-bit circle; stable across processes and runs."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big"
    )


def capacity_derate(
    utilization: float,
    *,
    high_watermark: float = 0.85,
    min_factor: float = 0.05,
) -> float:
    """Weight multiplier for a member at *utilization* (0..1).

    1.0 below the watermark; linear ramp down to *min_factor* at 100 %
    utilization. Clamped so a pathological gauge (>1.0) cannot produce a
    negative weight.
    """
    if utilization <= high_watermark:
        return 1.0
    if high_watermark >= 1.0:
        return 1.0
    frac = min(1.0, (utilization - high_watermark) / (1.0 - high_watermark))
    return max(min_factor, 1.0 - frac * (1.0 - min_factor))


class HashRing:
    """Immutable weighted consistent-hash ring over a set of member names."""

    def __init__(
        self,
        weights: dict[str, float],
        *,
        vnodes: int = 64,
        utilization: dict[str, float] | None = None,
        high_watermark: float = 0.85,
        min_capacity_factor: float = 0.05,
    ):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        utilization = utilization or {}
        self._weights = dict(weights)
        self._effective: dict[str, float] = {}
        points: list[tuple[int, str]] = []
        for name in sorted(weights):
            weight = float(weights[name])
            if weight <= 0:
                raise ValueError(f"member {name!r} has non-positive weight")
            eff = weight * capacity_derate(
                float(utilization.get(name, 0.0)),
                high_watermark=high_watermark,
                min_factor=min_capacity_factor,
            )
            self._effective[name] = eff
            n_points = max(1, round(vnodes * eff))
            for i in range(n_points):
                points.append((_hash64(f"{name}#{i}".encode()), name))
        # Ties (two members hashing one vnode to the same point) resolve by
        # name so the ring is total-ordered and deterministic.
        self._points = sorted(points)
        self._keys = [p[0] for p in self._points]

    @classmethod
    def from_view(cls, view, *, utilization=None, **kwargs) -> "HashRing":
        """Ring over a TopologyView's *placeable* (ACTIVE) members, using
        the per-member weight and utilization the view carries."""
        weights = {}
        util = dict(utilization or {})
        for name in view.placeable_names():
            member = view.members[name]
            weights[name] = member.weight
            util.setdefault(name, member.utilization)
        return cls(weights, utilization=util, **kwargs)

    # -- placement ----------------------------------------------------------

    def home(self, object_id: ObjectID) -> str:
        """The member owning *object_id*'s position on the circle."""
        if not self._points:
            raise PlacementError("placement ring has no active members")
        h = _hash64(object_id.binary())
        idx = bisect.bisect_right(self._keys, h)
        if idx == len(self._points):
            idx = 0
        return self._points[idx][1]

    # -- introspection ------------------------------------------------------

    def members(self) -> list[str]:
        return sorted(self._weights)

    def vnode_count(self, name: str) -> int:
        return sum(1 for _, owner in self._points if owner == name)

    def effective_weight(self, name: str) -> float:
        return self._effective[name]

    def ownership_share(self) -> dict[str, float]:
        """Fraction of the hash circle each member owns (sums to 1.0)."""
        shares = {name: 0 for name in self._weights}
        if not self._points:
            return {name: 0.0 for name in shares}
        prev = self._keys[-1]
        for key, owner in self._points:
            arc = (key - prev) % _HASH_SPACE
            if arc == 0 and len(self._points) > 1:
                prev = key
                continue
            if len(self._points) == 1:
                arc = _HASH_SPACE
            shares[owner] += arc
            prev = key
        return {name: arc / _HASH_SPACE for name, arc in shares.items()}

    def imbalance(self) -> float:
        """Max ownership share over the ideal equal share (1.0 = perfectly
        balanced; 2.0 = the hottest member owns twice its fair arc).
        Weighted members are compared against their weight-proportional
        fair share."""
        if not self._points:
            return 0.0
        shares = self.ownership_share()
        total_eff = sum(self._effective.values())
        worst = 0.0
        for name, share in shares.items():
            fair = self._effective[name] / total_eff
            if fair > 0:
                worst = max(worst, share / fair)
        return worst

    def __len__(self) -> int:
        return len(self._points)

    def __repr__(self) -> str:
        return (
            f"HashRing(members={self.members()}, points={len(self._points)})"
        )
