"""Sim-clock-driven rebalancer: converge placement after join/drain/crash.

Each :meth:`Rebalancer.tick` retries deferred source retirements, computes
the misplaced set (sealed primaries whose ring home is a different ACTIVE
member), migrates objects in deterministic order until the configured
bytes-per-tick budget is spent, and advances the simulated clock by the
tick interval — the discrete-event stand-in for a background rebalance
thread with a bandwidth cap.

Sources must be ACTIVE or DRAINING: a DOWN member's store process cannot
drive the pull protocol (its data either waits for ``recover_node`` or is
served from replicas). Destinations must be ACTIVE; a migration aborted by
chaos (destination crashed mid-protocol) simply stays in the misplaced set
and is retried on a later tick, so convergence is eventual and every
intermediate state keeps the object readable at its old home.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.ids import ObjectID
from repro.placement.membership import NodeStatus


@dataclass(frozen=True)
class TickReport:
    """What one rebalancer tick did."""

    moved_objects: int
    moved_bytes: int
    aborted: int
    retired: int
    misplaced_bytes_after: int


@dataclass(frozen=True)
class ConvergenceReport:
    ticks: int
    moved_objects: int
    moved_bytes: int
    converged: bool
    final_misplaced_bytes: int
    tick_reports: tuple[TickReport, ...] = field(default=())

    def describe(self) -> str:
        state = "converged" if self.converged else "NOT converged"
        return (
            f"{state} after {self.ticks} tick(s): {self.moved_objects} "
            f"object(s) / {self.moved_bytes} B moved, "
            f"{self.final_misplaced_bytes} B still misplaced"
        )


class Rebalancer:
    """Moves misplaced primaries to their ring homes, budgeted per tick."""

    def __init__(
        self,
        cluster,
        engine,
        *,
        bytes_per_tick: int,
        tick_interval_ns: float,
    ):
        if bytes_per_tick <= 0:
            raise ValueError("bytes_per_tick must be positive")
        if tick_interval_ns < 0:
            raise ValueError("tick_interval_ns must be non-negative")
        self._cluster = cluster
        self._engine = engine
        self._bytes_per_tick = int(bytes_per_tick)
        self._tick_interval_ns = float(tick_interval_ns)

    def _source_names(self) -> list[str]:
        view = self._cluster.membership.view()
        return [
            name
            for name in view.names()
            if view.status(name) in (NodeStatus.ACTIVE, NodeStatus.DRAINING)
            and name in self._cluster.node_names()
        ]

    def misplaced(self) -> list[tuple[str, ObjectID, int]]:
        """``(holder, object_id, data_size)`` for every sealed primary whose
        ring home is a *different* ACTIVE member. Replicas, unsealed and
        quarantined objects are placement-neutral and skipped — and so are
        objects the tier engine deliberately placed off their ring home
        (promotions/demotions), else the two engines would ping-pong them.
        Sorted (holder, id) so every run walks the same plan."""
        ring = self._cluster.placement_ring()
        view = self._cluster.membership.view()
        tier = getattr(self._cluster, "tier_engine", None)
        plan: list[tuple[str, ObjectID, int]] = []
        for name in self._source_names():
            store = self._cluster.store(name)
            with store.table.lock:
                entries = [
                    (entry.object_id, entry.data_size)
                    for entry in store.table
                    if entry.is_sealed and not entry.quarantined
                ]
            for oid, size in sorted(entries):
                if store.is_replica(oid):
                    continue
                if tier is not None and tier.is_tier_placed(oid):
                    continue
                home = ring.home(oid)
                if home == name:
                    continue
                if view.status(home) is not NodeStatus.ACTIVE:
                    continue
                plan.append((name, oid, size))
        return plan

    def misplaced_bytes(self) -> int:
        return sum(size for _, _, size in self.misplaced())

    def tick(self) -> TickReport:
        """One budgeted rebalance round; advances the sim clock once."""
        retired = 0
        for name in self._source_names():
            retired += self._cluster.store(name).flush_deferred_retires()
        moved_objects = 0
        moved_bytes = 0
        aborted = 0
        for holder, oid, size in self.misplaced():
            if moved_bytes >= self._bytes_per_tick:
                break
            dest = self._cluster.placement_ring().home(oid)
            result = self._engine.migrate(
                self._cluster.store(holder), dest, oid
            )
            if result.moved:
                moved_objects += 1
                moved_bytes += result.bytes_moved
            else:
                aborted += 1
        if self._tick_interval_ns:
            self._cluster.clock.advance(self._tick_interval_ns)
        return TickReport(
            moved_objects=moved_objects,
            moved_bytes=moved_bytes,
            aborted=aborted,
            retired=retired,
            misplaced_bytes_after=self.misplaced_bytes(),
        )

    def deferred_retires(self) -> int:
        return sum(
            len(self._cluster.store(name).deferred_retires())
            for name in self._source_names()
        )

    def run_until_converged(
        self, *, max_ticks: int = 10_000, keep_reports: bool = False
    ) -> ConvergenceReport:
        """Tick until nothing is misplaced and no retirement is pending
        (or *max_ticks* elapse — e.g. every destination is down)."""
        moved_objects = 0
        moved_bytes = 0
        reports: list[TickReport] = []
        ticks = 0
        stalled = 0
        while ticks < max_ticks:
            if self.misplaced_bytes() == 0 and self.deferred_retires() == 0:
                break
            report = self.tick()
            ticks += 1
            moved_objects += report.moved_objects
            moved_bytes += report.moved_bytes
            if keep_reports:
                reports.append(report)
            if report.moved_objects == 0 and report.retired == 0:
                # No progress (destinations unreachable, sources pinned).
                stalled += 1
                if stalled >= 3:
                    break
            else:
                stalled = 0
        final = self.misplaced_bytes()
        return ConvergenceReport(
            ticks=ticks,
            moved_objects=moved_objects,
            moved_bytes=moved_bytes,
            converged=final == 0 and self.deferred_retires() == 0,
            final_misplaced_bytes=final,
            tick_reports=tuple(reports),
        )
