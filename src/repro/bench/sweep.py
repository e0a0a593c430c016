"""Parameter sweeps: crossovers and size scaling.

The headline trade-off between the paper's architecture (Fig 1b: read
remote memory in place) and the scale-out baseline (Fig 1a: replicate,
then read locally) depends on *how often* data is re-read:

* first touch: disaggregation wins big (fabric ≫ LAN);
* every further read: the replica is local (~6.5 GiB/s) while
  disaggregation keeps paying the fabric (~5.75 GiB/s);
* so there is a re-read count k* where total costs cross.

:func:`reread_crossover` measures both systems end-to-end over the real
stores and reports the crossover. :func:`object_size_sweep` scans Table I's
size axis continuously, yielding the data behind Fig 6/7's trends.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baseline import ScaleOutCluster
from repro.common.config import ClusterConfig
from repro.common.units import MiB
from repro.core import Cluster


@dataclass(frozen=True)
class CrossoverPoint:
    rereads: int
    disaggregated_ms: float
    scale_out_ms: float


@dataclass(frozen=True)
class CrossoverResult:
    object_size: int
    points: list[CrossoverPoint]
    crossover_rereads: int | None  # first k where scale-out is cheaper

    def format(self) -> str:
        lines = [
            f"re-read crossover, {self.object_size // MiB} MiB object "
            f"(cumulative simulated ms):",
            f"{'k':>4} {'disaggregated':>14} {'scale-out':>10}",
        ]
        for p in self.points:
            marker = "  <-- crossover" if p.rereads == self.crossover_rereads else ""
            lines.append(
                f"{p.rereads:>4} {p.disaggregated_ms:>14.2f} "
                f"{p.scale_out_ms:>10.2f}{marker}"
            )
        return "\n".join(lines)


def _disaggregated_cost_ms(config: ClusterConfig, size: int, rereads: int) -> float:
    cluster = Cluster(config.with_store(check_remote_uniqueness=False))
    producer = cluster.client("node0")
    consumer = cluster.client("node1")
    oid = cluster.new_object_id()
    producer.put_bytes(oid, bytes(size))
    t0 = cluster.clock.now_ns
    buf = consumer.get_one(oid)
    for _ in range(rereads):
        buf.charge_sequential_read()
    consumer.release(oid)
    return (cluster.clock.now_ns - t0) / 1e6


def _scale_out_cost_ms(config: ClusterConfig, size: int, rereads: int) -> float:
    cluster = ScaleOutCluster(config)
    producer = cluster.client("node0")
    consumer = cluster.client("node1")
    oid = cluster.new_object_id()
    producer.put_bytes(oid, bytes(size))
    t0 = cluster.clock.now_ns
    buf = consumer.get_one(oid)  # replicates over the LAN
    for _ in range(rereads):
        buf.charge_sequential_read()
    consumer.release(oid)
    return (cluster.clock.now_ns - t0) / 1e6


def reread_crossover(
    object_size: int = 16 * MiB,
    max_rereads: int = 120,
    step: int = 10,
    config: ClusterConfig | None = None,
) -> CrossoverResult:
    """Sweep the re-read count; find where replication starts to pay off."""
    base = config or ClusterConfig()
    capacity = max(64 * MiB, 2 * object_size)
    cfg = base.with_store(capacity_bytes=capacity)
    points: list[CrossoverPoint] = []
    crossover: int | None = None
    ks = sorted(set(list(range(1, max_rereads + 1, step)) + [max_rereads]))
    for k in ks:
        dis = _disaggregated_cost_ms(cfg, object_size, k)
        so = _scale_out_cost_ms(cfg, object_size, k)
        points.append(CrossoverPoint(rereads=k, disaggregated_ms=dis, scale_out_ms=so))
        if crossover is None and so < dis:
            crossover = k
    return CrossoverResult(
        object_size=object_size, points=points, crossover_rereads=crossover
    )


@dataclass(frozen=True)
class SizePoint:
    object_size: int
    local_retrieve_ms: float
    remote_retrieve_ms: float
    local_read_gibps: float
    remote_read_gibps: float


def object_size_sweep(
    sizes: list[int],
    objects_budget_bytes: int = 64 * MiB,
    config: ClusterConfig | None = None,
) -> list[SizePoint]:
    """For each size, commit ``budget/size`` objects and measure retrieval
    latency + read throughput for local and remote consumers — the
    continuous version of Table I's size axis."""
    base = config or ClusterConfig()
    out: list[SizePoint] = []
    for size in sizes:
        n = max(1, objects_budget_bytes // size)
        cfg = base.with_store(
            capacity_bytes=objects_budget_bytes + 64 * MiB,
            check_remote_uniqueness=False,
        )
        cluster = Cluster(cfg)
        producer = cluster.client("node0")
        ids = cluster.new_object_ids(n)
        for oid in ids:
            buf = producer.create(oid, size)
            buf.charge_sequential_write()
            producer.seal(oid)
            producer.release(oid)
        row = {}
        for label, node in (("local", "node0"), ("remote", "node1")):
            consumer = cluster.client(node)
            t0 = cluster.clock.now_ns
            buffers = consumer.get(ids)
            retrieve_ms = (cluster.clock.now_ns - t0) / 1e6
            t0 = cluster.clock.now_ns
            for buf in buffers:
                buf.charge_sequential_read()
            read_ns = cluster.clock.now_ns - t0
            gibps = (n * size / (1 << 30)) / (read_ns / 1e9)
            row[label] = (retrieve_ms, gibps)
            for oid in ids:
                consumer.release(oid)
        out.append(
            SizePoint(
                object_size=size,
                local_retrieve_ms=row["local"][0],
                remote_retrieve_ms=row["remote"][0],
                local_read_gibps=row["local"][1],
                remote_read_gibps=row["remote"][1],
            )
        )
    return out
