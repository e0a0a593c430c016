#!/usr/bin/env python3
"""Genomics pipeline over the disaggregated store (ArrowSAM-style).

The paper's Plasma background cites ArrowSAM [9] — in-memory genomics data
processing on Apache Arrow — as the kind of workload the framework serves.
This example reproduces that shape: a sorting/variant-calling-style pipeline
where aligned-read records live as immutable columnar objects in the
disaggregated store and downstream stages on *other* nodes consume them
without copying.

Pipeline (3 nodes):
  node0  "aligner"  : produces chromosome-partitioned read batches
                      (columnar: positions uint32, mapping quality uint8);
  node1  "sorter"   : consumes every batch remotely, sorts reads by
                      position per chromosome, commits sorted runs;
  node2  "caller"   : consumes sorted runs, computes per-chromosome
                      coverage pileup statistics (a stand-in for variant
                      calling).

Run:  python examples/genomics_pipeline.py
"""

from __future__ import annotations

import numpy as np

from repro import Cluster, ObjectID
from repro.common.config import ClusterConfig
from repro.common.rng import DeterministicRng
from repro.common.units import MiB

CHROMOSOMES = ["chr1", "chr2", "chr3", "chrX"]
BATCHES_PER_CHROM = 4
READS_PER_BATCH = 50_000
GENOME_REGION = 1_000_000  # positions per chromosome


def read_batch_id(chrom: str, batch: int) -> ObjectID:
    return ObjectID.from_name(f"reads/{chrom}/batch{batch}")


def sorted_run_id(chrom: str) -> ObjectID:
    return ObjectID.from_name(f"sorted/{chrom}")


def encode_reads(positions: np.ndarray, quals: np.ndarray) -> bytes:
    """Columnar encoding: u32 positions block then u8 qualities block."""
    return positions.astype("<u4").tobytes() + quals.astype("u1").tobytes()


def decode_reads(raw: bytes) -> tuple[np.ndarray, np.ndarray]:
    n = len(raw) // 5
    positions = np.frombuffer(raw[: n * 4], dtype="<u4")
    quals = np.frombuffer(raw[n * 4 :], dtype="u1")
    return positions, quals


def align_stage(cluster) -> int:
    """node0 commits unsorted read batches per chromosome."""
    aligner = cluster.client("node0", "aligner")
    rng = DeterministicRng(7)
    total = 0
    for chrom in CHROMOSOMES:
        for batch in range(BATCHES_PER_CHROM):
            stream = rng.spawn(chrom, str(batch))
            positions = np.frombuffer(
                stream.bytes(READS_PER_BATCH * 4), dtype="<u4"
            ) % GENOME_REGION
            quals = np.frombuffer(stream.bytes(READS_PER_BATCH), dtype="u1") % 60
            aligner.put_bytes(
                read_batch_id(chrom, batch), encode_reads(positions, quals)
            )
            total += READS_PER_BATCH
    return total


def sort_stage(cluster) -> None:
    """node1 reads every batch (remote, through the fabric), sorts per
    chromosome and commits one sorted run each."""
    sorter = cluster.client("node1", "sorter")
    for chrom in CHROMOSOMES:
        ids = [read_batch_id(chrom, b) for b in range(BATCHES_PER_CHROM)]
        buffers = sorter.get(ids)
        positions_parts, quals_parts = [], []
        for buf in buffers:
            positions, quals = decode_reads(buf.read_all())
            positions_parts.append(positions)
            quals_parts.append(quals)
        for oid in ids:
            sorter.release(oid)
        positions = np.concatenate(positions_parts)
        quals = np.concatenate(quals_parts)
        order = np.argsort(positions, kind="stable")
        sorter.put_bytes(
            sorted_run_id(chrom), encode_reads(positions[order], quals[order])
        )


def call_stage(cluster) -> dict[str, dict[str, float]]:
    """node2 consumes sorted runs (again remote) and computes pileup
    statistics per chromosome."""
    caller = cluster.client("node2", "caller")
    report: dict[str, dict[str, float]] = {}
    for chrom in CHROMOSOMES:
        raw = caller.get_bytes(sorted_run_id(chrom))
        positions, quals = decode_reads(raw)
        assert np.all(np.diff(positions.astype(np.int64)) >= 0), "must be sorted"
        coverage = np.bincount(positions // 1000, minlength=GENOME_REGION // 1000)
        high_q = quals >= 30
        report[chrom] = {
            "reads": float(len(positions)),
            "mean_coverage_per_kb": float(coverage.mean()),
            "peak_coverage_per_kb": float(coverage.max()),
            "fraction_q30": float(high_q.mean()),
        }
    return report


def main() -> None:
    cfg = ClusterConfig().with_store(capacity_bytes=96 * MiB)
    cluster = Cluster(
        cfg.with_store(check_remote_uniqueness=False, lookup_cache=True),
        3,
    )

    total_reads = align_stage(cluster)
    print(f"aligner committed {total_reads} reads "
          f"({len(CHROMOSOMES) * BATCHES_PER_CHROM} columnar batches) on node0")

    t0 = cluster.clock.now_ns
    sort_stage(cluster)
    print(f"sorter (node1) produced {len(CHROMOSOMES)} sorted runs in "
          f"{(cluster.clock.now_ns - t0) / 1e6:.2f} ms (simulated)")

    t0 = cluster.clock.now_ns
    report = call_stage(cluster)
    print(f"caller (node2) pileup in "
          f"{(cluster.clock.now_ns - t0) / 1e6:.2f} ms (simulated):")
    for chrom, stats in report.items():
        print(
            f"  {chrom}: {int(stats['reads'])} reads, "
            f"mean {stats['mean_coverage_per_kb']:.1f} / peak "
            f"{int(stats['peak_coverage_per_kb'])} reads/kb, "
            f"Q30 fraction {stats['fraction_q30']:.2f}"
        )

    fabric_mib = sum(
        link.counters.read_bytes for link in cluster.fabric.links()
    ) / MiB
    print(f"total payload moved over the fabric: {fabric_mib:.1f} MiB "
          f"(LAN carried only RPC metadata)")


if __name__ == "__main__":
    main()
