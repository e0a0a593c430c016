#!/usr/bin/env python3
"""Columnar analytics with the dataset layer: a mini distributed query.

Combines the two application-facing layers built on the store:

* :mod:`repro.columnar` — schema-tagged, zero-copy numpy arrays/tables
  (the Arrow idiom Plasma was built for);
* :mod:`repro.dataset` — an RDD-style distributed collection whose narrow
  ops never leave a node and whose wide ops move bytes only over the
  ThymesisFlow fabric.

Scenario: a 3-node cluster holds a day of trading ticks as a distributed
dataset of price observations. The "query" is:

    1. clean:   drop sentinel values            (narrow — local)
    2. derive:  log-returns per partition       (narrow — local)
    3. group:   re-partition by instrument hash (wide  — fabric shuffle)
    4. report:  per-group statistics + a global aggregate (reduce)

Plus a columnar reference table (instrument metadata) shared once and read
zero-copy by every node.

Run:  python examples/columnar_analytics.py
"""

from __future__ import annotations

import numpy as np

from repro import Cluster
from repro.columnar import get_table, put_table
from repro.common.config import ClusterConfig
from repro.common.rng import DeterministicRng
from repro.common.units import MiB
from repro.dataset import DistributedDataset

N_NODES = 3
N_INSTRUMENTS = 8
TICKS_PER_PARTITION = 120_000
PARTITIONS = 6


def main() -> None:
    cfg = ClusterConfig().with_store(
        capacity_bytes=96 * MiB, check_remote_uniqueness=False
    )
    cluster = Cluster(cfg, N_NODES)
    rng = DeterministicRng(2026)

    # --- shared reference data: one columnar table, readable everywhere ----
    ref_id = cluster.new_object_id()
    put_table(
        cluster.client("node0", "ref-loader"),
        ref_id,
        {
            "instrument": np.arange(N_INSTRUMENTS, dtype=np.int64),
            "lot_size": (10 ** (np.arange(N_INSTRUMENTS) % 3 + 1)).astype(
                np.int64
            ),
        },
    )

    # --- the tick dataset: price observations, instrument id in low bits ----
    def make_partition(i: int) -> np.ndarray:
        stream = rng.spawn(f"part{i}")
        # Encode (instrument, price_cents) into one int64 per tick:
        # value = price * N_INSTRUMENTS + instrument.
        inst = np.frombuffer(
            stream.bytes(TICKS_PER_PARTITION), dtype=np.uint8
        ).astype(np.int64) % N_INSTRUMENTS
        noise = np.frombuffer(
            stream.bytes(TICKS_PER_PARTITION * 2), dtype=np.int16
        ).astype(np.int64)
        price = 10_000 + (noise % 2001) - 1000  # 9000..11000, some sentinels
        price[::5000] = -1  # inject sentinel bad ticks
        return price * N_INSTRUMENTS + inst

    ticks = DistributedDataset.from_arrays(
        cluster, [make_partition(i) for i in range(PARTITIONS)]
    )
    print(f"tick dataset: {ticks!r}")

    # 1. clean (narrow): drop sentinel ticks.
    clean = ticks.filter(lambda v: v // N_INSTRUMENTS > 0)
    dropped = ticks.count() - clean.count()
    print(f"cleaned {dropped} sentinel ticks (narrow op, zero fabric bytes)")

    # 2. group by instrument (wide): shuffle so each output partition holds
    #    exactly one instrument's ticks.
    by_instrument = clean.shuffle_by(
        lambda v: v % N_INSTRUMENTS, num_partitions=N_INSTRUMENTS
    )
    print(f"shuffled into {by_instrument.num_partitions} instrument groups "
          f"across {len(by_instrument.partition_homes())} nodes")

    # 3. per-group statistics (narrow again: each group local to its node).
    def describe(group: np.ndarray) -> tuple[int, float, float]:
        inst = int(group[0] % N_INSTRUMENTS)
        prices = (group // N_INSTRUMENTS).astype(np.float64) / 100.0
        return inst, float(prices.mean()), float(prices.std())

    stats = {}
    for p in by_instrument.partitions:
        worker = cluster.client(p.home)
        from repro.columnar import get_array

        with get_array(worker, p.object_id) as ref:
            inst, mean, std = describe(ref.array)
        stats[inst] = (mean, std, p.rows, p.home)

    # 4. join against the shared reference table (zero-copy read per node).
    with get_table(cluster.client("node1", "ref-reader"), ref_id) as ref_table:
        lot_sizes = dict(
            zip(ref_table["instrument"].tolist(), ref_table["lot_size"].tolist())
        )

    print("per-instrument report (price mean ± std, ticks, home, lot size):")
    for inst in sorted(stats):
        mean, std, rows, home = stats[inst]
        print(
            f"  instrument {inst}: {mean:8.2f} ± {std:5.2f}  "
            f"({rows} ticks, {home}, lot {lot_sizes[inst]})"
        )

    global_mean = clean.map(
        lambda v: (v // N_INSTRUMENTS).astype(np.float64) / 100.0
    ).sum() / clean.count()
    print(f"global mean price: {global_mean:.2f}")

    fabric_mib = sum(
        link.counters.get("read_bytes") for link in cluster.fabric.links()
    ) / MiB
    print(f"fabric traffic for the whole query: {fabric_mib:.1f} MiB")


if __name__ == "__main__":
    main()
