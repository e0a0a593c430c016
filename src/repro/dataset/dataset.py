"""The DistributedDataset implementation.

Execution model: the "driver" is whoever holds the dataset handle; every
partition-local computation is carried out by a long-lived worker client on
the partition's home node (narrow ops never move data), and wide ops move
payloads exclusively through disaggregated-memory reads.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.columnar import get_array, put_array
from repro.common.errors import ObjectStoreError
from repro.core.client import DisaggregatedClient
from repro.core.cluster import Cluster
from repro.dataset.partition import Partition


class DistributedDataset:
    """An immutable, partitioned collection of 1-D numpy arrays."""

    def __init__(self, cluster: Cluster, partitions: list[Partition]):
        if not partitions:
            raise ObjectStoreError("a dataset needs at least one partition")
        self._cluster = cluster
        self._partitions = list(partitions)

    # -- construction --------------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        cluster: Cluster,
        arrays: Iterable[np.ndarray],
        placement: str = "round_robin",
    ) -> "DistributedDataset":
        """Commit *arrays* as partitions spread across the cluster.

        ``placement='round_robin'`` spreads partitions over all nodes;
        ``placement='single'`` homes everything on the first node (useful
        to demonstrate the remote-read path).
        """
        nodes = cluster.node_names()
        partitions: list[Partition] = []
        for index, array in enumerate(arrays):
            array = np.ascontiguousarray(array)
            if array.ndim != 1:
                raise ObjectStoreError("dataset partitions must be 1-D arrays")
            if placement == "round_robin":
                home = nodes[index % len(nodes)]
            elif placement == "single":
                home = nodes[0]
            else:
                raise ValueError(f"unknown placement {placement!r}")
            worker = cls._worker(cluster, home)
            oid = cluster.new_object_id()
            put_array(worker, oid, array)
            partitions.append(
                Partition(index=index, object_id=oid, home=home, rows=len(array))
            )
        if not partitions:
            raise ObjectStoreError("a dataset needs at least one partition")
        return cls(cluster, partitions)

    @classmethod
    def _worker(cls, cluster: Cluster, node: str) -> DisaggregatedClient:
        """One long-lived worker client per (cluster, node).

        The cache lives on the cluster object itself (not a module-level
        dict keyed by ``id()`` — CPython reuses ids across object
        lifetimes, which would hand a fresh cluster another cluster's
        workers).
        """
        cache: dict[str, DisaggregatedClient] = cluster.__dict__.setdefault(
            "_dataset_workers", {}
        )
        worker = cache.get(node)
        if worker is None:
            worker = cluster.client(node, f"dataset-worker@{node}")
            cache[node] = worker
        return worker

    # -- introspection ---------------------------------------------------------------

    @property
    def num_partitions(self) -> int:
        return len(self._partitions)

    @property
    def partitions(self) -> list[Partition]:
        return list(self._partitions)

    def partition_homes(self) -> dict[str, int]:
        homes: dict[str, int] = {}
        for p in self._partitions:
            homes[p.home] = homes.get(p.home, 0) + 1
        return homes

    def count(self) -> int:
        """Total rows (metadata only — no data movement)."""
        return sum(p.rows for p in self._partitions)

    # -- narrow transformations ---------------------------------------------------------

    def map_partitions(
        self, fn: Callable[[np.ndarray], np.ndarray]
    ) -> "DistributedDataset":
        """Apply *fn* to every partition on its home node; returns a new
        dataset whose partitions live on the same nodes (narrow dependency:
        zero cross-node traffic)."""
        out: list[Partition] = []
        for p in self._partitions:
            worker = self._worker(self._cluster, p.home)
            with get_array(worker, p.object_id) as ref:
                result = np.ascontiguousarray(fn(ref.array))
            if result.ndim != 1:
                raise ObjectStoreError("map_partitions must return 1-D arrays")
            oid = self._cluster.new_object_id()
            put_array(worker, oid, result)
            out.append(
                Partition(index=p.index, object_id=oid, home=p.home, rows=len(result))
            )
        return DistributedDataset(self._cluster, out)

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "DistributedDataset":
        """Element-wise map (a vectorised function over each partition)."""
        return self.map_partitions(fn)

    def filter(self, predicate: Callable[[np.ndarray], np.ndarray]) -> "DistributedDataset":
        """Keep rows where the (vectorised, boolean) predicate holds.

        Empty filtered partitions keep a single sentinel row removed at
        collect time? No — simpler and honest: partitions may not be empty
        (Plasma objects cannot be zero-sized), so an all-filtered partition
        raises; callers with sparse data should repartition first.
        """

        def apply(arr: np.ndarray) -> np.ndarray:
            kept = arr[predicate(arr)]
            if len(kept) == 0:
                raise ObjectStoreError(
                    "filter emptied a partition (zero-size objects are not "
                    "representable); coalesce or repartition first"
                )
            return kept

        return self.map_partitions(apply)

    # -- wide operations -------------------------------------------------------------------

    def reduce(
        self,
        partial: Callable[[np.ndarray], object],
        combine: Callable[[object, object], object],
    ) -> object:
        """Two-phase reduction: *partial* runs on each home node (local
        reads), the driver combines the partials (scalar metadata only —
        no payload crosses the fabric)."""
        acc: object | None = None
        for p in self._partitions:
            worker = self._worker(self._cluster, p.home)
            with get_array(worker, p.object_id) as ref:
                value = partial(ref.array)
            acc = value if acc is None else combine(acc, value)
        return acc

    def sum(self) -> float:
        return float(
            self.reduce(lambda a: float(a.sum()), lambda x, y: x + y)  # type: ignore[return-value]
        )

    def collect(self, on: str | None = None) -> np.ndarray:
        """Materialise the whole dataset on one node (default: the first).

        Remote partitions are read through ThymesisFlow — the wide(st)
        possible dependency.
        """
        node = on or self._cluster.node_names()[0]
        reader = self._worker(self._cluster, node)
        parts: list[np.ndarray] = []
        for p in sorted(self._partitions, key=lambda q: q.index):
            with get_array(reader, p.object_id) as ref:
                parts.append(ref.copy())
        return np.concatenate(parts)

    def shuffle_by(
        self,
        key_fn: Callable[[np.ndarray], np.ndarray],
        num_partitions: int | None = None,
    ) -> "DistributedDataset":
        """Wide-dependency repartition: rows move to the partition chosen by
        ``key_fn(values) % num_partitions``.

        Stage 1 (map side): each home worker splits its partition and
        commits one intermediate object per destination. Stage 2 (reduce
        side): each destination's worker gathers its intermediates —
        remote ones over the fabric — and commits the concatenation.
        """
        nodes = self._cluster.node_names()
        n_out = num_partitions or len(nodes)
        if n_out <= 0:
            raise ValueError("num_partitions must be positive")

        # Stage 1: map-side split. intermediates[dest] = list of (oid, home).
        intermediates: list[list[tuple]] = [[] for _ in range(n_out)]
        for p in self._partitions:
            worker = self._worker(self._cluster, p.home)
            with get_array(worker, p.object_id) as ref:
                values = ref.copy()
            dests = key_fn(values) % n_out
            for j in range(n_out):
                chunk = values[dests == j]
                if len(chunk) == 0:
                    continue
                oid = self._cluster.new_object_id()
                put_array(worker, oid, chunk)
                intermediates[j].append((oid, p.home))

        # Stage 2: reduce-side gather on each destination node.
        out: list[Partition] = []
        for j in range(n_out):
            home = nodes[j % len(nodes)]
            worker = self._worker(self._cluster, home)
            chunks: list[np.ndarray] = []
            for oid, _src in intermediates[j]:
                with get_array(worker, oid) as ref:
                    chunks.append(ref.copy())
            if not chunks:
                continue  # a destination with no rows simply has no partition
            merged = np.concatenate(chunks)
            oid = self._cluster.new_object_id()
            put_array(worker, oid, merged)
            out.append(
                Partition(index=len(out), object_id=oid, home=home, rows=len(merged))
            )
            # Intermediates are consumed; free them at their homes.
            for ioid, src in intermediates[j]:
                self._worker(self._cluster, src).delete(ioid)
        if not out:
            raise ObjectStoreError("shuffle produced no rows")
        return DistributedDataset(self._cluster, out)

    # -- lifecycle -----------------------------------------------------------------------

    def drop(self) -> None:
        """Delete every partition object (the dataset handle is dead after)."""
        for p in self._partitions:
            self._worker(self._cluster, p.home).delete(p.object_id)
        self._partitions = []

    def __repr__(self) -> str:
        return (
            f"DistributedDataset({self.num_partitions} partitions, "
            f"{sum(p.rows for p in self._partitions)} rows, "
            f"homes={self.partition_homes()})"
        )
