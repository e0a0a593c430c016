"""Observability overhead guarantees on the Fig 6/7 hot paths.

Two claims keep the metrics plane honest:

* **Zero simulated-ns overhead.** Instrumentation only reads the clock,
  never advances it and never consumes RNG, so a workload's final
  simulated timestamp — the quantity every figure is computed from — is
  bit-identical with metrics enabled and disabled (the span sink's twin
  of this check lives in ``test_trace_overhead.py``).
* **Bounded wall-clock overhead.** With metrics disabled every handle is
  ``None`` and the fast path is a single ``is None`` test, so real run
  time stays within noise of the pre-observability baseline; even fully
  enabled it must stay within a loose constant factor.
"""

import time

from repro.common.units import KiB, MiB
from repro.common.config import ClusterConfig
from repro.core import Cluster

N_OBJECTS = 50
OBJ_BYTES = 10 * KiB


def _run_fig67_workload(*, metrics: bool) -> tuple[int, dict]:
    """The Fig 6/7 shape: put on node0, remote get + sequential read from
    node1. Returns (final simulated ns, cluster stats)."""
    cluster = Cluster(
        ClusterConfig(seed=123).with_store(capacity_bytes=64 * MiB),
        n_nodes=2,
        check_remote_uniqueness=False,
        metrics=metrics,
    )
    producer = cluster.client("node0")
    consumer = cluster.client("node1")
    oids = cluster.new_object_ids(N_OBJECTS)
    for i, oid in enumerate(oids):
        producer.put_bytes(oid, bytes([i % 251]) * OBJ_BYTES)
    for oid in oids:
        [buf] = consumer.get([oid])
        buf.read_all()
        consumer.release(oid)
    return cluster.clock.now_ns, cluster.stats()


class TestSimulatedTimeNeutrality:
    def test_metrics_add_zero_simulated_ns(self):
        ns_off, stats_off = _run_fig67_workload(metrics=False)
        ns_on, stats_on = _run_fig67_workload(metrics=True)
        assert ns_on == ns_off
        assert stats_on == stats_off


class TestWallClockOverhead:
    def _time(self, **kwargs) -> float:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _run_fig67_workload(**kwargs)
            best = min(best, time.perf_counter() - t0)
        return best

    def test_enabled_overhead_is_bounded(self):
        """Very loose bound — this is a tripwire for accidentally putting
        allocation or formatting on the hot path, not a precise ratio."""
        base = self._time(metrics=False)
        observed = self._time(metrics=True)
        assert observed < 3.0 * base + 0.05, (
            f"metrics=True {observed:.3f}s vs baseline {base:.3f}s"
        )
