"""Span-tracing overhead guarantees on the Fig 6/7 hot paths.

Same contract the metrics plane honors (benchmarks/test_obs_overhead.py):

* **Zero simulated-ns overhead.** The span sink only listens to clock
  advances — it never advances the clock and never consumes shared RNG
  (its sampling stream is a pure spawn) — so the final simulated
  timestamp is bit-identical with tracing enabled, disabled, and at any
  sample rate.
* **Bounded host work per span.** With tracing off every handle is
  ``None`` and the hot path pays a single ``is None`` test. Enabled, what
  a span costs the host is pinned in the two units that do not depend on
  how busy the machine is: Python-level calls made and objects allocated,
  per span, by the traced run over the untraced one. (A wall-clock ratio
  cannot see this: ``traced < 3 x base`` passed with a second allocation
  and three string formats per span on the hot path.)
"""

import gc
import sys

from repro.common.config import ClusterConfig
from repro.common.units import KiB, MiB
from repro.core import Cluster
from repro.obs.spans import SpanConfig

N_OBJECTS = 50
OBJ_BYTES = 10 * KiB


def _run_fig67_cluster(tracing=None) -> Cluster:
    """The Fig 6/7 shape: put on node0, remote get + sequential read from
    node1. Returns the cluster it ran on."""
    cluster = Cluster(
        ClusterConfig(seed=123).with_store(capacity_bytes=64 * MiB),
        n_nodes=2,
        check_remote_uniqueness=False,
        tracing=tracing,
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
    return cluster


def _run_fig67_workload(*, tracing=None) -> tuple[int, dict]:
    """Returns (final simulated ns, cluster stats) of the Fig 6/7 loop."""
    cluster = _run_fig67_cluster(tracing)
    return cluster.clock.now_ns, cluster.stats()


class TestSimulatedTimeNeutrality:
    def test_tracing_adds_zero_simulated_ns(self):
        ns_off, stats_off = _run_fig67_workload()
        ns_on, stats_on = _run_fig67_workload(tracing=True)
        assert ns_on == ns_off
        assert stats_on == stats_off

    def test_sample_rate_does_not_perturb_time(self):
        ns_full, _ = _run_fig67_workload(tracing=SpanConfig(sample_rate=1.0))
        ns_none, _ = _run_fig67_workload(tracing=SpanConfig(sample_rate=0.0))
        assert ns_full == ns_none

    def test_flight_only_config_matches_plain(self):
        # The simtest/chaos configuration: rings only, nothing retained.
        ns_plain, _ = _run_fig67_workload()
        ns_flight, _ = _run_fig67_workload(
            tracing=SpanConfig(sample_rate=0.0, max_traces=0)
        )
        assert ns_flight == ns_plain


class TestDisabledPathIsFree:
    def test_untraced_cluster_builds_no_sink(self):
        cluster = Cluster(
            ClusterConfig(seed=123).with_store(capacity_bytes=64 * MiB),
            n_nodes=2,
            check_remote_uniqueness=False,
        )
        assert cluster.spans is None


#: Measured on this loop (300 spans, every trace kept, CPython 3.11): 18.15
#: calls and 8.32 retained blocks per span — the span object, its args
#: dict, three ints, and per root the bucket dict and the trace's span
#: list; the sink's own share (11.4 calls, 6.9 blocks) reads the same under
#: CPython 3.10, 3.12 and 3.13. The sink this one replaced measured 28.95
#: and 10.36. Bounds are the measured values + 10 %.
MAX_CALLS_PER_SPAN = 19.9
MAX_BLOCKS_PER_SPAN = 9.15


class TestHostWorkPerSpan:
    """Exact, machine-independent bounds on what tracing adds per span."""

    @staticmethod
    def _calls(tracing) -> tuple[int, Cluster]:
        """Python-level calls (``call`` + ``c_call`` profile events) the
        Fig 6/7 loop makes."""
        count = [0]

        def hook(frame, event, arg):
            if event == "call" or event == "c_call":
                count[0] += 1

        sys.setprofile(hook)
        try:
            cluster = _run_fig67_cluster(tracing)
        finally:
            sys.setprofile(None)
        return count[0], cluster

    @staticmethod
    def _blocks(tracing) -> tuple[int, Cluster]:
        """Memory blocks the loop leaves allocated (cluster still alive),
        with the collector off so nothing is freed behind the count."""
        gc.collect()
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            cluster = _run_fig67_cluster(tracing)
            return sys.getallocatedblocks() - before, cluster
        finally:
            gc.enable()

    @staticmethod
    def _spans(cluster: Cluster) -> int:
        # tracing=True keeps every trace, so the retained spans are all.
        return sum(len(trace["spans"]) for trace in cluster.spans.traces())

    def test_calls_added_per_span(self):
        _run_fig67_cluster(True)  # warm the per-process caches once
        traced, cluster = self._calls(True)
        plain, _ = self._calls(None)
        per_span = (traced - plain) / self._spans(cluster)
        assert 0 < per_span <= MAX_CALLS_PER_SPAN, f"{per_span:.2f} calls/span"

    def test_blocks_allocated_per_span(self):
        _run_fig67_cluster(True)
        traced, cluster = self._blocks(True)
        plain, _ = self._blocks(None)
        per_span = (traced - plain) / self._spans(cluster)
        assert 0 < per_span <= MAX_BLOCKS_PER_SPAN, f"{per_span:.2f} blocks/span"
