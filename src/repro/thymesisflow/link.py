"""Point-to-point OpenCAPI link cost model.

Two access regimes, matching how ThymesisFlow hardware behaves:

* **single access** (a load/store of up to one cache line): pays the full
  unloaded round trip through both FPGAs (~1.1 us) — this is the "inherent
  latency penalty ... non-negligible" the paper discusses in §III.
* **streaming** (bulk sequential reads, what the benchmarks measure): line
  fills pipeline, hiding the per-line latency; cost is a small per-transfer
  setup plus bytes / bandwidth. Calibrated so a single-threaded remote read
  sustains ~5.75 GiB/s (Fig 7).
"""

from __future__ import annotations

from repro.common.clock import SimClock
from repro.common.config import FabricLinkConfig
from repro.common.errors import LinkPartitionedError
from repro.common.rng import DeterministicRng
from repro.obs.metrics import CounterGroup
from repro.network.model import TransferModel


class OpenCapiLink:
    """A bidirectional link between two named endpoints."""

    class Counters(CounterGroup):
        read_ops = read_bytes = write_ops = write_bytes = reads_avoided = 0
        read_bytes_avoided = single_accesses = partition_rejections = 0

    def __init__(
        self,
        node_a: str,
        node_b: str,
        clock: SimClock,
        config: FabricLinkConfig,
        rng: DeterministicRng,
    ):
        if node_a == node_b:
            raise ValueError("a link must connect two distinct nodes")
        self._ends = frozenset((node_a, node_b))
        self._node_a = node_a
        self._node_b = node_b
        self._link_name = f"{self._node_a}<->{self._node_b}"
        self._clock = clock
        self._config = config
        link_rng = rng.spawn("link", *sorted(self._ends))
        self._read_model = TransferModel(
            fixed_latency_ns=config.streaming_overhead_ns,
            bandwidth_bps=config.read_bandwidth_bps,
            jitter_sigma=config.jitter_sigma,
            rng=link_rng,
        )
        self._write_model = TransferModel(
            fixed_latency_ns=config.streaming_overhead_ns,
            bandwidth_bps=config.write_bandwidth_bps,
            jitter_sigma=config.jitter_sigma,
            rng=link_rng,
        )
        self._single_rng = link_rng
        self.counters = self.Counters()
        # Fault-injection state (driven by repro.chaos.ChaosRuntime). A
        # healthy link has factors of 1.0 and pays nothing extra; the
        # happy-path cost model and its RNG draw sequence are untouched.
        self.chaos = None  # ChaosRuntime, set by attach_link()
        self._partitioned = False
        self._bandwidth_factor = 1.0
        self._latency_factor = 1.0
        # Opt-in observability, set by the cluster builder.
        self.spans = None
        self.correlation = None
        self._m_read = None
        self._m_write = None

    @property
    def config(self) -> FabricLinkConfig:
        return self._config

    @property
    def link_name(self) -> str:
        return self._link_name

    def attach_metrics(self, registry) -> None:
        """Bind byte/op counters and per-transfer latency histograms."""
        registry.register_group(
            self.counters, "thymesisflow_link", link=self.link_name
        )
        self._m_read = registry.histogram(
            "thymesisflow_read_latency_ns",
            "Simulated per-transfer fabric streaming-read latency.",
            labels=("link",),
        ).labels(link=self.link_name)
        self._m_write = registry.histogram(
            "thymesisflow_write_latency_ns",
            "Simulated per-transfer fabric streaming-write latency.",
            labels=("link",),
        ).labels(link=self.link_name)

    @property
    def endpoints(self) -> frozenset[str]:
        return self._ends

    def connects(self, node_a: str, node_b: str) -> bool:
        return frozenset((node_a, node_b)) == self._ends

    # -- fault injection -----------------------------------------------------------

    def set_partitioned(self, flag: bool) -> None:
        """Sever (or heal) the link: every access raises until healed —
        unlike a store crash, a cable cut makes the *fabric* unreachable."""
        self._partitioned = bool(flag)

    def set_degradation(
        self, bandwidth_factor: float = 1.0, latency_factor: float = 1.0
    ) -> None:
        """Degrade the link: effective bandwidth is scaled by
        *bandwidth_factor* (0.25 = a quarter of healthy throughput) and
        single-access latency by *latency_factor*."""
        if bandwidth_factor <= 0 or latency_factor <= 0:
            raise ValueError("degradation factors must be positive")
        self._bandwidth_factor = bandwidth_factor
        self._latency_factor = latency_factor

    def gate(self) -> None:
        """Apply any fault due now; raise if the link is partitioned."""
        if self.chaos is not None:
            self.chaos.poll()
        if self._partitioned:
            self.counters.partition_rejections += 1
            raise LinkPartitionedError(
                f"fabric link {self._node_a}<->{self._node_b} is partitioned"
            )

    # -- timing ------------------------------------------------------------------

    def charge_stream_read(self, nbytes: int) -> float:
        """Bulk remote read of *nbytes*; returns charged ns."""
        if self.spans is not None:
            cost = self._charge_observed(nbytes, "read", self._charge_stream_read)
        else:
            cost = self._charge_stream_read(nbytes)
        if self._m_read is not None:
            self._m_read.observe(cost)
        return cost

    def _charge_observed(self, nbytes: int, op: str, inner) -> float:
        """Wrap a transfer in a fabric span."""
        args = {"bytes": nbytes}
        rid = self.correlation.current if self.correlation else None
        if rid is not None:
            args["rid"] = rid
        with self.spans.span("fabric", op, self._link_name, args):
            return inner(nbytes)

    def _charge_stream_read(self, nbytes: int) -> float:
        self.gate()
        cost = 0.0
        remaining = nbytes
        burst = self._config.max_burst_bytes
        while remaining > 0:
            chunk = min(remaining, burst)
            cost += self._read_model.cost_ns(chunk)
            remaining -= chunk
        cost /= self._bandwidth_factor
        self._clock.advance(cost)
        self.counters.read_bytes += nbytes
        self.counters.read_ops += 1
        return cost

    def charge_stream_write(self, nbytes: int) -> float:
        if self.spans is not None:
            cost = self._charge_observed(nbytes, "write", self._charge_stream_write)
        else:
            cost = self._charge_stream_write(nbytes)
        if self._m_write is not None:
            self._m_write.observe(cost)
        return cost

    def _charge_stream_write(self, nbytes: int) -> float:
        self.gate()
        cost = 0.0
        remaining = nbytes
        burst = self._config.max_burst_bytes
        while remaining > 0:
            chunk = min(remaining, burst)
            cost += self._write_model.cost_ns(chunk)
            remaining -= chunk
        cost /= self._bandwidth_factor
        self._clock.advance(cost)
        self.counters.write_bytes += nbytes
        self.counters.write_ops += 1
        return cost

    def note_read_avoided(self, nbytes: int) -> None:
        """A hot-object cache hit served bytes this link would otherwise
        have streamed. Pure accounting — no clock advance, no RNG draw —
        so enabling the cache never perturbs fabric timing for the reads
        that *do* happen."""
        self.counters.read_bytes_avoided += nbytes
        self.counters.reads_avoided += 1

    def charge_single_access(self) -> float:
        """One unpipelined load/store (≤ a cache line) round trip."""
        self.gate()
        cost = (
            self._config.added_latency_ns
            * self._latency_factor
            * self._single_rng.lognormal_jitter(self._config.jitter_sigma)
        )
        self._clock.advance(cost)
        self.counters.single_accesses += 1
        return cost

    def __repr__(self) -> str:
        return f"OpenCapiLink({self._node_a}<->{self._node_b})"
