"""Configuration dataclasses with paper-calibrated defaults.

Every cost model in the simulation reads its parameters from these frozen
dataclasses. The defaults are calibrated against the numbers the paper
reports for its IBM IC922 + Alpha Data 9V3 testbed (see DESIGN.md §2):

* local sequential read bandwidth        ~ 6.5  GiB/s   (Fig 7, specs 4-6)
* ThymesisFlow remote read bandwidth     ~ 5.75 GiB/s   (Fig 7, specs 4-6)
* local retrieval latency                T = 57 us + 1.85 us/object (Fig 6)
* remote retrieval latency               T = local + gRPC round trip
                                         ~ 2.4 ms (jittered) + 0.9 us/object

Changing a default changes the regenerated figures; the benchmark suite
asserts the *shape* (who wins, by what factor), so recalibration for a
different target machine only requires touching this module.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace

from repro.common.units import GiB, MiB

#: How stores share object metadata (paper §IV-A2): gRPC-model lookups,
#: or a directory in disaggregated memory read by fabric loads.
SHARING_MODES = ("rpc", "hashmap")


@dataclass(frozen=True)
class LocalMemoryConfig:
    """Cost model of a node's local DRAM path (single-threaded).

    ``read_bandwidth`` is deliberately the paper's *measured end-to-end*
    single-thread figure, not the DIMM spec: it already folds in the copy
    loop the benchmark runs.
    """

    read_bandwidth_bps: float = 6.5 * GiB
    write_bandwidth_bps: float = 6.0 * GiB
    # Per-buffer overhead of a streaming read/write (loop setup, prefetch
    # warm-up). Kept tiny: Fig 7 shows even 1 kB objects near full bandwidth.
    access_latency_ns: float = 15.0
    # POWER9 cache geometry: 128-byte lines; IC922 has a large L3. Objects
    # still resident in cache read faster — the paper's explanation for the
    # >6.5 GiB/s outliers in specs 1-3 is that small objects cache well.
    cache_line_bytes: int = 128
    cache_capacity_bytes: int = 64 * MiB
    cached_read_speedup: float = 1.09
    # Multiplicative log-normal jitter applied per streaming burst.
    jitter_sigma: float = 0.01
    # Additive absolute timing noise per measured phase (OS scheduling,
    # timer granularity). This is what makes short measurements (specs 1-3,
    # ~1-20 MB per repetition) noisy while long ones (specs 4-6) stabilise,
    # reproducing Fig 7's variance structure.
    phase_noise_std_ns: float = 12_000.0


@dataclass(frozen=True)
class FabricLinkConfig:
    """Cost model of one ThymesisFlow (OpenCAPI) point-to-point link.

    The added latency term models the off-chip FPGA round trip the
    ThymesisFlow paper measures (~1 us order); bandwidth is the end-to-end
    single-thread remote read figure from Fig 7.
    """

    read_bandwidth_bps: float = 5.75 * GiB
    write_bandwidth_bps: float = 5.4 * GiB
    # Unloaded single-access (cache-line) round-trip latency through the
    # FPGA pair — matches the ThymesisFlow paper's microbenchmarks. Charged
    # by word-granular load/store operations.
    added_latency_ns: float = 1_100.0
    # Streaming reads pipeline line fills, hiding the per-line latency; a
    # bulk transfer pays only this small per-buffer setup cost plus the
    # bandwidth term (how a single-threaded memcpy reaches 5.75 GiB/s).
    streaming_overhead_ns: float = 10.0
    jitter_sigma: float = 0.012
    # Max bytes per fabric transaction; larger reads are split (models the
    # OpenCAPI DMA burst size; only affects latency accounting granularity).
    max_burst_bytes: int = 2 * MiB


@dataclass(frozen=True)
class IpcConfig:
    """Unix-domain-socket IPC between a Plasma client and its local store.

    Fitted from Fig 6's local series: total retrieval latency for n objects
    is ``request_overhead + n * per_object``.
    """

    request_overhead_ns: float = 55_000.0
    per_object_ns: float = 1_830.0
    per_byte_ns: float = 0.0  # handles are passed by fd, not copied
    jitter_sigma: float = 0.05


@dataclass(frozen=True)
class RpcConfig:
    """gRPC (synchronous, unary) cost model.

    The paper configures gRPC 1.38 in synchronous unary mode; Fig 6's remote
    series is "likely dominated by gRPC and its inherent network jitter".
    The round-trip default and jitter reproduce the 2.6-5.0 ms band.
    """

    round_trip_ns: float = 2_300_000.0
    # Marshalling + HTTP/2 framing + LAN cost per serialized byte. RPC
    # messages here are metadata-only (ids and object descriptors, ~70
    # serialized bytes per object), so this term contributes the fitted
    # ~0.85 us/object slope of Fig 6's remote series.
    per_byte_ns: float = 8.5
    # Per-message HTTP/2 frame handling cost on a *streaming* call; unary
    # calls fold this into the round trip. The paper picked unary "to
    # minimize protocol overhead for the messages being sent" — the E9
    # ablation quantifies when streaming wins anyway.
    per_stream_message_ns: float = 1_500.0
    jitter_sigma: float = 0.18
    # Fault injection: probability that any single call attempt fails with
    # UNAVAILABLE (models transient LAN/connection faults). 0 disables.
    inject_failure_rate: float = 0.0
    # Transparent retries on UNAVAILABLE (gRPC retry policy); each attempt
    # is charged in full. 0 means fail on the first UNAVAILABLE.
    max_retries: int = 2
    # Exponential backoff between retry attempts (gRPC retry policy shape:
    # initial * multiplier^n, capped, with multiplicative log-normal jitter
    # so synchronized retriers decorrelate). The waiting client's clock is
    # charged for every backoff interval.
    retry_initial_backoff_ns: float = 500_000.0
    retry_backoff_multiplier: float = 2.0
    retry_max_backoff_ns: float = 50_000_000.0
    retry_backoff_jitter_sigma: float = 0.1
    # Default per-call deadline. A call that would complete after its
    # deadline is charged only up to the deadline and raises
    # DEADLINE_EXCEEDED. 0 disables (calls wait indefinitely — the paper's
    # blocking unary configuration).
    default_deadline_ns: float = 0.0
    # --- client-side overload taming (repro.rpc.overload) ---
    # Retry budget: a per-channel token bucket capping retry amplification.
    # Every retry (transport failure, UNAVAILABLE, or a RESOURCE_EXHAUSTED
    # shed) spends one token; an exhausted budget fails the call fast with
    # the last error instead of storming an already-overloaded peer.
    # 0 disables (unlimited retries up to max_retries — the legacy shape).
    retry_budget_per_s: float = 0.0
    retry_budget_burst: int = 10
    # Hedged reads: after the per-channel latency quantile below, a replica
    # read that has not completed is abandoned (cancelled) and re-issued at
    # another holder. 0 disables hedging; no hedging happens until the
    # channel has observed hedge_min_samples completed calls.
    hedge_quantile: float = 0.0
    hedge_min_samples: int = 20
    # --- async event-loop mode (repro.rpc.aio) ---
    # "sync" preserves the paper's blocking one-in-flight unary semantics
    # (and keeps every standing BENCH/TRACE artifact byte-identical);
    # "async" runs calls as event-loop tasks: many in flight per peer,
    # id-list RPCs coalesced into batched wire messages, hedged lookups as
    # racing tasks.
    mode: str = "sync"
    # Coalescing policy: submissions within batch_window_ns of the first
    # buffered entry (or until max_batch ids accumulate) merge into one
    # wire message. window 0 = flush immediately (no added latency).
    batch_window_ns: float = 0.0
    max_batch: int = 16
    # Async hedged lookups: after this stagger, a not-yet-resolved batched
    # lookup races a second probe at the next candidate peer. 0 disables.
    hedge_stagger_ns: float = 0.0


@dataclass(frozen=True)
class LanConfig:
    """Plain LAN (TCP-like) transfer model for the scale-out baseline."""

    bandwidth_bps: float = 1.1 * GiB  # ~10 GbE effective
    round_trip_ns: float = 180_000.0
    per_byte_ns: float = 0.0  # derived from bandwidth
    jitter_sigma: float = 0.08


@dataclass(frozen=True)
class HealthConfig:
    """Failure detection and degraded-mode behaviour (repro.core.health).

    Timeouts are simulated nanoseconds against the cluster's SimClock.
    """

    # Heartbeat-based failure detection: each node pings every peer at most
    # once per interval (HealthMonitor.tick()); a peer that has not answered
    # within the suspicion timeout is *suspected* dead.
    heartbeat_interval_ns: float = 50_000_000.0
    suspicion_timeout_ns: float = 250_000_000.0
    # Per-peer circuit breaker: after this many *consecutive failed calls*
    # (UNAVAILABLE / DEADLINE_EXCEEDED after all retries) the breaker opens
    # and subsequent calls fail fast without a round trip.
    breaker_failure_threshold: int = 3
    # How long an open breaker waits before letting probe calls through
    # (half-open state).
    breaker_reset_timeout_ns: float = 500_000_000.0
    # Calls admitted while half-open; one success closes the breaker, any
    # failure re-opens it.
    breaker_half_open_probes: int = 1
    # Simulated cost of a call rejected by an open breaker (local connection
    # bookkeeping only — the point is that it is far below a round trip).
    breaker_fail_fast_ns: float = 1_000.0

    def validate(self) -> None:
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if self.breaker_half_open_probes < 1:
            raise ValueError("breaker_half_open_probes must be >= 1")
        for name in (
            "heartbeat_interval_ns",
            "suspicion_timeout_ns",
            "breaker_reset_timeout_ns",
            "breaker_fail_fast_ns",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class ChaosConfig:
    """Deterministic fault injection (repro.chaos).

    A :class:`~repro.chaos.FaultPlan` carries the *what and when*; this
    config carries behavioural constants and the knobs
    :meth:`~repro.chaos.FaultPlan.random` uses to synthesise plans from a
    seed.
    """

    # How long a client waits on an attempt swallowed by a blackhole or
    # partition before concluding UNAVAILABLE (a TCP-ish connect timeout).
    # Per-call deadlines cap this further.
    blackhole_timeout_ns: float = 10_000_000.0
    # Defaults for randomly generated plans: degraded links multiply
    # bandwidth by the first factor and latency by the second.
    degrade_bandwidth_factor: float = 0.25
    degrade_latency_factor: float = 4.0
    # Mean outage duration for generated crash/partition/blackhole events.
    mean_outage_ns: float = 500_000_000.0

    def validate(self) -> None:
        if self.blackhole_timeout_ns <= 0:
            raise ValueError("blackhole_timeout_ns must be positive")
        if not 0.0 < self.degrade_bandwidth_factor <= 1.0:
            raise ValueError("degrade_bandwidth_factor must be in (0, 1]")
        if self.degrade_latency_factor < 1.0:
            raise ValueError("degrade_latency_factor must be >= 1")
        if self.mean_outage_ns <= 0:
            raise ValueError("mean_outage_ns must be positive")


@dataclass(frozen=True)
class PlacementConfig:
    """Elastic placement (repro.placement): ring shape, per-node weights
    and rebalance pacing. A cluster places objects iff its config carries
    one."""

    # Rebalancer throttle: payload bytes migrated per tick, and the
    # simulated time one tick stands for.
    rebalance_bytes_per_tick: int = 8 * MiB
    rebalance_tick_interval_ns: float = 1_000_000.0
    # Seed members' ring weights (name -> weight; unnamed members weigh
    # 1.0). A weight-2 node owns twice the ring, the stand-in for a
    # memory-rich host in a heterogeneous cluster.
    weights: Mapping[str, float] | None = None

    def validate(self) -> None:
        for name, weight in (self.weights or {}).items():
            if weight <= 0:
                raise ValueError(
                    f"placement.weights[{name!r}] must be positive, got {weight}"
                )
        if self.rebalance_bytes_per_tick <= 0:
            raise ValueError("rebalance_bytes_per_tick must be positive")
        if self.rebalance_tick_interval_ns < 0:
            raise ValueError("rebalance_tick_interval_ns must be non-negative")


@dataclass(frozen=True)
class TierConfig:
    """Tiered memory (repro.tier): hot-object byte cache + promote/demote.

    A cluster whose config carries no ``TierConfig`` never constructs any
    tier state, so every legacy artifact stays byte-identical.
    """

    # Per-node hot-object byte cache capacity. 0 disables the cache while
    # keeping heat tracking (promotion/demotion still runs).
    cache_capacity_bytes: int = 8 * MiB
    # Heat decays by half every this much simulated time.
    heat_half_life_ns: float = 500_000_000.0
    # Promote a remote object to its reader once its decayed remote-read
    # heat at that reader crosses this threshold.
    promote_min_heat: float = 3.0
    # Tier-engine throttle, mirroring the rebalancer's tick shape.
    bytes_per_tick: int = 4 * MiB
    tick_interval_ns: float = 2_000_000.0
    # A cache hit is a local DRAM copy: same shape (and default constants)
    # as the calibrated local-memory model, with an independent jitter
    # stream so enabling the cache never perturbs other subsystems' draws.
    cache_hit_latency_ns: float = 15.0
    cache_hit_bandwidth_bps: float = 6.5 * GiB
    cache_hit_jitter_sigma: float = 0.01

    def validate(self) -> None:
        if self.cache_capacity_bytes < 0:
            raise ValueError("cache_capacity_bytes must be non-negative")
        if self.heat_half_life_ns <= 0:
            raise ValueError("heat_half_life_ns must be positive")
        if self.promote_min_heat <= 0:
            raise ValueError("promote_min_heat must be positive")
        if self.bytes_per_tick <= 0:
            raise ValueError("bytes_per_tick must be positive")
        if self.tick_interval_ns < 0:
            raise ValueError("tick_interval_ns must be non-negative")
        if self.cache_hit_latency_ns < 0:
            raise ValueError("cache_hit_latency_ns must be non-negative")
        if self.cache_hit_bandwidth_bps <= 0:
            raise ValueError("cache_hit_bandwidth_bps must be positive")
        if self.cache_hit_jitter_sigma < 0:
            raise ValueError("cache_hit_jitter_sigma must be non-negative")


@dataclass(frozen=True)
class OverloadConfig:
    """Server-side admission control (repro.rpc.overload).

    Models the finite request-servicing capacity of a store's gRPC thread.
    Defaults model the paper's assumption — infinite capacity — so nothing
    changes unless a service rate (or an injected overload burst) makes the
    server finite: then queueing delay appears in observed latency and the
    bounded queue sheds with RESOURCE_EXHAUSTED instead of queueing forever.
    """

    # Requests the server can service per simulated second. 0 disables the
    # whole admission model (infinite capacity, the pre-overload behaviour).
    service_rate_ops_per_s: float = 0.0
    # Bounded request queue: a request arriving with this many requests
    # already waiting is shed with RESOURCE_EXHAUSTED. 0 = unbounded (the
    # queue grows without limit — the "collapse" control in benchmarks).
    queue_depth: int = 64
    # 'fifo' services in arrival order; 'lifo' lets a fresh arrival jump the
    # queue under pressure (newest-first adaptive discipline: recent
    # requests still have deadline budget left, the backlogged ones are
    # probably already being retried).
    queue_discipline: str = "fifo"
    # Shed work whose propagated deadline budget is already spent, or that
    # cannot possibly finish within it given the current backlog, before
    # doing any servicing work for it.
    shed_expired: bool = True

    def validate(self) -> None:
        if self.service_rate_ops_per_s < 0:
            raise ValueError("service_rate_ops_per_s must be non-negative")
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be non-negative")
        if self.queue_discipline not in ("fifo", "lifo"):
            raise ValueError(
                f"unknown queue discipline {self.queue_discipline!r}; "
                "have ('fifo', 'lifo')"
            )


@dataclass(frozen=True)
class SpanConfig:
    """Retention knobs for one :class:`~repro.obs.spans.SpanSink`.

    ``sample_rate`` is the head-sampling probability (decided at root open
    from the sink's dedicated RNG stream); ``tail_percentile`` always keeps
    roots at or above that percentile of durations observed so far (plus
    every errored/shed op) regardless of the head decision;
    ``max_traces`` caps retained traces so a long run cannot grow without
    bound (overflow is counted, never silent).
    """

    sample_rate: float = 1.0
    tail_percentile: float = 0.99
    max_traces: int = 100_000

    def validate(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        if not 0.0 <= self.tail_percentile <= 1.0:
            raise ValueError("tail_percentile must be within [0, 1]")
        if self.max_traces < 0:
            raise ValueError("max_traces must be non-negative")


@dataclass(frozen=True)
class StoreConfig:
    """Plasma store behaviour knobs."""

    # Default store capacity. The paper's IC922 nodes hold hundreds of GB;
    # the simulation backs every store with a real bytearray, so the default
    # is sized for laptops. Benchmarks override per workload.
    capacity_bytes: int = 256 * MiB
    # Victim ordering: 'lru' (Plasma's policy, default), 'fifo', or
    # 'largest_first' — the E10 ablation compares them.
    eviction_policy: str = "lru"
    # --- end-to-end integrity (sealed-object in-region headers) ---
    # Write a 64-byte header (magic, id, generation, sizes, CRC32C, seal
    # flag) into the region ahead of every object's payload. Required for
    # validated fabric reads, restart recovery, and the scrubber.
    integrity_headers: bool = True
    # Validate the in-region header (magic / object id / generation / seal
    # flag) before a fabric read streams the payload, and re-check the
    # generation afterwards to catch mid-copy retirement.
    verify_remote_reads: bool = True
    # Additionally verify the payload CRC on every remote read. Off by
    # default: always-on CRC would sit on the Fig 7 hot path; the scrubber
    # covers at-rest corruption and torn/stale reads are already caught by
    # the header checks above.
    verify_checksum_on_read: bool = False
    # Modeled cost of checksumming, charged to the simulated clock per byte
    # checksummed on a *timed* path (remote reads with CRC verification).
    # 0.0 models a hardware-accelerated CRC32C folded into the copy loop.
    checksum_ns_per_byte: float = 0.0
    # --- metadata plane (repro.core.store.DisaggregatedStore) ---
    # Paper §IV-A: a create asks every peer (Contains RPC) whether the id
    # is already in use. Off trusts the cluster's unique-id stream, which
    # is what every benchmark driving batches of fresh ids does.
    check_remote_uniqueness: bool = True
    # Distributed usage sharing: AddRef/ReleaseRef RPCs pin remotely-used
    # objects at their home store so eviction cannot corrupt a remote
    # reader (closes the gap paper §IV-A2 leaves open).
    share_usage: bool = False
    # Descriptor caching for repeated requests (paper §V-B). A cached
    # descriptor is only safe while its home tells the cacher about
    # deletions, so this one switch also turns on the NotifyDeleted pushes.
    lookup_cache: bool = False


def cluster_node_names(nodes: int | Sequence[str]) -> list[str]:
    """The node names a cluster is built with: *nodes* is a count (named
    ``node0``, ``node1``, ...) or the names themselves."""
    if isinstance(nodes, int):
        return [f"node{i}" for i in range(nodes)]
    return list(nodes)


@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to stand up a simulated cluster.

    The one description :class:`~repro.core.cluster.Cluster` builds from:
    cost models, the sharing transport, and one optional sub-config per
    feature plane — ``None`` means the plane is off and nothing of it is
    constructed.
    """

    seed: int = 2022
    local_memory: LocalMemoryConfig = field(default_factory=LocalMemoryConfig)
    fabric: FabricLinkConfig = field(default_factory=FabricLinkConfig)
    ipc: IpcConfig = field(default_factory=IpcConfig)
    rpc: RpcConfig = field(default_factory=RpcConfig)
    lan: LanConfig = field(default_factory=LanConfig)
    store: StoreConfig = field(default_factory=StoreConfig)
    health: HealthConfig = field(default_factory=HealthConfig)
    chaos: ChaosConfig = field(default_factory=ChaosConfig)
    overload: OverloadConfig = field(default_factory=OverloadConfig)
    # Feature planes: elastic placement (membership, ring-routed creates,
    # rebalancer), tiering (per-node hot-object cache and heat; with
    # placement also the promote/demote engine) and span tracing.
    placement: PlacementConfig | None = None
    tier: TierConfig | None = None
    tracing: SpanConfig | None = None
    # Per-node metric registries and the cluster-wide telemetry view.
    metrics: bool = False
    # How stores share objects: 'rpc' (the paper's gRPC lookups) or
    # 'hashmap' (a directory in disaggregated memory read by fabric loads).
    sharing: str = "rpc"
    # Buckets of each node's hash directory ('hashmap' only).
    directory_buckets: int = 4096

    def with_seed(self, seed: int) -> "ClusterConfig":
        return replace(self, seed=seed)

    def with_store(self, **kwargs) -> "ClusterConfig":
        return replace(self, store=replace(self.store, **kwargs))

    def validate(self, nodes: Sequence[str] | None = None) -> None:
        """Reject every inconsistent combination; with *nodes* (the names
        the cluster is built with) also the node-dependent ones."""
        if self.store.capacity_bytes <= 0:
            raise ValueError("store capacity must be positive")
        if self.store.eviction_policy not in ("lru", "fifo", "largest_first"):
            raise ValueError(
                f"unknown eviction policy {self.store.eviction_policy!r}"
            )
        if self.store.checksum_ns_per_byte < 0:
            raise ValueError("checksum_ns_per_byte must be non-negative")
        if self.store.verify_remote_reads and not self.store.integrity_headers:
            raise ValueError(
                "verify_remote_reads requires integrity_headers: there is "
                "no in-region header to validate against"
            )
        if self.store.verify_checksum_on_read and not self.store.verify_remote_reads:
            raise ValueError(
                "verify_checksum_on_read requires verify_remote_reads"
            )
        self.health.validate()
        self.chaos.validate()
        self.overload.validate()
        for plane in (self.placement, self.tier, self.tracing):
            if plane is not None:
                plane.validate()
        if self.sharing not in SHARING_MODES:
            raise ValueError(
                f"sharing: unknown strategy {self.sharing!r}; have {SHARING_MODES}"
            )
        if self.directory_buckets < 1:
            raise ValueError("directory_buckets must be >= 1")
        if self.placement is not None and self.sharing == "hashmap":
            # The hash directory is sized at build time for a fixed node
            # count; elastic membership needs per-pair state that can grow
            # and shrink.
            raise ValueError(
                "placement requires sharing='rpc' (the hash directory is "
                "statically sized per node count), not 'hashmap'"
            )
        if self.store.share_usage and self.sharing == "hashmap":
            # The paper's core argument for gRPC over the shared-data-
            # structure approach: the one-way directory gives the home store
            # no usage feedback, so remote pinning is impossible.
            raise ValueError(
                "store.share_usage: usage sharing requires the bidirectional "
                "sharing strategy 'rpc', not 'hashmap'"
            )
        if self.rpc.retry_budget_per_s < 0:
            raise ValueError("retry_budget_per_s must be non-negative")
        if self.rpc.retry_budget_burst < 1:
            raise ValueError("retry_budget_burst must be >= 1")
        if not 0.0 <= self.rpc.hedge_quantile < 1.0:
            raise ValueError("hedge_quantile must be in [0, 1)")
        if self.rpc.hedge_min_samples < 1:
            raise ValueError("hedge_min_samples must be >= 1")
        if self.rpc.mode not in ("sync", "async"):
            raise ValueError(f"unknown rpc mode {self.rpc.mode!r}")
        if self.rpc.batch_window_ns < 0:
            raise ValueError("batch_window_ns must be non-negative")
        if self.rpc.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.rpc.hedge_stagger_ns < 0:
            raise ValueError("hedge_stagger_ns must be non-negative")
        for bw_name, bw in (
            ("local read", self.local_memory.read_bandwidth_bps),
            ("local write", self.local_memory.write_bandwidth_bps),
            ("fabric read", self.fabric.read_bandwidth_bps),
            ("fabric write", self.fabric.write_bandwidth_bps),
            ("lan", self.lan.bandwidth_bps),
        ):
            if bw <= 0:
                raise ValueError(f"{bw_name} bandwidth must be positive")
        if nodes is None:
            return
        if len(nodes) < 2:
            raise ValueError(
                f"nodes: a cluster needs >= 2 nodes, got {len(nodes)}"
            )
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"nodes: node names must be unique, got {list(nodes)}")
        if self.placement is not None and self.placement.weights:
            unknown = sorted(set(self.placement.weights) - set(nodes))
            if unknown:
                raise ValueError(
                    f"placement.weights names unknown node(s) {unknown}; "
                    f"the cluster has {list(nodes)}"
                )


# A small-capacity config for fast unit tests.
def testing_config(capacity_bytes: int = 64 * MiB, seed: int = 7) -> ClusterConfig:
    """A cluster config sized for unit tests (small capacity, fixed seed)."""
    cfg = ClusterConfig(seed=seed)
    return replace(cfg, store=replace(cfg.store, capacity_bytes=capacity_bytes))
