"""The §IV-B microbenchmark: create/seal, retrieval latency, read throughput.

One repetition of one Table I spec:

1. **create phase** — a producer client on the home node creates, writes,
   and seals ``num_objects`` objects of ``object_size`` with random data;
2. **retrieval phase** — a consumer client batch-``get``s all buffers;
   measured "from the time of the request to the reception of the last
   buffer" (Fig 6);
3. **read phase** — the consumer sequentially reads every buffer
   end-to-end, "including access latency" (Fig 7); throughput =
   total bytes / phase time;
4. **cleanup** — releases and deletes everything so the next repetition
   starts from an empty store (objects are fresh each repetition, matching
   the paper's jitter-monitoring protocol).

Both a *local* consumer (same node as the producer) and a *remote* one (the
other node, reading through ThymesisFlow after an RPC lookup) run phases
2-3, giving the paired series of Figs 6 and 7.

Measured read-phase durations carry additive Gaussian measurement noise
(OS scheduling/timer granularity), which is what makes the short
small-object phases of specs 1-3 visibly noisier than specs 4-6 — the
variance structure of Fig 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.bench.specs import TABLE_I, BenchmarkSpec
from repro.bench.workload import make_payloads
from repro.common.clock import Stopwatch
from repro.common.config import ClusterConfig
from repro.common.rng import DeterministicRng
from repro.common.stats import Distribution
from repro.common.units import MiB, gib_per_s
from repro.core.cluster import Cluster


@dataclass(frozen=True)
class MicroBenchConfig:
    """Harness knobs (defaults follow the paper's protocol)."""

    repetitions: int = 100
    # 'auto' copies real bytes for small workloads and switches to
    # charge-only timing above `materialize_limit` total bytes per rep
    # (data-plane correctness is covered by the test suite; the switch
    # keeps the harness's wall-clock cost bounded).
    materialize: str = "auto"  # 'always' | 'never' | 'auto'
    materialize_limit: int = 64 * MiB
    # Per-create remote uniqueness RPC (paper-literal) vs one batched
    # Contains per repetition (the amortised producer path).
    per_create_uniqueness_rpc: bool = False
    verify_contents: bool = True
    n_nodes: int = 2
    remote_consumer_node: int = 1

    def resolve_materialize(self, spec: BenchmarkSpec) -> bool:
        if self.materialize == "always":
            return True
        if self.materialize == "never":
            return False
        if self.materialize == "auto":
            return spec.total_bytes <= self.materialize_limit
        raise ValueError(f"unknown materialize mode {self.materialize!r}")


@dataclass
class PhaseTimings:
    """Distributions over repetitions for one consumer placement."""

    retrieve_ns: Distribution = field(default_factory=Distribution)
    read_ns: Distribution = field(default_factory=Distribution)
    read_gibps: Distribution = field(default_factory=Distribution)


@dataclass
class SpecResult:
    """Everything measured for one Table I spec."""

    spec: BenchmarkSpec
    create_seal_ns: Distribution
    local: PhaseTimings
    remote: PhaseTimings

    @property
    def local_retrieve_ms_mean(self) -> float:
        return self.local.retrieve_ns.mean / 1e6

    @property
    def remote_retrieve_ms_mean(self) -> float:
        return self.remote.retrieve_ns.mean / 1e6


def _cluster_for(spec: BenchmarkSpec, base: ClusterConfig, n_nodes: int,
                 per_create_uniqueness_rpc: bool) -> Cluster:
    # Capacity: the rep's working set plus headroom so the measured phases
    # never trigger eviction (the paper's specs fit comfortably in the
    # IC922s' memory).
    capacity = spec.total_bytes + max(64 * MiB, spec.total_bytes // 4)
    cfg = base.with_store(
        capacity_bytes=capacity, check_remote_uniqueness=per_create_uniqueness_rpc
    )
    return Cluster(cfg, n_nodes)


def run_spec(
    spec: BenchmarkSpec,
    bench: MicroBenchConfig | None = None,
    cluster_config: ClusterConfig | None = None,
) -> SpecResult:
    """Run one Table I spec for the configured repetitions."""
    bench = bench or MicroBenchConfig()
    base_cfg = cluster_config or ClusterConfig()
    cluster = _cluster_for(
        spec, base_cfg, bench.n_nodes, bench.per_create_uniqueness_rpc
    )
    materialize = bench.resolve_materialize(spec)
    noise_rng = cluster.rng.spawn("measurement-noise", f"spec{spec.index}")
    noise_std = base_cfg.local_memory.phase_noise_std_ns

    producer = cluster.client("node0", "producer")
    local_consumer = cluster.client("node0", "local-consumer")
    remote_node = f"node{bench.remote_consumer_node}"
    remote_consumer = cluster.client(remote_node, "remote-consumer")
    workload = make_payloads(spec, cluster.rng.spawn("payload", f"spec{spec.index}"))

    result = SpecResult(
        spec=spec,
        create_seal_ns=Distribution(),
        local=PhaseTimings(),
        remote=PhaseTimings(),
    )

    def _noisy(elapsed_ns: int) -> float:
        noise = noise_rng.normal(0.0, noise_std)
        # Clip: measurement noise cannot make a phase appear faster than a
        # large fraction of its true cost (timers are noisy, not negative).
        return max(elapsed_ns + noise, 0.7 * elapsed_ns, 1.0)

    for rep in range(bench.repetitions):
        ids = cluster.new_object_ids(spec.num_objects)
        verify = bench.verify_contents and materialize and rep == 0

        # -- create / write / seal (E4) ------------------------------------
        if not bench.per_create_uniqueness_rpc:
            producer.store.reserve_ids(ids)
        with Stopwatch(cluster.clock) as sw_create:
            for oid in ids:
                buffer = producer.create(oid, spec.object_size_bytes)
                if materialize:
                    buffer.write(workload.payload_view)
                else:
                    buffer.charge_sequential_write()
                producer.seal(oid)
                producer.release(oid)
        result.create_seal_ns.add(sw_create.elapsed_ns)

        # -- local consumer: retrieval (Fig 6) + read (Fig 7) ----------------
        _consume(
            local_consumer, ids, spec, workload, materialize, verify,
            result.local, _noisy, cluster,
        )
        # -- remote consumer ------------------------------------------------
        _consume(
            remote_consumer, ids, spec, workload, materialize, verify,
            result.remote, _noisy, cluster,
        )

        # -- cleanup ---------------------------------------------------------
        for oid in ids:
            producer.store.delete_object(oid)

    return result


def _consume(client, ids, spec, workload, materialize, verify, timings,
             noisy, cluster) -> None:
    with Stopwatch(cluster.clock) as sw_retrieve:
        buffers = client.get(ids)
    timings.retrieve_ns.add(sw_retrieve.elapsed_ns)

    with Stopwatch(cluster.clock) as sw_read:
        for buffer in buffers:
            if materialize:
                buffer.read_into(workload.scratch)
                if verify:
                    if bytes(workload.scratch) != workload.expected_bytes():
                        raise AssertionError(
                            f"corrupted read of {buffer.object_id!r} via "
                            f"{buffer.location}"
                        )
            else:
                buffer.charge_sequential_read()
    read_ns = noisy(sw_read.elapsed_ns)
    timings.read_ns.add(read_ns)
    timings.read_gibps.add(gib_per_s(spec.total_bytes, read_ns))

    for oid in ids:
        client.release(oid)


def run_table(
    bench: MicroBenchConfig | None = None,
    cluster_config: ClusterConfig | None = None,
    specs: tuple[BenchmarkSpec, ...] = TABLE_I,
) -> list[SpecResult]:
    """Run every requested Table I spec; returns results in spec order."""
    return [run_spec(spec, bench, cluster_config) for spec in specs]
