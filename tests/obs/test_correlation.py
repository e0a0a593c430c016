"""Correlation-id propagation: unit tests for CorrelationContext plus an
end-to-end check that a single remote Get carries one request id through
the client span, the RPC client/server spans, and the deferred fabric
read."""

from repro.common.config import ClusterConfig, SpanConfig
from repro.core.cluster import Cluster
from repro.obs.correlation import CorrelationContext


class TestCorrelationContext:
    def test_mint_is_sequential_and_deterministic(self):
        ctx = CorrelationContext()
        assert ctx.mint() == "req-000001"
        assert ctx.mint() == "req-000002"
        assert CorrelationContext(prefix="op").mint() == "op-000001"

    def test_begin_end_stack(self):
        ctx = CorrelationContext()
        assert ctx.current is None
        rid = ctx.begin()
        assert ctx.current == rid
        inner = ctx.begin("custom")
        assert inner == "custom"
        assert ctx.current == "custom"
        ctx.end()
        assert ctx.current == rid
        ctx.end()
        assert ctx.current is None

    def test_resumed_reenters_existing_id(self):
        """A deferred completion (fabric read) re-enters the scope of the
        request that created the buffer, not a fresh id."""
        ctx = CorrelationContext()
        rid = ctx.begin()
        ctx.end()
        assert ctx.begin(rid) == rid
        assert ctx.current == rid
        ctx.end()
        assert ctx.current is None
        assert ctx.mint() == "req-000002"  # resuming minted nothing


class TestEndToEndCorrelation:
    def _spans(self, cluster):
        return [s for trace in cluster.spans.traces() for s in trace["spans"]]

    def _rids_by_event(self, cluster):
        out = {}
        for span in self._spans(cluster):
            rid = span.args.get("rid")
            if rid is not None:
                out.setdefault((span.category, span.name), set()).add(rid)
        return out

    def test_remote_get_spans_one_request_id(self):
        cluster = Cluster(
            ClusterConfig(tracing=SpanConfig()).with_store(
                check_remote_uniqueness=False
            ),
        )
        producer = cluster.client("node0")
        consumer = cluster.client("node1")

        oid = cluster.new_object_id()
        producer.put_bytes(oid, b"x" * 4096)
        [buf] = consumer.get([oid])
        assert buf is not None
        buf.read_all()  # deferred fabric transfer happens here
        consumer.release(oid)

        by_event = self._rids_by_event(cluster)
        get_rids = by_event[("client", "get")]
        assert len(get_rids) == 1
        (rid,) = get_rids
        # The same id must appear on the RPC client span, the server-side
        # dispatch span, and the fabric read that completed the buffer.
        assert rid in by_event[("rpc", "plasma.StoreService.Lookup")]
        assert rid in by_event[("rpc.server", "plasma.StoreService.Lookup")]
        assert rid in by_event[("fabric", "read")]

    def test_distinct_operations_get_distinct_ids(self):
        cluster = Cluster(
            ClusterConfig(tracing=SpanConfig()).with_store(
                check_remote_uniqueness=False
            ),
        )
        producer = cluster.client("node0")
        consumer = cluster.client("node1")

        oids = cluster.new_object_ids(3)
        for i, oid in enumerate(oids):
            producer.put_bytes(oid, bytes([i]) * 1024)
        for oid in oids:
            [buf] = consumer.get([oid])
            buf.read_all()
            consumer.release(oid)

        rids = {
            span.args["rid"]
            for span in self._spans(cluster)
            if span.category == "client" and "rid" in span.args
        }
        # 3 puts + 3 gets, each its own operation.
        assert len(rids) == 6

    def test_no_tracer_no_metrics_means_no_correlation(self):
        cluster = Cluster(ClusterConfig().with_store(check_remote_uniqueness=False))
        assert cluster.correlation is None

    def test_metrics_only_cluster_still_mints_ids(self):
        cluster = Cluster(
            ClusterConfig(metrics=True).with_store(check_remote_uniqueness=False),
        )
        assert isinstance(cluster.correlation, CorrelationContext)
