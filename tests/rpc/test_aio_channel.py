"""Channel task forms: pipelined unary tasks, coalesced batches, the
buffered-deadline fail-fast regression (doomed wire messages must not ship),
and task attribution that observes without perturbing."""

import pytest

from repro.common.clock import SimClock
from repro.common.config import RpcConfig
from repro.common.errors import RpcStatusError
from repro.common.rng import DeterministicRng
from repro.rpc import Channel, RpcServer, Service, StatusCode, rpc_method
from repro.rpc.aio import EventLoop, TaskAttribution


class DirService(Service):
    """An object_ids-shaped service mimicking the store directory RPCs."""

    SERVICE_NAME = "test.Dir"

    def __init__(self, known=()):
        self.known = {bytes(k) for k in known}
        self.lookups = 0

    @rpc_method
    def Lookup(self, request: dict) -> dict:
        self.lookups += 1
        found = [{"object_id": oid, "offset": 0, "data_size": 1}
                 for oid in request["object_ids"] if bytes(oid) in self.known]
        return {"found": found, "store": "node-x"}

    @rpc_method
    def Contains(self, request: dict) -> dict:
        return {"present": [bytes(o) in self.known for o in request["object_ids"]]}

    @rpc_method
    def NotifyDeleted(self, request: dict) -> dict:
        return {}

    @rpc_method
    def Echo(self, request: dict) -> dict:
        return {"echo": request.get("msg", "")}


@pytest.fixture
def world():
    clock = SimClock()
    rng = DeterministicRng(7)
    loop = EventLoop(clock, rng)
    service = DirService(known=[b"obj-1", b"obj-2"])
    server = RpcServer("node-x")
    server.add_service(service)

    def channel(**cfg):
        return Channel(
            "node-y", server, clock, RpcConfig(jitter_sigma=0.0, **cfg),
            rng, loop=loop)

    return clock, loop, service, channel


class TestUnaryTask:
    def test_roundtrip_matches_sync_response(self, world):
        _, loop, _, make = world
        ch = make()
        task = loop.spawn(ch.unary_task("test.Dir", "Echo", {"msg": "hi"}))
        assert loop.run_until_complete(task) == {"echo": "hi"}

    def test_concurrent_calls_overlap_in_simulated_time(self, world):
        clock, loop, _, make = world
        ch = make()
        t0 = clock.now_ns
        ch.unary_call("test.Dir", "Echo", {"msg": "x"})
        serial = clock.now_ns - t0

        t0 = clock.now_ns
        tasks = [loop.spawn(ch.unary_task("test.Dir", "Echo", {"msg": "x"}))
                 for _ in range(4)]
        loop.run_until_complete(loop.gather(tasks))
        concurrent = clock.now_ns - t0
        # Four pipelined calls must cost far less than four serial calls.
        assert concurrent < 2 * serial
        assert ch.aio_counters["in_flight_peak"] == 4

    def test_deadline_exceeded_raises(self, world):
        _, loop, _, make = world
        ch = make()
        task = loop.spawn(ch.unary_task(
            "test.Dir", "Echo", {"msg": "x"}, deadline_ns=1_000.0))
        with pytest.raises(RpcStatusError) as excinfo:
            loop.run_until_complete(task)
        assert excinfo.value.code is StatusCode.DEADLINE_EXCEEDED

    def test_transient_failures_are_retried(self, world):
        _, loop, _, make = world
        ch = make(inject_failure_rate=0.45, max_retries=4)
        results = []
        for i in range(10):
            task = loop.spawn(ch.unary_task("test.Dir", "Echo", {"msg": str(i)}))
            results.append(loop.run_until_complete(task))
        assert all(r["echo"] == str(i) for i, r in enumerate(results))
        assert ch.counters.retries > 0

    def test_error_status_raises_same_as_sync(self, world):
        _, loop, _, make = world
        ch = make()
        task = loop.spawn(ch.unary_task("test.Dir", "Missing", {}))
        with pytest.raises(RpcStatusError) as excinfo:
            loop.run_until_complete(task)
        assert excinfo.value.code is StatusCode.UNIMPLEMENTED


class TestCoalescing:
    def test_window_merges_submissions_into_one_wire_message(self, world):
        _, loop, service, make = world
        ch = make(batch_window_ns=100_000.0, max_batch=64)
        futs = [ch.batched_call("test.Dir", "Lookup", [b"obj-1"]),
                ch.batched_call("test.Dir", "Lookup", [b"obj-2"]),
                ch.batched_call("test.Dir", "Lookup", [b"obj-9"])]
        results = loop.run_until_complete(loop.gather(futs))
        assert service.lookups == 1
        assert ch.aio_counters["batches_sent"] == 1
        assert ch.aio_counters["batched_ids"] == 3
        # Each submitter sees only its own slice of the merged response.
        assert [d["object_id"] for d in results[0]["found"]] == [b"obj-1"]
        assert [d["object_id"] for d in results[1]["found"]] == [b"obj-2"]
        assert results[2]["found"] == []

    def test_contains_splits_positionally(self, world):
        _, loop, _, make = world
        ch = make(batch_window_ns=50_000.0)
        futs = [ch.batched_call("test.Dir", "Contains", [b"obj-1", b"nope"]),
                ch.batched_call("test.Dir", "Contains", [b"obj-2"])]
        results = loop.run_until_complete(loop.gather(futs))
        assert results[0]["present"] == [True, False]
        assert results[1]["present"] == [True]

    def test_max_batch_flushes_immediately(self, world):
        _, loop, service, make = world
        ch = make(batch_window_ns=10_000_000.0, max_batch=2)
        futs = [ch.batched_call("test.Dir", "Lookup", [b"obj-1"]),
                ch.batched_call("test.Dir", "Lookup", [b"obj-2"])]
        # max_batch hit: the flush happened without waiting out the window.
        loop.run_until_complete(loop.gather(futs))
        assert service.lookups == 1
        assert loop.now_ns < 10_000_000

    def test_zero_window_dispatches_per_submission(self, world):
        _, loop, service, make = world
        ch = make(batch_window_ns=0.0)
        futs = [ch.batched_call("test.Dir", "Lookup", [b"obj-1"]),
                ch.batched_call("test.Dir", "Lookup", [b"obj-2"])]
        loop.run_until_complete(loop.gather(futs))
        assert service.lookups == 2

    def test_unbatchable_method_rejected(self, world):
        _, _, _, make = world
        with pytest.raises(ValueError):
            make().batched_call("test.Dir", "Echo", [b"x"])

    def test_wire_failure_fans_out_to_all_entries(self, world):
        _, loop, _, make = world
        ch = make(batch_window_ns=50_000.0, inject_failure_rate=1.0,
                  max_retries=0)
        futs = [ch.batched_call("test.Dir", "Lookup", [b"obj-1"]),
                ch.batched_call("test.Dir", "Lookup", [b"obj-2"])]
        results = loop.run_until_complete(loop.gather(futs))
        assert all(isinstance(r, RpcStatusError) for r in results)
        assert all(r.code is StatusCode.UNAVAILABLE for r in results)


class TestBufferedDeadlineFailFast:
    """Regression (satellite fix): a deadline that expires while the request
    sits in the coalescing buffer must fail fast — no doomed wire message,
    no retry-budget spend."""

    def test_expired_entry_never_dispatched(self, world):
        _, loop, service, make = world
        ch = make(batch_window_ns=200_000.0, max_batch=64,
                  retry_budget_per_s=1.0, retry_budget_burst=1)
        # Budget smaller than the batch window: it expires in the buffer.
        doomed = ch.batched_call("test.Dir", "Lookup", [b"obj-1"],
                                 deadline_ns=50_000.0)
        live = ch.batched_call("test.Dir", "Lookup", [b"obj-2"])
        results = loop.run_until_complete(loop.gather([doomed, live]))
        assert isinstance(results[0], RpcStatusError)
        assert results[0].code is StatusCode.DEADLINE_EXCEEDED
        assert "failed fast" in str(results[0])
        # The surviving entry still shipped — in a single wire message that
        # excludes the expired one.
        assert service.lookups == 1
        assert [d["object_id"] for d in results[1]["found"]] == [b"obj-2"]
        assert ch.aio_counters["batch_expired"] == 1
        # No retry token was burned on the doomed request.
        assert ch.counters.retries_suppressed == 0
        assert ch.retry_budget.try_spend()

    def test_whole_batch_expired_sends_nothing(self, world):
        _, loop, service, make = world
        ch = make(batch_window_ns=500_000.0, max_batch=64)
        futs = [ch.batched_call("test.Dir", "Lookup", [b"obj-1"],
                                deadline_ns=10_000.0),
                ch.batched_call("test.Dir", "Lookup", [b"obj-2"],
                                deadline_ns=20_000.0)]
        results = loop.run_until_complete(loop.gather(futs))
        assert all(r.code is StatusCode.DEADLINE_EXCEEDED for r in results)
        assert service.lookups == 0
        assert ch.aio_counters["batches_sent"] == 0
        assert ch.aio_counters["batch_expired"] == 2

    def test_deadline_with_headroom_survives_the_window(self, world):
        _, loop, service, make = world
        ch = make(batch_window_ns=50_000.0, max_batch=64)
        fut = ch.batched_call("test.Dir", "Lookup", [b"obj-1"],
                              deadline_ns=50_000_000.0)
        result = loop.run_until_complete(fut)
        assert [d["object_id"] for d in result["found"]] == [b"obj-1"]
        assert service.lookups == 1


class RecordingChannel(Channel):
    """Notes every cost the channel draws, in draw order: a dropped
    attempt's wasted round trip, a transport leg, a backoff interval."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.waits: list[tuple[str, float]] = []

    def _cost_ns(self, request_bytes, response_bytes):
        cost = super()._cost_ns(request_bytes, response_bytes)
        self.waits.append(("dropped", cost))
        return cost

    def _direction_cost_ns(self, nbytes):
        cost = super()._direction_cost_ns(nbytes)
        self.waits.append(("leg", cost))
        return cost

    def _backoff_ns(self, retry_index):
        cost = super()._backoff_ns(retry_index)
        self.waits.append(("backoff", cost))
        return cost


class TestAttributionObservesOnly:
    """Regression: the task form used to hint every repeat attempt that
    reached the server with a fresh round-trip draw from the channel's
    RNG, so passing a ``TaskAttribution`` changed the simulation it was
    meant to observe."""

    FAULTS = ("dropped-connections", "server-down")

    @staticmethod
    def run(fault: str, with_attr: bool):
        clock = SimClock()
        rng = DeterministicRng(11)
        loop = EventLoop(clock, rng)
        server = RpcServer("node-x")
        server.add_service(DirService())
        config = RpcConfig(
            jitter_sigma=0.3,
            max_retries=4,
            inject_failure_rate=0.5 if fault == "dropped-connections" else 0.0,
        )
        channel = RecordingChannel("node-y", server, clock, config, rng, loop=loop)
        if fault == "server-down":
            server.shutdown()
        calls = []
        for i in range(12):
            attr = TaskAttribution(clock, clock.now_ns) if with_attr else None
            start, seen = clock.now_ns, len(channel.waits)
            task = loop.spawn(channel.unary_task(
                "test.Dir", "Echo", {"msg": str(i)}, attr=attr))
            try:
                loop.run_until_complete(task)
            except RpcStatusError:
                pass
            if attr is not None:
                attr.settle("service")
            calls.append((clock.now_ns - start, attr, channel.waits[seen:]))
        return clock, channel, calls

    @pytest.mark.parametrize("fault", FAULTS)
    def test_attr_leaves_clock_counters_and_rng_alone(self, fault):
        clock, channel, _ = self.run(fault, with_attr=True)
        bare_clock, bare, _ = self.run(fault, with_attr=False)
        assert channel.counters.retries > 0
        assert clock.now_ns == bare_clock.now_ns
        assert channel.counters.snapshot() == bare.counters.snapshot()
        assert channel._rng.integer(0, 1 << 30) == bare._rng.integer(0, 1 << 30)

    @pytest.mark.parametrize("fault", FAULTS)
    def test_retry_is_backoff_plus_wasted_repeat_transport(self, fault):
        _, _, calls = self.run(fault, with_attr=True)
        for latency, attr, waits in calls:
            assert attr.total_ns() == latency
            # The first attempt's cost, dropped or not, is ordinary service;
            # every backoff and every later dropped attempt is retry.
            expected = sum(round(cost) for kind, cost in waits[1:] if kind != "leg")
            assert attr.components.get("retry", 0) == expected
