"""The one-body ``Channel`` against the two channels it replaced, call for call.

``_reference_channel.py`` keeps ``Channel`` and its ``AsyncChannel`` subclass
as they were while the attempt ladder existed three times (blocking unary,
task unary, stream establishment). Seeded random programs — blocking unary
and stream calls, and rounds of interleaved unary tasks and coalesced
batched calls on an event loop — run against both under chaos blackholes
and partitions, injected drops, a crashed server, overload sheds, deadlines
(expiring mid-attempt and mid-backoff), a dry retry budget, a breaker that
opens and half-opens, and hedge sampling. The two must agree on the clock
after every call, on every result and every error (type, code, message),
and at the end on counters, aio counters, breaker state, RNG positions,
latency histograms, the hedge delay and the span plane's attribution of
every blocking call. Task calls run without a ``TaskAttribution``: the
reference's hint drew from the channel RNG, which ``test_aio_channel.py``
pins as fixed.
"""

from __future__ import annotations

import pytest

from repro.chaos import (
    ChaosRuntime,
    FaultPlan,
    LinkHeal,
    LinkPartition,
    NodeCrash,
    NodeRestart,
    RpcBlackhole,
)
from repro.common.clock import SimClock
from repro.common.config import ChaosConfig, HealthConfig, RpcConfig
from repro.common.errors import RpcError
from repro.common.rng import DeterministicRng
from repro.core.health import CircuitBreaker
from repro.obs import CorrelationContext, MetricsRegistry, SpanConfig, SpanSink
from repro.rpc import Channel, RpcServer, Service, rpc_method
from repro.rpc.aio import EventLoop, Sleep
from repro.rpc.codec import encode_message
from repro.rpc.overload import OverloadModel

from . import _reference_channel as reference

PROGRAMS = 160
CLIENT, SERVER = "me", "peer"
SERVICE = "test.Diff"
MS = 1_000_000.0
#: Per-call deadlines: none, explicitly unset, tight, loose.
DEADLINES = (None, None, 0.0, 0.6 * MS, 3 * MS, 8 * MS, 60 * MS)


class DiffService(Service):
    SERVICE_NAME = SERVICE

    def __init__(self, clock: SimClock):
        self._clock = clock

    @rpc_method
    def Echo(self, request: dict) -> dict:
        return {"echo": request.get("msg", ""), "pad": b"p" * request.get("pad", 0)}

    @rpc_method
    def Slow(self, request: dict) -> dict:
        self._clock.advance(request.get("ns", 0))
        return {"slept": request.get("ns", 0)}

    @rpc_method
    def Fail(self, request: dict) -> dict:
        raise ValueError(f"refused {request.get('msg', '')}")

    @rpc_method
    def Lookup(self, request: dict) -> dict:
        found = [
            {"object_id": oid, "offset": 0, "data_size": 1}
            for oid in request["object_ids"]
            if bytes(oid)[-1] % 2 == 0
        ]
        return {"found": found, "store": SERVER}

    @rpc_method
    def Contains(self, request: dict) -> dict:
        return {"present": [bytes(oid)[-1] % 3 == 0 for oid in request["object_ids"]]}

    @rpc_method
    def AddRef(self, request: dict) -> dict:
        return {}


# --------------------------------------------------------------------------- programs


def make_request(plan: DeterministicRng) -> tuple[str, dict]:
    method = plan.choice(["Echo", "Echo", "Echo", "Slow", "Fail", "Missing"])
    if method == "Slow":
        return method, {"ns": plan.choice([10_000, 400_000, 2_000_000])}
    return method, {"msg": f"m{plan.integer(0, 100)}", "pad": plan.choice([0, 0, 700])}


def make_ids(plan: DeterministicRng) -> list[bytes]:
    return [bytes([plan.integer(0, 256)]) * 4 for _ in range(plan.integer(1, 4))]


def make_program(seed: int) -> tuple[dict, list[tuple]]:
    """A random channel configuration, fault plan and step list."""
    plan = DeterministicRng(seed).spawn("program")
    rpc = RpcConfig(
        round_trip_ns=plan.choice([200_000.0, 2_300_000.0]),
        jitter_sigma=plan.choice([0.0, 0.18]),
        inject_failure_rate=plan.choice([0.0, 0.0, 0.25, 0.6]),
        max_retries=plan.integer(0, 5),
        retry_initial_backoff_ns=plan.choice([100_000.0, 500_000.0, 4 * MS]),
        retry_backoff_jitter_sigma=plan.choice([0.0, 0.1]),
        default_deadline_ns=plan.choice([0.0, 0.0, 5 * MS, 12 * MS]),
        retry_budget_per_s=plan.choice([0.0, 0.0, 40.0]),
        retry_budget_burst=plan.integer(1, 3),
        hedge_quantile=plan.choice([0.0, 0.9]),
        hedge_min_samples=plan.integer(1, 4),
        batch_window_ns=plan.choice([0.0, 150_000.0, 1 * MS]),
        max_batch=plan.integer(1, 6),
    )
    health = HealthConfig(
        breaker_failure_threshold=plan.integer(1, 4),
        breaker_reset_timeout_ns=plan.choice([2 * MS, 20 * MS]),
        breaker_half_open_probes=plan.integer(1, 3),
    )
    faults = []
    for _ in range(plan.integer(0, 4)):
        at = plan.integer(0, 150) * 1_000_000
        length = plan.choice([1, 5, 30]) * 1_000_000
        kind = plan.choice(["blackhole", "partition", "crash"])
        if kind == "blackhole":
            faults.append(
                RpcBlackhole(
                    at_ns=at,
                    src=plan.choice(["*", CLIENT]),
                    dst=plan.choice(["*", SERVER]),
                    duration_ns=length,
                )
            )
        elif kind == "partition":
            faults += [
                LinkPartition(at_ns=at, node_a=CLIENT, node_b=SERVER),
                LinkHeal(at_ns=at + length, node_a=SERVER, node_b=CLIENT),
            ]
        else:
            faults += [
                NodeCrash(at_ns=at, node=SERVER),
                NodeRestart(at_ns=at + length, node=SERVER),
            ]
    setup = {
        "rpc": rpc,
        "health": health,
        "faults": faults,
        "traced": plan.integer(0, 3) > 0,
        "breaker": plan.integer(0, 4) > 0,
    }
    steps: list[tuple] = []
    for _ in range(plan.integer(4, 14)):
        kind = plan.choice(
            ["unary"] * 4 + ["stream", "stream", "tasks", "tasks", "tasks",
                             "advance", "overload", "crash", "restart"]
        )
        if kind == "unary":
            steps.append(("unary", *make_request(plan), plan.choice(list(DEADLINES))))
        elif kind == "stream":
            requests = [make_request(plan)[1] for _ in range(plan.integer(0, 4))]
            method = plan.choice(["Echo", "Echo", "Fail", "Slow"])
            steps.append(("stream", method, requests, plan.choice(list(DEADLINES))))
        elif kind == "tasks":
            calls = []
            for _ in range(plan.integer(1, 6)):
                delay = plan.choice([0, 0, 50_000, 300_000])
                deadline = plan.choice(list(DEADLINES))
                if plan.integer(0, 2):
                    calls.append(("unary", delay, *make_request(plan), deadline))
                else:
                    method = plan.choice(["Lookup", "Contains", "AddRef"])
                    calls.append(("batch", delay, method, make_ids(plan), deadline))
            steps.append(("tasks", calls))
        elif kind == "advance":
            steps.append(("advance", plan.choice([1, 3, 25]) * 1_000_000))
        elif kind == "overload":
            steps.append(
                ("overload", plan.choice([0.0, 300.0, 2_000.0]),
                 plan.choice([0.0, 2 * MS, 40 * MS]), plan.integer(0, 4))
            )
        else:
            steps.append((kind,))
    if plan.integer(0, 8) == 0:
        steps += [("close",), ("unary", "Echo", {}, None), ("stream", "Echo", [], None)]
    return setup, steps


# --------------------------------------------------------------------------- worlds


def outcome(fn, *args, **kwargs) -> tuple:
    try:
        return ("ok", fn(*args, **kwargs))
    except RpcError as exc:
        return (type(exc).__name__, getattr(exc, "code", None), str(exc))


def as_outcome(value) -> tuple:
    if isinstance(value, RpcError):
        return (type(value).__name__, getattr(value, "code", None), str(value))
    return ("ok", value)


class World:
    """One channel implementation and everything a program observes on it."""

    def __init__(self, impl: str, seed: int, setup: dict):
        self.clock = clock = SimClock()
        rng = DeterministicRng(seed)
        self.server = RpcServer(SERVER)
        self.server.clock = clock
        self.server.overload = OverloadModel(clock, name=SERVER)
        self.server.add_service(DiffService(clock))
        self.spans = None
        if setup["traced"]:
            self.spans = SpanSink(clock, rng.spawn("spans"), SpanConfig())
            self.server.spans = self.spans
        self.correlation = CorrelationContext()
        self.chaos = ChaosRuntime(
            FaultPlan(setup["faults"]),
            clock,
            ChaosConfig(blackhole_timeout_ns=1.5 * MS),
        )
        self.chaos.attach_server(SERVER, self.server)
        self.breaker = None
        if setup["breaker"]:
            self.breaker = CircuitBreaker(clock, setup["health"], name=f"{CLIENT}->{SERVER}")
        self.loop = EventLoop(clock, rng)
        cls = reference.AsyncChannel if impl == "reference" else Channel
        self.channel = cls(
            CLIENT,
            self.server,
            clock,
            setup["rpc"],
            rng,
            spans=self.spans,
            breaker=self.breaker,
            chaos=self.chaos,
            correlation=self.correlation,
            loop=self.loop,
        )
        self.registry = MetricsRegistry(CLIENT)
        self.channel.attach_metrics(self.registry)

    def blocking(self, call, *args, **kwargs) -> tuple:
        """A blocking call as one traced operation (when a sink is attached)."""
        self.correlation.begin()
        try:
            if self.spans is None:
                return outcome(call, *args, **kwargs)
            with self.spans.span("client", "op", CLIENT):
                return outcome(call, *args, **kwargs)
        finally:
            self.correlation.end()

    def delayed_unary(self, delay, method, request, deadline):
        if delay:
            yield Sleep(delay)
        return (
            yield from self.channel.unary_task(
                SERVICE, method, request, deadline_ns=deadline
            )
        )

    def delayed_batch(self, delay, method, ids, deadline):
        if delay:
            yield Sleep(delay)
        return (
            yield self.channel.batched_call(SERVICE, method, ids, deadline_ns=deadline)
        )

    def step(self, step: tuple):
        kind = step[0]
        channel = self.channel
        if kind == "unary":
            _, method, request, deadline = step
            return self.blocking(
                channel.unary_call, SERVICE, method, request, deadline_ns=deadline
            )
        if kind == "stream":
            _, method, requests, deadline = step
            return self.blocking(
                channel.stream_call, SERVICE, method, requests, deadline_ns=deadline
            )
        if kind == "tasks":
            tasks = []
            for call in step[1]:
                body = self.delayed_unary if call[0] == "unary" else self.delayed_batch
                tasks.append(self.loop.spawn(body(*call[1:])))
            results = self.loop.run_until_complete(self.loop.gather(tasks))
            self.loop.drain()
            return [as_outcome(r) for r in results]
        if kind == "advance":
            self.clock.advance(step[1])
            return None
        if kind == "overload":
            _, rate, backlog, depth = step
            self.server.overload.set_service_rate(rate)
            self.server.overload.queue_depth = depth
            if backlog:
                self.server.overload.add_backlog(backlog)
            return None
        if kind == "crash":
            return self.server.shutdown()
        if kind == "restart":
            return self.server.restart()
        if kind == "close":
            return channel.close()
        raise AssertionError(kind)  # pragma: no cover

    def final_state(self) -> dict:
        channel = self.channel
        traces = None
        if self.spans is not None:
            traces = [
                (t["name"], t["duration_ns"], t["components_ns"],
                 [s.to_dict() for s in t["spans"]])
                for t in self.spans.traces()
            ]
        return {
            "counters": channel.counters.snapshot(),
            "aio_counters": dict(channel.aio_counters),
            "breaker": repr(self.breaker),
            "retry_tokens": channel.retry_budget.tokens(),
            "channel_rng": channel._rng.integer(0, 1 << 30),
            "loop_rng": self.loop._rng.integer(0, 1 << 30),
            "metrics": self.registry.collect(include_samples=True),
            "server": self.server.counters.snapshot(),
            "overload": self.server.overload.counters.snapshot(),
            "traces": traces,
        }


def play(impl: str, seed: int) -> tuple[list, World]:
    setup, steps = make_program(seed)
    world = World(impl, seed, setup)
    seen = []
    for step in steps:
        result = world.step(step)
        seen.append((result, world.clock.now_ns, world.channel.hedge_delay_ns()))
    seen.append(world.final_state())
    return seen, world


# --------------------------------------------------------------------------- the property


def test_random_programs_run_identically_on_both_channels(rng):
    totals: dict[str, int] = {}
    for case in range(PROGRAMS):
        seed = rng.spawn("channel-differential", str(case)).seed
        want, _ = play("reference", seed)
        got, world = play("production", seed)
        for index, (g, w) in enumerate(zip(got, want)):
            assert g == w, (case, seed, index)
        assert len(got) == len(want)
        for name, value in world.channel.counters.snapshot().items():
            totals[name] = totals.get(name, 0) + value
        for name, value in world.channel.aio_counters.items():
            totals[name] = totals.get(name, 0) + value
        if world.breaker is not None:
            half_opens = world.breaker.counters.get("half_opens")
            totals["half_opens"] = totals.get("half_opens", 0) + half_opens
        shed = world.server.overload.counters.snapshot()
        totals["server_shed"] = totals.get("server_shed", 0) + sum(
            v for k, v in shed.items() if k.startswith("shed_")
        )
        totals["unanswered"] = totals.get("unanswered", 0) + sum(
            1 for step, _, _ in got[:-1] if "no response" in str(step)
        )
        totals["server_down"] = totals.get("server_down", 0) + (
            world.server.counters.get("calls_unavailable")
        )
    # The comparison means nothing unless every path ran somewhere.
    for name in (
        "calls", "stream_messages", "retries", "attempts_failed",
        "attempts_shed", "retries_suppressed", "deadline_exceeded",
        "breaker_rejections", "half_opens", "server_shed", "unanswered",
        "server_down", "tasks_started", "batches_sent", "batch_expired",
    ):
        assert totals.get(name, 0) > 0, name


@pytest.mark.parametrize("impl", ["reference", "production"])
def test_deadline_expires_mid_backoff(impl):
    """A deadline between one wasted attempt and the end of its backoff:
    the call is charged exactly the deadline, on both channels alike."""
    setup, _ = make_program(0)
    setup.update(
        rpc=RpcConfig(
            jitter_sigma=0.0,
            retry_backoff_jitter_sigma=0.0,
            inject_failure_rate=1.0,
            max_retries=3,
            retry_initial_backoff_ns=5 * MS,
        ),
        faults=[],
        breaker=False,
        traced=True,
    )
    world = World(impl, 1, setup)
    config = setup["rpc"]
    first_attempt = round(
        config.round_trip_ns + len(encode_message({})) * config.per_byte_ns
    )
    deadline = first_attempt + 1 * MS  # 1 ms into the 5 ms backoff
    result = world.step(("unary", "Echo", {}, deadline))
    assert result[0] == "RpcStatusError" and "deadline" in result[2]
    assert world.clock.now_ns == deadline
    counters = world.channel.counters
    assert (counters.get("attempts_failed"), counters.get("retries")) == (1, 1)
    assert counters.get("deadline_exceeded") == 1
    [trace] = world.spans.traces()
    assert trace["components_ns"]["retry"] == 1 * MS
