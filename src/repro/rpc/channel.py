"""The client side of the RPC layer: channels and stubs.

A :class:`Channel` connects one host to one remote :class:`RpcServer` and
performs blocking unary calls, exactly the configuration the paper uses
("synchronous mode due to its favorable servicing latency ... unary mode to
minimize protocol overhead"). Each call:

1. encodes the request through the wire codec (real bytes),
2. advances the simulated clock by the calibrated round-trip + per-byte
   marshalling cost with log-normal jitter (the paper attributes its remote
   latency variance to "gRPC and its inherent network jitter"),
3. dispatches on the server and decodes the response,
4. raises :class:`~repro.common.errors.RpcStatusError` on non-OK status.

With an event loop attached (``loop=``) the same channel also runs calls
as tasks — :meth:`Channel.unary_task`, and id-list calls coalesced into
shared wire messages by :meth:`Channel.batched_call`. Instead of advancing
the shared clock inline (which serializes every caller), a task ``yield``s
its transport time to the loop, so many requests to the same peer overlap
in simulated time.

One body, two drivers: blocking calls, tasks and stream establishment all
run one generator, :meth:`Channel._call`, and its one attempt ladder. Every
wait goes through :meth:`Channel._wait`, which advances the clock in place
for a blocking call and yields :class:`~repro.rpc.aio.Sleep` for a task;
the blocking entry points run the body inline through
:func:`~repro.rpc.drive.drive` (a suspension raises). The
one thing the modes charge differently is a unary attempt's transport: a
blocking call dispatches, then charges one lump ``(round_trip + bytes *
per_byte) * jitter`` (one draw); a task charges the request leg
``(round_trip/2 + request_bytes * per_byte) * jitter``, dispatches, then the
response leg (two draws), because the server must see the request before
the response travels back while other tasks interleave.

Resilience semantics (gRPC-shaped, used by repro.core.health / repro.chaos):

* **Retries with exponential backoff** — UNAVAILABLE outcomes (injected
  connection drops, chaos blackholes/partitions, a dead server process)
  are retried up to ``max_retries`` times; every attempt is charged in
  full and each backoff interval (initial x multiplier^n, capped,
  jittered) is charged to the waiting caller.
* **Deadlines** — ``deadline_ns`` (per call, or ``default_deadline_ns``
  from config) bounds the whole call including retries and backoff: the
  clock is only ever advanced up to the deadline, then the call raises
  DEADLINE_EXCEEDED. Without a deadline, a blackholed attempt still waits
  only the chaos runtime's connect timeout per attempt, so nothing hangs
  forever.
* **Circuit breaker** — an optional per-channel breaker is consulted
  before every call; while open, calls fail fast (~1 us) without a round
  trip, and the call's final outcome (success / unavailable / deadline)
  feeds back into the breaker state.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import partial
from types import MappingProxyType

from repro.common.clock import SimClock
from repro.common.config import RpcConfig
from repro.common.errors import RpcError, RpcStatusError, ServerOverloadedError
from repro.common.rng import DeterministicRng
from repro.obs.metrics import CounterGroup
from repro.rpc.aio.batch import BATCHABLE_METHODS, CoalescingBuffer
from repro.rpc.aio.loop import EventLoop, Future, Sleep, TaskAttribution
from repro.rpc.codec import decode_message, encode_message
from repro.rpc.drive import drive
from repro.rpc.overload import RetryBudget
from repro.rpc.server import RpcServer
from repro.rpc.status import StatusCode

# Outcomes that count against the circuit breaker: the peer is down,
# unreachable, or shedding load. RESOURCE_EXHAUSTED is deliberately in the
# list — a breaker that opens under sustained shedding stops the caller
# hammering a saturated peer, which is the backpressure the server's
# bounded queue is asking for.
_FAILURE_CODES = (
    StatusCode.UNAVAILABLE,
    StatusCode.DEADLINE_EXCEEDED,
    StatusCode.RESOURCE_EXHAUSTED,
)

#: The task-call counters, in the order :attr:`Channel.aio_counters` lists them.
AIO_COUNTER_NAMES = (
    "tasks_started",
    "tasks_completed",
    "in_flight_peak",
    "batches_sent",
    "batched_requests",
    "batched_ids",
    "batch_expired",
    "hedges_fired",
)


class Channel:
    """A unary-call channel from *local_host* to a server: blocking calls,
    and their pipelined task forms when an event *loop* is attached."""

    class Counters(CounterGroup):
        calls = calls_failed = stream_messages = bytes_sent = 0
        bytes_received = retries = retries_suppressed = attempts_failed = 0
        attempts_shed = deadline_exceeded = breaker_rejections = 0

    class TaskCounters(CounterGroup):
        """Counters specific to task calls. Never registered with a metrics
        registry, so a sync-mode scrape is byte-identical to the baseline."""

        tasks_started = tasks_completed = in_flight_peak = 0
        batches_sent = batched_requests = batched_ids = batch_expired = 0
        hedges_fired = 0

    def __init__(
        self,
        local_host: str,
        server: RpcServer,
        clock: SimClock,
        config: RpcConfig,
        rng: DeterministicRng,
        *,
        spans=None,
        breaker=None,
        chaos=None,
        correlation=None,
        loop: EventLoop | None = None,
    ):
        self._local_host = local_host
        self._server = server
        self._clock = clock
        self._config = config
        self._rng = rng.spawn("rpc", local_host, server.host)
        self._spans = spans
        # The node label every rpc span on this channel carries, built once.
        self._span_node = f"{local_host}->{server.host}"
        self._breaker = breaker
        self._chaos = chaos
        self._correlation = correlation
        self._loop = loop
        self.counters = self.Counters()
        self.task_counters = self.TaskCounters()
        self._in_flight = 0
        self._buffers: dict[tuple[str, str], CoalescingBuffer] = {}
        self._latency = None  # per-(peer, method) histogram family
        self._closed = False
        # Retry amplification cap: a token bucket on simulated time shared
        # by every call on this channel. Rate 0 (default) disables the gate.
        self._retry_budget = RetryBudget(
            clock, config.retry_budget_per_s, config.retry_budget_burst
        )

    def attach_metrics(self, registry) -> None:
        """Bind call counters, per-method latency, and breaker state."""
        registry.register_group(
            self.counters, "rpc_client", peer=self._server.host
        )
        self._latency = registry.histogram(
            "rpc_client_latency_ns",
            "Simulated client-observed RPC latency incl. retries/backoff.",
            labels=("peer", "method"),
        )
        if self._breaker is not None:
            self._breaker.attach_metrics(registry, peer=self._server.host)

    @property
    def aio_counters(self) -> Mapping[str, int]:
        """Every task-call counter by name, zeros included, in
        :data:`AIO_COUNTER_NAMES` order (a read-only snapshot)."""
        counters = self.task_counters
        return MappingProxyType(
            {name: getattr(counters, name) for name in AIO_COUNTER_NAMES}
        )

    @property
    def target(self) -> str:
        return self._server.host

    @property
    def breaker(self):
        return self._breaker

    @property
    def retry_budget(self) -> RetryBudget:
        return self._retry_budget

    @property
    def loop(self) -> EventLoop:
        if self._loop is None:
            raise RpcError(
                f"channel to {self._server.host} has no event loop attached"
            )
        return self._loop

    @property
    def default_deadline_ns(self) -> float:
        """The configured per-call deadline (0 = none) — the budget a
        multi-hop operation starts from (see DeadlineBudget.for_stub)."""
        return self._config.default_deadline_ns

    @property
    def hedge_stagger_ns(self) -> float:
        """Stagger before a scatter-gather lookup hedges to the next peer."""
        return self._config.hedge_stagger_ns

    def inline_is_cheaper(self, nbytes: int) -> bool:
        """True when carrying *nbytes* in a message costs less than one
        more round trip on this channel: ``nbytes * per_byte_ns <
        round_trip_ns``, the crossover of the unary cost model."""
        return nbytes * self._config.per_byte_ns < self._config.round_trip_ns

    def close(self) -> None:
        self._closed = True

    # -- cost accounting -----------------------------------------------------------

    def _cost_ns(self, request_bytes: int, response_bytes: int) -> float:
        return (
            self._config.round_trip_ns
            + (request_bytes + response_bytes) * self._config.per_byte_ns
        ) * self._rng.lognormal_jitter(self._config.jitter_sigma)

    def _direction_cost_ns(self, nbytes: int) -> float:
        return (
            self._config.round_trip_ns / 2.0
            + nbytes * self._config.per_byte_ns
        ) * self._rng.lognormal_jitter(self._config.jitter_sigma)

    def _stream_cost_ns(self, nmessages: int, bytes_in: int, bytes_out: int) -> float:
        return (
            self._config.round_trip_ns
            + nmessages * self._config.per_stream_message_ns
            + (bytes_in + bytes_out) * self._config.per_byte_ns
        ) * self._rng.lognormal_jitter(self._config.jitter_sigma)

    def _backoff_ns(self, retry_index: int) -> float:
        base = self._config.retry_initial_backoff_ns * (
            self._config.retry_backoff_multiplier**retry_index
        )
        base = min(base, self._config.retry_max_backoff_ns)
        return base * self._rng.lognormal_jitter(
            self._config.retry_backoff_jitter_sigma
        )

    def _wait(
        self,
        cost_ns: float,
        start_ns: int,
        deadline_ns: float | None,
        blocking: bool,
        attr: TaskAttribution | None = None,
        retry: bool = False,
    ):
        """Spend *cost_ns* of the call's time — advanced in place when
        *blocking*, slept as a task otherwise — but never past the call
        deadline; on expiry, spend only the remainder and raise
        DEADLINE_EXCEEDED.

        *retry* time (backoff, and the transport of repeat attempts that
        never reached the server) is retry amplification, not useful
        service time: the span plane's ``retry`` component when blocking,
        a hint on the task's *attr* otherwise. Everything else goes to the
        caller's default component."""
        if retry and attr is not None:
            attr.hint("retry", cost_ns)
        expired = False
        if deadline_ns is not None:
            remaining = deadline_ns - (self._clock.now_ns - start_ns)
            if cost_ns > remaining:
                cost_ns, expired = max(0.0, remaining), True
        if not blocking:
            yield Sleep(cost_ns)
        elif retry and self._spans is not None:
            with self._spans.component("retry"):
                self._clock.advance(cost_ns)
        else:
            self._clock.advance(cost_ns)
        if expired:
            self.counters.deadline_exceeded += 1
            self.counters.calls_failed += 1
            raise RpcStatusError(
                StatusCode.DEADLINE_EXCEEDED,
                f"deadline of {deadline_ns / 1e6:.3f} ms exceeded calling "
                f"{self._server.host}",
            )

    def _attempt_fails(self) -> bool:
        rate = self._config.inject_failure_rate
        return rate > 0.0 and self._rng.uniform(0.0, 1.0) < rate

    def _transport_silent(self) -> bool:
        """True while a chaos partition/blackhole swallows our attempts."""
        if self._chaos is None:
            return False
        self._chaos.poll()
        return not self._chaos.rpc_allowed(self._local_host, self._server.host)

    def _effective_deadline(self, deadline_ns: float | None) -> float | None:
        if deadline_ns is not None:
            return deadline_ns if deadline_ns > 0 else None
        configured = self._config.default_deadline_ns
        return configured if configured > 0 else None

    # -- breaker gate ---------------------------------------------------------------

    def _admit(self, deadline_ns: float | None) -> float | None:
        """Open a call: refuse it on a closed channel or an open breaker
        (failing fast, without a round trip); return its deadline."""
        if self._closed:
            raise RpcError(f"channel to {self._server.host} is closed")
        if self._breaker is not None and not self._breaker.allow():
            self._clock.advance(self._breaker.fail_fast_cost_ns)
            self.counters.breaker_rejections += 1
            raise RpcStatusError(
                StatusCode.UNAVAILABLE,
                f"circuit breaker open for {self._server.host}",
            )
        return self._effective_deadline(deadline_ns)

    def _breaker_record(self, exc: RpcStatusError | None) -> None:
        if self._breaker is None:
            return
        if exc is not None and exc.code in _FAILURE_CODES:
            self._breaker.record_failure()
        else:
            # Any definitive response — OK or an application-level status —
            # proves the peer is alive.
            self._breaker.record_success()

    # -- entry points ------------------------------------------------------------------

    def unary_call(
        self,
        service: str,
        method: str,
        request: dict | None = None,
        *,
        deadline_ns: float | None = None,
    ) -> dict:
        """Perform one synchronous unary call; returns the response dict.

        Transient UNAVAILABLE outcomes are retried with exponential backoff
        up to the configured ``max_retries``; every attempt and backoff is
        charged in simulated time, bounded by the call deadline.
        """
        deadline = self._admit(deadline_ns)
        return drive(self._call, service, method, request, deadline)

    def unary_task(
        self,
        service: str,
        method: str,
        request: dict | None = None,
        *,
        deadline_ns: float | None = None,
        attr: TaskAttribution | None = None,
        blocking: bool = False,
    ):
        """Generator-coroutine form of :meth:`unary_call`.

        ``yield from`` it inside another task, or ``loop.spawn`` it
        directly. Raises exactly what the sync call raises; returns the
        response dict. With *blocking* it is :meth:`unary_call`'s own body
        and never suspends — what a store body driven inline passes on.
        """
        deadline = self._admit(deadline_ns)
        if blocking:
            return (
                yield from self._call(service, method, request, deadline, blocking=True)
            )
        counters = self.task_counters
        self._in_flight += 1
        counters.tasks_started += 1
        if self._in_flight > counters.in_flight_peak:
            counters.in_flight_peak = self._in_flight
        try:
            return (
                yield from self._call(service, method, request, deadline, attr=attr)
            )
        finally:
            self._in_flight -= 1
            counters.tasks_completed += 1

    def stream_call(
        self,
        service: str,
        method: str,
        requests: list[dict],
        *,
        deadline_ns: float | None = None,
    ) -> list[dict]:
        """A bidirectional-streaming call: many request messages, one
        connection round trip.

        The paper configures gRPC "in unary mode to minimize protocol
        overhead for the messages being sent"; streaming instead pays the
        round trip once plus a per-message framing cost, which wins when a
        caller has many small requests that cannot be batched into one
        message. Each message is dispatched to the same handler a unary
        call would hit; the first non-OK status aborts the stream (gRPC
        semantics) and raises.

        Stream *establishment* runs the unary calls' attempt ladder:
        injected connection drops and chaos blackholes/partitions are
        retried with backoff, deadlines bound the whole call, and the
        breaker gates admission — a fault plan degrades streams and unary
        calls alike.
        """
        if not requests and not self._closed:
            return []  # nothing to send: no round trip, no breaker probe
        deadline = self._admit(deadline_ns)
        return drive(self._call, service, method, requests, deadline, stream=True)

    def batched_call(
        self,
        service: str,
        method: str,
        object_ids: list,
        *,
        deadline_ns: float | None = None,
        attr: TaskAttribution | None = None,
    ) -> Future:
        """Submit an id-list call to this channel's coalescing buffer.

        Returns a future resolving with the caller's slice of the merged
        response. Calls landing within ``batch_window_ns`` of each other (or
        until ``max_batch`` ids accumulate) share one wire message.
        """
        if method not in BATCHABLE_METHODS:
            raise ValueError(f"method {method!r} is not batchable")
        key = (service, method)
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = CoalescingBuffer(
                self, service, method,
                window_ns=self._config.batch_window_ns,
                max_batch=self._config.max_batch,
            )
            self._buffers[key] = buffer
        return buffer.submit(
            object_ids,
            deadline_ns=self._effective_deadline(deadline_ns),
            attr=attr,
        )

    # -- the one body ------------------------------------------------------------------

    def _call(
        self,
        service: str,
        method: str,
        request,
        deadline_ns: float | None,
        *,
        blocking: bool = False,
        attr: TaskAttribution | None = None,
        stream: bool = False,
    ):
        """Every admitted call: its attempts (inside the ``rpc`` span of a
        blocking call, with a sink attached), then latency and breaker
        recording."""
        start_ns = self._clock.now_ns
        ladder = self._attempts(
            service, method, request, start_ns, deadline_ns, blocking, attr, stream
        )
        try:
            if blocking and self._spans is not None:
                with self._rpc_span(service, method):
                    result = yield from ladder
            else:
                result = yield from ladder
        except RpcStatusError as exc:
            self._observe_latency(method, start_ns)
            self._breaker_record(exc)
            raise
        self._observe_latency(method, start_ns)
        self._breaker_record(None)
        return result

    def _rpc_span(self, service: str, method: str):
        """The ``rpc`` span of one call (only with a sink attached)."""
        rid = self._correlation.current if self._correlation is not None else None
        return self._spans.span(
            "rpc",
            self._server._method_name(service, method),
            self._span_node,
            {} if rid is None else {"rid": rid},
        )

    def _observe_latency(self, method: str, start_ns: int) -> None:
        if self._latency is not None:
            self._latency.labels(peer=self._server.host, method=method).observe(
                self._clock.now_ns - start_ns,
                exemplar=(
                    self._spans.current_span if self._spans is not None else None
                ),
            )

    def _attempts(
        self,
        service: str,
        method: str,
        request,
        start_ns: int,
        deadline_ns: float | None,
        blocking: bool,
        attr: TaskAttribution | None,
        stream: bool,
    ):
        """The attempt ladder: transport failures and retryable statuses
        are retried with backoff while attempts and retry budget last."""
        if stream:
            payload, dispatch = request, self._stream_attempt
            dropped_bytes, link = 0, "stream"
        else:
            payload = encode_message(request or {})
            dispatch = self._unary_attempt
            dropped_bytes, link = len(payload), "connection"
        attempts = 1 + max(0, self._config.max_retries)
        for attempt in range(attempts):
            last = attempt == attempts - 1
            if self._transport_silent():
                # The attempt vanished into a partition/blackhole: the
                # caller waits out its connect timeout (or the deadline).
                wasted, detail = (
                    self._chaos.unanswered_wait_ns,
                    f"no response from {self._server.host}",
                )
            elif self._attempt_fails():
                # The connection dropped mid-call (a stream never
                # established): charge the wasted round trip.
                wasted, detail = (
                    self._cost_ns(dropped_bytes, 0),
                    f"{link} to {self._server.host} lost",
                )
            else:
                wasted = None
            if wasted is None:
                status, result, detail = yield from dispatch(
                    service, method, payload, start_ns, deadline_ns, blocking
                )
                if status is StatusCode.OK:
                    return result
                if status is StatusCode.UNAVAILABLE:
                    # The server process is down (connection refused). gRPC
                    # treats UNAVAILABLE as retryable; so do we.
                    self.counters.attempts_failed += 1
                    error = RpcStatusError(status, detail)
                elif status is StatusCode.RESOURCE_EXHAUSTED:
                    # The server shed us under overload. Retryable — the
                    # peer is alive — but every retry spends retry budget,
                    # so a storm of shed calls fails fast instead of
                    # amplifying the load.
                    self.counters.attempts_shed += 1
                    error = ServerOverloadedError(detail)
                else:
                    self.counters.calls_failed += 1
                    raise RpcStatusError(status, detail)
            else:
                # Only a repeat attempt's wasted transport is retry
                # amplification; the first attempt's is ordinary service.
                yield from self._wait(
                    wasted, start_ns, deadline_ns, blocking, attr, attempt > 0
                )
                self.counters.attempts_failed += 1
                error = RpcStatusError(
                    StatusCode.UNAVAILABLE,
                    f"{detail} ({attempts} attempts)"
                    if last
                    else f"{detail} (retry budget exhausted)",
                )
            if last:
                self.counters.calls_failed += 1
                raise error
            self._gate_retry(error)
            self.counters.retries += 1
            yield from self._wait(
                self._backoff_ns(attempt), start_ns, deadline_ns, blocking, attr, True
            )
        raise AssertionError("unreachable")  # pragma: no cover

    def _gate_retry(self, exc: RpcStatusError) -> None:
        """Spend one retry token or fail the call fast with *exc*.

        The per-channel token bucket caps retry amplification: once the
        budget is dry, a failed attempt surfaces immediately instead of
        piling more attempts onto a peer that is already struggling.
        """
        if self._retry_budget.try_spend():
            return
        self.counters.retries_suppressed += 1
        self.counters.calls_failed += 1
        raise exc

    def _unary_attempt(
        self, service, method, wire_request, start_ns, deadline_ns, blocking
    ):
        """One unary attempt that reached the transport: its dispatch and
        its charge, the one step the two modes take differently (see the
        module docstring). Returns ``(status, response, detail)``."""
        if not blocking:
            yield from self._wait(
                self._direction_cost_ns(len(wire_request)), start_ns, deadline_ns,
                False,
            )
        status, wire_response, detail = self._server.dispatch_wire(
            service,
            method,
            wire_request,
            correlation_id=(
                self._correlation.current if self._correlation is not None else None
            ),
            # The grpc-timeout header: the budget *left*, not the original
            # deadline, so a forwarded/retried call tells the server how
            # much patience actually remains.
            deadline_ns=(
                deadline_ns - (self._clock.now_ns - start_ns)
                if deadline_ns is not None
                else None
            ),
            caller=self._local_host,
        )
        if blocking:
            cost = self._cost_ns(len(wire_request), len(wire_response))
        else:
            cost = self._direction_cost_ns(len(wire_response))
        yield from self._wait(cost, start_ns, deadline_ns, blocking)
        self.counters.calls += 1
        self.counters.bytes_sent += len(wire_request)
        self.counters.bytes_received += len(wire_response)
        if status is StatusCode.OK:
            return status, decode_message(wire_response), detail
        return status, None, detail

    def _stream_attempt(
        self, service, method, requests, start_ns, deadline_ns, blocking
    ):
        """An established stream: every message dispatched in order, one
        charge for the lot. A non-OK status aborts it (never retried)."""
        responses: list[dict] = []
        wire_in = 0
        wire_out = 0
        rid = self._correlation.current if self._correlation is not None else None
        for request in requests:
            wire_request = encode_message(request)
            status, wire_response, detail = self._server.dispatch_wire(
                service,
                method,
                wire_request,
                correlation_id=rid,
                deadline_ns=(
                    deadline_ns - (self._clock.now_ns - start_ns)
                    if deadline_ns is not None
                    else None
                ),
                caller=self._local_host,
            )
            wire_in += len(wire_request)
            wire_out += len(wire_response)
            if status is not StatusCode.OK:
                yield from self._wait(
                    self._stream_cost_ns(len(requests), wire_in, wire_out),
                    start_ns,
                    deadline_ns,
                    blocking,
                )
                self.counters.calls_failed += 1
                if status is StatusCode.RESOURCE_EXHAUSTED:
                    raise ServerOverloadedError(detail)
                raise RpcStatusError(status, detail)
            responses.append(decode_message(wire_response))
        yield from self._wait(
            self._stream_cost_ns(len(requests), wire_in, wire_out),
            start_ns,
            deadline_ns,
            blocking,
        )
        self.counters.calls += 1
        self.counters.stream_messages += len(requests)
        self.counters.bytes_sent += wire_in
        self.counters.bytes_received += wire_out
        return StatusCode.OK, responses, ""

    def stub(self, service: str) -> "ServiceStub":
        return ServiceStub(self, service)


class ServiceStub:
    """Dynamic per-service stub: ``stub.Lookup({...})`` == unary call.

    Mirrors how generated gRPC stubs expose one attribute per method.
    """

    def __init__(self, channel: Channel, service: str):
        self._channel = channel
        self._service = service

    @property
    def service(self) -> str:
        return self._service

    @property
    def channel(self) -> Channel:
        return self._channel

    def __getattr__(self, method: str):
        """Bind ``method`` once: the call is cached on the stub, so later
        lookups find it without coming here."""
        if method.startswith("_"):
            raise AttributeError(method)
        call = partial(self._channel.unary_call, self._service, method)
        setattr(self, method, call)
        return call
