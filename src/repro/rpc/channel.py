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

from repro.common.clock import SimClock
from repro.common.config import RpcConfig
from repro.common.errors import RpcError, RpcStatusError, ServerOverloadedError
from repro.common.rng import DeterministicRng
from repro.common.stats import Distribution
from repro.obs.metrics import CounterGroup
from repro.rpc.codec import decode_message, encode_message
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


class Channel:
    """A blocking unary-call channel from *local_host* to a server."""

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
        self.counters = CounterGroup()
        self._latency = None  # per-(peer, method) histogram family
        self._closed = False
        # Retry amplification cap: a token bucket on simulated time shared
        # by every call on this channel. Rate 0 (default) disables the gate.
        self._retry_budget = RetryBudget(
            clock, config.retry_budget_per_s, config.retry_budget_burst
        )
        # Client-observed latency samples feeding the hedged-read delay
        # quantile. Only collected when hedging is configured, so the
        # default path allocates nothing per call.
        self._latency_samples = Distribution()

    def attach_metrics(self, registry) -> None:
        """Bind call counters, per-method latency, and breaker state."""
        if not getattr(registry, "enabled", True):
            return
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
    def target(self) -> str:
        return self._server.host

    @property
    def local_host(self) -> str:
        return self._local_host

    @property
    def breaker(self):
        return self._breaker

    @property
    def retry_budget(self) -> RetryBudget:
        return self._retry_budget

    @property
    def default_deadline_ns(self) -> float:
        """The configured per-call deadline (0 = none) — the budget a
        multi-hop operation starts from (see DeadlineBudget.for_stub)."""
        return self._config.default_deadline_ns

    def hedge_delay_ns(self) -> float | None:
        """How long to wait on a read before hedging to another holder:
        the configured quantile of this channel's observed call latency.
        None until hedging is configured and enough samples exist."""
        q = self._config.hedge_quantile
        if q <= 0 or self._latency_samples.count < self._config.hedge_min_samples:
            return None
        return float(self._latency_samples.quantile(q))

    def close(self) -> None:
        self._closed = True

    # -- cost accounting -----------------------------------------------------------

    def _cost_ns(self, request_bytes: int, response_bytes: int) -> float:
        return (
            self._config.round_trip_ns
            + (request_bytes + response_bytes) * self._config.per_byte_ns
        ) * self._rng.lognormal_jitter(self._config.jitter_sigma)

    def _advance_within_deadline(
        self, cost_ns: float, start_ns: int, deadline_ns: float | None
    ) -> None:
        """Advance the clock by *cost_ns*, but never past the call deadline;
        on expiry, charge only the remainder and raise DEADLINE_EXCEEDED."""
        if deadline_ns is None:
            self._clock.advance(cost_ns)
            return
        remaining = deadline_ns - (self._clock.now_ns - start_ns)
        if cost_ns > remaining:
            self._clock.advance(max(0.0, remaining))
            self.counters.inc("deadline_exceeded")
            self.counters.inc("calls_failed")
            raise RpcStatusError(
                StatusCode.DEADLINE_EXCEEDED,
                f"deadline of {deadline_ns / 1e6:.3f} ms exceeded calling "
                f"{self._server.host}",
            )
        self._clock.advance(cost_ns)

    def _backoff_ns(self, retry_index: int) -> float:
        base = self._config.retry_initial_backoff_ns * (
            self._config.retry_backoff_multiplier**retry_index
        )
        base = min(base, self._config.retry_max_backoff_ns)
        return base * self._rng.lognormal_jitter(
            self._config.retry_backoff_jitter_sigma
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

    def _breaker_admit(self) -> None:
        if self._breaker is None:
            return
        if not self._breaker.allow():
            self._clock.advance(self._breaker.fail_fast_cost_ns)
            self.counters.inc("breaker_rejections")
            raise RpcStatusError(
                StatusCode.UNAVAILABLE,
                f"circuit breaker open for {self._server.host}",
            )

    def _breaker_record(self, exc: RpcStatusError | None) -> None:
        if self._breaker is None:
            return
        if exc is not None and exc.code in _FAILURE_CODES:
            self._breaker.record_failure()
        else:
            # Any definitive response — OK or an application-level status —
            # proves the peer is alive.
            self._breaker.record_success()

    # -- unary ------------------------------------------------------------------------

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
        if self._closed:
            raise RpcError(f"channel to {self._server.host} is closed")
        self._breaker_admit()
        deadline = self._effective_deadline(deadline_ns)
        track = self._latency is not None or self._config.hedge_quantile > 0
        start_ns = self._clock.now_ns if track else 0
        try:
            if self._spans is not None:
                with self._rpc_span(service, method):
                    response = self._unary_call_inner(
                        service, method, request, deadline
                    )
            else:
                response = self._unary_call_inner(
                    service, method, request, deadline
                )
        except RpcStatusError as exc:
            self._observe_latency(method, start_ns)
            self._breaker_record(exc)
            raise
        self._observe_latency(method, start_ns)
        if self._config.hedge_quantile > 0:
            # Successful-call latency feeds the hedge-delay quantile.
            self._latency_samples.add(self._clock.now_ns - start_ns)
        self._breaker_record(None)
        return response

    def _rpc_span(self, service: str, method: str):
        """The ``rpc`` span of one call (only with a sink attached)."""
        rid = self._correlation.current if self._correlation is not None else None
        return self._spans.span(
            "rpc",
            self._server._method_name(service, method),
            self._span_node,
            {} if rid is None else {"rid": rid},
        )

    def _charge_retry(
        self, cost_ns: float, start_ns: int, deadline_ns: float | None
    ) -> None:
        """Charge *cost_ns* attributed to the retry component: backoff
        intervals and the transport cost of repeat attempts are retry
        amplification, not useful service time."""
        if self._spans is not None:
            with self._spans.component("retry"):
                self._advance_within_deadline(cost_ns, start_ns, deadline_ns)
        else:
            self._advance_within_deadline(cost_ns, start_ns, deadline_ns)

    def _observe_latency(self, method: str, start_ns: int) -> None:
        if self._latency is not None:
            self._latency.labels(peer=self._server.host, method=method).observe(
                self._clock.now_ns - start_ns,
                exemplar=(
                    self._spans.current_span if self._spans is not None else None
                ),
            )

    def _unary_call_inner(
        self,
        service: str,
        method: str,
        request: dict | None,
        deadline_ns: float | None,
    ) -> dict:
        wire_request = encode_message(request or {})
        attempts = 1 + max(0, self._config.max_retries)
        start_ns = self._clock.now_ns
        for attempt in range(attempts):
            last = attempt == attempts - 1
            if self._transport_silent():
                # The attempt vanished into a partition/blackhole: the
                # caller waits out its connect timeout (or the deadline).
                self._fail_attempt(
                    self._chaos.unanswered_wait_ns,
                    start_ns,
                    deadline_ns,
                    last,
                    attempts,
                    attempt,
                    f"no response from {self._server.host}",
                )
                continue
            if self._attempt_fails():
                # The connection dropped mid-call: charge the round trip,
                # then retry or surface UNAVAILABLE.
                self._fail_attempt(
                    self._cost_ns(len(wire_request), 0),
                    start_ns,
                    deadline_ns,
                    last,
                    attempts,
                    attempt,
                    f"connection to {self._server.host} lost",
                )
                continue
            status, wire_response, detail = self._server.dispatch_wire(
                service,
                method,
                wire_request,
                correlation_id=(
                    self._correlation.current
                    if self._correlation is not None
                    else None
                ),
                # The grpc-timeout header: the budget *left*, not the
                # original deadline, so a forwarded/retried call tells the
                # server how much patience actually remains.
                deadline_ns=(
                    deadline_ns - (self._clock.now_ns - start_ns)
                    if deadline_ns is not None
                    else None
                ),
                caller=self._local_host,
            )
            self._advance_within_deadline(
                self._cost_ns(len(wire_request), len(wire_response)),
                start_ns,
                deadline_ns,
            )
            self.counters.inc("calls")
            self.counters.inc("bytes_sent", len(wire_request))
            self.counters.inc("bytes_received", len(wire_response))
            if status is StatusCode.UNAVAILABLE:
                # The server process is down (connection refused). gRPC
                # treats UNAVAILABLE as retryable; so do we.
                self.counters.inc("attempts_failed")
                if last:
                    self.counters.inc("calls_failed")
                    raise RpcStatusError(status, detail)
                self._gate_retry(RpcStatusError(status, detail))
                self.counters.inc("retries")
                self._charge_retry(self._backoff_ns(attempt), start_ns, deadline_ns)
                continue
            if status is StatusCode.RESOURCE_EXHAUSTED:
                # The server shed us under overload. Retryable — the peer is
                # alive — but every retry spends retry budget, so a storm
                # of shed calls fails fast instead of amplifying the load.
                self.counters.inc("attempts_shed")
                err = ServerOverloadedError(detail)
                if last:
                    self.counters.inc("calls_failed")
                    raise err
                self._gate_retry(err)
                self.counters.inc("retries")
                self._charge_retry(self._backoff_ns(attempt), start_ns, deadline_ns)
                continue
            if status is not StatusCode.OK:
                self.counters.inc("calls_failed")
                raise RpcStatusError(status, detail)
            return decode_message(wire_response)
        raise AssertionError("unreachable")  # pragma: no cover

    def _gate_retry(self, exc: RpcStatusError) -> None:
        """Spend one retry token or fail the call fast with *exc*.

        The per-channel token bucket caps retry amplification: once the
        budget is dry, a failed attempt surfaces immediately instead of
        piling more attempts onto a peer that is already struggling.
        """
        if self._retry_budget.try_spend():
            return
        self.counters.inc("retries_suppressed")
        self.counters.inc("calls_failed")
        raise exc

    def _fail_attempt(
        self,
        cost_ns: float,
        start_ns: int,
        deadline_ns: float | None,
        last: bool,
        attempts: int,
        attempt: int,
        detail: str,
    ) -> None:
        """Account one transport-level failed attempt; retry or raise."""
        if attempt > 0:
            # A repeat attempt's wasted transport cost is retry
            # amplification; the first attempt's cost is ordinary service.
            self._charge_retry(cost_ns, start_ns, deadline_ns)
        else:
            self._advance_within_deadline(cost_ns, start_ns, deadline_ns)
        self.counters.inc("attempts_failed")
        if last:
            self.counters.inc("calls_failed")
            raise RpcStatusError(
                StatusCode.UNAVAILABLE, f"{detail} ({attempts} attempts)"
            )
        self._gate_retry(
            RpcStatusError(
                StatusCode.UNAVAILABLE, f"{detail} (retry budget exhausted)"
            )
        )
        self.counters.inc("retries")
        self._charge_retry(self._backoff_ns(attempt), start_ns, deadline_ns)

    # -- streaming ---------------------------------------------------------------------

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

        Stream *establishment* goes through the same failure path as unary
        calls: injected connection drops and chaos blackholes/partitions
        are retried with backoff, deadlines bound the whole call, and the
        breaker gates admission — a fault plan degrades streams and unary
        calls alike.
        """
        if self._closed:
            raise RpcError(f"channel to {self._server.host} is closed")
        if not requests:
            return []
        self._breaker_admit()
        deadline = self._effective_deadline(deadline_ns)
        start_ns = self._clock.now_ns if self._latency is not None else 0
        try:
            if self._spans is not None:
                with self._rpc_span(service, method):
                    responses = self._stream_call_inner(
                        service, method, requests, deadline
                    )
            else:
                responses = self._stream_call_inner(
                    service, method, requests, deadline
                )
        except RpcStatusError as exc:
            self._observe_latency(method, start_ns)
            self._breaker_record(exc)
            raise
        self._observe_latency(method, start_ns)
        self._breaker_record(None)
        return responses

    def _stream_call_inner(
        self,
        service: str,
        method: str,
        requests: list[dict],
        deadline_ns: float | None,
    ) -> list[dict]:
        attempts = 1 + max(0, self._config.max_retries)
        start_ns = self._clock.now_ns
        for attempt in range(attempts):
            last = attempt == attempts - 1
            if self._transport_silent():
                self._fail_attempt(
                    self._chaos.unanswered_wait_ns,
                    start_ns,
                    deadline_ns,
                    last,
                    attempts,
                    attempt,
                    f"no response from {self._server.host}",
                )
                continue
            if self._attempt_fails():
                # The stream never established: one wasted round trip.
                self._fail_attempt(
                    self._cost_ns(0, 0),
                    start_ns,
                    deadline_ns,
                    last,
                    attempts,
                    attempt,
                    f"stream to {self._server.host} lost",
                )
                continue
            return self._stream_dispatch(
                service, method, requests, start_ns, deadline_ns
            )
        raise AssertionError("unreachable")  # pragma: no cover

    def _stream_dispatch(
        self,
        service: str,
        method: str,
        requests: list[dict],
        start_ns: int,
        deadline_ns: float | None,
    ) -> list[dict]:
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
                self._advance_within_deadline(
                    self._stream_cost_ns(len(requests), wire_in, wire_out),
                    start_ns,
                    deadline_ns,
                )
                self.counters.inc("calls_failed")
                if status is StatusCode.RESOURCE_EXHAUSTED:
                    raise ServerOverloadedError(detail)
                raise RpcStatusError(status, detail)
            responses.append(decode_message(wire_response))
        self._advance_within_deadline(
            self._stream_cost_ns(len(requests), wire_in, wire_out),
            start_ns,
            deadline_ns,
        )
        self.counters.inc("calls")
        self.counters.inc("stream_messages", len(requests))
        self.counters.inc("bytes_sent", wire_in)
        self.counters.inc("bytes_received", wire_out)
        return responses

    def _stream_cost_ns(self, nmessages: int, bytes_in: int, bytes_out: int) -> float:
        return (
            self._config.round_trip_ns
            + nmessages * self._config.per_stream_message_ns
            + (bytes_in + bytes_out) * self._config.per_byte_ns
        ) * self._rng.lognormal_jitter(self._config.jitter_sigma)

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
        if method.startswith("_"):
            raise AttributeError(method)

        def call(
            request: dict | None = None, *, deadline_ns: float | None = None
        ) -> dict:
            if deadline_ns is None:
                # Keep the plain signature for alternate transports
                # (e.g. DmsgChannel) that predate deadlines.
                return self._channel.unary_call(self._service, method, request)
            return self._channel.unary_call(
                self._service, method, request, deadline_ns=deadline_ns
            )

        call.__name__ = method
        return call
