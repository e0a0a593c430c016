"""Server-side overload control and client-side retry taming.

The paper's prototype assumes every gRPC request is serviced the moment it
arrives; under the traffic plane's open-loop arrivals that makes overload
impossible by construction — a node can never fall behind, so saturation
has no observable shape. This module gives each :class:`~repro.rpc.server
.RpcServer` a finite service rate and a bounded request queue, both
modelled deterministically on the one simulated clock:

* :class:`OverloadModel` — a virtual queue over a single busy-until
  watermark. Admitting a request pushes the watermark out by one service
  time; the backlog between *now* and the watermark is the queueing delay
  a FIFO arrival waits (and, divided by the service time, the queue
  depth). A request that would exceed the bounded depth is **shed** with
  RESOURCE_EXHAUSTED, as is work whose propagated deadline budget is
  already spent or cannot cover the backlog ahead of it (expired-work
  shedding). The model never consumes RNG and only reads the clock, so a
  given arrival sequence replays bit-identically.

* :class:`RetryBudget` — a token bucket on simulated time capping a
  channel's retry amplification: when the budget is dry, a failed call
  surfaces immediately instead of adding more attempts to a peer that is
  already saturated (the classic retry-storm congestion collapse).

* :class:`DeadlineBudget` — bookkeeping for one logical operation that
  spans several RPC hops (a ring-forwarded create, a two-phase migration
  pull): the first hop starts the budget and each subsequent call is
  issued with only the *remaining* time, so a slow first hop shrinks what
  the later hops may spend instead of resetting it.

Everything defaults off (service rate 0 = infinite capacity), keeping the
paper-calibrated figures byte-identical unless a config or a chaos
``OverloadBurst`` makes a server finite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.clock import NS_PER_S
from repro.common.stats import Distribution
from repro.obs.metrics import CounterGroup


@dataclass(frozen=True)
class Admission:
    """One admission decision.

    ``delay_ns`` is the queueing delay an admitted request waits before
    servicing begins; for a shed request it is 0 (rejection is cheap — the
    whole point). ``queue_len`` is the depth observed at arrival.
    """

    admitted: bool
    delay_ns: float = 0.0
    queue_len: int = 0
    reason: str = ""
    detail: str = ""


class OverloadModel:
    """Deterministic per-server admission/queue model on the sim clock.

    The queue is *virtual*: instead of materialising request objects, the
    model keeps one ``busy_until`` watermark — the simulated instant the
    server finishes everything already admitted. Backlog, queue depth and
    FIFO waiting time all derive from it, which is exactly the M/D/1-style
    bookkeeping needed for deterministic replay (no event loop, no RNG).
    """

    class Counters(CounterGroup):
        admitted = queued_ns = shed_queue_full = shed_expired = 0
        bursts_injected = 0

    def __init__(self, clock, config=None, *, name: str = ""):
        self._clock = clock
        self._name = name
        self.service_rate_ops_per_s = (
            float(config.service_rate_ops_per_s) if config is not None else 0.0
        )
        self.queue_depth = int(config.queue_depth) if config is not None else 64
        self.queue_discipline = (
            config.queue_discipline if config is not None else "fifo"
        )
        self.shed_expired = config.shed_expired if config is not None else True
        self._busy_until_ns = 0.0
        self.counters = self.Counters()
        #: Queue depth observed by each arrival (admitted or shed) while
        #: the model is active — the distribution BENCH artifacts report
        #: p99 over. Sheds see the deepest queues, so sampling only admits
        #: would censor exactly the tail the quantile is for.
        self.queue_samples = Distribution()

    # -- configuration -------------------------------------------------------------

    @property
    def service_time_ns(self) -> float:
        """Simulated ns one request occupies the server; 0 = infinite rate."""
        rate = self.service_rate_ops_per_s
        return NS_PER_S / rate if rate > 0 else 0.0

    def set_service_rate(self, ops_per_s: float) -> None:
        """Change the service rate live (simtest's ``set_service_rate`` op)."""
        if ops_per_s < 0:
            raise ValueError("service rate must be non-negative")
        self.service_rate_ops_per_s = float(ops_per_s)

    # -- state ---------------------------------------------------------------------

    def backlog_ns(self, now_ns: float | None = None) -> float:
        """Simulated ns of already-admitted work ahead of a new arrival."""
        now = self._clock.now_ns if now_ns is None else now_ns
        return max(0.0, self._busy_until_ns - now)

    def queue_len(self, now_ns: float | None = None) -> int:
        """Requests currently waiting (backlog divided by service time)."""
        service = self.service_time_ns
        if service <= 0:
            return 0
        return int(self.backlog_ns(now_ns) // service)

    @property
    def active(self) -> bool:
        """Whether the model currently changes anything: a finite service
        rate is configured or injected backlog has not drained yet."""
        return self.service_rate_ops_per_s > 0 or self.backlog_ns() > 0

    def add_backlog(self, ns: float) -> None:
        """Inject *ns* of queued work (chaos ``OverloadBurst``): models a
        stall — a GC pause, a compaction, a neighbouring tenant's burst —
        that the admission maths then drains at the service rate."""
        now = self._clock.now_ns
        self._busy_until_ns = max(self._busy_until_ns, now) + float(ns)
        self.counters.bursts_injected += 1

    def reset(self) -> None:
        """Forget all queued work — the process died (shutdown/restart);
        its in-memory request queue died with it."""
        self._busy_until_ns = 0.0

    # -- admission -----------------------------------------------------------------

    def admit(self, now_ns: float, deadline_ns: float | None = None) -> Admission:
        """Decide one arrival at *now_ns* with *deadline_ns* budget left.

        Admission pushes the busy-until watermark out by one service time
        and returns the queueing delay the caller must charge; shed
        requests leave the watermark untouched (rejection costs nothing —
        that is what makes shedding stabilising rather than amplifying).
        """
        service = self.service_time_ns
        backlog = max(0.0, self._busy_until_ns - now_ns)
        if service <= 0 and backlog <= 0:
            # Inactive: infinite capacity, nothing queued. Zero-cost path.
            return Admission(admitted=True)
        queue_len = int(backlog // service) if service > 0 else 0
        self.queue_samples.add(queue_len)
        if self.queue_depth > 0 and queue_len >= self.queue_depth:
            self.counters.shed_queue_full += 1
            return Admission(
                admitted=False,
                queue_len=queue_len,
                reason="queue-full",
                detail=(
                    f"server {self._name or '?'} overloaded: request queue "
                    f"full ({queue_len}/{self.queue_depth})"
                ),
            )
        # FIFO waits out the whole backlog; LIFO-under-pressure lets the
        # fresh arrival jump the queue (it waits at most the request in
        # service) while the backlog still grows by its service time.
        wait = backlog if self.queue_discipline == "fifo" else min(backlog, service)
        if self.shed_expired and deadline_ns is not None:
            if deadline_ns <= 0:
                self.counters.shed_expired += 1
                return Admission(
                    admitted=False,
                    queue_len=queue_len,
                    reason="expired",
                    detail=(
                        f"server {self._name or '?'} shed expired work: "
                        "deadline budget already spent on arrival"
                    ),
                )
            if wait + service > deadline_ns:
                self.counters.shed_expired += 1
                return Admission(
                    admitted=False,
                    queue_len=queue_len,
                    reason="wont-finish",
                    detail=(
                        f"server {self._name or '?'} shed doomed work: "
                        f"{(wait + service) / 1e6:.3f} ms queue+service "
                        f"exceeds the {deadline_ns / 1e6:.3f} ms budget left"
                    ),
                )
        self._busy_until_ns = max(self._busy_until_ns, now_ns) + service
        self.counters.admitted += 1
        if wait > 0:
            self.counters.queued_ns += int(wait)
        return Admission(admitted=True, delay_ns=wait, queue_len=queue_len)

    # -- observability -------------------------------------------------------------

    def attach_metrics(self, registry, **labels) -> None:
        """Bind shed/admit counters and a live queue-depth gauge."""
        registry.register_group(self.counters, "rpc_overload", **labels)
        labelnames = tuple(sorted(labels))
        registry.gauge(
            "rpc_overload_queue_depth",
            "Requests currently waiting in the server's bounded queue.",
            labels=labelnames,
        ).labels(**labels).set_function(lambda: float(self.queue_len()))
        registry.gauge(
            "rpc_overload_backlog_ns",
            "Simulated ns of admitted work not yet serviced.",
            labels=labelnames,
        ).labels(**labels).set_function(lambda: self.backlog_ns())


class RetryBudget:
    """Token bucket on simulated time gating a channel's retries.

    Each retry spends one token; tokens refill at ``rate_per_s`` up to
    ``burst``. Rate 0 disables the gate entirely (every retry allowed),
    which is the default so existing behaviour is untouched.
    """

    def __init__(self, clock, rate_per_s: float, burst: int):
        self._clock = clock
        self._rate = float(rate_per_s)
        self._burst = float(max(1, burst))
        self._tokens = self._burst
        self._last_ns = clock.now_ns

    @property
    def enabled(self) -> bool:
        return self._rate > 0

    def tokens(self) -> float:
        """Current token count (after refill), for tests and gauges."""
        self._refill()
        return self._tokens

    def _refill(self) -> None:
        now = self._clock.now_ns
        if now > self._last_ns:
            self._tokens = min(
                self._burst,
                self._tokens + (now - self._last_ns) / NS_PER_S * self._rate,
            )
        self._last_ns = now

    def try_spend(self) -> bool:
        """Take one token; False means the budget is dry — fail fast."""
        if not self.enabled:
            return True
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class DeadlineBudget:
    """The remaining deadline of one logical multi-hop operation.

    Started when the operation begins, it answers "how much of the
    caller's patience is left" at each subsequent hop, so forwarded calls
    (ring-routed creates, migration pulls) inherit the shrunken budget
    instead of restarting a full per-call deadline per hop.
    """

    def __init__(self, clock, total_ns: float):
        self._clock = clock
        self._total = float(total_ns) if total_ns and total_ns > 0 else 0.0
        self._start_ns = clock.now_ns

    @classmethod
    def for_stub(cls, stub, clock) -> "DeadlineBudget":
        """Budget sized from the stub's channel default deadline (disabled
        when that is 0: no deadline anywhere)."""
        return cls(clock, stub.channel.default_deadline_ns)

    @property
    def enabled(self) -> bool:
        return self._total > 0

    def remaining_ns(self) -> float:
        """Budget left right now (can reach 0, never negative)."""
        if not self._total:
            return 0.0
        return max(0.0, self._total - (self._clock.now_ns - self._start_ns))

    def kwargs(self) -> dict:
        """``{'deadline_ns': remaining}`` when enabled, else ``{}`` — the
        keyword arguments a call splats, so a disabled budget passes no
        deadline at all. A spent budget is clamped to 1 ns rather than 0:
        the channel treats a non-positive deadline as *unset*, and a spent
        budget must fail fast, not wait forever."""
        if not self.enabled:
            return {}
        return {"deadline_ns": max(1.0, self.remaining_ns())}
