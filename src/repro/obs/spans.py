"""Deterministic distributed span tracing with critical-path attribution.

The metrics plane (PR 3) can say *that* a latency quantile moved; this
module says *where the nanoseconds went*. A :class:`SpanSink` records a
tree of spans per logical operation — RPC dispatch, server queueing delay
(from :mod:`repro.rpc.overload`), service time, fabric reads/writes, retry
backoff, hedged waits, migration hops — with start/end taken from the one
:class:`~repro.common.clock.SimClock`, so a given seed produces
byte-identical traces on every replay.

Critical-path attribution rides on the clock itself: the sink installs an
advance listener (:meth:`SimClock.set_advance_listener`) and charges every
applied delta to exactly one of the :data:`COMPONENTS` — the innermost
open span whose category maps to a component (``rpc`` → service, ``queue``
→ queue, ``fabric`` → fabric, …), or the top of an explicit override stack
(retry backoff and hedged waits run under nested rpc spans, so the channel
and store push ``retry``/``hedge`` overrides around them). Because each
advance lands in exactly one bucket, a root span's components sum to its
duration **exactly, in integer nanoseconds** — the sum check the workload
report's ``latency_attribution`` section is built on.

Sampling never touches attribution (components accumulate for every op);
it only gates which span trees are *retained* for export: deterministic
head sampling from a dedicated stream of the shared RNG tree, plus
tail-based always-keep for errors/sheds and for ops in the slowest
percentile observed so far. Retained traces export as Chrome trace-event
JSON (``chrome://tracing`` / Perfetto) and as a JSON snapshot
(``python -m repro trace``).

Independently of sampling, every finished span also lands in a per-node
:class:`FlightRecorder` — a bounded ring of the most recent spans, dumped
post-mortem when a simtest oracle violation or a chaos determinism diff
fires, so the shrunk reproducer ships with the events leading up to the
failure.

Like the metrics plane, everything is opt-in: components hold ``None``
handles when tracing is off (a single ``is None`` test on the hot path),
the listener is never installed, and simulated time is bit-identical with
tracing on or off — the sink only reads the clock, never advances it, and
its sampling stream is an independent child of the RNG tree.

What a span costs on the host: one object. The context manager
:meth:`SpanSink.span` hands out *is* the record that lands in the op's
buffer, the flight ring and any kept trace; span, parent and auto trace
ids stay integers until an export or a reader asks for the string; the
attribution component is resolved once, at open; and the tail-keep
threshold is an exact order statistic kept in two heaps. The sink this
one replaced lives on as ``tests/obs/_reference_spans.py`` and defines
the behaviour by example (``tests/obs/test_spans_differential.py``).
"""

from __future__ import annotations

import json
import os
from collections import deque
from heapq import heappush, heappushpop

from repro.common.config import SpanConfig

SPAN_SCHEMA_VERSION = 1

#: Spans each node's flight-recorder ring keeps.
FLIGHT_CAPACITY = 512

#: The critical-path components every traced op's latency decomposes into.
COMPONENTS = (
    "cache", "client", "fabric", "hedge", "pipeline", "queue", "retry",
    "service",
)

#: Components that exist in every root's bucket dict from the moment it
#: opens. ``pipeline`` (async RPC overlap accounting) is *materialized on
#: first charge* instead: a sync-mode run never charges it, so its roots
#: keep exactly these keys and the TRACE artifacts from before the async
#: plane existed replay byte-identical.
BASE_COMPONENTS = (
    "cache", "client", "fabric", "hedge", "queue", "retry", "service",
)

#: The component set before tiering existed; the workload report keeps
#: emitting exactly these buckets when a scenario runs without a tiering
#: block, so legacy BENCH artifacts stay byte-identical.
LEGACY_COMPONENTS = ("client", "fabric", "hedge", "queue", "retry", "service")

#: Span categories that pin clock advances to a component. A category not
#: listed here (``op``, ``store``, ``migrate``, …) inherits the innermost
#: mapped ancestor; with no mapped ancestor the time is "client" — the
#: residual the operation spent outside any modelled server/fabric wait.
CATEGORY_COMPONENTS = {
    "cache": "cache",
    "client": "client",
    "fabric": "fabric",
    "hedge": "hedge",
    "pipeline": "pipeline",
    "queue": "queue",
    "retry": "retry",
    "rpc": "service",
    "rpc.server": "service",
}

#: A root's buckets the moment it opens (copied per root).
_ZERO_BUCKETS = dict.fromkeys(BASE_COMPONENTS, 0)


class SpanRecord:
    """One span of simulated time — measured while open, a record after.

    :meth:`SpanSink.span` hands one out as a context manager and the same
    object is what the op's buffer, the node's flight ring and a kept
    trace hold once the ``with`` block closes: there is no second
    "finished" object. Ids are the sink's sequence numbers, rendered to
    ``s%08d`` / ``t%06d`` strings by the ``span_id`` / ``parent_id`` /
    ``trace_id`` properties only when somebody reads them (a root opened
    with a ``rid`` carries that string as its trace id instead). ``args``
    is the dict the caller handed over, shared rather than copied.

    Roots (opened with no enclosing span) additionally carry the
    attribution buckets and the sampling decision; the workload runner
    reads ``duration_ns`` and ``components`` after the block closes and may
    fold the op's pre-execution dispatch wait into the queue bucket via
    :meth:`add_component`.

    The constructor builds a record from explicit values (string ids);
    equality and :meth:`to_dict` are over the ten record fields only.
    """

    __slots__ = (
        "_sink",
        "_trace",
        "_span",
        "_parent",
        "_component",
        "category",
        "name",
        "node",
        "start_ns",
        "duration_ns",
        "status",
        "args",
        "components",
        "head_kept",
        "kept",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        category: str,
        name: str,
        node: str,
        start_ns: int,
        duration_ns: int,
        status: str = "ok",
        args: dict | None = None,
    ):
        self._trace = trace_id
        self._span = span_id
        self._parent = parent_id
        self.category = category
        self.name = name
        self.node = node
        self.start_ns = start_ns
        self.duration_ns = duration_ns
        self.status = status
        self.args = {} if args is None else args
        self.components = None
        self.head_kept = False
        self.kept = False

    # -- ids, rendered on read -----------------------------------------------------

    @property
    def trace_id(self) -> str:
        trace = self._trace
        return trace if type(trace) is str else "t%06d" % trace

    @property
    def span_id(self) -> str:
        span = self._span
        return span if type(span) is str else "s%08d" % span

    @property
    def parent_id(self) -> str | None:
        parent = self._parent
        if parent is None or type(parent) is str:
            return parent
        return "s%08d" % parent

    @property
    def is_root(self) -> bool:
        return self.components is not None

    # -- measuring -----------------------------------------------------------------

    def __enter__(self) -> "SpanRecord":
        sink = self._sink
        stack = sink._stack
        self.start_ns = sink._clock._now_ns
        self.duration_ns = 0
        sink._span_seq = self._span = sink._span_seq + 1
        if stack:
            parent = stack[-1]
            self._trace = parent._trace
            self._parent = parent._span
            # Own category if it pins a component, else whatever the
            # enclosing span charges to: fixed here, so the clock listener
            # never walks the stack.
            self._component = CATEGORY_COMPONENTS.get(
                self.category, parent._component
            )
        else:
            args = self.args
            rid = args["rid"] if "rid" in args else None
            sink._trace_seq = seq = sink._trace_seq + 1
            self._trace = str(rid) if rid else seq
            self._parent = None
            self._component = CATEGORY_COMPONENTS.get(self.category, "client")
            self.components = sink._buckets = _ZERO_BUCKETS.copy()
            self.head_kept = sink._head_all or (
                sink._head_draw
                and sink._rng.uniform(0.0, 1.0) < sink._config.sample_rate
            )
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        sink = self._sink
        stack = sink._stack
        if stack[-1] is not self:  # pragma: no cover - nesting bug tripwire
            raise RuntimeError(
                f"span nesting violated: closing {self.name!r} "
                f"but {stack[-1].name!r} is innermost"
            )
        del stack[-1]
        if exc_type is not None and self.status == "ok":
            self.status = f"error:{exc_type.__name__}"
        self.duration_ns = sink._clock._now_ns - self.start_ns
        try:
            recorder = sink._flight[self.node or "sim"]
        except KeyError:  # the node's first span
            recorder = sink._flight[self.node or "sim"] = FlightRecorder(
                FLIGHT_CAPACITY
            )
        recorder.recorded += 1
        recorder._ring.append(self)
        sink._buffer.append(self)
        if self.components is not None:
            sink._close_root(self)
        return False

    def annotate(self, **args) -> None:
        """Merge *args* into the span's args (visible in every export)."""
        self.args.update(args)

    def add_component(self, component: str, delta_ns: int) -> None:
        """Charge *delta_ns* to a component bucket directly (root spans
        only) — the runner's hook for time spent before the span opened,
        e.g. the open-loop dispatch backlog an op waited out."""
        if self.components is None:
            raise ValueError("add_component is only valid on a root span")
        self.components[component] = (
            self.components.get(component, 0) + int(delta_ns)
        )

    # -- the record ----------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "category": self.category,
            "name": self.name,
            "node": self.node,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "status": self.status,
            "args": self.args,
        }

    def __eq__(self, other) -> bool:
        if type(other) is not SpanRecord:
            return NotImplemented
        return self.to_dict() == other.to_dict()

    __hash__ = None  # value equality over a mutable ``args``

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.to_dict().items())
        return f"SpanRecord({fields})"


_new_span = SpanRecord.__new__


class FlightRecorder:
    """Bounded ring of the most recent recorded events.

    The post-mortem primitive of the spans plane (one ring per node):
    appends past capacity evict the oldest event and show up in
    ``dropped``, so a dump always holds the events *leading up to* a
    failure rather than the boot sequence, with truncation visible rather
    than silent.
    """

    __slots__ = ("_ring", "recorded")

    def __init__(self, capacity: int = FLIGHT_CAPACITY):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._ring: deque = deque(maxlen=capacity)
        #: Events ever recorded; what the ring no longer holds was dropped.
        self.recorded = 0

    @property
    def capacity(self) -> int:
        return self._ring.maxlen

    @property
    def dropped(self) -> int:
        return self.recorded - len(self._ring)

    def record(self, event) -> None:
        self.recorded += 1
        self._ring.append(event)

    def events(self) -> list:
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self):
        return iter(self._ring)


class _NullSpan:
    """Inert stand-in handed out while the sink is disabled."""

    __slots__ = ()

    trace_id = ""
    span_id = ""
    parent_id = None
    start_ns = 0
    duration_ns = 0
    status = "ok"
    is_root = False
    head_kept = False
    kept = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def annotate(self, **args) -> None:
        pass

    def add_component(self, component: str, delta_ns: int) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _ComponentOverride:
    """Context manager pinning clock advances to one component."""

    __slots__ = ("_sink", "_component")

    def __init__(self, sink, component):
        self._sink = sink
        self._component = component

    def __enter__(self) -> "_ComponentOverride":
        self._sink._overrides.append(self._component)
        return self

    def __exit__(self, *exc) -> bool:
        self._sink._overrides.pop()
        return False


def _trace_view(spans: list) -> dict:
    """One retained trace as plain data: its root's metadata (the root
    closed last) over the span list itself."""
    root = spans[-1]
    return {
        "trace_id": root.trace_id,
        "name": root.name,
        "category": root.category,
        "node": root.node,
        "start_ns": root.start_ns,
        "duration_ns": root.duration_ns,
        "status": root.status,
        # By reference on purpose: the runner folds the op's
        # pre-execution wait in after close.
        "components_ns": root.components,
        "spans": spans,
    }


class SpanSink:
    """The per-cluster span recorder, attribution engine, and exporter.

    Single-threaded like the simulation itself: at most one root span is
    open at a time, so a plain stack models the call tree and the clock
    listener can attribute every advance unambiguously.
    """

    def __init__(self, clock, rng=None, config: SpanConfig | None = None):
        self._clock = clock
        self._rng = rng
        self._config = config = config or SpanConfig()
        config.validate()
        #: When False, ``span()``/``component()`` hand out inert objects
        #: and nothing records — the runner parks the sink during preload.
        self.enabled = True
        self._stack: list[SpanRecord] = []
        self._overrides: list[str] = []
        #: The open root's buckets (None between roots): what the clock
        #: listener charges.
        self._buckets: dict | None = None
        #: Spans closed under the open root so far, close order.
        self._buffer: list[SpanRecord] = []
        #: One span list per retained trace; its root closed last.
        self._traces: list[list[SpanRecord]] = []
        self._flight: dict[str, FlightRecorder] = {}
        # The head-sampling decision of a root: always, never, or a draw.
        self._head_all = config.sample_rate >= 1.0
        self._head_draw = 0.0 < config.sample_rate < 1.0 and rng is not None
        # Every root duration seen, split at the tail percentile's order
        # statistic: a max-heap (negated) of the smallest ``k + 1`` and a
        # min-heap of the rest, so ``-_tail_low[0]`` is exactly what
        # ``sorted(durations)[k]`` would be.
        self._tail_low: list[int] = []
        self._tail_high: list[int] = []
        self._trace_seq = 0
        self._span_seq = 0
        self.roots_total = 0
        self.kept_head = 0
        self.kept_tail = 0
        self.discarded = 0
        self.traces_overflowed = 0
        clock.set_advance_listener(self._on_advance)

    @property
    def config(self) -> SpanConfig:
        return self._config

    # -- recording -----------------------------------------------------------------

    def span(
        self,
        category: str,
        name: str,
        node: str = "",
        args: dict | None = None,
        **more,
    ):
        """Context manager measuring the enclosed simulated time as one
        span; opened with no enclosing span it becomes a trace root. The
        span's args are the keyword arguments, or *args* itself — a dict
        the caller built for this span and gives away."""
        if not self.enabled:
            return _NULL_SPAN
        if args is None:
            args = more
        elif more:
            args.update(more)
        # Ids, parent, component and timestamps are filled in on entry.
        span = _new_span(SpanRecord)
        span._sink = self
        span.category = category
        span.name = name
        span.node = node
        span.args = args
        span.status = "ok"
        span.components = None
        span.head_kept = span.kept = False
        return span

    def component(self, name: str):
        """Context manager overriding attribution of enclosed clock
        advances to *name* (``retry`` around backoff, ``hedge`` around a
        hedged lookup) regardless of the spans that open inside it."""
        if name not in COMPONENTS:
            raise ValueError(f"unknown component {name!r}; one of {COMPONENTS}")
        if not self.enabled:
            return _NULL_SPAN
        return _ComponentOverride(self, name)

    @property
    def current_span(self) -> SpanRecord | None:
        """Innermost open span — what a histogram bucket keeps as its
        exemplar, unrendered, to link back to a concrete trace."""
        return self._stack[-1] if self._stack else None

    @property
    def current_span_id(self) -> str | None:
        """Innermost open span's id."""
        return self._stack[-1].span_id if self._stack else None

    def _on_advance(self, delta_ns: int) -> None:
        buckets = self._buckets
        if buckets is None:
            return
        overrides = self._overrides
        component = overrides[-1] if overrides else self._stack[-1]._component
        try:
            buckets[component] += delta_ns
        except KeyError:  # "pipeline" materializes on first charge
            buckets[component] = delta_ns

    def _tail_slow(self, duration_ns: int) -> bool:
        """File the ``roots_total``-th root duration and answer: is it in
        the slowest ``1 - tail_percentile`` of all root durations observed
        so far (itself included)? Exact, not an estimate — the threshold
        is the order statistic at index ``int(pct * (n - 1))``, so the
        answer is the same on every replay."""
        pct = self._config.tail_percentile
        if pct <= 0.0:
            return True
        low, high = self._tail_low, self._tail_high
        grow = len(low) <= int(pct * (self.roots_total - 1))
        if high and duration_ns > high[0]:
            if grow:
                heappush(low, -heappushpop(high, duration_ns))
            else:
                heappush(high, duration_ns)
        elif grow:
            heappush(low, -duration_ns)
        else:
            heappush(high, -heappushpop(low, -duration_ns))
        return duration_ns >= -low[0]

    def _close_root(self, root: SpanRecord) -> None:
        self._buckets = None
        self.roots_total += 1
        slow = self._tail_slow(root.duration_ns)
        buffer = self._buffer
        if root.head_kept:
            self.kept_head += 1
        elif slow or root.status != "ok":
            self.kept_tail += 1
        else:
            self.discarded += 1
            del buffer[:]
            return
        root.kept = True
        if len(self._traces) < self._config.max_traces:
            self._traces.append(buffer)
        else:
            self.traces_overflowed += 1
        self._buffer = []

    # -- introspection --------------------------------------------------------------

    def traces(self) -> list[dict]:
        """Retained traces (root metadata + finished spans, close order)."""
        return [_trace_view(spans) for spans in self._traces]

    def flight_recorder(self, node: str) -> FlightRecorder | None:
        return self._flight.get(node)

    def sampling_stats(self) -> dict:
        return {
            "roots": self.roots_total,
            "kept_head": self.kept_head,
            "kept_tail": self.kept_tail,
            "discarded": self.discarded,
            "traces_overflowed": self.traces_overflowed,
            "sample_rate": self._config.sample_rate,
            "tail_percentile": self._config.tail_percentile,
        }

    # -- export ---------------------------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """Chrome trace-event JSON over the retained traces (complete 'X'
        events, microsecond timestamps, one pid per node), loadable in
        Perfetto."""
        events = []
        for spans in self._traces:
            for span in spans:
                args = dict(span.args)
                args["trace_id"] = span.trace_id
                args["span_id"] = span.span_id
                if span.parent_id is not None:
                    args["parent_id"] = span.parent_id
                if span.status != "ok":
                    args["status"] = span.status
                events.append(
                    {
                        "ph": "X",
                        "cat": span.category,
                        "name": span.name,
                        "ts": span.start_ns / 1e3,
                        "dur": span.duration_ns / 1e3,
                        "pid": span.node or "sim",
                        "tid": span.category,
                        "args": args,
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: "str | os.PathLike[str]") -> None:
        with open(os.fspath(path), "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh, sort_keys=True)
            fh.write("\n")

    def snapshot(self) -> dict:
        """The JSON snapshot ``python -m repro trace`` emits."""
        return {
            "schema_version": SPAN_SCHEMA_VERSION,
            "sampling": self.sampling_stats(),
            "traces": [
                {
                    **_trace_view(spans),
                    "components_ns": dict(spans[-1].components),
                    "spans": [record.to_dict() for record in spans],
                }
                for spans in self._traces
            ],
        }

    def flight_dump(self) -> dict:
        """All per-node flight-recorder rings as plain data — what gets
        written next to a shrunk simtest reproducer. Deterministic: the
        same seed replay produces a byte-identical dump."""
        return {
            "schema_version": SPAN_SCHEMA_VERSION,
            "nodes": {
                name: {
                    "capacity": recorder.capacity,
                    "dropped": recorder.dropped,
                    "spans": [record.to_dict() for record in recorder],
                }
                for name, recorder in sorted(self._flight.items())
            },
        }

    def write_flight(self, path: "str | os.PathLike[str]") -> None:
        with open(os.fspath(path), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.flight_dump(), indent=2, sort_keys=True))
            fh.write("\n")
