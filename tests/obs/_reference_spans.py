"""Reference span sink: the ``SpanSink`` / ``SpanRecord`` / ``FlightRecorder``
that ``repro.obs.spans`` shipped until PR 19 — an ``_OpenSpan`` context manager
plus a second ``SpanRecord`` built at close, ids formatted at open, the clock
listener walking the open stack, root durations in an ``insort``-ed list — kept
test-only and unchanged.

It defines the span plane's behaviour by example:
``test_spans_differential.py`` drives this sink and the production one with the
same programs and holds the production sink to this one's snapshots, Chrome
traces, flight dumps, sampling stats, attribution and sampling-stream
position. Do not optimise it, and do not import it from ``src/``.
"""

from __future__ import annotations

import json
import os
from bisect import insort
from collections import deque

from repro.obs.spans import (
    BASE_COMPONENTS,
    CATEGORY_COMPONENTS,
    COMPONENTS,
    SPAN_SCHEMA_VERSION,
    SpanConfig,
)

#: Each node's flight-ring size (``SpanConfig.flight_capacity`` until that
#: knob, which nothing set, became a constant).
FLIGHT_CAPACITY = 512


class SpanRecord:
    """One finished span of simulated time.

    A plain ``__slots__`` class, not a dataclass: the sink builds one per
    closed span (several per op) whether or not sampling keeps the trace.
    ``args`` is the span's own dict, shared rather than copied.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "category",
        "name",
        "node",
        "start_ns",
        "duration_ns",
        "status",
        "args",
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
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.category = category
        self.name = name
        self.node = node
        self.start_ns = start_ns
        self.duration_ns = duration_ns
        self.status = status
        self.args = {} if args is None else args

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other) -> bool:
        if type(other) is not SpanRecord:
            return NotImplemented
        return self.to_dict() == other.to_dict()

    __hash__ = None  # value equality over a mutable ``args``

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.to_dict().items())
        return f"SpanRecord({fields})"


class FlightRecorder:
    """Bounded ring of the most recent recorded events.

    The post-mortem primitive of the spans plane (one ring per node):
    appends past capacity evict the oldest event and bump ``dropped``, so a
    dump always holds the events *leading up to* a failure rather than the
    boot sequence, with truncation visible rather than silent.
    """

    __slots__ = ("_ring", "dropped")

    def __init__(self, capacity: int = 512):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._ring: deque = deque(maxlen=capacity)
        self.dropped = 0

    @property
    def capacity(self) -> int:
        return self._ring.maxlen

    def record(self, event) -> None:
        if len(self._ring) == self._ring.maxlen:
            self.dropped += 1
        self._ring.append(event)

    def events(self) -> list:
        return list(self._ring)

    def oldest_start_ns(self) -> int:
        return self._ring[0].start_ns if self._ring else 0

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self):
        return iter(self._ring)


class _OpenSpan:
    """A span being measured; context manager handed out by ``span()``.

    Roots (opened with an empty stack) additionally carry the attribution
    buckets and the sampling decision. The object stays readable after the
    ``with`` block closes — the workload runner reads ``duration_ns`` and
    ``components`` and may fold the op's pre-execution dispatch wait into
    the queue bucket via :meth:`add_component`.
    """

    __slots__ = (
        "_sink",
        "category",
        "name",
        "node",
        "args",
        "trace_id",
        "span_id",
        "parent_id",
        "start_ns",
        "duration_ns",
        "status",
        "is_root",
        "components",
        "head_kept",
        "kept",
    )

    def __init__(self, sink, category, name, node, args):
        self._sink = sink
        self.category = category
        self.name = name
        self.node = node
        self.args = args
        self.trace_id = ""
        self.span_id = ""
        self.parent_id = None
        self.start_ns = 0
        self.duration_ns = 0
        self.status = "ok"
        self.is_root = False
        self.components: dict | None = None
        self.head_kept = False
        self.kept = False

    def __enter__(self) -> "_OpenSpan":
        self._sink._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and self.status == "ok":
            self.status = f"error:{exc_type.__name__}"
        self._sink._close(self)
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

    @property
    def components(self) -> dict:
        return {c: 0 for c in BASE_COMPONENTS}

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


class SpanSink:
    """The per-cluster span recorder, attribution engine, and exporter.

    Single-threaded like the simulation itself: at most one root span is
    open at a time, so a plain stack models the call tree and the clock
    listener can attribute every advance unambiguously.
    """

    def __init__(self, clock, rng=None, config: SpanConfig | None = None):
        self._clock = clock
        self._rng = rng
        self._config = config or SpanConfig()
        self._config.validate()
        #: When False, ``span()``/``component()`` hand out inert objects
        #: and nothing records — the runner parks the sink during preload.
        self.enabled = True
        self._stack: list[_OpenSpan] = []
        self._overrides: list[str] = []
        self._buffer: list[SpanRecord] = []
        self._traces: list[dict] = []
        self._durations: list[int] = []
        self._flight: dict[str, FlightRecorder] = {}
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

    def span(self, category: str, name: str, node: str = "", **args):
        """Context manager measuring the enclosed simulated time as one
        span; opened with no enclosing span it becomes a trace root."""
        if not self.enabled:
            return _NULL_SPAN
        return _OpenSpan(self, category, name, node, args)

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
    def current_span_id(self) -> str | None:
        """Innermost open span's id — the exemplar a histogram bucket
        links back to a concrete trace."""
        return self._stack[-1].span_id if self._stack else None

    def _on_advance(self, delta_ns: int) -> None:
        stack = self._stack
        if not stack:
            return
        if self._overrides:
            component = self._overrides[-1]
        else:
            component = "client"
            for span in reversed(stack):
                mapped = CATEGORY_COMPONENTS.get(span.category)
                if mapped is not None:
                    component = mapped
                    break
        buckets = stack[0].components
        buckets[component] = buckets.get(component, 0) + delta_ns

    def _open(self, span: _OpenSpan) -> None:
        span.start_ns = self._clock.now_ns
        self._span_seq += 1
        span.span_id = f"s{self._span_seq:08d}"
        if self._stack:
            root = self._stack[0]
            span.trace_id = root.trace_id
            span.parent_id = self._stack[-1].span_id
        else:
            rid = span.args.get("rid")
            self._trace_seq += 1
            span.trace_id = str(rid) if rid else f"t{self._trace_seq:06d}"
            span.is_root = True
            span.components = {c: 0 for c in BASE_COMPONENTS}
            span.head_kept = self._head_sample()
            self._buffer = []
        self._stack.append(span)

    def _close(self, span: _OpenSpan) -> None:
        popped = self._stack.pop()
        if popped is not span:  # pragma: no cover - nesting bug tripwire
            raise RuntimeError(
                f"span nesting violated: closing {span.name!r} "
                f"but {popped.name!r} is innermost"
            )
        span.duration_ns = self._clock.now_ns - span.start_ns
        record = SpanRecord(
            span.trace_id,
            span.span_id,
            span.parent_id,
            span.category,
            span.name,
            span.node,
            span.start_ns,
            span.duration_ns,
            span.status,
            span.args,
        )
        node = record.node or "sim"
        recorder = self._flight.get(node)
        if recorder is None:
            recorder = self._flight[node] = FlightRecorder(FLIGHT_CAPACITY)
        recorder.record(record)
        self._buffer.append(record)
        if span.is_root:
            self._close_root(span)

    def _head_sample(self) -> bool:
        rate = self._config.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0 or self._rng is None:
            return False
        return self._rng.uniform(0.0, 1.0) < rate

    def _tail_slow(self, duration_ns: int) -> bool:
        """Is this root in the slowest ``1 - tail_percentile`` of all root
        durations observed so far (itself included)? Exact, not an
        estimate — durations are kept sorted, so the answer is the same on
        every replay."""
        pct = self._config.tail_percentile
        if pct <= 0.0:
            return True
        durations = self._durations
        threshold = durations[int(pct * (len(durations) - 1))]
        return duration_ns >= threshold

    def _close_root(self, span: _OpenSpan) -> None:
        self.roots_total += 1
        insort(self._durations, span.duration_ns)
        error = span.status != "ok"
        if span.head_kept:
            self.kept_head += 1
            span.kept = True
        elif error or self._tail_slow(span.duration_ns):
            self.kept_tail += 1
            span.kept = True
        else:
            self.discarded += 1
        if span.kept:
            if len(self._traces) < self._config.max_traces:
                self._traces.append(
                    {
                        "trace_id": span.trace_id,
                        "name": span.name,
                        "category": span.category,
                        "node": span.node,
                        "start_ns": span.start_ns,
                        "duration_ns": span.duration_ns,
                        "status": span.status,
                        # By reference on purpose: the runner folds the
                        # op's pre-execution wait in after close.
                        "components_ns": span.components,
                        "spans": self._buffer,
                    }
                )
            else:
                self.traces_overflowed += 1
        self._buffer = []

    # -- introspection --------------------------------------------------------------

    def traces(self) -> list[dict]:
        """Retained traces (root metadata + finished spans, close order)."""
        return list(self._traces)

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
        for trace in self._traces:
            for span in trace["spans"]:
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
                    "trace_id": trace["trace_id"],
                    "name": trace["name"],
                    "category": trace["category"],
                    "node": trace["node"],
                    "start_ns": trace["start_ns"],
                    "duration_ns": trace["duration_ns"],
                    "status": trace["status"],
                    "components_ns": dict(trace["components_ns"]),
                    "spans": [record.to_dict() for record in trace["spans"]],
                }
                for trace in self._traces
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
