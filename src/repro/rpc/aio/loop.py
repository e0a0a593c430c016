"""A deterministic cooperative event loop over :class:`SimClock`.

Python's ``asyncio`` cannot drive simulated time reproducibly: its ready
queue breaks ties by insertion order *of wall-clock callbacks* and its timers
read the host clock, so two runs of the same seed interleave differently.
This loop replaces both with simulation-native rules:

* **Time** is the cluster's single :class:`~repro.common.clock.SimClock`.
  An event scheduled for ``wake_ns`` runs after the clock has advanced to
  (at least) that instant; events that come due while the clock is already
  past them run immediately at the current time — simulated time never
  rewinds.
* **Tie-breaking is seeded.** Events at the same ``wake_ns`` are ordered by
  a random rank drawn from a dedicated RNG stream at *schedule* time, with
  a monotone sequence number as the final tiebreak. No wall clock, no
  ``id()``/hash order, no dict iteration order — the heap pop sequence is a
  pure function of the seed, which is what makes run-twice replay
  bit-identical even with hundreds of tasks in flight.
* **The heap defines the order, not the mechanism.** Every event takes a
  tie rank and a sequence number, but a task's :class:`Sleep` wake-up that
  would be the very next event popped — nothing on the heap sorts before it
  and the active driver would not stop first — runs in the frame that
  scheduled it instead of round-tripping the heap. Which path an event took
  is not observable in simulated time (``tests/rpc/_reference_loop.py`` is
  the heap-only loop the differential suite compares against).
* **Tasks are generator coroutines.** A task ``yield``s either a
  :class:`Sleep` (suspend for a span of simulated time) or a
  :class:`Future`/:class:`Task` (suspend until it resolves); anything the
  task returns becomes its future's result. Sub-operations compose with
  ``yield from``, so one logical op forms a spine of resume points — which
  is also what lets :class:`TaskAttribution` account every nanosecond of an
  op's latency exactly.
"""

from __future__ import annotations

import heapq
from typing import Callable, Generator, Iterable

from repro.common.clock import SimClock
from repro.common.errors import ReproError
from repro.common.rng import DeterministicRng


class EventLoopError(ReproError):
    """Scheduler misuse, or a deadlock (an awaited future that can never resolve)."""


class Sleep:
    """Awaitable marker: suspend the yielding task for *delta_ns* of simulated time.

    Negative deltas clamp to zero; ``Sleep(0)`` yields the scheduler slot so
    other due events may run at the same instant (cooperative fairness).
    """

    __slots__ = ("delta_ns",)

    def __init__(self, delta_ns: float):
        self.delta_ns = float(delta_ns)

    def __repr__(self) -> str:
        return f"Sleep({self.delta_ns:.0f} ns)"


class Future:
    """A one-shot completion slot resolved by the loop or by another task.

    Waiter wake-ups are *scheduled* (at the current instant, with a fresh
    seeded tie rank), never run inline from ``set_result`` — resolution
    order therefore cannot leak the resolver's call stack into the
    interleaving.
    """

    __slots__ = ("_loop", "_done", "_value", "_exc", "_waiters")

    def __init__(self, loop: "EventLoop"):
        self._loop = loop
        self._done = False
        self._value = None
        self._exc: BaseException | None = None
        # Who to wake on resolution, in registration order: a done callback,
        # or the Task suspended on this future.
        self._waiters: list[Callable[["Future"], None] | Task] = []

    def done(self) -> bool:
        return self._done

    def result(self):
        if not self._done:
            raise EventLoopError("future is not resolved yet")
        if self._exc is not None:
            raise self._exc
        return self._value

    def set_result(self, value) -> None:
        self._settle(value, None)

    def set_exception(self, exc: BaseException) -> None:
        self._settle(None, exc)

    def add_done_callback(self, fn: Callable[["Future"], None]) -> None:
        if self._done:
            self._loop._push(self._loop._clock.now_ns, fn, self)
        else:
            self._waiters.append(fn)

    def _settle(self, value, exc: BaseException | None) -> None:
        if self._done:
            raise EventLoopError("future resolved twice")
        self._done = True
        self._value = value
        self._exc = exc
        waiters, self._waiters = self._waiters, []
        if waiters:
            loop = self._loop
            now = loop._clock.now_ns
            for waiter in waiters:
                loop._push(now, waiter, self)


#: Never resolves: what a driver that awaits no future waits for.
_UNRESOLVED = Future(None)
_NO_LIMIT = float("inf")


class Task:
    """A spawned generator coroutine; ``future`` resolves with its return value."""

    __slots__ = ("_label", "future", "_gen")

    def __init__(self, loop: "EventLoop", gen: Generator,
                 label: str | tuple | int):
        # The caller's name — a string, or a tuple of parts — or the spawn
        # index of an unnamed task; formatted only if somebody asks.
        self._label = label
        self.future = Future(loop)
        self._gen = gen

    @property
    def name(self) -> str:
        label = self._label
        if isinstance(label, tuple):
            return ":".join(map(str, label))
        return label if isinstance(label, str) else f"task-{label}"

    def __repr__(self) -> str:
        state = "done" if self.future.done() else "running"
        return f"Task({self.name!r}, {state})"


class EventLoop:
    """The scheduler: a heap of ``(wake_ns, tie_rank, seq, target, future)``
    events. *target* is a :class:`Task` to resume or a plain callback;
    *future* is the resolved future whose outcome it is handed, if any.

    One event at a time runs, under exactly one of the three drivers
    (:meth:`run_until`, :meth:`run_until_complete`, :meth:`drain`). The
    driver's stop rule — a wake deadline, an awaited future, an event budget —
    decides whether the heap's first event may run next, and the same rule
    lets :meth:`_step` run a sleeping task's wake-up without the heap when
    that event would have been the next one popped anyway.
    """

    __slots__ = ("_clock", "_rng", "_heap", "_seq", "_spawned", "_driving",
                 "_deadline", "_awaited", "_event_cap",
                 "events_run", "events_inline")

    def __init__(self, clock: SimClock, rng: DeterministicRng):
        self._clock = clock
        self._rng = rng.spawn("aio-loop")
        self._heap: list[tuple] = []
        self._seq = 0
        self._spawned = 0
        self._driving = False
        # The active driver's stop rule (see _drive).
        self._deadline: float = _NO_LIMIT
        self._awaited = _UNRESOLVED
        self._event_cap: float = _NO_LIMIT
        #: Events run so far, and how many of them were a task's ``Sleep``
        #: wake-up run in the frame that scheduled it instead of via the heap.
        self.events_run = 0
        self.events_inline = 0

    @property
    def driving(self) -> bool:
        """True while an event handler (i.e. task code) is on the stack.

        Synchronous facades check this to decide between *driving* the loop
        (top-level call: spawn the task form and run it to completion) and
        *executing inline* (already inside a task: blocking semantics are
        safe, and driving the loop from one of its own handlers is an error).
        """
        return self._driving

    @property
    def clock(self) -> SimClock:
        return self._clock

    @property
    def now_ns(self) -> int:
        return self._clock.now_ns

    def pending(self) -> int:
        """Number of scheduled events not yet run."""
        return len(self._heap)

    # -- scheduling ----------------------------------------------------------

    def _push(self, wake: int, target, future: Future | None) -> None:
        heapq.heappush(
            self._heap,
            (wake, self._rng.integer(0, 1 << 30), self._seq, target, future))
        self._seq += 1

    def call_later(self, delta_ns: float, fn: Callable[[], None]) -> None:
        self._push(self._clock.now_ns + max(0, int(round(delta_ns))), fn, None)

    def spawn(self, gen: Generator, name: str | tuple | None = None) -> Task:
        """Schedule generator coroutine *gen* to start at the current instant.

        *name* labels the task in errors and ``repr``: a string, or a tuple
        of parts joined with ``:`` when it is rendered.
        """
        task = Task(self, gen, name or self._spawned)
        self._spawned += 1
        self._push(self._clock.now_ns, task, None)
        return task

    # -- task stepping -------------------------------------------------------

    def _step(self, task: Task, future: Future | None) -> None:
        """Resume *task* (with *future*'s outcome, if it was waiting on one)
        and run it until it finishes or suspends on something only a later
        event can end."""
        gen = task._gen
        clock = self._clock
        heap = self._heap
        value = exc = None
        if future is not None:
            value, exc = future._value, future._exc
        while True:
            try:
                if exc is not None:
                    pending_exc, exc = exc, None
                    awaited = gen.throw(pending_exc)
                else:
                    awaited = gen.send(value)
            except StopIteration as stop:
                task.future.set_result(stop.value)
                return
            except Exception as err:  # noqa: BLE001 — delivered via future.result()
                task.future.set_exception(err)
                return
            if isinstance(awaited, Sleep):
                # The wake-up is an event like any other: it takes its tie
                # rank and sequence number whether or not it meets the heap.
                now = clock.now_ns
                wake = now + int(round(max(0.0, awaited.delta_ns)))
                tie = self._rng.integer(0, 1 << 30)
                seq = self._seq
                self._seq = seq + 1
                if ((not heap or (wake, tie, seq) < heap[0])
                        and wake <= self._deadline
                        and not self._awaited._done
                        and self.events_run < self._event_cap):
                    # It would be the next event popped: run it here.
                    if wake > now:
                        clock.advance(wake - now)
                    self.events_run += 1
                    self.events_inline += 1
                    value = None
                    continue
                heapq.heappush(heap, (wake, tie, seq, task, None))
                return
            if isinstance(awaited, Task):
                awaited = awaited.future
            if isinstance(awaited, Future):
                if awaited._done:
                    # Continue inline: a resolved await costs no scheduler hop.
                    value, exc = awaited._value, awaited._exc
                    continue
                awaited._waiters.append(task)
                return
            raise EventLoopError(
                f"task {task.name!r} yielded {awaited!r}; tasks may only yield "
                f"Sleep, Future, or Task")

    # -- composition ---------------------------------------------------------

    def gather(self, futures: Iterable[Future | Task]) -> Future:
        """Resolve with a list of results in input order once *all* resolve.

        A child's exception is captured *as its slot value* rather than
        failing the gather — scatter-gather callers inspect per-peer results
        (``isinstance(x, Exception)``) and decide what is fatal.
        """
        waits = [f.future if isinstance(f, Task) else f for f in futures]
        out = Future(self)
        results: list = [None] * len(waits)
        remaining = len(waits)
        if remaining == 0:
            out.set_result([])
            return out

        def _arm(i: int, fut: Future) -> None:
            def _on_done(done: Future) -> None:
                nonlocal remaining
                results[i] = done._exc if done._exc is not None else done._value
                remaining -= 1
                if remaining == 0:
                    out.set_result(results)

            fut.add_done_callback(_on_done)

        for i, fut in enumerate(waits):
            _arm(i, fut)
        return out

    def race(self, futures: Iterable[Future | Task]) -> Future:
        """Resolve with ``(index, result_or_exception)`` of the first to settle.

        Losers keep running harmlessly (hedged lookups are idempotent); their
        results are dropped.
        """
        waits = [f.future if isinstance(f, Task) else f for f in futures]
        if not waits:
            raise EventLoopError("race() needs at least one future")
        out = Future(self)

        def _arm(i: int, fut: Future) -> None:
            def _on_done(done: Future) -> None:
                if not out._done:
                    out.set_result(
                        (i, done._exc if done._exc is not None else done._value))

            fut.add_done_callback(_on_done)

        for i, fut in enumerate(waits):
            _arm(i, fut)
        return out

    # -- driving -------------------------------------------------------------

    def _run_next(self) -> None:
        wake, _tie, _seq, target, future = heapq.heappop(self._heap)
        now = self._clock.now_ns
        if wake > now:
            self._clock.advance(wake - now)
        self.events_run += 1
        self._driving = True
        try:
            if type(target) is Task:
                self._step(target, future)
            elif future is None:
                target()
            else:
                target(future)
        finally:
            self._driving = False

    def _drive(self, deadline: float = _NO_LIMIT, awaited: Future = _UNRESOLVED,
               max_events: float = _NO_LIMIT) -> int:
        """Run events in heap order while the stop rule admits the next one:
        it wakes by *deadline*, *awaited* is still unresolved, and fewer than
        ``max_events + 1`` events have run. Returns the number run."""
        if self._driving:
            raise EventLoopError(
                "the event loop is already running an event: task code must "
                "yield to wait, not drive the loop from inside a handler")
        start = self.events_run
        self._deadline = deadline
        self._awaited = awaited
        self._event_cap = cap = start + max_events + 1
        heap = self._heap
        while (heap and heap[0][0] <= deadline and not awaited._done
               and self.events_run < cap):
            self._run_next()
        return self.events_run - start

    def run_until(self, deadline_ns: float) -> None:
        """Run every event due at or before *deadline_ns*, then advance to it.

        Events run inside handlers may advance the clock past their wake time;
        such past-due events still run (at the current instant) as long as
        their wake is within the deadline.
        """
        deadline = int(deadline_ns)
        self._drive(deadline=deadline)
        if self._clock.now_ns < deadline:
            self._clock.advance(deadline - self._clock.now_ns)

    def run_until_complete(self, awaitable: Future | Task):
        """Drive the loop until *awaitable* resolves; return (or raise) its result."""
        future = awaitable.future if isinstance(awaitable, Task) else awaitable
        self._drive(awaited=future)
        if not future._done:
            raise EventLoopError(
                "deadlock: awaited future can never resolve (heap is empty)")
        return future.result()

    def drain(self, max_events: int = 5_000_000) -> int:
        """Run until no events remain; returns the number of events run."""
        ran = self._drive(max_events=max_events)
        if ran > max_events:
            raise EventLoopError(
                f"drain exceeded {max_events} events; runaway task?")
        return ran


class TaskAttribution:
    """ns-exact latency attribution for one logical op run as a task tree.

    The sync runner attributes time through the global span stack, which
    assumes exactly one op is on the clock at a time. Under the event loop
    many ops advance the shared clock concurrently, so a stack cannot say
    whose wait a given advance was. Instead each op carries one of these:
    the op's ``yield from`` spine calls :meth:`settle` at its own resume
    points, and the elapsed lump since the previous settle is split between
    *hinted* waits recorded by children in the meantime (coalescing-buffer
    ``pipeline`` delay, ``retry`` backoff, ``hedge`` stagger — clamped so
    hints never overdraw the lump) and the caller's default component. The
    components therefore sum to the observed latency exactly, by
    construction rather than by measurement.
    """

    __slots__ = ("_clock", "_mark", "components", "_hints")

    HINTS = ("pipeline", "retry", "hedge")

    def __init__(self, clock: SimClock, issue_ns: int):
        self._clock = clock
        self._mark = int(issue_ns)
        self.components: dict[str, int] = {}
        self._hints: dict[str, int] = {}

    def charge(self, component: str, delta_ns: int) -> None:
        """Attribute *delta_ns* directly (used for pre-measured intervals)."""
        delta = int(delta_ns)
        if delta:
            self.components[component] = self.components.get(component, 0) + delta

    def hint(self, component: str, delta_ns: float) -> None:
        """Record that part of the lump in progress was spent on *component*."""
        delta = int(round(delta_ns))
        if delta > 0:
            self._hints[component] = self._hints.get(component, 0) + delta

    def settle(self, default: str) -> None:
        """Close the lump since the previous settle: hinted waits first (in
        fixed priority order), remainder to *default*."""
        now = self._clock.now_ns
        lump = max(0, now - self._mark)
        self._mark = now
        hints = self._hints
        if hints:
            for name in self.HINTS:
                take = min(hints.get(name, 0), lump)
                if take:
                    self.charge(name, take)
                    lump -= take
            hints.clear()
        if lump:
            self.charge(default, lump)

    def total_ns(self) -> int:
        return sum(self.components.values())
