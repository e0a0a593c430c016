"""Reference event loop: the heap-only ``EventLoop``/``Future``/``Task`` that
``repro.rpc.aio.loop`` shipped until PR 18 — every event, a ``Sleep`` wake-up
included, is a closure pushed on the heap and popped again — kept test-only
and unchanged.

It defines the schedule by example: ``test_aio_loop_differential.py`` runs the
same task programs on this loop and on the production one and holds the
production loop to this one's logs, clock, event counts and tie-rank stream
position. Do not optimise it, and do not import it from ``src/``.
"""

from __future__ import annotations

import heapq
from typing import Callable, Generator, Iterable

from repro.common.clock import SimClock
from repro.common.rng import DeterministicRng
from repro.rpc.aio.loop import EventLoopError, Sleep


class Future:
    """A one-shot completion slot resolved by the loop or by another task.

    Waiter wake-ups are *scheduled* (at the current instant, with a fresh
    seeded tie rank), never run inline from ``set_result`` — resolution
    order therefore cannot leak the resolver's call stack into the
    interleaving.
    """

    __slots__ = ("_loop", "_done", "_value", "_exc", "_callbacks")

    def __init__(self, loop: "EventLoop"):
        self._loop = loop
        self._done = False
        self._value = None
        self._exc: BaseException | None = None
        self._callbacks: list[Callable[["Future"], None]] = []

    def done(self) -> bool:
        return self._done

    def result(self):
        if not self._done:
            raise EventLoopError("future is not resolved yet")
        if self._exc is not None:
            raise self._exc
        return self._value

    def exception(self) -> BaseException | None:
        if not self._done:
            raise EventLoopError("future is not resolved yet")
        return self._exc

    def set_result(self, value) -> None:
        self._settle(value, None)

    def set_exception(self, exc: BaseException) -> None:
        self._settle(None, exc)

    def add_done_callback(self, fn: Callable[["Future"], None]) -> None:
        if self._done:
            self._loop._schedule_now(lambda: fn(self))
        else:
            self._callbacks.append(fn)

    def _settle(self, value, exc: BaseException | None) -> None:
        if self._done:
            raise EventLoopError("future resolved twice")
        self._done = True
        self._value = value
        self._exc = exc
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self._loop._schedule_now(lambda fn=fn: fn(self))


class Task:
    """A spawned generator coroutine; ``future`` resolves with its return value."""

    __slots__ = ("name", "future", "_gen")

    def __init__(self, loop: "EventLoop", gen: Generator, name: str):
        self.name = name
        self.future = Future(loop)
        self._gen = gen

    def __repr__(self) -> str:
        state = "done" if self.future.done() else "running"
        return f"Task({self.name!r}, {state})"


class EventLoop:
    """The scheduler: a heap of ``(wake_ns, tie_rank, seq, callback)`` events."""

    __slots__ = ("_clock", "_rng", "_heap", "_seq", "_spawned", "_driving")

    def __init__(self, clock: SimClock, rng: DeterministicRng):
        self._clock = clock
        self._rng = rng.spawn("aio-loop")
        self._heap: list[tuple[int, int, int, Callable[[], None]]] = []
        self._seq = 0
        self._spawned = 0
        self._driving = False

    @property
    def driving(self) -> bool:
        """True while an event handler (i.e. task code) is on the stack.

        Synchronous facades check this to decide between *driving* the loop
        (top-level call: spawn the task form and run it to completion) and
        *executing inline* (already inside a task: blocking semantics are
        safe, re-entering ``run_until_complete`` is not).
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

    def call_at(self, wake_ns: float, fn: Callable[[], None]) -> None:
        """Run *fn* once the clock reaches *wake_ns* (clamped to now)."""
        wake = max(int(wake_ns), self._clock.now_ns)
        tie = self._rng.integer(0, 1 << 30)
        heapq.heappush(self._heap, (wake, tie, self._seq, fn))
        self._seq += 1

    def call_later(self, delta_ns: float, fn: Callable[[], None]) -> None:
        self.call_at(self._clock.now_ns + max(0, int(round(delta_ns))), fn)

    def _schedule_now(self, fn: Callable[[], None]) -> None:
        self.call_at(self._clock.now_ns, fn)

    def spawn(self, gen: Generator, name: str | None = None) -> Task:
        """Schedule generator coroutine *gen* to start at the current instant."""
        task = Task(self, gen, name or f"task-{self._spawned}")
        self._spawned += 1
        self._schedule_now(lambda: self._step(task, None, None))
        return task

    # -- task stepping -------------------------------------------------------

    def _step(self, task: Task, value, exc: BaseException | None) -> None:
        gen = task._gen
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
                self.call_later(max(0.0, awaited.delta_ns),
                                lambda: self._step(task, None, None))
                return
            if isinstance(awaited, Task):
                awaited = awaited.future
            if isinstance(awaited, Future):
                if awaited._done:
                    # Continue inline: a resolved await costs no scheduler hop.
                    value, exc = awaited._value, awaited._exc
                    continue
                awaited._callbacks.append(
                    lambda fut, task=task: self._step(task, fut._value, fut._exc))
                return
            raise EventLoopError(
                f"task {task.name!r} yielded {awaited!r}; tasks may only yield "
                f"Sleep, Future, or Task")

    # -- composition ---------------------------------------------------------

    def completed(self, value=None) -> Future:
        """An already-resolved future (awaiting it continues inline)."""
        fut = Future(self)
        fut._done = True
        fut._value = value
        return fut

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
        wake, _tie, _seq, fn = heapq.heappop(self._heap)
        if wake > self._clock.now_ns:
            self._clock.advance(wake - self._clock.now_ns)
        prev, self._driving = self._driving, True
        try:
            fn()
        finally:
            self._driving = prev

    def run_until(self, deadline_ns: float) -> None:
        """Run every event due at or before *deadline_ns*, then advance to it.

        Events run inside handlers may advance the clock past their wake time;
        such past-due events still run (at the current instant) as long as
        their wake is within the deadline.
        """
        deadline = int(deadline_ns)
        while self._heap and self._heap[0][0] <= deadline:
            self._run_next()
        if self._clock.now_ns < deadline:
            self._clock.advance(deadline - self._clock.now_ns)

    def run_until_complete(self, awaitable: Future | Task):
        """Drive the loop until *awaitable* resolves; return (or raise) its result."""
        future = awaitable.future if isinstance(awaitable, Task) else awaitable
        while not future._done:
            if not self._heap:
                raise EventLoopError(
                    "deadlock: awaited future can never resolve (heap is empty)")
            self._run_next()
        return future.result()

    def drain(self, max_events: int = 5_000_000) -> int:
        """Run until no events remain; returns the number of events run."""
        ran = 0
        while self._heap:
            self._run_next()
            ran += 1
            if ran > max_events:
                raise EventLoopError(
                    f"drain exceeded {max_events} events; runaway task?")
        return ran
