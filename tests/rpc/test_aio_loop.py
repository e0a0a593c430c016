"""EventLoop scheduling semantics: seeded tie-breaking, sleeps, futures,
gather/race composition, and bit-identical re-runs."""

import pytest

from repro.common.clock import SimClock
from repro.common.rng import DeterministicRng
from repro.rpc.aio import EventLoop, EventLoopError, Future, Sleep, TaskAttribution


def make_loop(seed: int = 7) -> EventLoop:
    return EventLoop(SimClock(), DeterministicRng(seed))


def sleeper(log, name, delta_ns, loop):
    yield Sleep(delta_ns)
    log.append((name, loop.now_ns))
    return name


class TestScheduling:
    def test_sleep_orders_by_wake_time(self):
        loop = make_loop()
        log = []
        loop.spawn(sleeper(log, "late", 2_000, loop))
        loop.spawn(sleeper(log, "early", 1_000, loop))
        loop.drain()
        assert log == [("early", 1_000), ("late", 2_000)]

    def test_clock_advances_to_wake_times_only(self):
        loop = make_loop()
        loop.spawn(sleeper([], "a", 5_000, loop))
        loop.drain()
        assert loop.now_ns == 5_000

    def test_run_until_advances_to_deadline(self):
        loop = make_loop()
        log = []
        loop.spawn(sleeper(log, "a", 1_000, loop))
        loop.run_until(10_000)
        assert log == [("a", 1_000)]
        assert loop.now_ns == 10_000

    def test_run_until_leaves_future_events_pending(self):
        loop = make_loop()
        log = []
        loop.spawn(sleeper(log, "far", 50_000, loop))
        loop.run_until(10_000)
        assert log == []
        assert loop.pending() == 1
        loop.drain()
        assert log == [("far", 50_000)]

    def test_past_due_events_run_at_current_time(self):
        # A handler that advances the clock beyond another event's wake time
        # must not rewind time; the late event runs at "now".
        loop = make_loop()
        log = []

        def greedy():
            yield Sleep(100)
            loop.clock.advance(10_000)  # inline model cost overshoots

        loop.spawn(greedy())
        loop.spawn(sleeper(log, "b", 200, loop))
        loop.drain()
        assert log and log[0][1] >= 200

    def test_spawn_returns_task_with_result(self):
        loop = make_loop()

        def work():
            yield Sleep(10)
            return 42

        task = loop.spawn(work())
        assert loop.run_until_complete(task) == 42

    def test_task_exception_delivered_via_future(self):
        loop = make_loop()

        def boom():
            yield Sleep(1)
            raise ValueError("kaput")

        task = loop.spawn(boom())
        with pytest.raises(ValueError, match="kaput"):
            loop.run_until_complete(task)

    def test_deadlock_detected(self):
        loop = make_loop()
        fut = Future(loop)
        with pytest.raises(EventLoopError, match="deadlock"):
            loop.run_until_complete(fut)

    def test_yielding_garbage_is_an_error(self):
        loop = make_loop()

        def bad():
            yield "not awaitable"

        loop.spawn(bad())
        with pytest.raises(EventLoopError, match="may only yield"):
            loop.drain()


    @pytest.mark.parametrize("drive", [
        lambda loop: loop.drain(),
        lambda loop: loop.run_until(5_000),
        lambda loop: loop.run_until_complete(loop.completed(1)),
    ], ids=["drain", "run_until", "run_until_complete"])
    def test_driving_from_inside_a_handler_is_an_error(self, drive):
        # A driver's stop rule is its own: a second driver nested inside one
        # of the first one's handlers would run events the first must not.
        loop = make_loop()
        log = []

        def reentrant():
            yield Sleep(10)
            drive(loop)

        def timer():
            try:
                drive(loop)
            except EventLoopError as exc:
                log.append(str(exc))

        task = loop.spawn(reentrant())
        loop.spawn(sleeper(log, "bystander", 1_000, loop))
        loop.call_later(20, timer)
        with pytest.raises(EventLoopError, match="already running an event"):
            loop.run_until_complete(task)
        assert not loop.driving
        loop.drain()  # ... and the loop is still usable from the top level
        assert "already running an event" in log[0]
        assert log[1:] == [("bystander", 1_000)]

    def test_task_names_are_rendered_on_demand(self):
        loop = make_loop()

        def idle():
            yield Sleep(1)

        assert loop.spawn(idle()).name == "task-0"
        assert loop.spawn(idle(), name="probe").name == "probe"
        assert loop.spawn(idle(), name=("probe", "node1", 7)).name == "probe:node1:7"
        assert repr(loop.spawn(idle())) == "Task('task-3', running)"

        def bad():
            yield 5

        loop.spawn(bad(), name=("op", 9))
        with pytest.raises(EventLoopError, match="task 'op:9' yielded 5"):
            loop.drain()


class TestFutures:
    def test_await_future_resumes_with_value(self):
        loop = make_loop()
        fut = Future(loop)

        def waiter():
            value = yield fut
            return value * 2

        def resolver():
            yield Sleep(500)
            fut.set_result(21)

        task = loop.spawn(waiter())
        loop.spawn(resolver())
        assert loop.run_until_complete(task) == 42

    def test_await_resolved_future_continues_inline(self):
        loop = make_loop()

        def waiter():
            value = yield loop.completed(7)
            return value

        task = loop.spawn(waiter())
        assert loop.run_until_complete(task) == 7

    def test_future_exception_propagates_into_task(self):
        loop = make_loop()
        fut = Future(loop)

        def waiter():
            try:
                yield fut
            except RuntimeError:
                return "caught"
            return "missed"

        task = loop.spawn(waiter())
        fut.set_exception(RuntimeError("x"))
        assert loop.run_until_complete(task) == "caught"

    def test_double_resolve_rejected(self):
        loop = make_loop()
        fut = Future(loop)
        fut.set_result(1)
        with pytest.raises(EventLoopError):
            fut.set_result(2)

    def test_await_task_awaits_its_future(self):
        loop = make_loop()

        def child():
            yield Sleep(100)
            return "child-done"

        def parent():
            result = yield loop.spawn(child())
            return result

        task = loop.spawn(parent())
        assert loop.run_until_complete(task) == "child-done"


class TestComposition:
    def test_gather_preserves_input_order(self):
        loop = make_loop()
        tasks = [loop.spawn(sleeper([], f"t{i}", 1_000 - i * 100, loop))
                 for i in range(5)]
        results = loop.run_until_complete(loop.gather(tasks))
        assert results == ["t0", "t1", "t2", "t3", "t4"]

    def test_gather_captures_exceptions_as_values(self):
        loop = make_loop()

        def ok():
            yield Sleep(1)
            return "fine"

        def bad():
            yield Sleep(2)
            raise ValueError("nope")

        results = loop.run_until_complete(
            loop.gather([loop.spawn(ok()), loop.spawn(bad())]))
        assert results[0] == "fine"
        assert isinstance(results[1], ValueError)

    def test_gather_empty(self):
        loop = make_loop()
        assert loop.run_until_complete(loop.gather([])) == []

    def test_race_returns_first_winner(self):
        loop = make_loop()
        slow = loop.spawn(sleeper([], "slow", 10_000, loop))
        fast = loop.spawn(sleeper([], "fast", 1_000, loop))
        index, value = loop.run_until_complete(loop.race([slow, fast]))
        assert (index, value) == (1, "fast")
        loop.drain()  # the loser finishes harmlessly

    def test_race_needs_entries(self):
        loop = make_loop()
        with pytest.raises(EventLoopError):
            loop.race([])


class TestDeterminism:
    @staticmethod
    def _run(seed: int):
        loop = make_loop(seed)
        rng = DeterministicRng(seed).spawn("schedule")
        log = []

        def job(i):
            # Several tasks share wake instants on purpose: tie-breaks decide.
            for _ in range(3):
                yield Sleep(rng.integer(0, 5) * 100)
            log.append((i, loop.now_ns))

        for i in range(20):
            loop.spawn(job(i))
        loop.drain()
        return log, loop.now_ns

    def test_same_seed_same_interleaving(self):
        assert self._run(11) == self._run(11)

    def test_different_seed_different_interleaving(self):
        # Not guaranteed in principle, but with 20 tasks x 3 sleeps the
        # probability of a collision is negligible; a failure here means the
        # tie-rank stream is not actually seeded.
        assert self._run(11)[0] != self._run(12)[0]

    def test_tie_break_is_seeded_not_fifo(self):
        # Two events at the same instant: order must be reproducible.
        first = []
        for _ in range(2):
            loop = make_loop(3)
            log = []
            for name in ("a", "b", "c", "d"):
                loop.spawn(sleeper(log, name, 1_000, loop))
            loop.drain()
            first.append([name for name, _ in log])
        assert first[0] == first[1]


class TestTaskAttribution:
    def test_unhinted_lump_goes_to_the_default(self, clock):
        attr = TaskAttribution(clock, clock.now_ns)
        clock.advance(700)
        attr.settle("service")
        attr.settle("client")  # an empty lump charges nothing
        clock.advance(300)
        attr.settle("client")
        assert attr.components == {"service": 700, "client": 300}

    def test_hints_are_taken_first_in_fixed_order_and_never_overdraw(self, clock):
        attr = TaskAttribution(clock, clock.now_ns)
        attr.hint("hedge", 400)
        attr.hint("pipeline", 250)
        attr.hint("retry", 0.2)  # rounds to nothing
        clock.advance(500)
        attr.settle("service")
        assert attr.components == {"pipeline": 250, "hedge": 250}
        clock.advance(100)
        attr.settle("service")  # hints do not outlive the lump they described
        assert attr.components == {"pipeline": 250, "hedge": 250, "service": 100}
        assert attr.total_ns() == clock.now_ns
