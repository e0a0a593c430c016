"""The event loop against the heap-only reference, event for event.

``_reference_loop.py`` is the loop ``repro.rpc.aio`` was born with: every
event, a ``Sleep`` wake-up included, is pushed on the heap and popped again.
The production loop runs a wake-up in the frame that scheduled it whenever it
would have been the next event popped *and* the active driver's stop rule
admits it. That is an optimisation of the host, not of the model: random task
programs must produce the same ``(now_ns, tag)`` log, clock, event count,
backlog and tie-rank stream position on both loops, under every driver.
"""

from __future__ import annotations

import pytest

from repro.common.clock import SimClock
from repro.common.ids import ObjectID
from repro.common.rng import DeterministicRng
from repro.rpc.aio import loop as production
from repro.rpc.aio.loop import EventLoopError, Sleep

from . import _reference_loop as reference
from .test_aio_interleaving import _build_cluster

PROGRAMS = 120
#: Few distinct values, so equal wake times (and ``Sleep(0)``) are common.
DELAYS = (0, 0, 100, 100, 100, 200, 300, 1_000, 2_500)
N_FUTURES = 4
DRIVERS = (
    "drain",
    "drain_with_budget",
    "run_until",
    "run_until_complete_task",
    "run_until_complete_future",
)


class Boom(Exception):
    pass


# --------------------------------------------------------------------------- programs


def make_script(rng: DeterministicRng, depth: int = 0) -> list[tuple]:
    """A random task body: a list of steps :func:`run_script` interprets.

    Steps follow one another unconditionally, so a task carries on after
    whatever it just did — a resolver that keeps sleeping after it resolved
    the future a driver awaits included."""
    kinds = ["sleep"] * 6 + ["log", "advance", "await", "resolve", "resolve",
                             "timer", "completed"]
    if depth < 2:
        kinds += ["spawn", "join", "gather", "race"]
    if depth > 0:
        kinds += ["raise"]
    script: list[tuple] = []
    for _ in range(rng.integer(1, 7)):
        kind = rng.choice(kinds)
        if kind in ("sleep", "advance", "timer"):
            script.append((kind, rng.choice(list(DELAYS))))
        elif kind in ("await", "resolve"):
            script.append((kind, rng.integer(0, N_FUTURES), rng.integer(0, 4) == 0))
        elif kind in ("spawn", "join"):
            script.append((kind, make_script(rng, depth + 1)))
        elif kind in ("gather", "race"):
            script.append((kind, [make_script(rng, depth + 1)
                                  for _ in range(rng.integer(1, 4))]))
        else:
            script.append((kind,))
    return script


class World:
    """One loop (either implementation) and what a program observes on it."""

    def __init__(self, module, seed: int):
        self.loop = module.EventLoop(SimClock(), DeterministicRng(seed))
        self.futures = [module.Future(self.loop) for _ in range(N_FUTURES)]
        self.log: list[tuple[int, str]] = []
        self.sleeps = 0

    def note(self, tag: str) -> None:
        self.log.append((self.loop.now_ns, tag))

    def run_script(self, script: list[tuple], tag: str):
        loop = self.loop
        for index, step in enumerate(script):
            kind, here = step[0], f"{tag}/{index}"
            if kind == "sleep":
                self.sleeps += 1
                yield Sleep(step[1])
                self.note(f"{here}:woke")
            elif kind == "log":
                self.note(f"{here}:log")
            elif kind == "advance":
                loop.clock.advance(step[1])  # inline model cost: overshoots wakes
            elif kind == "timer":
                loop.call_later(step[1], lambda here=here: self.note(f"{here}:timer"))
            elif kind == "completed":
                value = yield loop.completed(here)
                self.note(f"{value}:completed")
            elif kind == "await":
                try:
                    value = yield self.futures[step[1]]
                    self.note(f"{here}:got:{value}")
                except Boom as exc:
                    self.note(f"{here}:caught:{exc}")
            elif kind == "resolve":
                future = self.futures[step[1]]
                if not future.done():
                    if step[2]:
                        future.set_exception(Boom(here))
                    else:
                        future.set_result(here)
            elif kind == "spawn":
                loop.spawn(self.run_script(step[1], f"{here}.s"))
            elif kind == "join":
                try:
                    value = yield loop.spawn(self.run_script(step[1], f"{here}.j"))
                    self.note(f"{here}:joined:{value}")
                except Boom as exc:
                    self.note(f"{here}:child-raised:{exc}")
            elif kind == "gather":
                tasks = [loop.spawn(self.run_script(child, f"{here}.g{i}"))
                         for i, child in enumerate(step[1])]
                results = yield loop.gather(tasks)
                self.note(f"{here}:gathered:{[str(r) for r in results]}")
            elif kind == "race":
                tasks = [loop.spawn(self.run_script(child, f"{here}.r{i}"))
                         for i, child in enumerate(step[1])]
                winner, value = yield loop.race(tasks)
                self.note(f"{here}:won:{winner}:{value}")
            elif kind == "raise":
                raise Boom(here)
            else:  # pragma: no cover
                raise AssertionError(kind)
        return tag

    def snapshot(self) -> tuple:
        return (list(self.log), self.loop.now_ns, self.loop.pending())


def attempt(fn, *args):
    """What a driver call did: its return value, the scheduler's error, or
    the exception the awaited future was resolved with."""
    try:
        return ("returned", fn(*args))
    except (EventLoopError, Boom) as exc:
        return ("raised", type(exc).__name__, str(exc))


def play(module, seed: int, driver: str) -> tuple[list, World]:
    """Build the seed's program on *module*'s loop, drive it, and return what
    was observable at every point a driver handed control back."""
    plan = DeterministicRng(seed).spawn("program")
    world = World(module, seed)
    loop = world.loop
    roots = []
    for r in range(plan.integer(2, 6)):
        script = [("sleep", plan.choice(list(DELAYS)))] + make_script(plan)
        roots.append(loop.spawn(world.run_script(script, f"root{r}"), name=("root", r)))
    seen: list = []

    def observe(outcome) -> None:
        seen.append((outcome, world.snapshot()))

    if driver == "drain_with_budget":
        observe(attempt(loop.drain, plan.integer(1, 40)))
    elif driver == "run_until":
        deadline = 0
        for _ in range(plan.integer(3, 12)):
            # On a wake time, between two, far ahead — and sometimes already
            # behind the clock, which must run nothing new and move nothing.
            deadline += plan.choice([0, 50, 100, 100, 150, 200, 1_000, -120])
            observe(attempt(loop.run_until, max(0, deadline)))
    elif driver == "run_until_complete_task":
        observe(attempt(loop.run_until_complete, roots[0]))
        observe(attempt(loop.run_until_complete, roots[-1]))
    elif driver == "run_until_complete_future":
        observe(attempt(loop.run_until_complete, world.futures[0]))
        observe(attempt(loop.run_until_complete, world.futures[1]))
    observe(attempt(loop.drain))
    # The stream position: both loops must have drawn the same number of ranks.
    seen.append(loop._rng.integer(0, 1 << 30))
    return seen, world


# --------------------------------------------------------------------------- the property


@pytest.mark.parametrize("driver", DRIVERS)
def test_random_programs_run_identically_on_both_loops(rng, driver):
    inline = through_heap = 0
    for case in range(PROGRAMS):
        seed = rng.spawn("loop-differential", driver, str(case)).seed
        want, _ = play(reference, seed, driver)
        got, world = play(production, seed, driver)
        assert got == want, (driver, case, seed)
        # Every Sleep is one event, run in place or through the heap.
        assert 0 <= world.loop.events_inline <= world.sleeps
        assert world.loop.events_run >= world.loop.events_inline
        inline += world.loop.events_inline
        through_heap += world.sleeps - world.loop.events_inline
    # The comparison means nothing unless both paths ran under this driver.
    assert inline > PROGRAMS and through_heap > PROGRAMS


def test_one_task_alone_never_meets_the_heap_after_its_start():
    loop = production.EventLoop(SimClock(), DeterministicRng(5))

    def solo():
        for _ in range(10):
            yield Sleep(100)

    loop.spawn(solo())
    assert loop.drain() == 11  # the start event + ten wake-ups
    assert (loop.events_run, loop.events_inline) == (11, 10)
    assert loop.now_ns == 1_000


def test_overlap_survives_the_inline_path():
    """``test_schedules_actually_overlap``'s assertion, with the loop's own
    counters beside it: eight lookups in lockstep keep each other's wake-ups
    on the heap, one lookup alone runs its own in place."""
    cluster = _build_cluster()
    loop = cluster.loop
    writer = cluster.client("node0", client_name="c0")
    oids = [ObjectID.from_int(2000 + i) for i in range(8)]
    for oid in oids:
        writer.put_bytes(oid, b"z" * 1024, replicas=1)

    def read(node: str, wanted: list) -> tuple[int, int]:
        reader = cluster.client(node, client_name=f"c-{node}")
        ran, inline = loop.events_run, loop.events_inline
        tasks = [loop.spawn(reader.multi_get_task([oid], allow_missing=True))
                 for oid in wanted]
        assert loop.drain() == loop.events_run - ran
        assert all(t.future.result() == [b"z" * 1024] for t in tasks)
        return loop.events_run - ran, loop.events_inline - inline

    ran, inline = read("node1", oids)
    peak = max(
        ch.aio_counters["in_flight_peak"]
        for node in cluster.node_names()
        for ch in cluster.node(node).channels.values()
    )
    assert peak >= 2
    assert inline < ran
    ran, inline = read("node2", oids[:1])
    assert 0 < inline < ran
