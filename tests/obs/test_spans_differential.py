"""The span sink against its reference, observation for observation.

``_reference_spans.py`` is the sink ``repro.obs.spans`` shipped until PR 19:
two objects per span, ids formatted at open, the open stack walked on every
clock advance, root durations in a sorted list. The production sink keeps
one object per span, integer ids until somebody reads them, the component
fixed at open and the tail threshold in two heaps. That is an optimisation
of the host, not of the plane: scripted and seeded span programs — and one
whole traced scenario — must produce the same snapshot, Chrome trace,
flight dump, sampling stats, per-root attribution and sampling-stream
position on both.
"""

from __future__ import annotations

import json
from bisect import insort
from pathlib import Path

import pytest

from repro.common.clock import SimClock
from repro.common.rng import DeterministicRng
from repro.obs import spans as production
from repro.obs.spans import SpanConfig

from . import _reference_spans as reference

SCENARIOS = Path(__file__).resolve().parents[2] / "benchmarks" / "scenarios"

#: Categories that pin a component, and ones that inherit.
MAPPED = ("rpc", "rpc.server", "queue", "fabric", "cache", "client")
UNMAPPED = ("op", "store", "migrate")
NODES = ("workload", "node0", "node1", "node0->node1", "")
OVERRIDES = ("retry", "hedge", "pipeline")
#: Few distinct values, so equal root durations (tail-threshold ties) and
#: zero-length spans are common.
ADVANCES = (0, 1, 1, 100, 100, 250, 1_000, 40_000)

CONFIGS = [
    pytest.param({}, id="defaults"),
    pytest.param({"sample_rate": 0.0}, id="head0"),
    pytest.param({"sample_rate": 0.05}, id="head5pct"),
    pytest.param({"sample_rate": 0.05, "tail_percentile": 0.0}, id="tail0"),
    pytest.param({"sample_rate": 0.05, "tail_percentile": 1.0}, id="tail1"),
    pytest.param({"sample_rate": 0.0, "tail_percentile": 0.5}, id="tail50"),
    pytest.param({"sample_rate": 0.5, "max_traces": 3}, id="overflow"),
    pytest.param({"sample_rate": 0.05, "flight_capacity": 4}, id="ring4"),
]


class Boom(Exception):
    pass


class World:
    """One sink (either implementation) and what a program observes on it."""

    def __init__(self, module, seed: int = 7, **config):
        self.clock = SimClock()
        self.rng = DeterministicRng(seed).spawn("obs", "spans")
        self.sink = module.SpanSink(self.clock, self.rng, SpanConfig(**config))
        self.roots: list = []
        #: ``current_span_id`` after every step.
        self.current: list = []

    def run(self, steps: list[tuple]) -> None:
        sink = self.sink
        for step in steps:
            kind = step[0]
            if kind == "span":
                _, category, name, node, args, body = step
                raised = False
                try:
                    with sink.span(category, name, node=node, **args) as sp:
                        if sp.is_root:
                            self.roots.append(sp)
                        self.current.append(sink.current_span_id)
                        self.run(body)
                except Boom:
                    # Re-raised until the root has closed on it: the
                    # exception marks every level it unwinds through.
                    raised = True
                if raised and sink.current_span_id is not None:
                    raise Boom()
            elif kind == "advance":
                self.clock.advance(step[1])
            elif kind == "component":
                try:
                    with sink.component(step[1]):
                        self.run(step[2])
                except Boom:
                    if sink.current_span_id is not None:
                        raise
            elif kind == "annotated-span":
                _, category, name, node, args, late, body = step
                with sink.span(category, name, node=node, **args) as sp:
                    if sp.is_root:
                        self.roots.append(sp)
                    self.run(body)
                    sp.annotate(**late)
            elif kind == "raise":
                raise Boom()
            elif kind == "fold":
                self.roots[-1].add_component(step[1], step[2])
            elif kind == "disabled":
                sink.enabled = False
                try:
                    self.run(step[1])
                except Boom:
                    pass
                finally:
                    sink.enabled = True
            else:  # pragma: no cover - a typo in a program
                raise AssertionError(kind)
            self.current.append(sink.current_span_id)

    def observed(self) -> dict:
        sink = self.sink
        return {
            "now_ns": self.clock.now_ns,
            "snapshot": sink.snapshot(),
            "chrome": sink.to_chrome_trace(),
            "flight": sink.flight_dump(),
            "sampling": sink.sampling_stats(),
            "traces": [
                {**trace, "spans": [s.to_dict() for s in trace["spans"]]}
                for trace in sink.traces()
            ],
            "roots": [
                (r.trace_id, r.span_id, r.parent_id, r.is_root, r.start_ns,
                 r.duration_ns, r.status, r.components, r.kept, r.head_kept)
                for r in self.roots
            ],
            "current": self.current,
            "next_draw": self.rng.uniform(0.0, 1.0),
        }


def first_difference(ref, new, path: str = "") -> str | None:
    """Where two observations part, as a short path — a failing run must
    not leave pytest diffing two multi-megabyte structures."""
    if type(ref) is not type(new):
        return f"{path}: {type(ref).__name__} vs {type(new).__name__}"
    if isinstance(ref, dict):
        if list(ref) != list(new):
            return f"{path}: keys {list(ref)!r:.200} vs {list(new)!r:.200}"
        pairs = ((f"{path}.{key}", ref[key], new[key]) for key in ref)
    elif isinstance(ref, (list, tuple)):
        if len(ref) != len(new):
            return f"{path}: length {len(ref)} vs {len(new)}"
        pairs = ((f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(ref, new)))
    else:
        return None if ref == new else f"{path}: {ref!r:.200} vs {new!r:.200}"
    for where, a, b in pairs:
        found = first_difference(a, b, where)
        if found is not None:
            return found
    return None


def assert_same(steps: list[tuple], seed: int = 7, **config) -> dict:
    """Run *steps* on both sinks; every observation — key order included,
    the exports are written as ordered JSON — must agree."""
    worlds = [World(module, seed, **config) for module in (reference, production)]
    for world in worlds:
        world.run(steps)
    ref, new = (world.observed() for world in worlds)
    difference = first_difference(ref, new)
    if difference is not None:
        pytest.fail(f"production sink differs from the reference at {difference}")
    return new


def remote_get(rid=None, ns: int = 1_000) -> tuple:
    """The shape of one traced remote Get."""
    args = {} if rid is None else {"rid": rid}
    return (
        "span", "op", "read", "workload", {"tenant": "t0", "slot": 3}, [
            ("span", "client", "get", "wl-node0", {"n": 1, **args}, [
                ("advance", 40),
                ("span", "store", "get_buffers", "node0", dict(args), [
                    ("span", "rpc", "StoreService.Lookup", "node0->node1",
                     dict(args), [
                         ("span", "queue", "wait", "node1", {"queue_len": 2},
                          [("advance", 300)]),
                         ("span", "rpc.server", "StoreService.Lookup", "node1",
                          dict(args), [("advance", ns)]),
                         ("advance", 90),
                     ]),
                ]),
            ]),
            ("span", "fabric", "read", "node0<->node1", {"bytes": 4096, **args},
             [("advance", 500)]),
            ("advance", 25),
        ],
    )


# --------------------------------------------------------------------------- scripted


class TestScripted:
    def test_nested_mapped_and_unmapped_categories(self):
        seen = assert_same([remote_get()])
        [root] = seen["roots"]
        assert root[7] == {
            "cache": 0, "client": 65, "fabric": 500, "hedge": 0, "queue": 300,
            "retry": 0, "service": 1_090,
        }

    def test_unmapped_child_inherits_the_mapped_ancestor(self):
        # store under rpc under op: the store span's time is service time,
        # its migrate child's too, and the root's own tail is client.
        assert_same([
            ("span", "op", "o", "n", {}, [
                ("span", "rpc", "S.M", "n", {}, [
                    ("span", "store", "inner", "n", {}, [
                        ("advance", 7),
                        ("span", "migrate", "m", "n", {}, [("advance", 11)]),
                    ]),
                ]),
                ("advance", 3),
            ]),
        ])

    def test_retry_and_hedge_overrides_inside_rpc_spans(self):
        seen = assert_same([
            ("span", "op", "read", "workload", {}, [
                ("span", "rpc", "S.Lookup", "a->b", {}, [
                    ("advance", 100),
                    ("component", "retry", [
                        ("advance", 40),
                        ("span", "rpc.server", "S.Lookup", "b", {},
                         [("advance", 5)]),
                    ]),
                    ("component", "hedge", [
                        ("span", "rpc", "S.Lookup", "a->c", {}, [
                            ("advance", 60),
                            ("component", "retry", [("advance", 9)]),
                            ("advance", 1),
                        ]),
                    ]),
                ]),
                ("component", "pipeline", [("advance", 2)]),
            ]),
            # An override with no span open charges nobody.
            ("component", "retry", [("advance", 1_000)]),
        ])
        [root] = seen["roots"]
        assert root[7]["retry"] == 54 and root[7]["hedge"] == 61
        assert root[7]["pipeline"] == 2

    def test_exception_closes_three_levels(self):
        seen = assert_same([
            ("span", "op", "read", "workload", {}, [
                ("span", "client", "get", "c", {}, [
                    ("span", "rpc", "S.M", "a->b", {}, [
                        ("advance", 10),
                        ("raise",),
                    ]),
                ]),
            ]),
            remote_get(),
        ], sample_rate=0.0)
        assert seen["roots"][0][6] == "error:Boom"
        assert seen["roots"][0][8] and not seen["roots"][0][9]  # tail-kept

    def test_annotate_after_open_and_add_component_after_close(self):
        assert_same([
            ("annotated-span", "migrate", "migrate", "node0",
             {"dest": "node1", "reason": "promote"},
             {"status": "moved", "bytes": 4096},
             [("span", "fabric", "write", "l", {"bytes": 4096},
               [("advance", 77)])]),
            ("fold", "queue", 990),
            ("fold", "pipeline", 5),
        ])

    def test_rid_named_and_auto_named_roots(self):
        seen = assert_same([
            remote_get(),
            ("span", "client", "put", "wl-node0",
             {"rid": "req-000017", "replicas": 1}, [("advance", 10)]),
            remote_get(rid="req-000018"),
            ("span", "fabric", "read", "l", {"rid": 42}, [("advance", 1)]),
            remote_get(),
        ])
        assert [r[0] for r in seen["roots"]] == [
            "t000001", "req-000017", "t000003", "42", "t000005",
        ]

    def test_disabled_sink_during_preload(self):
        seen = assert_same([
            ("disabled", [remote_get(), ("component", "retry", [("advance", 5)])]),
            remote_get(),
        ])
        assert seen["sampling"]["roots"] == 1
        assert seen["roots"][0][1] == "s00000001"

    @pytest.mark.parametrize("config", CONFIGS)
    def test_retention_knobs(self, config):
        # Descending, ascending and tied durations, errors in between.
        steps = []
        for i in range(40):
            ns = (1_000 * (40 - i), 50 * i, 700)[i % 3]
            steps.append(remote_get(ns=ns))
            if i % 11 == 5:
                steps.append(("span", "op", "bad", "workload", {},
                              [("advance", 1), ("raise",)]))
        seen = assert_same(steps, **config)
        stats = seen["sampling"]
        assert stats["roots"] == 44
        assert (
            stats["kept_head"] + stats["kept_tail"] + stats["discarded"] == 44
        )

    def test_four_entry_flight_ring_wraps(self):
        seen = assert_same([remote_get(), remote_get()], flight_capacity=4)
        node1 = seen["flight"]["nodes"]["node1"]
        assert node1["capacity"] == 4 and node1["dropped"] == 0
        workload = seen["flight"]["nodes"]["workload"]
        assert len(workload["spans"]) == 2 and workload["dropped"] == 0
        seen = assert_same([remote_get()] * 5, flight_capacity=4)
        assert seen["flight"]["nodes"]["node1"]["dropped"] == 6
        assert len(seen["flight"]["nodes"]["node1"]["spans"]) == 4

    def test_record_equals_one_built_from_explicit_values(self):
        """A sink-made record (integer ids inside) and a ``SpanRecord``
        built by hand from the rendered strings are the same value."""
        world = World(production)
        world.run([remote_get(rid="req-000009")])
        [trace] = world.sink.traces()
        for span in trace["spans"]:
            fields = span.to_dict()
            assert list(fields) == [
                "trace_id", "span_id", "parent_id", "category", "name",
                "node", "start_ns", "duration_ns", "status", "args",
            ]
            rebuilt = production.SpanRecord(**fields)
            assert rebuilt == span and rebuilt.to_dict() == fields
            assert repr(rebuilt) == repr(span)
        root = trace["spans"][-1]
        assert (root.trace_id, root.span_id, root.parent_id) == (
            "t000001", "s00000001", None,
        )
        assert trace["spans"][0].parent_id == "s00000004"
        assert root != production.SpanRecord(
            **{**root.to_dict(), "span_id": "s00000002"}
        )

    def test_max_traces_overflow(self):
        seen = assert_same([remote_get()] * 5, max_traces=2)
        assert seen["sampling"]["traces_overflowed"] == 3
        assert len(seen["traces"]) == 2


# --------------------------------------------------------------------------- seeded


def make_program(rng: DeterministicRng, depth: int = 0) -> list[tuple]:
    """A random span program: a list of steps :meth:`World.run` interprets."""
    kinds = ["advance"] * 4 + ["span"] * 4 + ["annotated-span", "component"]
    if depth == 0:
        kinds = ["span"] * 6 + ["advance", "fold", "disabled", "component"]
    elif depth < 4:
        kinds += ["raise"] if rng.integer(0, 12) == 0 else []
    steps: list[tuple] = []
    for _ in range(rng.integer(1, 5)):
        kind = rng.choice(kinds)
        if depth >= 4 and kind != "raise":
            kind = "advance"
        if kind == "advance":
            steps.append((kind, rng.choice(list(ADVANCES))))
        elif kind in ("span", "annotated-span"):
            category = rng.choice(list(MAPPED + UNMAPPED))
            args = {}
            if rng.integer(0, 3) == 0:
                args["rid"] = f"req-{rng.integer(1, 50):06d}"
            if rng.integer(0, 2) == 0:
                args["bytes"] = rng.integer(0, 1 << 20)
            head = (kind, category, f"{category}-{rng.integer(0, 3)}",
                    rng.choice(list(NODES)), args)
            body = make_program(rng, depth + 1)
            if kind == "span":
                steps.append((*head, body))
            else:
                steps.append((*head, {"status": "moved"}, body))
        elif kind == "component":
            steps.append((kind, rng.choice(list(OVERRIDES)),
                          make_program(rng, depth + 1)))
        elif kind == "fold":
            steps.append((kind, rng.choice(["queue", "pipeline"]),
                          rng.choice(list(ADVANCES))))
        elif kind == "disabled":
            steps.append((kind, make_program(rng, depth + 1)))
        else:
            steps.append((kind,))
    return steps


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("seed", range(6))
def test_seeded_programs(seed, config):
    rng = DeterministicRng(1000 + seed).spawn("span-programs")
    steps: list[tuple] = [remote_get()]  # a root for the first fold to land on
    for _ in range(60):
        steps.extend(make_program(rng))
    seen = assert_same(steps, seed=seed, **config)
    assert seen["sampling"]["roots"] > 30


@pytest.mark.parametrize("pct", [0.25, 0.5, 0.9, 0.99, 0.999, 1.0])
def test_tail_threshold_is_the_exact_order_statistic(pct):
    """The two heaps answer what ``insort`` answered, on every one of
    32 000 draws (ties included: the durations repeat)."""
    rng = DeterministicRng(2022).spawn("tail")
    sink = production.SpanSink(
        SimClock(), None, SpanConfig(tail_percentile=pct)
    )
    durations: list[int] = []
    for _ in range(32_000):
        value = rng.integer(0, 4_000) * rng.integer(1, 60)
        insort(durations, value)
        expected = value >= durations[int(pct * (len(durations) - 1))]
        sink.roots_total += 1  # what closing a root does first
        assert sink._tail_slow(value) is expected


# --------------------------------------------------------------------------- whole run


class _ReferenceSink(reference.SpanSink):
    """The reference sink behind today's call sites, which hand ``span``
    a ready args dict instead of keyword arguments."""

    def span(self, category, name, node="", args=None, **more):
        return super().span(category, name, node, **(args or {}), **more)


def _run_traced(monkeypatch, sink_class):
    from repro.workload import ScenarioRunner, load_scenario
    from repro.workload.report import build_workload_payload, dumps_bench

    monkeypatch.setattr("repro.core.cluster.SpanSink", sink_class)
    scenario = load_scenario(SCENARIOS / "zipfian-read-heavy.json")
    assert scenario.tracing is not None and scenario.tracing.enabled
    result = ScenarioRunner(scenario).run()
    assert type(result.spans) is sink_class
    sink = result.spans
    return {
        "bench": dumps_bench(build_workload_payload(result)),
        "chrome": json.dumps(sink.to_chrome_trace(), sort_keys=True),
        "snapshot": json.dumps(sink.snapshot(), sort_keys=True),
        "flight": json.dumps(sink.flight_dump(), sort_keys=True),
        "sampling": sink.sampling_stats(),
        "next_draw": sink._rng.uniform(0.0, 1.0),
    }


def test_whole_traced_scenario_through_both_sinks(monkeypatch):
    ref = _run_traced(monkeypatch, _ReferenceSink)
    new = _run_traced(monkeypatch, production.SpanSink)
    difference = first_difference(ref, new)
    if difference is not None:
        pytest.fail(f"production sink differs from the reference at {difference}")
    golden = (
        SCENARIOS.parent / "golden" / "BENCH_workload_zipfian-read-heavy.json"
    )
    assert new["bench"] == golden.read_text(encoding="utf-8")
