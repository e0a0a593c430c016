"""Differential suite: the field-driven scenario reader against the reference.

``_reference_scenario.py`` is the schema as it shipped with one
hand-written reader per spec class. Every committed scenario, every point
of the overload knee sweep, seeded single mutations of all of them, and a
probe of every numeric field at the values around each declared bound go
through both readers. They must accept and reject the same inputs with the
same ``ScenarioError`` message, and what both accept must parse to equal
fields (type included), build the same cluster config and generate the
same op stream.

The expected differences, each asserted exactly:

* the reference's deleted knobs — ``cluster.link`` and five ``tiering``
  fields — are unknown fields to the new reader (the reference accepts
  them), and they drop out of the ``allowed`` list of those two blocks;
* an unknown key in ``population.size`` lists the fields of the chosen
  ``dist``, as ``popularity`` and ``arrival`` always did; the reference
  listed all five size fields whatever the ``dist``.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import hashlib
import importlib.util
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.workload import scenario as new
from repro.workload.runner import _config_for
from repro.workload.traffic import generate_stream

from tests.workload import _reference_scenario as ref
from tests.workload.conftest import declared_keys

ROOT = Path(__file__).resolve().parents[2]

FILES = sorted((ROOT / "benchmarks" / "scenarios").glob("*.json")) + sorted(
    (ROOT / "benchmarks" / "perf" / "workloads").glob("*.json")
)


def _knee_inputs() -> dict[str, dict]:
    """Every point of the overload knee sweep, as its scenario file."""
    path = ROOT / "benchmarks" / "test_overload_degradation.py"
    spec = importlib.util.spec_from_file_location("_knee_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {
        f"knee-{'on' if on else 'off'}-{rate}": module.scenario_obj(rate, on)
        for rate in module.RATES
        for on in (True, False)
    }


_QUOTA = {"max_stored_bytes": 1 << 20, "ops_per_s": 100, "burst_ops": 4,
          "write_bytes_per_s": 65536, "burst_bytes": 65536}
_OVERLOAD = {
    "service_rate_ops_per_s": 500, "queue_depth": 8,
    "queue_discipline": "lifo", "shed_expired": True, "op_deadline_ms": 50,
    "retry_budget_per_s": 20, "retry_budget_burst": 5,
    "hedge_quantile": 0.9, "hedge_min_samples": 10,
    "burst_backlog_ms": 5, "burst_period_s": 0.01, "burst_node": 1,
}

#: Small inputs that between them set every key the schema has, so the
#: bound probes below reach every numeric field.
FULL = {
    "full-fixed-zipfian-open": {
        "schema_version": 1, "name": "full-a", "description": "all of it",
        "seed": 5,
        "cluster": {"nodes": 3, "capacity_mib": 16, "replicas": 2,
                    "placement": True},
        "population": {"objects": 16, "size": {"dist": "fixed", "bytes": 2048}},
        "traffic": {
            "ops": 24, "mix": {"read": 6, "write": 2, "delete": 1, "scan": 1},
            "scan_length": 3,
            "popularity": {"model": "zipfian", "s": 1.2},
            "arrival": {"mode": "open", "base_rate_ops_per_s": 800,
                        "diurnal_amplitude": 0.5, "diurnal_period_s": 0.25},
        },
        "tenants": [{"name": "a", "weight": 2, "quota": _QUOTA}, {"name": "b"}],
        "overload": _OVERLOAD,
        "tracing": {"enabled": True, "sample_rate": 0.5,
                    "tail_percentile": 0.9},
        "tiering": {"cache_capacity_mib": 2, "heat_half_life_ms": 100.0,
                    "promote_min_heat": 2.0, "bytes_per_tick_mib": 1,
                    "tick_every_ops": 8},
        "rpc": {"mode": "async", "batch_window_ns": 1000.0, "max_batch": 4,
                "hedge_stagger_ns": 500.0},
    },
    "full-uniform-hotspot-closed": {
        "name": "full-b",
        "cluster": {"node_profiles": [{"count": 2, "weight": 2.0},
                                      {"count": 1}],
                    "capacity_mib": 8},
        "population": {"objects": 12,
                       "size": {"dist": "uniform", "min_bytes": 512,
                                "max_bytes": 4096}},
        "traffic": {
            "ops": 20, "scan_length": 2,
            "popularity": {"model": "hotspot", "hot_fraction": 0.2,
                           "hot_weight": 0.8},
            "arrival": {"mode": "closed", "clients": 3, "think_time_us": 50},
        },
        "rpc": {"mode": "sync"},
    },
    "full-choice-uniform": {
        "name": "full-c",
        "population": {"objects": 10,
                       "size": {"dist": "choice", "choices": [1024, 4096]}},
        "traffic": {"ops": 16, "popularity": {"model": "uniform"}},
    },
}

BASES = {
    **{path.name: json.loads(path.read_text(encoding="utf-8")) for path in FILES},
    **_knee_inputs(),
    **FULL,
}

# --------------------------------------------------------------------------- expected differences

DELETED = {
    "cluster": ("link",),
    "tiering": ("sketch_width", "sketch_depth", "heat_sample_rate",
                "demote_watermark", "demote_target"),
}
#: Deleted later. The seeded mutations draw only from DELETED (another
#: block would reshuffle every seeded stream), so a test sets this one.
DELETED_LATER = {"tracing": ("flight_capacity",)}
DELETED_VALUES = {
    "link": [{"fabric_bandwidth_factor": 2.0}, {"rpc_round_trip_factor": 1.0},
             {"fabric_latency_factor": 0.5, "rpc_round_trip_factor": 0.5}],
    "sketch_width": [512, 1024], "sketch_depth": [2, 4],
    "heat_sample_rate": [1.0, 0.5], "demote_watermark": [0.85, 0.9],
    "demote_target": [0.7, 0.5],
}
SIZE_FIELDS = {"fixed": ["bytes"], "uniform": ["min_bytes", "max_bytes"],
               "choice": ["choices"]}
RENAMED = {"node_profiles": "profiles"}

_UNKNOWN = re.compile(
    r"^(?P<path>\S+): unknown field\(s\) (?P<unknown>\[.*?\]); "
    r"allowed: (?P<allowed>\[.*\])$"
)


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _expected(message: str | None, obj: dict) -> str | None:
    """The new reader's message for an input the reference rejected."""
    match = message and _UNKNOWN.match(message)
    if not match:
        return message
    path = match["path"]
    block = path.rsplit(".", 1)[-1]
    allowed = [
        k for k in ast.literal_eval(match["allowed"])
        if k not in {**DELETED, **DELETED_LATER}.get(block, ())
    ]
    if path == "scenario.population.size":
        dist = _at(obj, ("population", "size")).get("dist", "fixed")
        allowed = ["dist", *SIZE_FIELDS[dist]]
    return f"{path}: unknown field(s) {match['unknown']}; allowed: {sorted(allowed)}"


def _deleted_knob(obj: dict) -> tuple[str, str] | None:
    for block, names in {**DELETED, **DELETED_LATER}.items():
        present = [n for n in names if isinstance(obj.get(block), dict)
                   and n in obj[block]]
        if present:
            return block, present[0]
    return None


def _reference_config(s, seed: int):
    """What the reference schema's runner built: the cluster config plus
    the ``cluster.link`` factors. The five ``tiering`` knobs and
    ``tracing.flight_capacity`` reach an accepted input only at their
    defaults (set, they are deleted knobs), which are now constants of
    the tier and span planes."""
    config = _config_for(s, seed)
    link = s.cluster.link
    fabric = replace(
        config.fabric,
        read_bandwidth_bps=config.fabric.read_bandwidth_bps
        * link.fabric_bandwidth_factor,
        write_bandwidth_bps=config.fabric.write_bandwidth_bps
        * link.fabric_bandwidth_factor,
        added_latency_ns=config.fabric.added_latency_ns
        * link.fabric_latency_factor,
        streaming_overhead_ns=config.fabric.streaming_overhead_ns
        * link.fabric_latency_factor,
    )
    rpc = replace(config.rpc,
                  round_trip_ns=config.rpc.round_trip_ns * link.rpc_round_trip_factor)
    return replace(config, fabric=fabric, rpc=rpc)


# --------------------------------------------------------------------------- comparison

_STREAMS: dict[tuple, str] = {}


def _stream_digest(s) -> str:
    """sha256 of ``generate_stream(s, s.seed)``, memoised on everything the
    generator reads (many mutations leave the traffic untouched)."""
    key = (type(s).__module__, repr((s.seed, s.traffic, s.population,
                                     [(t.name, t.weight) for t in s.tenants])))
    if key not in _STREAMS:
        ops = generate_stream(s, s.seed)
        _STREAMS[key] = hashlib.sha256(repr(ops).encode()).hexdigest()
    return _STREAMS[key]


def _parse(module, obj):
    try:
        return module.Scenario.from_obj(copy.deepcopy(obj)), None
    except module.ScenarioError as exc:
        return None, str(exc)


def _assert_same_fields(got, want, path: str = "scenario") -> None:
    if dataclasses.is_dataclass(got):
        for f in dataclasses.fields(got):
            _assert_same_fields(getattr(got, f.name),
                                getattr(want, RENAMED.get(f.name, f.name)),
                                f"{path}.{f.name}")
    elif isinstance(got, tuple) and got and dataclasses.is_dataclass(got[0]):
        assert len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_same_fields(a, b, f"{path}[{i}]")
    else:
        assert repr(got) == repr(want), path  # repr: 1 and 1.0 differ


def check_agree(obj: dict) -> str:
    """Hold the new reader to the reference on *obj*; returns the outcome
    (``accepted``, ``rejected`` or ``deleted-knob``)."""
    got, got_err = _parse(new, obj)
    want, want_err = _parse(ref, obj)
    knob = _deleted_knob(obj)
    if knob is not None:
        block, name = knob
        assert want_err is None, want_err
        assert got_err is not None and got_err.startswith(
            f"scenario.{block}: unknown field(s) [{name!r}]; allowed: "
        ), got_err
        return "deleted-knob"
    assert got_err == _expected(want_err, obj)
    if got_err is not None:
        return "rejected"
    _assert_same_fields(got, want)
    assert repr(_config_for(got, got.seed)) == repr(_reference_config(want, want.seed))
    assert _stream_digest(got) == _stream_digest(want)
    return "accepted"


# --------------------------------------------------------------------------- mutations

MUTATIONS_PER_INPUT = 32
KINDS = ("drop", "wrong_type", "out_of_range", "unknown_key", "switch_tag",
         "bool_for_number", "deleted_knob")
TAG_VALUES = {
    "dist": ("fixed", "uniform", "choice"),
    "model": ("uniform", "zipfian", "hotspot"),
    "mode": ("open", "closed", "sync", "async"),
    "queue_discipline": ("fifo", "lifo"),
}
#: Values around every bound the schema declares (0, 0.001, 0.01, 1e-6,
#: 0.99, 0.999, 1, 2 ...) and the integer steps next to them.
PROBES = (-1, -0.5, 0, 0.0, 1e-7, 1e-6, 0.0005, 0.001, 0.005, 0.01, 0.5,
          0.98, 0.99, 0.995, 0.999, 0.9995, 1, 1.0005, 1.5, 2, 2.0, 3, 4, 64)


def _walk(obj, path=()):
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _walk(value, (*path, key))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def mutate(base: dict, rng) -> tuple[str, dict]:
    """One seeded single mutation of *base*: ``(kind, mutated copy)``."""
    obj = copy.deepcopy(base)
    nodes = list(_walk(obj))
    keyed = [p for p, _ in nodes if p and isinstance(p[-1], str)]
    numbers = [p for p, v in nodes if p and _is_number(v)]
    tags = [p for p in keyed if p[-1] in TAG_VALUES and isinstance(_at(obj, p), str)]
    kind = rng.choice(KINDS)
    if kind in ("out_of_range", "bool_for_number") and not numbers:
        kind = "drop"
    if kind == "switch_tag" and not tags:
        kind = "drop"
    if kind == "drop":
        path = rng.choice(keyed)
        del _at(obj, path[:-1])[path[-1]]
    elif kind == "wrong_type":
        path = rng.choice([p for p, _ in nodes if p])
        current = _at(obj, path)
        _at(obj, path[:-1])[path[-1]] = rng.choice(
            [v for v in ("x", 7, 2.5, [], {}, None, [1]) if type(v) is not type(current)]
        )
    elif kind == "out_of_range":
        path = rng.choice(numbers)
        _at(obj, path[:-1])[path[-1]] = rng.choice(PROBES)
    elif kind == "unknown_key":
        path = rng.choice([p for p, v in nodes if isinstance(v, dict)])
        _at(obj, path)[rng.choice(("bogus", "Nodes", "seed_"))] = 1
    elif kind == "switch_tag":
        path = rng.choice(tags)
        current = _at(obj, path)
        _at(obj, path[:-1])[path[-1]] = rng.choice(
            [t for t in (*TAG_VALUES[path[-1]], "bogus") if t != current]
        )
    elif kind == "bool_for_number":
        path = rng.choice(numbers)
        _at(obj, path[:-1])[path[-1]] = rng.choice((True, False))
    else:
        block = rng.choice(tuple(DELETED))
        name = rng.choice(DELETED[block])
        if not isinstance(obj.get(block), dict):
            obj[block] = {}
        obj[block][name] = rng.choice(DELETED_VALUES[name])
    return kind, obj


# --------------------------------------------------------------------------- tests


@pytest.mark.parametrize("name", sorted(BASES))
def test_inputs_agree(name):
    assert check_agree(BASES[name]) == "accepted"


def test_inputs_cover_the_corpus_and_the_schema():
    assert len(FILES) == 11  # 7 standing scenarios + 4 perf workloads
    assert len(_knee_inputs()) == 6
    assert len(BASES) * MUTATIONS_PER_INPUT >= 500
    used = {p[-1] for obj in FULL.values() for p, _ in _walk(obj)
            if p and isinstance(p[-1], str)}
    assert used == declared_keys()


def seeded_mutations(name: str, rng) -> list[tuple[str, dict]]:
    """The seeded mutation set of the input *name* (a stream of *rng*)."""
    stream = rng.spawn("scenario-mutations", name)
    return [mutate(BASES[name], stream) for _ in range(MUTATIONS_PER_INPUT)]


def test_mutations_use_every_kind(rng):
    kinds = {kind for name in BASES for kind, _ in seeded_mutations(name, rng)}
    assert kinds == set(KINDS)


@pytest.mark.parametrize("name", sorted(BASES))
def test_seeded_mutations_agree(name, rng):
    outcomes: dict[str, int] = {}
    for kind, obj in seeded_mutations(name, rng):
        try:
            outcome = check_agree(obj)
        except AssertionError as exc:
            raise AssertionError(f"{kind} mutation {json.dumps(obj)}: {exc}") from exc
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert outcomes.get("accepted", 0) > 0 and outcomes.get("rejected", 0) > 0, outcomes


@pytest.mark.parametrize("value", [512, 32])
def test_flight_capacity_is_a_deleted_knob(value):
    obj = copy.deepcopy(FULL["full-fixed-zipfian-open"])
    obj["tracing"]["flight_capacity"] = value
    assert check_agree(obj) == "deleted-knob"


@pytest.mark.parametrize("name", sorted(FULL))
def test_every_number_agrees_at_every_bound(name):
    """Each numeric field of the full inputs, set to every probe value."""
    base = FULL[name]
    numbers = [p for p, v in _walk(base) if p and _is_number(v)]
    assert numbers
    for path in numbers:
        for value in PROBES:
            obj = copy.deepcopy(base)
            _at(obj, path[:-1])[path[-1]] = value
            try:
                check_agree(obj)
            except AssertionError as exc:
                raise AssertionError(f"{'.'.join(map(str, path))}={value!r}: {exc}") from exc
