"""Versioned, seeded scenario files: the traffic plane's input format.

A *scenario* is a declarative description of a whole experiment — cluster
shape (node count, heterogeneous placement weights), object population
(key-space size, payload size distribution), traffic model (popularity, op
mix, open/closed-loop arrivals) and tenants (weights and admission quotas).
Scenarios load from JSON (or TOML on Python ≥ 3.11) into frozen dataclasses
with strict validation: unknown fields and invalid values are rejected with
the offending path, so a typo in a committed scenario fails loudly instead
of silently changing the benchmark.

Each field is declared once, on its dataclass: its type, its default and,
through :func:`knob`, the bounds or choices a file's value must meet. One
reader (:func:`_read`) walks those declarations for every block; the rules
that tie two fields together are spelled out in :func:`_check_rules`.

The pair ``(scenario, seed)`` fully determines the generated op stream
(see :mod:`repro.workload.traffic`) and — because the cluster runs on
simulated time — the emitted ``BENCH_workload_<name>.json`` artifact, byte
for byte. That is what makes the standing scenarios under
``benchmarks/scenarios/`` a perf trajectory rather than a point sample.
"""

from __future__ import annotations

import dataclasses
import json
import re
import types
import typing
from dataclasses import MISSING, dataclass, field
from pathlib import Path
from typing import Mapping

from repro.workload.popularity import POPULARITY_MODELS

SCHEMA_VERSION = 1

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9._-]*$")

#: Op kinds a traffic mix may weight.
MIX_KINDS = ("read", "write", "delete", "scan")


class ScenarioError(ValueError):
    """A scenario file failed validation; the message names the path."""


def _fail(path: str, message: str) -> "ScenarioError":
    return ScenarioError(f"{path}: {message}")


def _require_mapping(obj: object, path: str) -> dict:
    if not isinstance(obj, Mapping):
        raise _fail(path, f"expected an object/table, got {type(obj).__name__}")
    return dict(obj)


def _check_fields(data: dict, allowed, path: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise _fail(
            path,
            f"unknown field(s) {unknown}; allowed: {sorted(allowed)}",
        )


def _number(value, path: str, *, lo=None, hi=None, integer: bool = False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, f"expected a number, got {value!r}")
    if integer:
        if int(value) != value:
            raise _fail(path, f"expected an integer, got {value!r}")
        value = int(value)
    else:
        value = float(value)
    if lo is not None and value < lo:
        raise _fail(path, f"must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise _fail(path, f"must be <= {hi}, got {value}")
    return value


def knob(default=MISSING, *, lo=None, hi=None, choices=(), pattern=None,
         error: str = "", tags=(), shorthand: str | None = None,
         required: bool = False):
    """Declare one scenario field: its default and what a file may set.

    ``lo``/``hi`` bound a number. ``choices`` lists the values a string
    may take — or, on a weight table, the keys it may have. ``pattern``
    must match a string. ``error`` is the message for a string outside
    its choices or pattern (``{!r}`` is the value). In a tagged block the
    first field is the tag and ``tags`` lists the tag values a field
    belongs to; ``required`` makes such a field mandatory for them even
    though it has a default for the others. ``shorthand`` names a key
    whose integer ``n`` may stand in for a one-element profile list
    ``[{"count": n}]``. A field without a default is always required.
    """
    return field(default=default, metadata={
        "lo": lo, "hi": hi, "choices": choices, "pattern": pattern,
        "error": error, "tags": tags, "shorthand": shorthand,
        "required": required,
    })


# --------------------------------------------------------------------------- shape


@dataclass(frozen=True)
class NodeProfile:
    """A homogeneous group of nodes within a heterogeneous cluster.

    ``weight`` feeds the consistent-hash ring (a weight-2 node owns twice
    the key space — the scenario-level stand-in for a memory-rich host).
    """

    count: int = knob(lo=1)
    weight: float = knob(1.0, lo=0.001)


@dataclass(frozen=True)
class ClusterShape:
    """How the cluster under test is built; ``nodes: n`` in a file is one
    profile of ``n`` weight-1 nodes."""

    node_profiles: tuple[NodeProfile, ...] = knob(
        (NodeProfile(count=3),), shorthand="nodes"
    )
    capacity_mib: int = knob(64, lo=1)
    replicas: int = knob(1, lo=1)
    placement: bool = True

    @property
    def n_nodes(self) -> int:
        return sum(p.count for p in self.node_profiles)

    def node_weights(self) -> dict[str, float]:
        """node name -> placement weight, profiles laid out in order."""
        weights: dict[str, float] = {}
        index = 0
        for profile in self.node_profiles:
            for _ in range(profile.count):
                weights[f"node{index}"] = profile.weight
                index += 1
        return weights


# --------------------------------------------------------------------------- population


@dataclass(frozen=True)
class SizeDistribution:
    """Payload size model: ``fixed`` bytes, ``uniform`` in [min, max], or
    ``choice`` over an explicit list (all draws 64-byte-aligned by the
    store anyway)."""

    dist: str = knob("fixed", choices=("fixed", "uniform", "choice"),
                     error="unknown size distribution {!r}")
    bytes: int = knob(4096, lo=1, tags=("fixed",))
    min_bytes: int = knob(1024, lo=1, tags=("uniform",))
    max_bytes: int = knob(16384, lo=1, tags=("uniform",))
    choices: tuple[int, ...] = knob((), tags=("choice",), required=True)

    def draw(self, rng) -> int:
        if self.dist == "fixed":
            return self.bytes
        if self.dist == "uniform":
            return int(rng.integer(self.min_bytes, self.max_bytes + 1))
        return int(rng.choice(list(self.choices)))


@dataclass(frozen=True)
class Population:
    """The key space: how many slots exist and how big their payloads are."""

    objects: int = knob(100, lo=1)
    size: SizeDistribution = SizeDistribution()


# --------------------------------------------------------------------------- traffic


@dataclass(frozen=True)
class Popularity:
    model: str = knob("uniform", choices=POPULARITY_MODELS,
                      error="unknown popularity model {!r}")
    s: float = knob(1.1, lo=0.01, tags=("zipfian",))
    hot_fraction: float = knob(0.1, lo=0.001, hi=1.0, tags=("hotspot",))
    hot_weight: float = knob(0.9, lo=0.0, hi=1.0, tags=("hotspot",))


@dataclass(frozen=True)
class Arrival:
    """When requests enter the system.

    * ``open`` — arrivals are an inhomogeneous Poisson process whose rate
      follows a diurnal curve ``base * (1 + amplitude * sin(2πt/period))``;
      requests arrive whether or not the system keeps up, so latency
      includes queueing delay (the honest production shape).
    * ``closed`` — ``clients`` concurrent clients, each issuing the next
      request ``think_time_us`` after the previous one completes; load is
      self-limiting (the classic benchmark-harness shape).
    """

    mode: str = knob("open", choices=("open", "closed"),
                     error="unknown arrival mode {!r}")
    base_rate_ops_per_s: float = knob(5000.0, lo=0.001, tags=("open",))
    diurnal_amplitude: float = knob(0.0, lo=0.0, hi=0.99, tags=("open",))
    diurnal_period_s: float = knob(1.0, lo=0.000001, tags=("open",))
    clients: int = knob(4, lo=1, tags=("closed",))
    think_time_us: float = knob(100.0, lo=0.0, tags=("closed",))


@dataclass(frozen=True)
class Traffic:
    ops: int = knob(1000, lo=1)
    # A file gives a {kind: weight} table; kinds it leaves out weigh 0.
    mix: tuple[tuple[str, int], ...] = knob(
        (("read", 70), ("write", 20), ("delete", 5), ("scan", 5)),
        choices=MIX_KINDS, lo=0,
    )
    scan_length: int = knob(8, lo=2)
    popularity: Popularity = Popularity()
    arrival: Arrival = Arrival()


# --------------------------------------------------------------------------- overload


@dataclass(frozen=True)
class OverloadSpec:
    """Server-side overload control plus the client-side taming knobs.

    Present in a scenario, it gives every server a finite service rate and
    bounded request queue (shedding RESOURCE_EXHAUSTED beyond it), stamps
    every operation with a deadline (propagated hop to hop so servers can
    shed expired work), caps client retry amplification with a token-bucket
    retry budget, and optionally enables quantile-delay hedged reads.
    Absent, everything stays at the legacy infinite-capacity behaviour.

    ``burst_backlog_ms``/``burst_period_s`` model recurring stalls on one
    node (a GC pause, a compaction, a noisy neighbour): every period the
    runner injects that much queued work into ``burst_node``'s admission
    model, which then drains it at the service rate — the deterministic
    traffic-plane analogue of the chaos plane's ``OverloadBurst``.
    """

    service_rate_ops_per_s: float = knob(0.0, lo=0.0)
    queue_depth: int = knob(64, lo=0)
    queue_discipline: str = knob("fifo", choices=("fifo", "lifo"),
                                 error="unknown discipline {!r}")
    shed_expired: bool = True
    op_deadline_ms: float = knob(0.0, lo=0.0)
    retry_budget_per_s: float = knob(0.0, lo=0.0)
    retry_budget_burst: int = knob(10, lo=1)
    hedge_quantile: float = knob(0.0, lo=0.0, hi=0.999)
    hedge_min_samples: int = knob(20, lo=1)
    burst_backlog_ms: float = knob(0.0, lo=0.0)
    burst_period_s: float = knob(0.0, lo=0.0)
    burst_node: int = knob(0, lo=0)


# --------------------------------------------------------------------------- tracing


@dataclass(frozen=True)
class TracingSpec:
    """Distributed span tracing for the run (see :mod:`repro.obs.spans`).

    Present and enabled, every logical operation opens a root span whose
    observed latency is decomposed — nanosecond-exact — into queue /
    service / fabric / retry / hedge / client components, reported in the
    artifact's ``latency_attribution`` section. ``sample_rate`` gates how
    many full traces are *retained* (attribution always covers every op);
    errors, sheds, and the slowest ``tail_percentile`` of ops are always
    kept. Absent or disabled, the span plane is never built and artifacts
    are byte-identical to previous schema versions.
    """

    enabled: bool = True
    sample_rate: float = knob(1.0, lo=0.0, hi=1.0)
    tail_percentile: float = knob(0.99, lo=0.0, hi=1.0)
    flight_capacity: int = knob(512, lo=1)


# --------------------------------------------------------------------------- tiering


@dataclass(frozen=True)
class TieringSpec:
    """Hot-object caching and local/far tier promotion & demotion
    (see :mod:`repro.tier`).

    Present, every node fronts its fabric reads with a bounded byte cache
    (TinyLFU-admitted, generation-coherent) and — when the cluster runs
    with placement — the tier engine promotes hot remote objects toward
    their readers and demotes cold sealed objects to capacity-rich nodes,
    budgeted ``bytes_per_tick_mib`` per engine tick, one tick every
    ``tick_every_ops`` executed operations. The admission sketch, heat
    sampling and demotion watermarks keep :class:`TierConfig`'s defaults.
    Absent, the tier plane is never built and artifacts are
    byte-identical to previous schema versions.
    """

    cache_capacity_mib: int = knob(8, lo=0)
    heat_half_life_ms: float = knob(500.0, lo=0.001)
    promote_min_heat: float = knob(3.0, lo=0.0)
    bytes_per_tick_mib: int = knob(4, lo=1)
    tick_every_ops: int = knob(64, lo=1)


# --------------------------------------------------------------------------- rpc


@dataclass(frozen=True)
class RpcSpec:
    """Async RPC core knobs for the run (see :mod:`repro.rpc.aio`).

    Present, the runner drives the op stream through the event-loop task
    plane: many operations in flight per peer, id-list calls (Lookup,
    AddRef, NotifyDeleted) transparently coalesced into batched wire
    messages within ``batch_window_ns`` (up to ``max_batch`` ids), scans
    issued as one batched multi-get, and — when ``hedge_stagger_ns`` > 0 —
    scatter-gather lookups hedged to the next replica holder after the
    stagger. ``mode: "sync"`` keeps the block present but runs the legacy
    serial path. Absent, everything stays the unary baseline and artifacts
    are byte-identical to previous schema versions.
    """

    mode: str = knob("async", choices=("sync", "async"),
                     error="unknown rpc mode {!r}")
    batch_window_ns: float = knob(50_000.0, lo=0.0)
    max_batch: int = knob(16, lo=1)
    hedge_stagger_ns: float = knob(0.0, lo=0.0)


# --------------------------------------------------------------------------- tenants


@dataclass(frozen=True)
class QuotaSpec:
    """Admission limits for one tenant; ``None`` means unlimited."""

    max_stored_bytes: int | None = knob(None, lo=1)
    ops_per_s: float | None = knob(None, lo=1)
    burst_ops: int = knob(32, lo=1)
    write_bytes_per_s: float | None = knob(None, lo=1)
    burst_bytes: int = knob(1 << 20, lo=1)


@dataclass(frozen=True)
class TenantSpec:
    name: str = knob(pattern=_NAME_RE, error="invalid tenant name {!r}")
    weight: int = knob(1, lo=1)
    quota: QuotaSpec = QuotaSpec()


# --------------------------------------------------------------------------- scenario


@dataclass(frozen=True)
class Scenario:
    """One fully-specified, seedable workload."""

    name: str = knob(
        pattern=_NAME_RE,
        error="invalid scenario name {!r} (lowercase letters/digits/._- "
              "only; it names the artifact file)",
    )
    description: str = ""
    seed: int = knob(2022, lo=0)
    cluster: ClusterShape = ClusterShape()
    population: Population = Population()
    traffic: Traffic = Traffic()
    tenants: tuple[TenantSpec, ...] = (TenantSpec(name="default"),)
    overload: OverloadSpec | None = None
    tracing: TracingSpec | None = None
    tiering: TieringSpec | None = None
    rpc: RpcSpec | None = None

    @classmethod
    def from_obj(cls, obj: object, path: str = "scenario") -> "Scenario":
        data = _require_mapping(obj, path)
        version = _number(data.pop("schema_version", SCHEMA_VERSION),
                          f"{path}.schema_version", integer=True)
        if version != SCHEMA_VERSION:
            raise _fail(f"{path}.schema_version",
                        f"unsupported version {version} (this build reads "
                        f"{SCHEMA_VERSION})")
        return _read(cls, data, path, extra=("schema_version",))

    def with_seed(self, seed: int) -> "Scenario":
        return dataclasses.replace(self, seed=int(seed))


# --------------------------------------------------------------------------- reader


def _read(cls, obj: object, path: str, extra: tuple[str, ...] = ()):
    """Build the spec dataclass *cls* from the mapping *obj*, one declared
    field at a time, then check the rules that tie its fields together."""
    data = _require_mapping(obj, path)
    specs = dataclasses.fields(cls)
    hints = typing.get_type_hints(cls)
    values = {}
    if any(f.metadata.get("tags") for f in specs):
        # A tagged block: the first field picks which of the others apply.
        tag, *rest = specs
        values[tag.name] = _field(tag, hints[tag.name], data, path)
        specs = [tag] + [f for f in rest if values[tag.name] in f.metadata["tags"]]
    allowed = [f.name for f in specs] + list(extra) + [
        f.metadata["shorthand"] for f in specs if f.metadata.get("shorthand")
    ]
    _check_fields(data, allowed, path)
    for f in specs:
        if f.name not in values:
            values[f.name] = _field(f, hints[f.name], data, path)
    spec = cls(**values)
    _check_rules(spec, path)
    return spec


def _field(f: dataclasses.Field, tp, data: dict, path: str):
    """The value of the declared field *f* in the block *data* at *path*."""
    short = f.metadata.get("shorthand")
    if short is not None and short in data:
        if f.name in data:
            raise _fail(path, f"give either '{short}' or '{f.name}', not both")
        profile = typing.get_args(tp)[0]
        return (profile(count=_number(data[short], f"{path}.{short}", lo=2,
                                      integer=True)),)
    if f.name in data:
        raw = data[f.name]
    elif f.default is MISSING or f.metadata.get("required"):
        raw = None  # rejected below with the message a wrong type gets
    else:
        return f.default
    return _parse(tp, raw, f.metadata, f"{path}.{f.name}")


def _parse(tp, raw, meta, path: str):
    """Check the file value *raw* against the declared type *tp* and the
    field's *meta* (see :func:`knob`) and convert it."""
    if isinstance(tp, types.UnionType):  # ``T | None``: null means absent
        if raw is None:
            return None
        return _parse(typing.get_args(tp)[0], raw, meta, path)
    if dataclasses.is_dataclass(tp):
        return _read(tp, raw, path)
    if typing.get_origin(tp) is tuple:
        if meta.get("choices"):  # a weight table: {key: integer weight}
            table = _require_mapping(raw, path)
            _check_fields(table, meta["choices"], path)
            return tuple(
                (key, _number(table.get(key, 0), f"{path}.{key}",
                              lo=meta["lo"], integer=True))
                for key in meta["choices"]
            )
        if not isinstance(raw, list) or not raw:
            raise _fail(path, "expected a non-empty list")
        item = typing.get_args(tp)[0]
        if dataclasses.is_dataclass(item):
            return tuple(_read(item, v, f"{path}[{i}]") for i, v in enumerate(raw))
        for i, v in enumerate(raw):  # size choices: strictly positive ints
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise _fail(f"{path}[{i}]",
                            f"expected a positive integer, got {v!r}")
        return tuple(raw)
    if tp is bool:
        if not isinstance(raw, bool):
            raise _fail(path, f"expected a bool, got {raw!r}")
        return raw
    if tp is str:
        if not isinstance(raw, str):
            raise _fail(path, f"expected a string, got {raw!r}")
        choices, pattern = meta.get("choices"), meta.get("pattern")
        if choices and raw not in choices:
            raise _fail(path, meta["error"].format(raw) + f"; have {choices}")
        if pattern is not None and not pattern.match(raw):
            raise _fail(path, meta["error"].format(raw))
        return raw
    return _number(raw, path, lo=meta.get("lo"), hi=meta.get("hi"),
                   integer=tp is int)


def _check_rules(spec, path: str) -> None:
    """The rules between fields — everything one field's declaration
    cannot say on its own (``nodes`` XOR ``node_profiles`` is checked
    where the shorthand is read, in :func:`_field`)."""
    if isinstance(spec, SizeDistribution):
        if spec.min_bytes > spec.max_bytes:
            raise _fail(path, "min_bytes must be <= max_bytes")
    elif isinstance(spec, ClusterShape):
        if spec.n_nodes < 2:
            raise _fail(path, "a disaggregated cluster needs >= 2 nodes")
        if spec.replicas > spec.n_nodes:
            raise _fail(
                f"{path}.replicas",
                f"{spec.replicas} copies do not fit on {spec.n_nodes} nodes",
            )
        if not spec.placement and any(p.weight != 1.0 for p in spec.node_profiles):
            raise _fail(
                f"{path}.node_profiles",
                "heterogeneous weights need placement: true (weights feed "
                "the consistent-hash ring)",
            )
    elif isinstance(spec, Traffic):
        if sum(w for _, w in spec.mix) <= 0:
            raise _fail(f"{path}.mix", "op mix weights must sum to > 0")
    elif isinstance(spec, Scenario):
        if len({t.name for t in spec.tenants}) != len(spec.tenants):
            raise _fail(f"{path}.tenants", "tenant names must be unique")
        if spec.traffic.scan_length > spec.population.objects:
            raise _fail(f"{path}.traffic.scan_length",
                        "scan_length cannot exceed the population size")


# --------------------------------------------------------------------------- loading


def loads(text: str, *, fmt: str = "json") -> Scenario:
    """Parse scenario *text* (``fmt``: ``json`` or ``toml``)."""
    if fmt == "json":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
        return Scenario.from_obj(raw)
    if fmt == "toml":
        try:
            import tomllib
        except ModuleNotFoundError as exc:  # Python 3.10: no stdlib TOML
            raise ScenarioError(
                "TOML scenarios need Python >= 3.11 (stdlib tomllib); "
                "convert to JSON or upgrade"
            ) from exc
        try:
            raw = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioError(f"scenario is not valid TOML: {exc}") from exc
        return Scenario.from_obj(raw)
    raise ScenarioError(f"unknown scenario format {fmt!r}")


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario file; the suffix picks the format (.json / .toml)."""
    path = Path(path)
    fmt = "toml" if path.suffix.lower() == ".toml" else "json"
    return loads(path.read_text(encoding="utf-8"), fmt=fmt)
