"""Reference scenario reader: ``repro.workload.scenario`` as it shipped
before the schema became one field-driven reader — a hand-written
``from_obj``/``to_obj`` pair per spec class, every default written twice,
and the ``cluster.link`` factors and five ``tiering`` knobs that nothing
set — kept test-only and unchanged below this docstring.

It defines the reader's behaviour by example:
``test_scenario_differential.py`` feeds the committed scenarios and
hundreds of seeded mutations of them to this module and to
:class:`repro.workload.scenario.Scenario` and holds the production reader
to its accept/reject decisions, error messages, parsed values, cluster
configs and op streams. Do not optimise it, and do not import this module
from ``src/``.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

SCHEMA_VERSION = 1

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9._-]*$")

#: Op kinds a traffic mix may weight.
MIX_KINDS = ("read", "write", "delete", "scan")

ARRIVAL_MODES = ("open", "closed")


class ScenarioError(ValueError):
    """A scenario file failed validation; the message names the path."""


def _fail(path: str, message: str) -> "ScenarioError":
    return ScenarioError(f"{path}: {message}")


def _require_mapping(obj: object, path: str) -> dict:
    if not isinstance(obj, Mapping):
        raise _fail(path, f"expected an object/table, got {type(obj).__name__}")
    return dict(obj)


def _check_fields(data: dict, allowed: tuple[str, ...], path: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise _fail(
            path,
            f"unknown field(s) {unknown}; allowed: {sorted(allowed)}",
        )


def _number(data: dict, key: str, path: str, default, *, lo=None, hi=None,
            integer: bool = False):
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(f"{path}.{key}", f"expected a number, got {value!r}")
    if integer:
        if int(value) != value:
            raise _fail(f"{path}.{key}", f"expected an integer, got {value!r}")
        value = int(value)
    else:
        value = float(value)
    if lo is not None and value < lo:
        raise _fail(f"{path}.{key}", f"must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise _fail(f"{path}.{key}", f"must be <= {hi}, got {value}")
    return value


def _string(data: dict, key: str, path: str, default: str | None = None) -> str:
    value = data.get(key, default)
    if not isinstance(value, str):
        raise _fail(f"{path}.{key}", f"expected a string, got {value!r}")
    return value


# --------------------------------------------------------------------------- shape


@dataclass(frozen=True)
class NodeProfile:
    """A homogeneous group of nodes within a heterogeneous cluster.

    ``weight`` feeds the consistent-hash ring (a weight-2 node owns twice
    the key space — the scenario-level stand-in for a memory-rich host).
    """

    count: int
    weight: float = 1.0

    @classmethod
    def from_obj(cls, obj: object, path: str) -> "NodeProfile":
        data = _require_mapping(obj, path)
        _check_fields(data, ("count", "weight"), path)
        return cls(
            count=_number(data, "count", path, None, lo=1, integer=True),
            weight=_number(data, "weight", path, 1.0, lo=0.001),
        )

    def to_obj(self) -> dict:
        return {"count": self.count, "weight": self.weight}


@dataclass(frozen=True)
class LinkProfile:
    """Fabric/RPC overrides: the scenario's interconnect generation.

    Multipliers scale the calibrated paper defaults, so ``1.0`` everywhere
    reproduces the IC922 testbed and e.g. ``rpc_round_trip_factor: 0.5``
    models a faster metadata network without touching calibration.
    """

    fabric_bandwidth_factor: float = 1.0
    fabric_latency_factor: float = 1.0
    rpc_round_trip_factor: float = 1.0

    FIELDS = (
        "fabric_bandwidth_factor",
        "fabric_latency_factor",
        "rpc_round_trip_factor",
    )

    @classmethod
    def from_obj(cls, obj: object, path: str) -> "LinkProfile":
        data = _require_mapping(obj, path)
        _check_fields(data, cls.FIELDS, path)
        return cls(
            **{
                name: _number(data, name, path, 1.0, lo=0.001)
                for name in cls.FIELDS
            }
        )

    def to_obj(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


@dataclass(frozen=True)
class ClusterShape:
    """How the cluster under test is built."""

    profiles: tuple[NodeProfile, ...] = (NodeProfile(count=3),)
    capacity_mib: int = 64
    replicas: int = 1
    placement: bool = True
    link: LinkProfile = field(default_factory=LinkProfile)

    @property
    def n_nodes(self) -> int:
        return sum(p.count for p in self.profiles)

    def node_weights(self) -> dict[str, float]:
        """node name -> placement weight, profiles laid out in order."""
        weights: dict[str, float] = {}
        index = 0
        for profile in self.profiles:
            for _ in range(profile.count):
                weights[f"node{index}"] = profile.weight
                index += 1
        return weights

    @classmethod
    def from_obj(cls, obj: object, path: str) -> "ClusterShape":
        data = _require_mapping(obj, path)
        _check_fields(
            data,
            ("nodes", "node_profiles", "capacity_mib", "replicas",
             "placement", "link"),
            path,
        )
        if "nodes" in data and "node_profiles" in data:
            raise _fail(path, "give either 'nodes' or 'node_profiles', not both")
        if "node_profiles" in data:
            raw = data["node_profiles"]
            if not isinstance(raw, list) or not raw:
                raise _fail(f"{path}.node_profiles", "expected a non-empty list")
            profiles = tuple(
                NodeProfile.from_obj(item, f"{path}.node_profiles[{i}]")
                for i, item in enumerate(raw)
            )
        else:
            profiles = (
                NodeProfile(
                    count=_number(data, "nodes", path, 3, lo=2, integer=True)
                ),
            )
        placement = data.get("placement", True)
        if not isinstance(placement, bool):
            raise _fail(f"{path}.placement", f"expected a bool, got {placement!r}")
        shape = cls(
            profiles=profiles,
            capacity_mib=_number(
                data, "capacity_mib", path, 64, lo=1, integer=True
            ),
            replicas=_number(data, "replicas", path, 1, lo=1, integer=True),
            placement=placement,
            link=LinkProfile.from_obj(data.get("link", {}), f"{path}.link"),
        )
        if shape.n_nodes < 2:
            raise _fail(path, "a disaggregated cluster needs >= 2 nodes")
        if shape.replicas > shape.n_nodes:
            raise _fail(
                f"{path}.replicas",
                f"{shape.replicas} copies do not fit on {shape.n_nodes} nodes",
            )
        if not shape.placement and any(p.weight != 1.0 for p in shape.profiles):
            raise _fail(
                f"{path}.node_profiles",
                "heterogeneous weights need placement: true (weights feed "
                "the consistent-hash ring)",
            )
        return shape

    def to_obj(self) -> dict:
        return {
            "node_profiles": [p.to_obj() for p in self.profiles],
            "capacity_mib": self.capacity_mib,
            "replicas": self.replicas,
            "placement": self.placement,
            "link": self.link.to_obj(),
        }


# --------------------------------------------------------------------------- population


@dataclass(frozen=True)
class SizeDistribution:
    """Payload size model: ``fixed`` bytes, ``uniform`` in [min, max], or
    ``choice`` over an explicit list (all draws 64-byte-aligned by the
    store anyway)."""

    dist: str = "fixed"
    bytes: int = 4096
    min_bytes: int = 1024
    max_bytes: int = 16384
    choices: tuple[int, ...] = ()

    @classmethod
    def from_obj(cls, obj: object, path: str) -> "SizeDistribution":
        data = _require_mapping(obj, path)
        _check_fields(
            data, ("dist", "bytes", "min_bytes", "max_bytes", "choices"), path
        )
        dist = _string(data, "dist", path, "fixed")
        if dist == "fixed":
            _check_fields(data, ("dist", "bytes"), path)
            return cls(dist=dist, bytes=_number(data, "bytes", path, 4096, lo=1,
                                                integer=True))
        if dist == "uniform":
            _check_fields(data, ("dist", "min_bytes", "max_bytes"), path)
            out = cls(
                dist=dist,
                min_bytes=_number(data, "min_bytes", path, 1024, lo=1,
                                  integer=True),
                max_bytes=_number(data, "max_bytes", path, 16384, lo=1,
                                  integer=True),
            )
            if out.min_bytes > out.max_bytes:
                raise _fail(path, "min_bytes must be <= max_bytes")
            return out
        if dist == "choice":
            _check_fields(data, ("dist", "choices"), path)
            raw = data.get("choices")
            if not isinstance(raw, list) or not raw:
                raise _fail(f"{path}.choices", "expected a non-empty list")
            choices = []
            for i, item in enumerate(raw):
                if isinstance(item, bool) or not isinstance(item, int) or item < 1:
                    raise _fail(f"{path}.choices[{i}]",
                                f"expected a positive integer, got {item!r}")
                choices.append(item)
            return cls(dist=dist, choices=tuple(choices))
        raise _fail(f"{path}.dist",
                    f"unknown size distribution {dist!r}; "
                    "have ('fixed', 'uniform', 'choice')")

    def to_obj(self) -> dict:
        if self.dist == "fixed":
            return {"dist": "fixed", "bytes": self.bytes}
        if self.dist == "uniform":
            return {"dist": "uniform", "min_bytes": self.min_bytes,
                    "max_bytes": self.max_bytes}
        return {"dist": "choice", "choices": list(self.choices)}

    def draw(self, rng) -> int:
        if self.dist == "fixed":
            return self.bytes
        if self.dist == "uniform":
            return int(rng.integer(self.min_bytes, self.max_bytes + 1))
        return int(rng.choice(list(self.choices)))

    def max_draw(self) -> int:
        if self.dist == "fixed":
            return self.bytes
        if self.dist == "uniform":
            return self.max_bytes
        return max(self.choices)


@dataclass(frozen=True)
class Population:
    """The key space: how many slots exist and how big their payloads are."""

    objects: int = 100
    size: SizeDistribution = field(default_factory=SizeDistribution)

    @classmethod
    def from_obj(cls, obj: object, path: str) -> "Population":
        data = _require_mapping(obj, path)
        _check_fields(data, ("objects", "size"), path)
        return cls(
            objects=_number(data, "objects", path, 100, lo=1, integer=True),
            size=SizeDistribution.from_obj(data.get("size", {}), f"{path}.size"),
        )

    def to_obj(self) -> dict:
        return {"objects": self.objects, "size": self.size.to_obj()}


# --------------------------------------------------------------------------- traffic


@dataclass(frozen=True)
class Popularity:
    model: str = "uniform"
    s: float = 1.1
    hot_fraction: float = 0.1
    hot_weight: float = 0.9

    @classmethod
    def from_obj(cls, obj: object, path: str) -> "Popularity":
        data = _require_mapping(obj, path)
        model = _string(data, "model", path, "uniform")
        if model == "uniform":
            _check_fields(data, ("model",), path)
            return cls(model=model)
        if model == "zipfian":
            _check_fields(data, ("model", "s"), path)
            return cls(model=model, s=_number(data, "s", path, 1.1, lo=0.01))
        if model == "hotspot":
            _check_fields(data, ("model", "hot_fraction", "hot_weight"), path)
            return cls(
                model=model,
                hot_fraction=_number(data, "hot_fraction", path, 0.1,
                                     lo=0.001, hi=1.0),
                hot_weight=_number(data, "hot_weight", path, 0.9,
                                   lo=0.0, hi=1.0),
            )
        raise _fail(f"{path}.model",
                    f"unknown popularity model {model!r}; "
                    "have ('uniform', 'zipfian', 'hotspot')")

    def to_obj(self) -> dict:
        if self.model == "uniform":
            return {"model": "uniform"}
        if self.model == "zipfian":
            return {"model": "zipfian", "s": self.s}
        return {"model": "hotspot", "hot_fraction": self.hot_fraction,
                "hot_weight": self.hot_weight}


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

    mode: str = "open"
    base_rate_ops_per_s: float = 5000.0
    diurnal_amplitude: float = 0.0
    diurnal_period_s: float = 1.0
    clients: int = 4
    think_time_us: float = 100.0

    @classmethod
    def from_obj(cls, obj: object, path: str) -> "Arrival":
        data = _require_mapping(obj, path)
        mode = _string(data, "mode", path, "open")
        if mode == "open":
            _check_fields(
                data,
                ("mode", "base_rate_ops_per_s", "diurnal_amplitude",
                 "diurnal_period_s"),
                path,
            )
            return cls(
                mode=mode,
                base_rate_ops_per_s=_number(
                    data, "base_rate_ops_per_s", path, 5000.0, lo=0.001
                ),
                diurnal_amplitude=_number(
                    data, "diurnal_amplitude", path, 0.0, lo=0.0, hi=0.99
                ),
                diurnal_period_s=_number(
                    data, "diurnal_period_s", path, 1.0, lo=0.000001
                ),
            )
        if mode == "closed":
            _check_fields(data, ("mode", "clients", "think_time_us"), path)
            return cls(
                mode=mode,
                clients=_number(data, "clients", path, 4, lo=1, integer=True),
                think_time_us=_number(
                    data, "think_time_us", path, 100.0, lo=0.0
                ),
            )
        raise _fail(f"{path}.mode",
                    f"unknown arrival mode {mode!r}; have {ARRIVAL_MODES}")

    def to_obj(self) -> dict:
        if self.mode == "open":
            return {
                "mode": "open",
                "base_rate_ops_per_s": self.base_rate_ops_per_s,
                "diurnal_amplitude": self.diurnal_amplitude,
                "diurnal_period_s": self.diurnal_period_s,
            }
        return {"mode": "closed", "clients": self.clients,
                "think_time_us": self.think_time_us}


@dataclass(frozen=True)
class Traffic:
    ops: int = 1000
    mix: tuple[tuple[str, int], ...] = (
        ("read", 70), ("write", 20), ("delete", 5), ("scan", 5)
    )
    scan_length: int = 8
    popularity: Popularity = field(default_factory=Popularity)
    arrival: Arrival = field(default_factory=Arrival)

    @classmethod
    def from_obj(cls, obj: object, path: str) -> "Traffic":
        data = _require_mapping(obj, path)
        _check_fields(
            data, ("ops", "mix", "scan_length", "popularity", "arrival"), path
        )
        mix_data = _require_mapping(
            data.get("mix", {"read": 70, "write": 20, "delete": 5, "scan": 5}),
            f"{path}.mix",
        )
        _check_fields(mix_data, MIX_KINDS, f"{path}.mix")
        mix = tuple(
            (kind, _number(mix_data, kind, f"{path}.mix", 0, lo=0, integer=True))
            for kind in MIX_KINDS
        )
        if sum(w for _, w in mix) <= 0:
            raise _fail(f"{path}.mix", "op mix weights must sum to > 0")
        return cls(
            ops=_number(data, "ops", path, 1000, lo=1, integer=True),
            mix=mix,
            scan_length=_number(data, "scan_length", path, 8, lo=2,
                                integer=True),
            popularity=Popularity.from_obj(
                data.get("popularity", {}), f"{path}.popularity"
            ),
            arrival=Arrival.from_obj(data.get("arrival", {}), f"{path}.arrival"),
        )

    def to_obj(self) -> dict:
        return {
            "ops": self.ops,
            "mix": {kind: weight for kind, weight in self.mix},
            "scan_length": self.scan_length,
            "popularity": self.popularity.to_obj(),
            "arrival": self.arrival.to_obj(),
        }


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

    service_rate_ops_per_s: float = 0.0
    queue_depth: int = 64
    queue_discipline: str = "fifo"
    shed_expired: bool = True
    op_deadline_ms: float = 0.0
    retry_budget_per_s: float = 0.0
    retry_budget_burst: int = 10
    hedge_quantile: float = 0.0
    hedge_min_samples: int = 20
    burst_backlog_ms: float = 0.0
    burst_period_s: float = 0.0
    burst_node: int = 0

    FIELDS = (
        "service_rate_ops_per_s", "queue_depth", "queue_discipline",
        "shed_expired", "op_deadline_ms", "retry_budget_per_s",
        "retry_budget_burst", "hedge_quantile", "hedge_min_samples",
        "burst_backlog_ms", "burst_period_s", "burst_node",
    )

    @classmethod
    def from_obj(cls, obj: object, path: str) -> "OverloadSpec":
        data = _require_mapping(obj, path)
        _check_fields(data, cls.FIELDS, path)
        discipline = _string(data, "queue_discipline", path, "fifo")
        if discipline not in ("fifo", "lifo"):
            raise _fail(f"{path}.queue_discipline",
                        f"unknown discipline {discipline!r}; "
                        "have ('fifo', 'lifo')")
        shed = data.get("shed_expired", True)
        if not isinstance(shed, bool):
            raise _fail(f"{path}.shed_expired",
                        f"expected a bool, got {shed!r}")
        return cls(
            service_rate_ops_per_s=_number(
                data, "service_rate_ops_per_s", path, 0.0, lo=0.0
            ),
            queue_depth=_number(data, "queue_depth", path, 64, lo=0,
                                integer=True),
            queue_discipline=discipline,
            shed_expired=shed,
            op_deadline_ms=_number(data, "op_deadline_ms", path, 0.0, lo=0.0),
            retry_budget_per_s=_number(
                data, "retry_budget_per_s", path, 0.0, lo=0.0
            ),
            retry_budget_burst=_number(
                data, "retry_budget_burst", path, 10, lo=1, integer=True
            ),
            hedge_quantile=_number(
                data, "hedge_quantile", path, 0.0, lo=0.0, hi=0.999
            ),
            hedge_min_samples=_number(
                data, "hedge_min_samples", path, 20, lo=1, integer=True
            ),
            burst_backlog_ms=_number(
                data, "burst_backlog_ms", path, 0.0, lo=0.0
            ),
            burst_period_s=_number(data, "burst_period_s", path, 0.0, lo=0.0),
            burst_node=_number(data, "burst_node", path, 0, lo=0,
                               integer=True),
        )

    def to_obj(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


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
    sample_rate: float = 1.0
    tail_percentile: float = 0.99
    flight_capacity: int = 512

    FIELDS = ("enabled", "sample_rate", "tail_percentile", "flight_capacity")

    @classmethod
    def from_obj(cls, obj: object, path: str) -> "TracingSpec":
        data = _require_mapping(obj, path)
        _check_fields(data, cls.FIELDS, path)
        enabled = data.get("enabled", True)
        if not isinstance(enabled, bool):
            raise _fail(f"{path}.enabled", f"expected a bool, got {enabled!r}")
        return cls(
            enabled=enabled,
            sample_rate=_number(
                data, "sample_rate", path, 1.0, lo=0.0, hi=1.0
            ),
            tail_percentile=_number(
                data, "tail_percentile", path, 0.99, lo=0.0, hi=1.0
            ),
            flight_capacity=_number(
                data, "flight_capacity", path, 512, lo=1, integer=True
            ),
        )

    def to_obj(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


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
    ``tick_every_ops`` executed operations. Absent, the tier plane is never
    built and artifacts are byte-identical to previous schema versions.
    """

    cache_capacity_mib: int = 8
    sketch_width: int = 512
    sketch_depth: int = 4
    heat_half_life_ms: float = 500.0
    heat_sample_rate: float = 1.0
    promote_min_heat: float = 3.0
    demote_watermark: float = 0.85
    demote_target: float = 0.70
    bytes_per_tick_mib: int = 4
    tick_every_ops: int = 64

    FIELDS = (
        "cache_capacity_mib", "sketch_width", "sketch_depth",
        "heat_half_life_ms", "heat_sample_rate", "promote_min_heat",
        "demote_watermark", "demote_target", "bytes_per_tick_mib",
        "tick_every_ops",
    )

    @classmethod
    def from_obj(cls, obj: object, path: str) -> "TieringSpec":
        data = _require_mapping(obj, path)
        _check_fields(data, cls.FIELDS, path)
        out = cls(
            cache_capacity_mib=_number(
                data, "cache_capacity_mib", path, 8, lo=0, integer=True
            ),
            sketch_width=_number(
                data, "sketch_width", path, 512, lo=16, integer=True
            ),
            sketch_depth=_number(
                data, "sketch_depth", path, 4, lo=1, integer=True
            ),
            heat_half_life_ms=_number(
                data, "heat_half_life_ms", path, 500.0, lo=0.001
            ),
            heat_sample_rate=_number(
                data, "heat_sample_rate", path, 1.0, lo=0.001, hi=1.0
            ),
            promote_min_heat=_number(
                data, "promote_min_heat", path, 3.0, lo=0.0
            ),
            demote_watermark=_number(
                data, "demote_watermark", path, 0.85, lo=0.01, hi=1.0
            ),
            demote_target=_number(
                data, "demote_target", path, 0.70, lo=0.01, hi=1.0
            ),
            bytes_per_tick_mib=_number(
                data, "bytes_per_tick_mib", path, 4, lo=1, integer=True
            ),
            tick_every_ops=_number(
                data, "tick_every_ops", path, 64, lo=1, integer=True
            ),
        )
        if out.demote_target >= out.demote_watermark:
            raise _fail(f"{path}.demote_target",
                        "must be < demote_watermark (the engine sheds from "
                        "the watermark down to the target)")
        return out

    def to_obj(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


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

    mode: str = "async"
    batch_window_ns: float = 50_000.0
    max_batch: int = 16
    hedge_stagger_ns: float = 0.0

    FIELDS = ("mode", "batch_window_ns", "max_batch", "hedge_stagger_ns")

    @classmethod
    def from_obj(cls, obj: object, path: str) -> "RpcSpec":
        data = _require_mapping(obj, path)
        _check_fields(data, cls.FIELDS, path)
        mode = _string(data, "mode", path, "async")
        if mode not in ("sync", "async"):
            raise _fail(f"{path}.mode",
                        f"unknown rpc mode {mode!r}; have ('sync', 'async')")
        return cls(
            mode=mode,
            batch_window_ns=_number(
                data, "batch_window_ns", path, 50_000.0, lo=0.0
            ),
            max_batch=_number(data, "max_batch", path, 16, lo=1, integer=True),
            hedge_stagger_ns=_number(
                data, "hedge_stagger_ns", path, 0.0, lo=0.0
            ),
        )

    def to_obj(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


# --------------------------------------------------------------------------- tenants


@dataclass(frozen=True)
class QuotaSpec:
    """Admission limits for one tenant; ``None`` means unlimited."""

    max_stored_bytes: int | None = None
    ops_per_s: float | None = None
    burst_ops: int = 32
    write_bytes_per_s: float | None = None
    burst_bytes: int = 1 << 20

    FIELDS = ("max_stored_bytes", "ops_per_s", "burst_ops",
              "write_bytes_per_s", "burst_bytes")

    @classmethod
    def from_obj(cls, obj: object, path: str) -> "QuotaSpec":
        data = _require_mapping(obj, path)
        _check_fields(data, cls.FIELDS, path)
        out = {}
        for name in ("max_stored_bytes", "ops_per_s", "write_bytes_per_s"):
            if data.get(name) is not None:
                out[name] = _number(
                    data, name, path, None, lo=1,
                    integer=(name == "max_stored_bytes"),
                )
        out["burst_ops"] = _number(data, "burst_ops", path, 32, lo=1,
                                   integer=True)
        out["burst_bytes"] = _number(data, "burst_bytes", path, 1 << 20, lo=1,
                                     integer=True)
        return cls(**out)

    def to_obj(self) -> dict:
        out: dict = {"burst_ops": self.burst_ops, "burst_bytes": self.burst_bytes}
        for name in ("max_stored_bytes", "ops_per_s", "write_bytes_per_s"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


@dataclass(frozen=True)
class TenantSpec:
    name: str
    weight: int = 1
    quota: QuotaSpec = field(default_factory=QuotaSpec)

    @classmethod
    def from_obj(cls, obj: object, path: str) -> "TenantSpec":
        data = _require_mapping(obj, path)
        _check_fields(data, ("name", "weight", "quota"), path)
        name = _string(data, "name", path)
        if not _NAME_RE.match(name):
            raise _fail(f"{path}.name", f"invalid tenant name {name!r}")
        return cls(
            name=name,
            weight=_number(data, "weight", path, 1, lo=1, integer=True),
            quota=QuotaSpec.from_obj(data.get("quota", {}), f"{path}.quota"),
        )

    def to_obj(self) -> dict:
        return {"name": self.name, "weight": self.weight,
                "quota": self.quota.to_obj()}


# --------------------------------------------------------------------------- scenario


@dataclass(frozen=True)
class Scenario:
    """One fully-specified, seedable workload."""

    name: str
    description: str = ""
    seed: int = 2022
    cluster: ClusterShape = field(default_factory=ClusterShape)
    population: Population = field(default_factory=Population)
    traffic: Traffic = field(default_factory=Traffic)
    tenants: tuple[TenantSpec, ...] = (TenantSpec(name="default"),)
    overload: OverloadSpec | None = None
    tracing: TracingSpec | None = None
    tiering: TieringSpec | None = None
    rpc: RpcSpec | None = None

    FIELDS = ("schema_version", "name", "description", "seed", "cluster",
              "population", "traffic", "tenants", "overload", "tracing",
              "tiering", "rpc")

    @classmethod
    def from_obj(cls, obj: object, path: str = "scenario") -> "Scenario":
        data = _require_mapping(obj, path)
        _check_fields(data, cls.FIELDS, path)
        version = _number(data, "schema_version", path, SCHEMA_VERSION,
                          integer=True)
        if version != SCHEMA_VERSION:
            raise _fail(f"{path}.schema_version",
                        f"unsupported version {version} (this build reads "
                        f"{SCHEMA_VERSION})")
        name = _string(data, "name", path)
        if not _NAME_RE.match(name):
            raise _fail(f"{path}.name",
                        f"invalid scenario name {name!r} (lowercase "
                        "letters/digits/._- only; it names the artifact file)")
        tenants_raw = data.get("tenants", [{"name": "default"}])
        if not isinstance(tenants_raw, list) or not tenants_raw:
            raise _fail(f"{path}.tenants", "expected a non-empty list")
        tenants = tuple(
            TenantSpec.from_obj(item, f"{path}.tenants[{i}]")
            for i, item in enumerate(tenants_raw)
        )
        if len({t.name for t in tenants}) != len(tenants):
            raise _fail(f"{path}.tenants", "tenant names must be unique")
        scenario = cls(
            name=name,
            description=_string(data, "description", path, ""),
            seed=_number(data, "seed", path, 2022, lo=0, integer=True),
            cluster=ClusterShape.from_obj(
                data.get("cluster", {}), f"{path}.cluster"
            ),
            population=Population.from_obj(
                data.get("population", {}), f"{path}.population"
            ),
            traffic=Traffic.from_obj(data.get("traffic", {}), f"{path}.traffic"),
            tenants=tenants,
            overload=(
                OverloadSpec.from_obj(data["overload"], f"{path}.overload")
                if data.get("overload") is not None
                else None
            ),
            tracing=(
                TracingSpec.from_obj(data["tracing"], f"{path}.tracing")
                if data.get("tracing") is not None
                else None
            ),
            tiering=(
                TieringSpec.from_obj(data["tiering"], f"{path}.tiering")
                if data.get("tiering") is not None
                else None
            ),
            rpc=(
                RpcSpec.from_obj(data["rpc"], f"{path}.rpc")
                if data.get("rpc") is not None
                else None
            ),
        )
        if scenario.traffic.scan_length > scenario.population.objects:
            raise _fail(f"{path}.traffic.scan_length",
                        "scan_length cannot exceed the population size")
        return scenario

    def to_obj(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "cluster": self.cluster.to_obj(),
            "population": self.population.to_obj(),
            "traffic": self.traffic.to_obj(),
            "tenants": [t.to_obj() for t in self.tenants],
        }
        if self.overload is not None:
            out["overload"] = self.overload.to_obj()
        if self.tracing is not None:
            out["tracing"] = self.tracing.to_obj()
        if self.tiering is not None:
            out["tiering"] = self.tiering.to_obj()
        if self.rpc is not None:
            out["rpc"] = self.rpc.to_obj()
        return out

    def with_seed(self, seed: int) -> "Scenario":
        return dataclasses.replace(self, seed=int(seed))

    def dumps(self) -> str:
        """Canonical JSON (sorted keys, trailing newline) — byte-stable."""
        return json.dumps(self.to_obj(), indent=2, sort_keys=True) + "\n"


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
