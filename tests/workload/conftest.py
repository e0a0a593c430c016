"""Shared fixtures: a small fast scenario the runner tests reuse."""

from __future__ import annotations

import copy
import dataclasses
import typing

import pytest

from repro.workload import Scenario

MINI_OBJ = {
    "schema_version": 1,
    "name": "mini",
    "description": "tiny two-node inline scenario for unit tests",
    "seed": 11,
    "cluster": {"nodes": 2, "capacity_mib": 32},
    "population": {"objects": 16, "size": {"dist": "fixed", "bytes": 2048}},
    "traffic": {
        "ops": 40,
        "mix": {"read": 60, "write": 25, "delete": 10, "scan": 5},
        "scan_length": 4,
        "popularity": {"model": "uniform"},
        "arrival": {"mode": "open", "base_rate_ops_per_s": 500},
    },
    "tenants": [
        {"name": "alpha", "weight": 3},
        {"name": "beta", "weight": 1, "quota": {"ops_per_s": 40, "burst_ops": 2}},
    ],
}


def mini_obj(**overrides) -> dict:
    """Deep copy of the baseline scenario object with top-level overrides."""
    obj = copy.deepcopy(MINI_OBJ)
    obj.update(overrides)
    return obj


@pytest.fixture()
def mini_scenario() -> Scenario:
    return Scenario.from_obj(mini_obj())


def declared_keys(cls=Scenario) -> set[str]:
    """Every key a scenario file may use, at any depth, read off the
    reader's field declarations."""
    hints = typing.get_type_hints(cls)
    keys = {"schema_version"} if cls is Scenario else set()
    for f in dataclasses.fields(cls):
        keys.add(f.name)
        if f.metadata.get("shorthand"):
            keys.add(f.metadata["shorthand"])
        tp = hints[f.name]
        if typing.get_origin(tp) is tuple and f.metadata.get("choices"):
            keys.update(f.metadata["choices"])  # a weight table's keys
        for inner in (tp, *typing.get_args(tp)):
            if dataclasses.is_dataclass(inner):
                keys |= declared_keys(inner)
    return keys
