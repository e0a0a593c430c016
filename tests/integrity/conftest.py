"""Fixtures for the integrity & recovery suite.

The standalone fixtures deliberately share one endpoint/region across
store instances: the region is the *surviving* artifact of a crash, so
"build a second store over the same region" is the restart model.
"""

from __future__ import annotations

import pytest

from repro.common.clock import SimClock
from repro.common.config import LocalMemoryConfig, StoreConfig, testing_config
from repro.common.rng import DeterministicRng
from repro.common.units import MiB
from repro.core import Cluster
from repro.memory.host import HostMemory
from repro.plasma import PlasmaStore
from repro.thymesisflow.endpoint import ThymesisEndpoint


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def endpoint(clock):
    mem = HostMemory(16 * MiB, node="n0")
    return ThymesisEndpoint(
        "n0", mem, clock, LocalMemoryConfig(jitter_sigma=0.0), DeterministicRng(4)
    )


@pytest.fixture
def make_store(clock, endpoint):
    """Build (and rebuild) stores over the shared region — each call models
    a process (re)start against the same disaggregated memory."""

    def make(**overrides) -> PlasmaStore:
        cfg = StoreConfig(capacity_bytes=16 * MiB, **overrides)
        return PlasmaStore("store0", endpoint, endpoint.memory.whole(), cfg, clock)

    return make


@pytest.fixture
def store(make_store):
    return make_store()


@pytest.fixture
def cluster3():
    return Cluster(
        testing_config(capacity_bytes=32 * MiB, seed=99).with_store(
            check_remote_uniqueness=False
        ),
        3,
    )


def put_sealed(store, oid, payload: bytes, metadata: bytes = b""):
    """Create + write + seal directly against the store (no client layer)."""
    entry = store.create_object_unchecked(oid, len(payload), metadata)
    store.local_buffer(entry).write(payload)
    return store.seal_object(oid)
