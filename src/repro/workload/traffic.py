"""The seeded op-stream generator: scenario → deterministic WorkloadOps.

``generate_stream(scenario, seed)`` is a pure function — same scenario
and seed, byte-identical op list. Each draw family (keys, op kinds,
tenants, payload sizes, arrival times) gets its own named RNG stream via
:meth:`DeterministicRng.spawn`, so adding draws to one family never
perturbs the others (the repo's randomness discipline).

Key references are *slots* in ``[0, population.objects)``: a slot is a
stable name whose current object version the runner tracks (a write
replaces the slot's object, a delete empties it). Scans touch
``scan_length`` consecutive slots starting at the drawn one, the
range-read shape of analytics workloads.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.common.rng import DeterministicRng
from repro.workload.arrival import open_loop_arrivals
from repro.workload.popularity import _unit_draws, access_sequence_for
from repro.workload.scenario import Scenario


class WorkloadOp(NamedTuple):
    """One generated request.

    ``at_ns`` is the open-loop arrival timestamp; ``None`` in closed-loop
    mode, where issue times only exist once the run resolves them.
    ``size_bytes`` is the payload size for writes and 0 otherwise.
    """

    seq: int
    at_ns: int | None
    tenant: str
    kind: str
    slot: int
    size_bytes: int = 0


def _weighted_names(
    rng: DeterministicRng, pairs: list[tuple[str, float]], n: int
) -> list[str]:
    """*n* weighted draws over ``(name, weight)`` pairs, one unit draw each."""
    live = [(name, float(w)) for name, w in pairs if w > 0]
    if not live:
        raise ValueError("need at least one positive weight")
    if len(live) == 1:
        return [live[0][0]] * n
    names = [name for name, _ in live]
    weights = np.array([w for _, w in live], dtype=np.float64)
    cumulative = np.cumsum(weights / weights.sum())
    draws = _unit_draws(rng, n)
    picks = np.searchsorted(cumulative, draws, side="right")
    return [names[int(i)] for i in np.minimum(picks, len(names) - 1)]


def generate_stream(
    scenario: Scenario, seed: int | None = None
) -> list[WorkloadOp]:
    """The full op stream for *scenario* (``seed`` overrides the file's)."""
    seed = scenario.seed if seed is None else int(seed)
    traffic = scenario.traffic
    n = traffic.ops
    root = DeterministicRng(seed)

    pop = traffic.popularity
    slots = access_sequence_for(
        pop.model,
        root.spawn("keys"),
        scenario.population.objects,
        n,
        s=pop.s,
        hot_fraction=pop.hot_fraction,
        hot_weight=pop.hot_weight,
    )
    kinds = _weighted_names(root.spawn("mix"), list(traffic.mix), n)
    tenants = _weighted_names(
        root.spawn("tenants"),
        [(t.name, float(t.weight)) for t in scenario.tenants],
        n,
    )

    arrival = traffic.arrival
    if arrival.mode == "open":
        at: list[int | None] = list(
            open_loop_arrivals(
                root.spawn("arrivals"),
                n,
                arrival.base_rate_ops_per_s,
                amplitude=arrival.diurnal_amplitude,
                period_s=arrival.diurnal_period_s,
            )
        )
    else:
        at = [None] * n

    size_rng = root.spawn("sizes")
    size_model = scenario.population.size
    ops: list[WorkloadOp] = []
    for seq in range(n):
        kind = kinds[seq]
        ops.append(
            WorkloadOp(
                seq=seq,
                at_ns=at[seq],
                tenant=tenants[seq],
                kind=kind,
                slot=int(slots[seq]),
                size_bytes=size_model.draw(size_rng) if kind == "write" else 0,
            )
        )
    return ops
