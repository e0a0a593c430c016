"""Multi-tenant admission control: quotas and token buckets on simulated time.

A shared disaggregated store is only shareable if one tenant cannot starve
the rest — the canonical production traffic shape for memory
disaggregation is many tenants with wildly different demand. This module
enforces, at the client entry point and *before* any cluster work happens:

* **stored-byte quotas** — an upper bound on a tenant's live footprint,
  maintained by :meth:`AdmissionController.record_stored` as writes land
  and deletes free;
* **ops/s rate limits** — a :class:`TokenBucket` per tenant refilled by
  simulated time, so a burst above ``burst_ops`` is throttled;
* **write-bandwidth limits** — a second bucket denominated in bytes.

Rejections raise the typed
:class:`~repro.common.errors.AdmissionRejectedError` carrying the tenant
and a machine-readable reason (``ops_rate`` / ``write_rate`` /
``byte_quota``), and are counted per tenant; the BENCH artifact reports
the counts (:meth:`AdmissionController.snapshot`).

Everything here is pure state driven by explicit ``now_ns`` arguments:
no wall clock, no RNG, so admission decisions are a deterministic function
of the op stream and the scenario's quotas.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.clock import NS_PER_S
from repro.common.errors import AdmissionRejectedError

#: Machine-readable rejection reasons (the `reason` on the typed error).
REJECT_REASONS = ("ops_rate", "write_rate", "byte_quota")


class TokenBucket:
    """A token bucket refilled continuously by simulated time.

    Starts full. ``try_take(n, now_ns)`` refills according to the elapsed
    simulated nanoseconds, then either debits *n* tokens and returns True
    or leaves the bucket untouched and returns False (failed attempts do
    not consume capacity).
    """

    __slots__ = ("rate_per_s", "burst", "_tokens", "_refilled_at_ns")

    def __init__(self, rate_per_s: float, burst: float, *, now_ns: int = 0):
        if rate_per_s <= 0:
            raise ValueError("token rate must be positive")
        if burst <= 0:
            raise ValueError("burst must be positive")
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._refilled_at_ns = int(now_ns)

    def _refill(self, now_ns: int) -> None:
        if now_ns > self._refilled_at_ns:
            elapsed_s = (now_ns - self._refilled_at_ns) / NS_PER_S
            self._tokens = min(
                self.burst, self._tokens + elapsed_s * self.rate_per_s
            )
            self._refilled_at_ns = now_ns

    def try_take(self, n: float, now_ns: int) -> bool:
        self._refill(now_ns)
        if self._tokens + 1e-9 < n:
            return False
        self._tokens -= n
        return True

    def available(self, now_ns: int) -> float:
        self._refill(now_ns)
        return self._tokens


@dataclass(frozen=True)
class TenantQuota:
    """Admission limits for one tenant; ``None`` disables that limit."""

    max_stored_bytes: int | None = None
    ops_per_s: float | None = None
    burst_ops: int = 32
    write_bytes_per_s: float | None = None
    burst_bytes: int = 1 << 20


class _TenantState:
    __slots__ = ("quota", "ops_bucket", "bytes_bucket", "stored_bytes",
                 "admitted", "rejected", "rejected_by_reason")

    def __init__(self, quota: TenantQuota, now_ns: int):
        self.quota = quota
        self.ops_bucket = (
            TokenBucket(quota.ops_per_s, quota.burst_ops, now_ns=now_ns)
            if quota.ops_per_s is not None
            else None
        )
        self.bytes_bucket = (
            TokenBucket(quota.write_bytes_per_s, quota.burst_bytes,
                        now_ns=now_ns)
            if quota.write_bytes_per_s is not None
            else None
        )
        self.stored_bytes = 0
        self.admitted = 0
        self.rejected = 0
        self.rejected_by_reason: dict[str, int] = {}


class AdmissionController:
    """Per-tenant admission decisions for a workload run.

    Tenants without a registered quota are unlimited (but still counted),
    so single-tenant scenarios pay nothing for the machinery.
    """

    def __init__(self) -> None:
        self._tenants: dict[str, _TenantState] = {}

    # -- configuration -------------------------------------------------------

    def set_quota(self, tenant: str, quota: TenantQuota,
                  *, now_ns: int = 0) -> None:
        """Install (or replace) *tenant*'s quota.

        Replacing resets the token buckets (they start full at ``now_ns``)
        but preserves the stored-byte account and admission counters —
        bytes already in the store do not evaporate when limits change.
        """
        state = self._tenants.get(tenant)
        fresh = _TenantState(quota, now_ns)
        if state is not None:
            fresh.stored_bytes = state.stored_bytes
            fresh.admitted = state.admitted
            fresh.rejected = state.rejected
            fresh.rejected_by_reason = state.rejected_by_reason
        self._tenants[tenant] = fresh

    # -- decisions -----------------------------------------------------------

    def _state(self, tenant: str) -> _TenantState | None:
        return self._tenants.get(tenant)

    def _reject(self, state: _TenantState, tenant: str, reason: str,
                detail: str) -> None:
        state.rejected += 1
        by_reason = state.rejected_by_reason
        by_reason[reason] = by_reason.get(reason, 0) + 1
        raise AdmissionRejectedError(tenant, reason, detail)

    def admit(self, tenant: str, kind: str, nbytes: int, now_ns: int) -> None:
        """Admit one *kind* op of *nbytes* for *tenant* or raise.

        Checks run cheapest-first and a rejected op consumes no tokens:
        ops-rate, then (for writes) write-bandwidth, then the stored-byte
        quota projected to include this write.
        """
        state = self._state(tenant)
        if state is None:
            state = _TenantState(TenantQuota(), now_ns)
            self._tenants[tenant] = state
        quota = state.quota
        writes = kind == "write"
        if state.ops_bucket is not None and not state.ops_bucket.try_take(
            1.0, now_ns
        ):
            self._reject(
                state, tenant, "ops_rate",
                f"over {quota.ops_per_s:g} ops/s (burst {quota.burst_ops})",
            )
        if writes and state.bytes_bucket is not None:
            if not state.bytes_bucket.try_take(float(nbytes), now_ns):
                self._reject(
                    state, tenant, "write_rate",
                    f"over {quota.write_bytes_per_s:g} B/s "
                    f"(burst {quota.burst_bytes})",
                )
        if (
            writes
            and quota.max_stored_bytes is not None
            and state.stored_bytes + nbytes > quota.max_stored_bytes
        ):
            self._reject(
                state, tenant, "byte_quota",
                f"{state.stored_bytes} stored + {nbytes} new > "
                f"{quota.max_stored_bytes} quota",
            )
        state.admitted += 1

    def record_stored(self, tenant: str, delta_bytes: int) -> None:
        """Account a footprint change: positive on put, negative on delete."""
        state = self._state(tenant)
        if state is None:
            state = _TenantState(TenantQuota(), 0)
            self._tenants[tenant] = state
        state.stored_bytes = max(0, state.stored_bytes + int(delta_bytes))

    # -- introspection -------------------------------------------------------

    def stored_bytes(self, tenant: str) -> int:
        state = self._state(tenant)
        return state.stored_bytes if state is not None else 0

    def snapshot(self) -> dict:
        """Deterministic per-tenant admission accounting (sorted by name)."""
        return {
            tenant: {
                "admitted": state.admitted,
                "rejected": state.rejected,
                "rejected_by_reason": dict(
                    sorted(state.rejected_by_reason.items())
                ),
                "stored_bytes": state.stored_bytes,
            }
            for tenant, state in sorted(self._tenants.items())
        }
