"""Multi-tenant admission control: token buckets, quotas, accounting."""

import pytest

from repro.common.clock import NS_PER_S
from repro.common.errors import AdmissionRejectedError, ObjectStoreError
from repro.workload.admission import (
    REJECT_REASONS,
    AdmissionController,
    TenantQuota,
    TokenBucket,
)


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(10.0, 3.0)
        assert bucket.try_take(3, 0)
        assert not bucket.try_take(1, 0)

    def test_refills_with_simulated_time(self):
        bucket = TokenBucket(10.0, 3.0)
        assert bucket.try_take(3, 0)
        # 10 tokens/s: after 0.2 simulated seconds there are 2 tokens.
        assert bucket.try_take(2, int(0.2 * NS_PER_S))
        assert not bucket.try_take(1, int(0.2 * NS_PER_S))

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(1000.0, 5.0)
        assert bucket.available(10 * NS_PER_S) == pytest.approx(5.0)

    def test_failed_take_consumes_nothing(self):
        bucket = TokenBucket(10.0, 4.0)
        assert not bucket.try_take(5, 0)
        assert bucket.try_take(4, 0)


class TestAdmissionController:
    def _controller(self, **quota) -> AdmissionController:
        controller = AdmissionController()
        controller.set_quota("t", TenantQuota(**quota))
        return controller

    def test_unknown_tenant_is_unlimited_but_counted(self):
        controller = AdmissionController()
        controller.admit("ghost", "write", 1 << 30, now_ns=0)
        assert controller.snapshot()["ghost"]["admitted"] == 1

    def test_ops_rate_rejection(self):
        controller = self._controller(ops_per_s=10.0, burst_ops=2)
        controller.admit("t", "read", 0, now_ns=0)
        controller.admit("t", "read", 0, now_ns=0)
        with pytest.raises(AdmissionRejectedError) as excinfo:
            controller.admit("t", "read", 0, now_ns=0)
        assert excinfo.value.reason == "ops_rate"
        assert excinfo.value.tenant == "t"
        assert isinstance(excinfo.value, ObjectStoreError)

    def test_write_rate_rejection(self):
        controller = self._controller(
            write_bytes_per_s=1000.0, burst_bytes=2048
        )
        controller.admit("t", "write", 2048, now_ns=0)
        with pytest.raises(AdmissionRejectedError) as excinfo:
            controller.admit("t", "write", 1, now_ns=0)
        assert excinfo.value.reason == "write_rate"

    def test_byte_quota_rejection_is_projected(self):
        controller = self._controller(max_stored_bytes=4096)
        controller.admit("t", "write", 4096, now_ns=0)
        controller.record_stored("t", 4096)
        with pytest.raises(AdmissionRejectedError) as excinfo:
            controller.admit("t", "write", 1, now_ns=0)
        assert excinfo.value.reason == "byte_quota"
        # Reads are not byte-limited.
        controller.admit("t", "read", 0, now_ns=0)

    def test_reads_bypass_write_limits(self):
        controller = self._controller(
            write_bytes_per_s=1.0, burst_bytes=1, max_stored_bytes=1
        )
        for _ in range(50):
            controller.admit("t", "read", 0, now_ns=0)

    def test_rate_recovers_over_simulated_time(self):
        controller = self._controller(ops_per_s=10.0, burst_ops=1)
        controller.admit("t", "read", 0, now_ns=0)
        with pytest.raises(AdmissionRejectedError):
            controller.admit("t", "read", 0, now_ns=0)
        controller.admit("t", "read", 0, now_ns=NS_PER_S)

    def test_delete_refund_reopens_byte_quota(self):
        controller = self._controller(max_stored_bytes=4096)
        controller.admit("t", "write", 4096, now_ns=0)
        controller.record_stored("t", 4096)
        controller.record_stored("t", -4096)
        controller.admit("t", "write", 4096, now_ns=0)

    def test_record_stored_clamps_at_zero(self):
        controller = AdmissionController()
        controller.record_stored("t", -100)
        assert controller.stored_bytes("t") == 0

    def test_set_quota_preserves_accounting(self):
        controller = self._controller(ops_per_s=1.0, burst_ops=1)
        controller.admit("t", "read", 0, now_ns=0)
        controller.record_stored("t", 512)
        with pytest.raises(AdmissionRejectedError):
            controller.admit("t", "read", 0, now_ns=0)
        controller.set_quota("t", TenantQuota(ops_per_s=100.0))
        assert controller.stored_bytes("t") == 512
        snap = controller.snapshot()["t"]
        assert snap["admitted"] == 1
        assert snap["rejected"] == 1

    def test_snapshot_reasons_are_known(self):
        controller = self._controller(ops_per_s=10.0, burst_ops=1)
        controller.admit("t", "read", 0, now_ns=0)
        with pytest.raises(AdmissionRejectedError):
            controller.admit("t", "read", 0, now_ns=0)
        snap = controller.snapshot()["t"]
        assert set(snap["rejected_by_reason"]) <= set(REJECT_REASONS)
        assert snap["rejected_by_reason"]["ops_rate"] == 1
