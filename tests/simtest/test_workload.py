"""Workload generator: determinism and schedule-space coverage."""

from repro.simtest.workload import generate_ops


def test_same_seed_same_trace():
    assert generate_ops(42, 300) == generate_ops(42, 300)


def test_different_seeds_differ():
    assert generate_ops(1, 100) != generate_ops(2, 100)


def test_exact_length():
    for n in (1, 17, 250):
        assert len(generate_ops(5, n)) == n


def test_covers_all_interesting_kinds():
    """Across a modest seed budget the generator exercises the whole
    vocabulary — crashes, membership changes and maintenance included."""
    seen = set()
    for seed in range(12):
        seen |= {op.kind for op in generate_ops(seed, 200)}
    assert {
        "put", "tenant_put", "set_quota", "get", "delete", "crash",
        "recover", "partition", "heal", "degrade", "restore", "blackhole",
        "add_node", "drain", "remove", "scrub", "rebalance", "health",
        "advance",
    } <= seen


def test_put_before_get_for_same_object():
    """The generator only reads ids it has already put (modulo the
    deliberate stale-id reads, which reference smaller ids)."""
    for seed in range(5):
        put_ids = set()
        for op in generate_ops(seed, 200):
            if op.kind in ("put", "tenant_put"):
                put_ids.add(op["obj"])
            elif op.kind == "get":
                assert op["obj"] <= max(put_ids)


class TestConcurrencyProfile:
    def test_deterministic(self):
        first = generate_ops(11, 200, profile="concurrency")
        assert first == generate_ops(11, 200, profile="concurrency")

    def test_op_zero_flips_to_async(self):
        for seed in range(5):
            ops = generate_ops(seed, 200, profile="concurrency")
            assert ops[0].kind == "set_rpc_mode"
            assert ops[0]["mode"] == "async"
            assert len(ops) == 200

    def test_exercises_async_vocabulary(self):
        seen = set()
        for seed in range(8):
            seen |= {
                op.kind for op in generate_ops(seed, 200, profile="concurrency")
            }
        assert {
            "multi_get", "set_rpc_mode", "put", "get", "delete", "crash",
            "blackhole", "promote", "rebalance",
        } <= seen

    def test_multi_get_targets_known_ids(self):
        """Batched reads draw from put ids (modulo the deliberate
        poisoned slot, which references a smaller id)."""
        for seed in range(5):
            put_ids = {-1}
            for op in generate_ops(seed, 200, profile="concurrency"):
                if op.kind == "put":
                    put_ids.add(op["obj"])
                elif op.kind == "multi_get":
                    objs = [int(x) for x in str(op["objs"]).split(",")]
                    assert len(objs) >= 2 or objs
                    assert max(objs) <= max(put_ids)

    def test_default_profile_is_byte_identical_to_legacy(self):
        """The profile parameter must not disturb the default stream —
        golden seeds and shrunk reproducers depend on it."""
        assert generate_ops(42, 300) == generate_ops(
            42, 300, profile="default"
        )
        assert all(
            op.kind not in ("multi_get", "set_rpc_mode")
            for op in generate_ops(42, 300)
        )


class TestTierHazardsProfile:
    def test_deterministic(self):
        first = generate_ops(11, 200, profile="tier-hazards")
        assert first == generate_ops(11, 200, profile="tier-hazards")

    def test_draws_only_the_hazard_vocabulary(self):
        """Puts, gets, deletes and partitions (plus the health/advance
        fallbacks) — nothing that would clear or bypass the hot caches."""
        seen = set()
        for seed in range(8):
            seen |= {
                op.kind for op in generate_ops(seed, 200, profile="tier-hazards")
            }
        assert {"put", "get", "delete", "partition", "heal"} <= seen
        assert seen <= {"put", "get", "delete", "partition", "heal", "health", "advance"}
