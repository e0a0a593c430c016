"""Op vocabulary: construction, validation, JSON round-trips."""

import json

import pytest

from repro.simtest.ops import Op, make
from repro.simtest.workload import generate_ops


def _to_json(ops):
    """The trace file's op list, as ``RunResult.to_trace`` writes it."""
    return json.dumps([op.to_obj() for op in ops], indent=2, sort_keys=True)


def _from_json(text):
    return [Op.from_obj(item) for item in json.loads(text)]


def test_make_and_access():
    op = make("put", obj=3, node="node1", size=256, replicas=2)
    assert op.kind == "put"
    assert op["obj"] == 3
    assert op["node"] == "node1"
    with pytest.raises(KeyError):
        op["missing"]


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        make("frobnicate", x=1)


def test_wrong_args_rejected():
    with pytest.raises(ValueError):
        make("put", obj=1)  # missing node/size/replicas
    with pytest.raises(ValueError):
        make("health", extra=1)


def test_json_round_trip():
    ops = [
        make("put", obj=0, node="node0", size=64, replicas=1),
        make("partition", a="node0", b="node1"),
        make("advance", ms=60),
        make("rebalance"),
    ]
    text = _to_json(ops)
    assert _from_json(text) == ops
    # Stable serialization: re-encoding yields identical text.
    assert _to_json(_from_json(text)) == text


def test_from_obj_round_trip_via_plain_dicts():
    op = make("blackhole", src="node0", dst="node2", ms=5)
    assert Op.from_obj(json.loads(json.dumps(op.to_obj()))) == op


def test_format_is_deterministic():
    op = make("put", obj=1, node="node0", size=64, replicas=1)
    assert op.format() == "put(node=node0, obj=1, replicas=1, size=64)"


def test_generated_ops_all_serialize():
    ops = generate_ops(7, 200)
    assert len(ops) == 200
    assert _from_json(_to_json(ops)) == ops
