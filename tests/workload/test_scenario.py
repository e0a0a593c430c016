"""Scenario schema: loading, validation, and loader behavior."""

import dataclasses
import json
import re
import sys
import typing
from pathlib import Path

import pytest

from repro.workload import SCHEMA_VERSION, Scenario, ScenarioError, load_scenario
from repro.workload.scenario import ClusterShape, loads

from tests.workload.conftest import declared_keys, mini_obj

DOCS = Path(__file__).resolve().parents[2] / "docs" / "workloads.md"


class TestRoundTrip:
    def test_with_seed(self):
        scenario = Scenario.from_obj(mini_obj())
        assert scenario.with_seed(99).seed == 99
        assert scenario.seed == 11  # frozen original untouched

    def test_load_scenario_from_file(self, tmp_path):
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(mini_obj()), encoding="utf-8")
        assert load_scenario(path).name == "mini"

    def test_committed_scenarios_all_load(self):
        from pathlib import Path

        files = sorted(Path("benchmarks/scenarios").glob("*.json"))
        assert len(files) >= 3
        for path in files:
            scenario = load_scenario(path)
            assert scenario.name == path.stem


class TestRejection:
    def test_unknown_top_level_field(self):
        with pytest.raises(ScenarioError, match="unknown field"):
            Scenario.from_obj(mini_obj(bogus=1))

    def test_unknown_nested_field_names_the_path(self):
        obj = mini_obj()
        obj["traffic"]["arrival"]["warp_speed"] = True
        with pytest.raises(ScenarioError, match="arrival"):
            Scenario.from_obj(obj)

    def test_wrong_schema_version(self):
        with pytest.raises(ScenarioError, match="schema_version"):
            Scenario.from_obj(mini_obj(schema_version=99))

    def test_bad_name(self):
        with pytest.raises(ScenarioError, match="name"):
            Scenario.from_obj(mini_obj(name="Has Spaces!"))

    def test_duplicate_tenant_names(self):
        obj = mini_obj()
        obj["tenants"] = [{"name": "a"}, {"name": "a"}]
        with pytest.raises(ScenarioError, match="tenant"):
            Scenario.from_obj(obj)

    def test_single_node_cluster_rejected(self):
        obj = mini_obj()
        obj["cluster"]["nodes"] = 1
        with pytest.raises(ScenarioError):
            Scenario.from_obj(obj)

    def test_replicas_cannot_exceed_nodes(self):
        obj = mini_obj()
        obj["cluster"]["replicas"] = 5
        with pytest.raises(ScenarioError, match="replicas"):
            Scenario.from_obj(obj)

    def test_negative_rate_rejected(self):
        obj = mini_obj()
        obj["traffic"]["arrival"]["base_rate_ops_per_s"] = -1
        with pytest.raises(ScenarioError):
            Scenario.from_obj(obj)

    def test_bad_mix_kind_rejected(self):
        obj = mini_obj()
        obj["traffic"]["mix"] = {"read": 1, "teleport": 1}
        with pytest.raises(ScenarioError, match="mix"):
            Scenario.from_obj(obj)

    def test_bad_size_distribution(self):
        obj = mini_obj()
        obj["population"]["size"] = {"dist": "pareto"}
        with pytest.raises(ScenarioError, match="dist"):
            Scenario.from_obj(obj)

    def test_non_mapping_input(self):
        with pytest.raises(ScenarioError):
            Scenario.from_obj([1, 2, 3])


class TestFormats:
    def test_unknown_format_rejected(self):
        with pytest.raises(ScenarioError, match="format"):
            loads("{}", fmt="yaml")

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is 3.11+")
    def test_toml_loads(self):
        text = """
name = "toml-mini"
seed = 5

[cluster]
nodes = 2

[population]
objects = 8

[traffic]
ops = 10
"""
        scenario = loads(text, fmt="toml")
        assert scenario.name == "toml-mini"
        assert scenario.cluster.n_nodes == 2

    @pytest.mark.skipif(sys.version_info >= (3, 11), reason="gating path")
    def test_toml_gated_below_311(self):
        with pytest.raises(ScenarioError, match="toml"):
            loads("name = 'x'", fmt="toml")


class TestDocumentedSchema:
    """docs/workloads.md's schema block is the reader's declarations: the
    same keys, and every value it shows is the declared default."""

    @staticmethod
    def block() -> str:
        text = DOCS.read_text(encoding="utf-8")
        return text.split("```jsonc\n", 1)[1].split("```", 1)[0]

    def test_documented_keys_are_the_readers_keys(self):
        documented = set(re.findall(r'"(\w+)"\s*:', self.block()))
        assert documented == declared_keys()

    def test_documented_values_are_the_defaults(self):
        doc = json.loads(re.sub(r"//.*", "", self.block()))
        assert doc.pop("schema_version") == SCHEMA_VERSION
        self.assert_defaults(Scenario, doc, "scenario")

    def assert_defaults(self, cls, doc: dict, path: str) -> None:
        hints = typing.get_type_hints(cls)
        fields = {f.name: f for f in dataclasses.fields(cls)}
        for key, value in doc.items():
            where = f"{path}.{key}"
            if key == "nodes":
                assert value == ClusterShape().n_nodes, where
                continue
            tp, f = hints[key], fields[key]
            blocks = [t for t in (tp, *typing.get_args(tp))
                      if dataclasses.is_dataclass(t)]
            if blocks:
                for item in value if isinstance(value, list) else [value]:
                    self.assert_defaults(blocks[0], item, where)
            elif f.default is not dataclasses.MISSING:
                default = dict(f.default) if isinstance(value, dict) else f.default
                assert value == default, where
