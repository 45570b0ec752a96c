import json

import pytest

from spacct import (
    AdaptiveSpec,
    DomainError,
    Enumerate,
    MonteCarlo,
    NonadaptiveSpec,
    PropertyQuery,
    ThresholdTree,
)
from spacct.scenario_io import load_scenario, parse_scenario


def base_doc() -> dict:
    return {
        "schema_version": 1,
        "n": 6,
        "entry_model": {"kind": "iid", "p": 0.5},
        "format": [3, 3],
        "queries": {"mode": "nonadaptive", "list": [{"attribute": 0}, {"attribute": 0}]},
        "epsilons": [0.1, 0.2],
    }


class TestParsing:
    def test_minimal_nonadaptive(self):
        config = parse_scenario(base_doc())
        assert isinstance(config.spec, NonadaptiveSpec)
        assert config.scenario.n == 6
        assert config.epsilons == (0.1, 0.2)
        assert isinstance(config.mode, Enumerate)

    def test_explicit_entries(self):
        doc = base_doc()
        doc["entry_model"] = {"kind": "explicit", "probs": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]}
        config = parse_scenario(doc)
        assert config.scenario.probs_matrix()[2, 0] == 0.3

    def test_known_entries(self):
        doc = base_doc()
        doc["entry_model"] = {"kind": "known", "p": 0.5, "known": 2, "known_positive": 1}
        config = parse_scenario(doc)
        assert config.scenario.entries.known == 2

    def test_adaptive_tree(self):
        doc = base_doc()
        doc["queries"] = {
            "mode": "adaptive",
            "tree": {
                "query": {"attribute": 0},
                "next": {
                    "threshold": 2,
                    "low": {"query": {"attribute": 0, "negate": True}},
                    "high": {"query": {"attribute": 0}},
                },
            },
        }
        config = parse_scenario(doc)
        assert isinstance(config.spec, AdaptiveSpec)
        assert config.spec.tree == ThresholdTree(
            PropertyQuery(0), 2,
            low=ThresholdTree(PropertyQuery(0, negate=True)), high=ThresholdTree(PropertyQuery(0)))

    def test_monte_carlo_mode(self):
        doc = base_doc()
        doc["entry_model"] = {"kind": "explicit", "probs": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]}
        doc["mode"] = {"monte_carlo": {"trials": 500}}
        doc["seed"] = 7
        config = parse_scenario(doc)
        assert config.mode == MonteCarlo(trials=500, seed=7)


class TestValidation:
    def test_negative_seed_takes_the_one_seed_rule(self):
        doc = base_doc()
        doc["seed"] = -1
        with pytest.raises(DomainError) as info:
            parse_scenario(doc)
        assert str(info.value) == ("scenario file: seed must be a nonnegative integer or a "
                                   "tuple of such seeds, got -1")

    def test_unknown_top_level_field(self):
        doc = base_doc()
        doc["unexpected"] = 1
        with pytest.raises(DomainError, match="unknown field"):
            parse_scenario(doc)

    def test_missing_required_field(self):
        doc = base_doc()
        del doc["epsilons"]
        with pytest.raises(DomainError, match="missing field"):
            parse_scenario(doc)

    def test_wrong_schema_version(self):
        doc = base_doc()
        doc["schema_version"] = 2
        with pytest.raises(DomainError, match="schema_version"):
            parse_scenario(doc)

    def test_query_count_mismatch(self):
        doc = base_doc()
        doc["queries"]["list"] = [{"attribute": 0}]
        with pytest.raises(DomainError, match="descriptor"):
            parse_scenario(doc)

    def test_unknown_query_field(self):
        doc = base_doc()
        doc["queries"]["list"] = [{"attribute": 0}, {"attr": 1}]
        with pytest.raises(DomainError, match="unknown field"):
            parse_scenario(doc)

    def test_tree_too_shallow(self):
        doc = base_doc()
        doc["queries"] = {"mode": "adaptive", "tree": {"query": {"attribute": 0}}}
        with pytest.raises(DomainError, match="shorter"):
            parse_scenario(doc)

    def test_unsorted_epsilons(self):
        doc = base_doc()
        doc["epsilons"] = [0.2, 0.1]
        with pytest.raises(DomainError, match="increasing"):
            parse_scenario(doc)

    def test_format_too_large(self):
        doc = base_doc()
        doc["format"] = [4, 4]
        with pytest.raises(DomainError, match="format"):
            parse_scenario(doc)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("{not json")
        with pytest.raises(DomainError, match="JSON"):
            load_scenario(path)

    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(base_doc()))
        config = load_scenario(path)
        assert config.scenario.n == 6
