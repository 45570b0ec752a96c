"""Scenario file loading and validation.

A scenario file is a JSON document describing the database, the partition
format, the queries (a nonadaptive list or an adaptive threshold tree), the
epsilon grid and the evaluation mode. Unknown fields are rejected so that
typos fail loudly. See README.md for the full schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .compose import AdaptiveSpec, CompositionSpec, NonadaptiveSpec, ThresholdTree
from .curve import epsilon_grid
from .errors import DomainError, is_int
from .partition import TemplateFormat
from .spc import (
    Enumerate,
    ExplicitEntries,
    IidEntries,
    KnownEntries,
    MonteCarlo,
    PropertyQuery,
    Scenario,
    require_seed,
)

SCHEMA_VERSION = 1

_TOP_LEVEL_KEYS = {
    "schema_version", "n", "entry_model", "critical_index", "format",
    "queries", "epsilons", "mode", "seed",
}


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: Scenario
    spec: CompositionSpec
    epsilons: tuple[float, ...]
    mode: Enumerate | MonteCarlo


def _fail(msg: str) -> None:
    raise DomainError(f"scenario file: {msg}")


def _int(value, what: str) -> int:
    """A JSON integer; floats, strings and booleans are refused."""
    if not is_int(value):
        _fail(f"{what} must be an integer, got {value!r}")
    return value


def _is_number(value) -> bool:
    """A JSON number: an int or a float, but not a boolean or a string."""
    return not isinstance(value, bool) and isinstance(value, (int, float))


def _prob(value, what: str) -> float:
    """A JSON number; range checks are left to the entry models."""
    if not _is_number(value):
        _fail(f"{what} must be a number, got {value!r}")
    return float(value)


def _probs(value, what: str) -> tuple[float, ...]:
    """A number or a list of numbers, one per attribute."""
    values = value if isinstance(value, list) else [value]
    return tuple(_prob(v, what) for v in values)


def _require_keys(obj: dict, allowed: set, required: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        _fail(f"unknown field(s) {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        _fail(f"missing field(s) {sorted(missing)} in {where}")


def _parse_entry_model(obj) -> IidEntries | ExplicitEntries | KnownEntries:
    if not isinstance(obj, dict):
        _fail("entry_model must be an object")
    kind = obj.get("kind")
    if kind == "iid":
        _require_keys(obj, {"kind", "p"}, {"kind", "p"}, "entry_model")
        return IidEntries(_probs(obj["p"], "entry_model.p"))
    if kind == "explicit":
        _require_keys(obj, {"kind", "probs"}, {"kind", "probs"}, "entry_model")
        if not isinstance(obj["probs"], list) or not obj["probs"]:
            _fail("explicit probs must be a nonempty list")
        return ExplicitEntries(tuple(_probs(r, "entry_model.probs") for r in obj["probs"]))
    if kind == "known":
        _require_keys(obj, {"kind", "p", "known", "known_positive"},
                      {"kind", "p", "known"}, "entry_model")
        return KnownEntries(_prob(obj["p"], "entry_model.p"),
                            _int(obj["known"], "entry_model.known"),
                            _int(obj.get("known_positive", 0), "entry_model.known_positive"))
    _fail(f"entry_model kind must be iid, explicit or known, got {kind!r}")


def _parse_query(obj) -> PropertyQuery:
    if not isinstance(obj, dict):
        _fail("query descriptors must be objects")
    _require_keys(obj, {"attribute", "negate"}, set(), "query descriptor")
    negate = obj.get("negate", False)
    if not isinstance(negate, bool):
        _fail(f"query negate must be true or false, got {negate!r}")
    return PropertyQuery(_int(obj.get("attribute", 0), "query attribute"), negate)


def _parse_tree(obj, depth: int) -> ThresholdTree:
    """Threshold tree node: {"query": {...}, "next": null | {"threshold": t,
    "low": node, "high": node}}. AdaptiveSpec checks the path lengths."""
    if not isinstance(obj, dict):
        _fail("adaptive tree nodes must be objects")
    _require_keys(obj, {"query", "next"}, {"query"}, f"tree node at depth {depth}")
    query = _parse_query(obj["query"])
    nxt = obj.get("next")
    if nxt is None:
        return ThresholdTree(query)
    if not isinstance(nxt, dict):
        _fail("tree 'next' must be an object or null")
    _require_keys(nxt, {"threshold", "low", "high"}, {"threshold", "low", "high"},
                  f"branch at depth {depth}")
    return ThresholdTree(query, _int(nxt["threshold"], "tree threshold"),
                         low=_parse_tree(nxt["low"], depth + 1),
                         high=_parse_tree(nxt["high"], depth + 1))


def parse_scenario(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        _fail("top level must be an object")
    _require_keys(doc, _TOP_LEVEL_KEYS,
                  {"schema_version", "n", "entry_model", "format", "queries", "epsilons"},
                  "the scenario")
    if _int(doc["schema_version"], "schema_version") != SCHEMA_VERSION:
        _fail(f"unsupported schema_version {doc['schema_version']!r}, expected {SCHEMA_VERSION}")
    n = _int(doc["n"], "n")
    entries = _parse_entry_model(doc["entry_model"])
    scenario = Scenario(n, entries, _int(doc.get("critical_index", 1), "critical_index"))
    if not isinstance(doc["format"], list) or not doc["format"]:
        _fail("format must be a nonempty list of block sizes")
    fmt = TemplateFormat(tuple(_int(s, "block size") for s in doc["format"]))
    try:
        fmt.require_fits(n)
    except DomainError as exc:
        _fail(str(exc))

    queries = doc["queries"]
    if not isinstance(queries, dict):
        _fail("queries must be an object")
    qmode = queries.get("mode")
    if qmode == "nonadaptive":
        _require_keys(queries, {"mode", "list"}, {"mode", "list"}, "queries")
        qlist = queries["list"]
        if not isinstance(qlist, list) or len(qlist) != fmt.num_blocks:
            _fail(f"need exactly {fmt.num_blocks} query descriptors")
        spec: CompositionSpec = NonadaptiveSpec(fmt, tuple(_parse_query(q) for q in qlist))
    elif qmode == "adaptive":
        _require_keys(queries, {"mode", "tree"}, {"mode", "tree"}, "queries")
        spec = AdaptiveSpec(fmt, _parse_tree(queries["tree"], 1))
    else:
        _fail(f"queries.mode must be nonadaptive or adaptive, got {qmode!r}")

    if not isinstance(doc["epsilons"], list):
        _fail("epsilons must be a list")
    for eps in doc["epsilons"]:
        if not _is_number(eps):
            _fail(f"epsilons must be finite numbers, got {eps!r}")
    epsilons = epsilon_grid(doc["epsilons"])

    mode_doc = doc.get("mode", "enumerate")
    seed = _int(doc.get("seed", 0), "seed")
    require_seed(seed, "scenario file: seed")
    if mode_doc == "enumerate":
        mode: Enumerate | MonteCarlo = Enumerate()
    elif isinstance(mode_doc, dict):
        _require_keys(mode_doc, {"monte_carlo"}, {"monte_carlo"}, "mode")
        mc = mode_doc["monte_carlo"]
        if not isinstance(mc, dict):
            _fail("mode.monte_carlo must be an object")
        _require_keys(mc, {"trials"}, {"trials"}, "mode.monte_carlo")
        mode = MonteCarlo(_int(mc["trials"], "mode.monte_carlo.trials"), seed=seed)
    else:
        _fail(f"mode must be 'enumerate' or a monte_carlo object, got {mode_doc!r}")
    return ScenarioConfig(scenario=scenario, spec=spec, epsilons=epsilons, mode=mode)


def load_scenario(path: str | Path) -> ScenarioConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DomainError(f"cannot read scenario file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"scenario file is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"scenario file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DomainError("scenario file nests too deeply") from exc
    return parse_scenario(doc)
