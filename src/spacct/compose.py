"""Composition bounds over injective random partitions.

Each of the m queries is answered on its own block of a randomly drawn
partition. The resulting guarantee is a weighted sum over the block that
receives the critical entry: weight n_k / n times the block's expected
divergence (nonadaptive), with an extra expectation over answer prefixes
when queries are chosen adaptively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .curve import d_hat, shift_pair_delta
from .distkit import binomial
from .errors import CapacityError, DomainError
from .partition import PartitionLaw, TemplateFormat, enumerate_templates
from .spc import (
    Enumerate,
    MonteCarlo,
    PropertyQuery,
    Scenario,
    spc_general,
)

# Adaptive evaluation refuses prefix spaces larger than this (per block).
PREFIX_CAP = 10**5


@dataclass(frozen=True)
class NonadaptiveSpec:
    """m queries fixed in advance, one per block."""

    format: TemplateFormat
    queries: tuple[PropertyQuery, ...]

    def __post_init__(self) -> None:
        queries = tuple(self.queries)
        object.__setattr__(self, "queries", queries)
        if len(queries) != self.format.num_blocks:
            raise DomainError("need exactly one query per block")


@dataclass(frozen=True)
class AdaptiveSpec:
    """Query k is chosen from the tuple of answers to queries 1..k-1.

    `choose` must return a PropertyQuery for every reachable prefix (the
    empty tuple selects the first query). Answer spaces are the finite
    count ranges 0..n_k implied by the format.
    """

    format: TemplateFormat
    choose: Callable[[tuple[int, ...]], PropertyQuery]


CompositionSpec = NonadaptiveSpec | AdaptiveSpec


@dataclass(frozen=True)
class BlockTerm:
    block: int
    weight: float
    delta: float
    half_width: float | None = None


@dataclass(frozen=True)
class CompositionReport:
    """Per-block divergence terms and their weighted total.

    total_delta is clamped to [0, 1]; raw_delta keeps the unclamped sum for
    diagnostics (aggressive parameters can push the bound above 1).
    """

    epsilon: float
    per_block: tuple[BlockTerm, ...]
    raw_delta: float
    total_delta: float
    mode: str
    total_half_width: float | None = None

    def to_dict(self) -> dict:
        out = {
            "epsilon": self.epsilon,
            "mode": self.mode,
            "raw_delta": self.raw_delta,
            "total_delta": self.total_delta,
            "per_block": [
                {
                    "block": t.block,
                    "weight": t.weight,
                    "delta": t.delta,
                    **({"half_width": t.half_width} if t.half_width is not None else {}),
                }
                for t in self.per_block
            ],
        }
        if self.total_half_width is not None:
            out["total_half_width"] = self.total_half_width
        return out


def _report(epsilon: float, terms: list[BlockTerm], mode: str) -> CompositionReport:
    raw = math.fsum(t.weight * t.delta for t in terms)
    hws = [t.weight * t.half_width for t in terms if t.half_width is not None]
    total_hw = math.sqrt(math.fsum(h * h for h in hws)) if hws else None
    return CompositionReport(
        epsilon=epsilon,
        per_block=tuple(terms),
        raw_delta=raw,
        total_delta=min(1.0, max(0.0, raw)),
        mode=mode,
        total_half_width=total_hw,
    )


def _require_fits(scenario: Scenario, fmt: TemplateFormat) -> None:
    if fmt.total > scenario.n:
        raise DomainError(f"format uses {fmt.total} indices but n={scenario.n}")


def _iid_attr_p(scenario: Scenario, query: PropertyQuery) -> float:
    if query.attribute >= scenario.num_attributes:
        raise DomainError(
            f"query targets attribute {query.attribute} but entries have "
            f"{scenario.num_attributes}")
    p = scenario.entries.probs[query.attribute]
    return 1.0 - p if query.negate else p


def _iid_block_dhat(scenario: Scenario, query: PropertyQuery, size: int,
                    epsilon: float, cache: dict) -> float:
    key = (query.attribute, query.negate, size)
    if key not in cache:
        cache[key] = shift_pair_delta(size - 1, _iid_attr_p(scenario, query), epsilon)
    return cache[key]


def nonadaptive_iid(scenario: Scenario, spec: NonadaptiveSpec, epsilon: float) -> CompositionReport:
    """Bound for iid entries: sum_k (n_k / n) * divergence at database size n_k."""
    if not scenario.is_iid:
        raise DomainError("nonadaptive_iid requires an iid scenario")
    if not isinstance(spec, NonadaptiveSpec):
        raise DomainError("spec must be nonadaptive")
    _require_fits(scenario, spec.format)
    cache: dict = {}
    terms = []
    for k, (size, query) in enumerate(zip(spec.format.sizes, spec.queries), start=1):
        delta = _iid_block_dhat(scenario, query, size, epsilon, cache)
        terms.append(BlockTerm(block=k, weight=size / scenario.n, delta=delta))
    return _report(epsilon, terms, "nonadaptive-iid")


def nonadaptive_general(scenario: Scenario, spec: NonadaptiveSpec, epsilon: float,
                        mode: Enumerate | MonteCarlo = Enumerate()) -> CompositionReport:
    """General-entry bound: per-block SPC under the law restricted to (j, k)."""
    if not isinstance(spec, NonadaptiveSpec):
        raise DomainError("spec must be nonadaptive")
    _require_fits(scenario, spec.format)
    j = scenario.critical_index
    terms = []
    for k, (size, query) in enumerate(zip(spec.format.sizes, spec.queries), start=1):
        law = PartitionLaw(scenario.n, spec.format, restriction=(j, k))
        block_mode = mode
        if isinstance(mode, MonteCarlo):
            # independent per-block streams derived from the one configured seed
            block_mode = MonteCarlo(mode.trials, seed=(mode.seed, k))
        est = spc_general(scenario, law, query, epsilon, block_mode)
        terms.append(BlockTerm(block=k, weight=size / scenario.n,
                               delta=est.value, half_width=est.half_width))
    return _report(epsilon, terms, "nonadaptive-general")


def _check_prefix_caps(fmt: TemplateFormat, cap: int) -> None:
    product = 1
    for size in fmt.sizes[:-1]:
        product *= size + 1
        if product > cap:
            raise CapacityError(
                f"answer prefix space exceeds the cap of {cap}; reduce block sizes"
            )


def adaptive_iid(scenario: Scenario, spec: AdaptiveSpec, epsilon: float,
                 prefix_cap: int = PREFIX_CAP) -> CompositionReport:
    """Adaptive bound for iid entries.

    Block k contributes (n_k / n) times the expectation, over answer
    prefixes, of the divergence of the query chosen at that prefix. Prefix
    probabilities multiply unconditioned per-block answer laws, which for
    iid entries do not depend on where the critical index lands.
    """
    if not scenario.is_iid:
        raise DomainError("adaptive_iid requires an iid scenario")
    if not isinstance(spec, AdaptiveSpec):
        raise DomainError("spec must be adaptive")
    _require_fits(scenario, spec.format)
    _check_prefix_caps(spec.format, prefix_cap)
    sizes = spec.format.sizes
    m = spec.format.num_blocks
    cache: dict = {}
    block_terms: list[list[float]] = [[] for _ in range(m)]

    def walk(k: int, prefix: tuple[int, ...], prob: float) -> None:
        query = spec.choose(prefix)
        if not isinstance(query, PropertyQuery):
            raise DomainError(f"adaptive chooser returned {query!r} for prefix {prefix}")
        block_terms[k].append(prob * _iid_block_dhat(scenario, query, sizes[k], epsilon, cache))
        if k + 1 < m:
            answer_law = binomial(sizes[k], _iid_attr_p(scenario, query))
            for a, pa in answer_law.items():
                if pa > 0.0:
                    walk(k + 1, prefix + (a,), prob * pa)

    walk(0, (), 1.0)
    terms = [
        BlockTerm(block=k + 1, weight=sizes[k] / scenario.n, delta=math.fsum(block_terms[k]))
        for k in range(m)
    ]
    return _report(epsilon, terms, "adaptive-iid")


def adaptive_general(scenario: Scenario, spec: AdaptiveSpec, epsilon: float,
                     template_cap: int = 10**6, prefix_cap: int = PREFIX_CAP) -> CompositionReport:
    """Adaptive bound for arbitrary entry models, by full enumeration.

    For each block k, averages over templates of blocks 1..k conditioned on
    the critical index landing in block k (later blocks cannot change block
    k's term); inside each template, averages the per-prefix divergence of
    the chosen query against the product law of the earlier blocks'
    answers. `template_cap` bounds each block's truncated template count.
    Tiny instances only.
    """
    if not isinstance(spec, AdaptiveSpec):
        raise DomainError("spec must be adaptive")
    _require_fits(scenario, spec.format)
    _check_prefix_caps(spec.format, prefix_cap)
    probs = scenario.probs_matrix()
    j = scenario.critical_index
    sizes = spec.format.sizes
    m = spec.format.num_blocks
    terms = []
    for k in range(1, m + 1):
        law = PartitionLaw(scenario.n, TemplateFormat(sizes[:k]), restriction=(j, k))
        template_terms = []
        for template, w in enumerate_templates(law, cap=template_cap):
            def walk(level: int, prefix: tuple[int, ...], prob: float) -> float:
                query = spec.choose(prefix)
                if not isinstance(query, PropertyQuery):
                    raise DomainError(
                        f"adaptive chooser returned {query!r} for prefix {prefix}")
                if level == k - 1:
                    members = [i for i in template.block(k) if i != j]
                    rows = probs[[i - 1 for i in members], :]
                    return prob * d_hat(query.indicator_laws(rows), epsilon)
                rows = probs[[i - 1 for i in template.block(level + 1)], :]
                answer_law = query.unconditional_law(rows)
                return math.fsum(
                    walk(level + 1, prefix + (a,), prob * pa)
                    for a, pa in answer_law.items() if pa > 0.0
                )

            template_terms.append(w * walk(0, (), 1.0))
        terms.append(BlockTerm(block=k, weight=sizes[k - 1] / scenario.n,
                               delta=math.fsum(template_terms)))
    return _report(epsilon, terms, "adaptive-general")


def composition_delta(scenario: Scenario, spec: CompositionSpec, epsilon: float,
                      mode: Enumerate | MonteCarlo = Enumerate()) -> CompositionReport:
    """Dispatch to the applicable bound for the scenario/spec combination."""
    if isinstance(spec, NonadaptiveSpec):
        if scenario.is_iid:
            return nonadaptive_iid(scenario, spec, epsilon)
        return nonadaptive_general(scenario, spec, epsilon, mode)
    if isinstance(mode, MonteCarlo):
        raise DomainError("Monte-Carlo mode applies to nonadaptive general composition only")
    if scenario.is_iid:
        return adaptive_iid(scenario, spec, epsilon)
    return adaptive_general(scenario, spec, epsilon)
