"""Composition bounds over injective random partitions.

Each of the m queries is answered on its own block of a randomly drawn
partition. The resulting guarantee is a weighted sum over the block that
receives the critical entry: weight n_k / n times the block's expected
divergence (nonadaptive), with an extra expectation over answer prefixes
when queries are chosen adaptively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curve import as_grid, d_hat, fsum_terms, shift_pair_delta
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
    delta: float | np.ndarray
    half_width: float | np.ndarray | None = None


@dataclass(frozen=True)
class CompositionReport:
    """Per-block divergence terms and their weighted total.

    total_delta is clamped to [0, 1]; raw_delta keeps the unclamped sum for
    diagnostics (aggressive parameters can push the bound above 1). A
    report over an epsilon grid holds arrays, one entry per grid point, in
    its epsilon, delta and half-width fields; `split` gives the
    single-epsilon reports.
    """

    epsilon: float | np.ndarray
    per_block: tuple[BlockTerm, ...]
    raw_delta: float | np.ndarray
    total_delta: float | np.ndarray
    mode: str
    total_half_width: float | np.ndarray | None = None

    def split(self) -> tuple[CompositionReport, ...]:
        """One single-epsilon report per grid point, in grid order."""
        if np.ndim(self.epsilon) == 0:
            return (self,)

        def column(value) -> list | None:
            return None if value is None else value.tolist()

        deltas = [column(t.delta) for t in self.per_block]
        half_widths = [column(t.half_width) for t in self.per_block]
        total_hw = column(self.total_half_width)
        return tuple(
            CompositionReport(
                epsilon=eps,
                per_block=tuple(BlockTerm(t.block, t.weight, d[i], None if h is None else h[i])
                                for t, d, h in zip(self.per_block, deltas, half_widths)),
                raw_delta=raw,
                total_delta=total,
                mode=self.mode,
                total_half_width=None if total_hw is None else total_hw[i],
            )
            for i, (eps, raw, total) in enumerate(zip(self.epsilon.tolist(),
                                                      self.raw_delta.tolist(),
                                                      self.total_delta.tolist()))
        )

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


def _report(epsilon, terms: list[BlockTerm], mode: str) -> CompositionReport:
    """Weighted totals per grid point; a scalar epsilon gives its single report."""
    weights = np.array([t.weight for t in terms])[:, None]
    raw = fsum_terms(weights * np.array([t.delta for t in terms]))
    hws = [t.weight * t.half_width for t in terms if t.half_width is not None]
    total_hw = np.sqrt(fsum_terms([h * h for h in hws])) if hws else None
    report = CompositionReport(
        epsilon=as_grid(epsilon),
        per_block=tuple(terms),
        raw_delta=raw,
        total_delta=np.minimum(1.0, np.maximum(0.0, raw)),
        mode=mode,
        total_half_width=total_hw,
    )
    return report if np.ndim(epsilon) else report.split()[0]


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
                    grid: np.ndarray, cache: dict) -> np.ndarray:
    key = (query.attribute, query.negate, size)
    if key not in cache:
        p = _iid_attr_p(scenario, query)
        cache[key] = np.array([shift_pair_delta(size - 1, p, e) for e in grid.tolist()])
    return cache[key]


def nonadaptive_iid(scenario: Scenario, spec: NonadaptiveSpec, epsilon) -> CompositionReport:
    """Bound for iid entries: sum_k (n_k / n) * divergence at database size n_k."""
    if not scenario.is_iid:
        raise DomainError("nonadaptive_iid requires an iid scenario")
    if not isinstance(spec, NonadaptiveSpec):
        raise DomainError("spec must be nonadaptive")
    _require_fits(scenario, spec.format)
    grid = as_grid(epsilon)
    cache: dict = {}
    terms = []
    for k, (size, query) in enumerate(zip(spec.format.sizes, spec.queries), start=1):
        delta = _iid_block_dhat(scenario, query, size, grid, cache)
        terms.append(BlockTerm(block=k, weight=size / scenario.n, delta=delta))
    return _report(epsilon, terms, "nonadaptive-iid")


def nonadaptive_general(scenario: Scenario, spec: NonadaptiveSpec, epsilon,
                        mode: Enumerate | MonteCarlo = Enumerate()) -> CompositionReport:
    """General-entry bound: per-block SPC under the law restricted to (j, k).

    An enumerated block term depends only on the block size and the query,
    so blocks that share both are evaluated once.
    """
    if not isinstance(spec, NonadaptiveSpec):
        raise DomainError("spec must be nonadaptive")
    _require_fits(scenario, spec.format)
    j = scenario.critical_index
    grid = as_grid(epsilon)
    enumerated: dict = {}
    terms = []
    for k, (size, query) in enumerate(zip(spec.format.sizes, spec.queries), start=1):
        law = PartitionLaw(scenario.n, spec.format, restriction=(j, k))
        if isinstance(mode, MonteCarlo):
            # independent per-block streams derived from the one configured seed
            block_mode = MonteCarlo(mode.trials, seed=(mode.seed, k))
            est = spc_general(scenario, law, query, grid, block_mode)
        else:
            if (size, query) not in enumerated:
                enumerated[size, query] = spc_general(scenario, law, query, grid, mode)
            est = enumerated[size, query]
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


def adaptive_iid(scenario: Scenario, spec: AdaptiveSpec, epsilon,
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
    grid = as_grid(epsilon)
    cache: dict = {}
    block_terms: list[list[np.ndarray]] = [[] for _ in range(m)]

    def walk(k: int, prefix: tuple[int, ...], prob: float) -> None:
        query = spec.choose(prefix)
        if not isinstance(query, PropertyQuery):
            raise DomainError(f"adaptive chooser returned {query!r} for prefix {prefix}")
        block_terms[k].append(prob * _iid_block_dhat(scenario, query, sizes[k], grid, cache))
        if k + 1 < m:
            answer_law = binomial(sizes[k], _iid_attr_p(scenario, query))
            for a, pa in answer_law.items():
                if pa > 0.0:
                    walk(k + 1, prefix + (a,), prob * pa)

    walk(0, (), 1.0)
    terms = [
        BlockTerm(block=k + 1, weight=sizes[k] / scenario.n, delta=fsum_terms(block_terms[k]))
        for k in range(m)
    ]
    return _report(epsilon, terms, "adaptive-iid")


def adaptive_general(scenario: Scenario, spec: AdaptiveSpec, epsilon,
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
    grid = as_grid(epsilon)
    terms = []
    for k in range(1, m + 1):
        law = PartitionLaw(scenario.n, TemplateFormat(sizes[:k]), restriction=(j, k))
        template_terms = []
        for template, w in enumerate_templates(law, cap=template_cap):
            def walk(level: int, prefix: tuple[int, ...], prob: float) -> np.ndarray:
                query = spec.choose(prefix)
                if not isinstance(query, PropertyQuery):
                    raise DomainError(
                        f"adaptive chooser returned {query!r} for prefix {prefix}")
                if level == k - 1:
                    members = [i for i in template.block(k) if i != j]
                    rows = probs[[i - 1 for i in members], :]
                    return prob * d_hat(query.indicator_laws(rows), grid)
                rows = probs[[i - 1 for i in template.block(level + 1)], :]
                answer_law = query.unconditional_law(rows)
                return fsum_terms([
                    walk(level + 1, prefix + (a,), prob * pa)
                    for a, pa in answer_law.items() if pa > 0.0
                ])

            template_terms.append(w * walk(0, (), 1.0))
        terms.append(BlockTerm(block=k, weight=sizes[k - 1] / scenario.n,
                               delta=fsum_terms(template_terms)))
    return _report(epsilon, terms, "adaptive-general")


def composition_delta(scenario: Scenario, spec: CompositionSpec, epsilon,
                      mode: Enumerate | MonteCarlo = Enumerate()) -> CompositionReport:
    """Dispatch to the applicable bound for the scenario/spec combination.

    `epsilon` is a number or a 1-D grid; a grid gives one report whose delta
    fields are arrays (see CompositionReport.split), with every answer law
    built once for the whole grid.
    """
    if isinstance(spec, NonadaptiveSpec):
        if scenario.is_iid:
            return nonadaptive_iid(scenario, spec, epsilon)
        return nonadaptive_general(scenario, spec, epsilon, mode)
    if isinstance(mode, MonteCarlo):
        raise DomainError("Monte-Carlo mode applies to nonadaptive general composition only")
    if scenario.is_iid:
        return adaptive_iid(scenario, spec, epsilon)
    return adaptive_general(scenario, spec, epsilon)
