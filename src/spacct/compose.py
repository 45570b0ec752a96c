"""Composition bounds over injective random partitions.

Each of the m queries is answered on its own block of a randomly drawn
partition. The resulting guarantee is a weighted sum over the block that
receives the critical entry: weight n_k / n times the block's expected
divergence (nonadaptive), with an extra expectation over the nodes of a
threshold tree when queries are chosen adaptively.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

import numpy as np
from scipy.special import betainc

from .curve import as_grid, fsum_terms, shift_pair_rows
from .distkit import Pmf, cdf, poisson_binomial_rows
from .errors import DomainError
from .partition import PartitionLaw, TemplateFormat, enumerate_templates
from .spc import (
    Enumerate,
    MonteCarlo,
    PropertyQuery,
    Scenario,
    spc_general,
    spc_iid,
    success_prob,
)

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
class ThresholdTree:
    """One node of an adaptive query plan.

    The node's query is answered on its block. The next block's node is
    `low` when that answer is below `threshold` and `high` otherwise. A leaf
    has no threshold and no children.
    """

    query: PropertyQuery
    threshold: int | None = None
    low: ThresholdTree | None = None
    high: ThresholdTree | None = None


@dataclass(frozen=True)
class AdaptiveSpec:
    """Query k is chosen by the answers to queries 1..k-1 through a threshold
    tree; every root-to-leaf path has one node per block."""

    format: TemplateFormat
    tree: ThresholdTree

    def __post_init__(self) -> None:
        m = self.format.num_blocks

        def check(node, depth: int) -> None:
            if not (isinstance(node, ThresholdTree) and isinstance(node.query, PropertyQuery)):
                raise DomainError(f"need a ThresholdTree with a PropertyQuery, got {node!r}")
            if node.threshold is None and node.low is None and node.high is None:
                if depth < m:
                    raise DomainError(
                        f"tree path of length {depth} shorter than the {m}-block format")
            elif depth == m:
                raise DomainError(f"tree deeper than the {m}-block format")
            elif not isinstance(node.threshold, int):
                raise DomainError(f"tree thresholds must be integers, got {node.threshold!r}")
            else:
                check(node.low, depth + 1)
                check(node.high, depth + 1)

        check(self.tree, 1)


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


def _nonadaptive(scenario: Scenario, spec: NonadaptiveSpec, epsilon,
                 mode: Enumerate | MonteCarlo, label: str) -> CompositionReport:
    if not isinstance(spec, NonadaptiveSpec):
        raise DomainError("spec must be nonadaptive")
    _require_fits(scenario, spec.format)
    j = scenario.critical_index
    grid = as_grid(epsilon)
    enumerated: dict = {}
    terms = []
    for k, (size, query) in enumerate(zip(spec.format.sizes, spec.queries), start=1):
        if isinstance(mode, MonteCarlo):
            # independent per-block streams derived from the one configured seed
            law = PartitionLaw(scenario.n, spec.format, restriction=(j, k))
            block_mode = MonteCarlo(mode.trials, seed=(mode.seed, k))
            est = spc_general(scenario, law, query, grid, block_mode)
        else:
            if (size, query) not in enumerated:
                law = PartitionLaw(scenario.n, spec.format, restriction=(j, k))
                enumerated[size, query] = spc_general(scenario, law, query, grid, mode)
            est = enumerated[size, query]
        terms.append(BlockTerm(block=k, weight=size / scenario.n,
                               delta=est.value, half_width=est.half_width))
    return _report(epsilon, terms, label)


def nonadaptive_iid(scenario: Scenario, spec: NonadaptiveSpec, epsilon) -> CompositionReport:
    """Bound for iid entries: sum_k (n_k / n) * divergence at database size n_k."""
    if not scenario.is_iid:
        raise DomainError("nonadaptive_iid requires an iid scenario")
    return _nonadaptive(scenario, spec, epsilon, Enumerate(), "nonadaptive-iid")


def nonadaptive_general(scenario: Scenario, spec: NonadaptiveSpec, epsilon,
                        mode: Enumerate | MonteCarlo = Enumerate()) -> CompositionReport:
    """General-entry bound: per-block SPC under the law restricted to (j, k).

    An exact block term depends only on the block size and the query, so
    blocks that share both are evaluated once.
    """
    return _nonadaptive(scenario, spec, epsilon, mode, "nonadaptive-general")


def _tree_sum(tree: ThresholdTree, depth: int, tails, divergence) -> np.ndarray:
    """Sum over the tree's nodes at `depth` (the root has depth 1) of
    P(reach node) * divergence(node.query), per grid point. Block answers are
    independent given the template, so P(reach node) multiplies the branch
    probabilities tails(level, query, threshold) = (P(answer < threshold),
    P(answer >= threshold)) along its path; zero-probability branches are skipped."""
    terms = []

    def walk(node: ThresholdTree, level: int, prob: float) -> None:
        if level == depth:
            terms.append(prob * divergence(node.query))
            return
        below, above = tails(level, node.query, node.threshold)
        for child, branch in ((node.low, below), (node.high, above)):
            if branch > 0.0:
                walk(child, level + 1, prob * branch)

    walk(tree, 1, 1.0)
    return fsum_terms(terms)


def adaptive_iid(scenario: Scenario, spec: AdaptiveSpec, epsilon) -> CompositionReport:
    """Adaptive bound for iid entries.

    Block k contributes (n_k / n) times the expectation, over the tree's
    depth-k nodes, of the divergence of the node's query. Every block's
    answers are Bin(n_l, p) wherever the critical index lands, so the branch
    probabilities are binomial tails.
    """
    if not scenario.is_iid:
        raise DomainError("adaptive_iid requires an iid scenario")
    if not isinstance(spec, AdaptiveSpec):
        raise DomainError("spec must be adaptive")
    _require_fits(scenario, spec.format)
    sizes = spec.format.sizes
    grid = as_grid(epsilon)

    @cache
    def divergence(size: int, query: PropertyQuery) -> np.ndarray:
        return spc_iid(scenario, size, grid, query)

    def tails(level: int, query: PropertyQuery, threshold: int) -> tuple[float, float]:
        # P(B < t) and P(B >= t) = I_p(t, u - t + 1) for B ~ Bin(u, p), as in shift_pair_delta
        u, p = sizes[level - 1], success_prob(scenario, query)
        if threshold <= 0:
            return 0.0, 1.0
        if threshold > u:
            return 1.0, 0.0
        return (float(betainc(u - threshold + 1, threshold, 1.0 - p)),
                float(betainc(threshold, u - threshold + 1, p)))

    terms = [
        BlockTerm(block=k, weight=size / scenario.n,
                  delta=_tree_sum(spec.tree, k, tails, partial(divergence, size)))
        for k, size in enumerate(sizes, start=1)
    ]
    return _report(epsilon, terms, "adaptive-iid")


def adaptive_general(scenario: Scenario, spec: AdaptiveSpec, epsilon) -> CompositionReport:
    """Adaptive bound for arbitrary entry models, by full enumeration.

    For each block k, averages over templates of blocks 1..k conditioned on
    the critical index landing in block k (later blocks cannot change block
    k's term) the tree sum to depth k: its branch probabilities are tails of
    the earlier blocks' answer laws, and its divergence is that of block k's
    laws given the critical value. Answer laws and divergences are built once
    per (member tuple, query). Tiny instances only.
    """
    if not isinstance(spec, AdaptiveSpec):
        raise DomainError("spec must be adaptive")
    _require_fits(scenario, spec.format)
    probs = scenario.probs_matrix()
    j = scenario.critical_index
    sizes = spec.format.sizes
    grid = as_grid(epsilon)

    @cache
    def answer_law(members: tuple[int, ...], query: PropertyQuery) -> Pmf:
        return query.unconditional_law(probs[[i - 1 for i in members], :])

    @cache
    def divergence(co_members: tuple[int, ...], query: PropertyQuery) -> np.ndarray:
        success = query.success_probs(probs[[i - 1 for i in co_members], :])
        return shift_pair_rows(poisson_binomial_rows(success[None]), grid)[:, 0]

    def tails(blocks, level: int, query: PropertyQuery, threshold: int) -> tuple[float, float]:
        law = answer_law(blocks[level - 1], query)
        below = cdf(law, threshold - 1)
        return below, (1.0 - below if threshold <= law.top else 0.0)

    terms = []
    for k in range(1, spec.format.num_blocks + 1):
        law = PartitionLaw(scenario.n, TemplateFormat(sizes[:k]), restriction=(j, k))
        template_terms = []
        for template, w in enumerate_templates(law):
            co_members = tuple(i for i in template.block(k) if i != j)
            template_terms.append(w * _tree_sum(spec.tree, k,
                                                partial(tails, template.index_lists),
                                                partial(divergence, co_members)))
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
