"""Composition bounds over injective random partitions.

Each of the m queries is answered on its own block of a randomly drawn
partition. The resulting guarantee is a weighted sum over the block that
receives the critical entry: weight n_k / n times the block's expected
divergence (nonadaptive), with an extra expectation over the nodes of a
threshold tree when queries are chosen adaptively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .curve import _binomial_above, as_grid, fsum_terms
from .distkit import cdf, poisson_binomial
from .errors import CapacityError, DomainError, is_int, magnitude
from .partition import TEMPLATE_CAP, PartitionLaw, TemplateFormat, template_count
from .spc import (
    Enumerate,
    MonteCarlo,
    PropertyQuery,
    Scenario,
    _block_divergences,
    _root_pool,
    spc_general,
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
            elif not is_int(node.threshold):
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


def _nonadaptive(scenario: Scenario, spec: NonadaptiveSpec, epsilon,
                 mode: Enumerate | MonteCarlo, label: str) -> CompositionReport:
    if not isinstance(spec, NonadaptiveSpec):
        raise DomainError("spec must be nonadaptive")
    spec.format.require_fits(scenario.n)
    grid = as_grid(epsilon)
    divergence, pool = _block_divergences(scenario, grid), _root_pool(scenario)
    terms = []
    for k, (size, query) in enumerate(zip(spec.format.sizes, spec.queries), start=1):
        # Monte-Carlo blocks take independent streams derived from the one configured
        # seed; the evaluator's cache evaluates exact blocks of one size and query once
        delta, half_width = ((divergence(pool, size, query), None) if isinstance(mode, Enumerate)
                             else spc_general(scenario, spec.format, k, query, grid,
                                              MonteCarlo(mode.trials, (mode.seed, k))))
        terms.append(BlockTerm(block=k, weight=size / scenario.n,
                               delta=delta, half_width=half_width))
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


def _adaptive(scenario: Scenario, spec: AdaptiveSpec, epsilon, label: str) -> CompositionReport:
    """One walk over prefixes (disjoint blocks 1..k-1 of the non-critical
    indices) serves every block k: a prefix adds P(reach a depth-k node)
    times the node query's divergence on block k, given the pool of indices
    left (spc._block_divergences). The entry model supplies prefixes and tails.
    """
    if not isinstance(spec, AdaptiveSpec):
        raise DomainError("spec must be adaptive")
    spec.format.require_fits(scenario.n)
    sizes = spec.format.sizes
    grid, pool = as_grid(epsilon), _root_pool(scenario)
    if scenario.is_iid:
        # exchangeable entries: one prefix per level stands for all of them, a
        # block is just its size u, and the divergence needs no pool
        def prefixes(pool, size: int, weight: float):
            return ((size, pool, weight),)

        def tails(u: int, query: PropertyQuery, threshold: int):  # P(B < t), P(B >= t)
            p = success_prob(scenario, query)
            return (float(_binomial_above(u, 1.0 - p, u - threshold)),
                    float(_binomial_above(u, p, threshold - 1)))
    else:
        probs = scenario.probs_matrix()
        j = scenario.critical_index
        for k in range(1, len(sizes) + 1):
            count = template_count(PartitionLaw(scenario.n, TemplateFormat(sizes[:k]), (j, k)))
            if count > TEMPLATE_CAP:
                raise CapacityError(
                    f"{magnitude(count)} templates exceed the cap of {TEMPLATE_CAP}")

        def prefixes(pool: tuple[int, ...], size: int, weight: float):
            share = weight / math.comb(len(pool), size)
            return ((block, tuple(i for i in pool if i not in block), share)
                    for block in combinations(pool, size))

        def tails(block: tuple[int, ...], query: PropertyQuery, threshold: int):
            law = poisson_binomial(query.success_probs(probs[list(block)]))
            below = cdf(law, threshold - 1)
            return below, (1.0 - below if threshold <= law.top else 0.0)

    tails, divergence = cache(tails), _block_divergences(scenario, grid)
    terms = [[] for _ in sizes]

    def walk(level: int, pool, reach: list, weight: float) -> None:
        # a prefix of `level` blocks, of probability `weight`, leaves `pool` to
        # block level + 1; `reach` holds its (node, P(reach node)) pairs in order
        terms[level] += [weight * prob * divergence(pool, sizes[level], node.query)
                         for node, prob in reach]
        if level + 1 < len(sizes):
            for block, rest, share in prefixes(pool, sizes[level], weight):
                # tails = (P(answer < threshold), P(answer >= threshold)) on the block;
                # a zero-probability branch's subtree is never evaluated
                below = [(child, prob * branch) for node, prob in reach
                         for child, branch in zip((node.low, node.high),
                                                  tails(block, node.query, node.threshold))
                         if branch > 0.0]
                walk(level + 1, rest, below, share)

    walk(0, pool, [(spec.tree, 1.0)], 1.0)
    return _report(epsilon, [BlockTerm(block=k, weight=size / scenario.n, delta=fsum_terms(t))
                             for k, (size, t) in enumerate(zip(sizes, terms), start=1)], label)


def adaptive_iid(scenario: Scenario, spec: AdaptiveSpec, epsilon) -> CompositionReport:
    """Adaptive bound for iid entries: block answers are binomial wherever
    the critical index lands, so one prefix per level stands for all."""
    if not scenario.is_iid:
        raise DomainError("adaptive_iid requires an iid scenario")
    return _adaptive(scenario, spec, epsilon, "adaptive-iid")


def adaptive_general(scenario: Scenario, spec: AdaptiveSpec, epsilon) -> CompositionReport:
    """Adaptive bound for any entry model. iid entries take one prefix per
    level, as in adaptive_iid; others enumerate every prefix, with the
    template count of blocks 1..k capped for every k before any work."""
    return _adaptive(scenario, spec, epsilon, "adaptive-general")


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
