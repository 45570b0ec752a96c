"""Ground truth for the composition bounds on tiny instances.

exact_mechanism_law enumerates every template, every assignment of the
non-critical entries, and every critical value, and accumulates the exact
joint answer laws of the partition mechanism. It deliberately avoids the
convolution machinery used by the bound computations, so agreement between
the two is a genuine cross-check. mc_distinguish estimates the same
divergence from sampled runs of the mechanism.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .compose import AdaptiveSpec, CompositionSpec, NonadaptiveSpec, ThresholdTree, _require_fits
from .curve import _scale, as_grid, d_hat, per_epsilon
from .distkit import Pmf
from .errors import CapacityError, DomainError, magnitude
from .partition import PartitionLaw, TemplateFormat, enumerate_templates, template_count
from .spc import MC_TRIALS_CAP, IidEntries, PropertyQuery, Scenario

# Ceiling on |W|^(n-1) * template count * answer-tuple count.
ORACLE_CAP = 10**7

# Epsilon grid of the built-in verification matrix.
MATRIX_EPSILONS = (0.0, 0.1, 1.0)


@dataclass(frozen=True)
class ExactMechanismLaw:
    """Joint answer law of the mechanism, per critical value.

    Answer tuples (a_1, ..., a_m) are flattened to a single integer by
    mixed-radix encoding with bases n_k + 1.
    """

    laws: dict[int, Pmf]
    radix: tuple[int, ...]

    def delta(self, epsilon):
        """d_hat of the joint laws at one epsilon, or an array over a 1-D grid."""
        return d_hat(self.laws, epsilon)


class McEstimate(NamedTuple):
    """Floats for one epsilon; arrays over the grid when given one."""

    estimate: float | np.ndarray
    half_width: float | np.ndarray


def _plane_lookup(entries: np.ndarray):
    """Per-query (rows x entries) indicator planes of an int8 entry array
    shaped (rows, n, attributes), cached by attribute and negation."""
    cache: dict[tuple[int, bool], np.ndarray] = {}

    def plane_for(query: PropertyQuery) -> np.ndarray:
        key = (query.attribute, query.negate)
        if key not in cache:
            plane = entries[:, :, query.attribute]
            cache[key] = 1 - plane if query.negate else plane
        return cache[key]

    return plane_for


def _flat_multipliers(radix: tuple[int, ...]) -> np.ndarray:
    mult = np.ones(len(radix), dtype=np.int64)
    for k in range(len(radix) - 2, -1, -1):
        mult[k] = mult[k + 1] * radix[k + 1]
    return mult


def _answer_matrix(spec: CompositionSpec, get_answers, num_rows: int) -> np.ndarray:
    """Answers of all rows (enumerated assignments or sampled trials).

    get_answers(query, rows, block) must return the per-row answers of
    `query` on block index `block` restricted to `rows`. Adaptive specs are
    evaluated by splitting each tree node's rows on the node's threshold.
    """
    m = spec.format.num_blocks
    answers = np.zeros((num_rows, m), dtype=np.int64)
    if isinstance(spec, NonadaptiveSpec):
        all_rows = np.arange(num_rows)
        for k, query in enumerate(spec.queries):
            answers[:, k] = get_answers(query, all_rows, k)
        return answers
    groups: list[tuple[ThresholdTree, np.ndarray]] = [(spec.tree, np.arange(num_rows))]
    for k in range(m):
        nxt = []
        for node, rows in groups:
            a = get_answers(node.query, rows, k)
            answers[rows, k] = a
            if k + 1 < m:
                below = a < node.threshold
                nxt += [(child, part) for child, part in
                        ((node.low, rows[below]), (node.high, rows[~below])) if part.size]
        groups = nxt
    return answers


def exact_mechanism_law(scenario: Scenario, spec: CompositionSpec,
                        cap: int = ORACLE_CAP) -> ExactMechanismLaw:
    """Exact joint answer laws by brute-force enumeration.

    Cost is |W|^(n-1) * #templates * #answer tuples and is checked against
    `cap` before any work happens.
    """
    fmt = spec.format
    n = scenario.n
    num_values = scenario.num_values
    num_attrs = scenario.num_attributes
    law = PartitionLaw(n, fmt)
    n_templates = template_count(law)
    radix = tuple(s + 1 for s in fmt.sizes)
    n_answers = math.prod(radix)
    budget = num_values ** (n - 1) * n_templates * n_answers
    if budget > cap:
        raise CapacityError(
            f"exact enumeration needs {magnitude(budget)} law evaluations, above the cap of {cap}"
        )
    j0 = scenario.critical_index - 1
    probs = scenario.probs_matrix()

    num_rows = num_values ** (n - 1)
    ids = np.arange(num_rows, dtype=np.int64)
    place = num_values ** np.arange(n - 1, dtype=np.int64)
    digits = (ids[:, None] // place[None, :]) % num_values
    bits = ((digits[:, :, None] >> np.arange(num_attrs)) & 1).astype(np.int8)
    probs_nc = np.delete(probs, j0, axis=0)
    row_prob = np.prod(np.where(bits == 1, probs_nc[None], 1.0 - probs_nc[None]), axis=(1, 2))

    mult = _flat_multipliers(radix)
    templates = enumerate_templates(law, cap=max(n_templates, 1))
    hist = {v: np.zeros(n_answers) for v in range(num_values)}
    noncrit = [i for i in range(n) if i != j0]
    for v in range(num_values):
        entries = np.empty((num_rows, n, num_attrs), dtype=np.int8)
        entries[:, noncrit, :] = bits
        for t in range(num_attrs):
            entries[:, j0, t] = (v >> t) & 1
        plane_for = _plane_lookup(entries)

        for template, w in templates:
            blocks0 = [np.asarray(block, dtype=np.int64) - 1 for block in template.index_lists]

            def get_answers(query: PropertyQuery, rows: np.ndarray, k: int) -> np.ndarray:
                plane = plane_for(query)
                return plane[np.ix_(rows, blocks0[k])].sum(axis=1)

            answers = _answer_matrix(spec, get_answers, num_rows)
            flat = answers @ mult
            np.add.at(hist[v], flat, w * row_prob)
    laws = {v: Pmf(0, h) for v, h in hist.items()}
    return ExactMechanismLaw(laws=laws, radix=radix)


def _shuffle_ranks(keys: np.ndarray) -> np.ndarray:
    """Every entry's place in each trial's shuffle, as an (n x trials) array.

    `keys` holds one uniform sort key per (trial, entry). An entry's rank is
    the number of entries sorted before it, ties broken by index as in a
    stable sort, so on tie-free keys the entry of rank r is the one argsort
    puts in slot r. Pairwise comparisons cost O(n^2 trials), which suits the
    tiny instances the oracle runs on.
    """
    cols = np.ascontiguousarray(keys.T)
    n = cols.shape[0]
    ranks = np.zeros(cols.shape, dtype=np.min_scalar_type(n))
    for i in range(n - 1):
        after_i_sorted_before = cols[i + 1 :] < cols[i]
        ranks[i] += after_i_sorted_before.sum(axis=0, dtype=ranks.dtype)
        ranks[i + 1 :] += ~after_i_sorted_before
    return ranks


class _McRuns:
    """`trials` sampled runs of the mechanism for one critical value.

    Each entry's shuffle rank and attribute values are kept on (n x trials)
    planes, so a block's answer to a query is a masked count over entries,
    made once per (query, block) for every spec and tree node that asks.
    """

    def __init__(self, rng: np.random.Generator, scenario: Scenario, value: int,
                 trials: int) -> None:
        num_attrs = scenario.num_attributes
        self.trials = trials
        self.ranks = _shuffle_ranks(rng.random((trials, scenario.n)))
        entries = rng.random((trials, scenario.n, num_attrs)) < scenario.probs_matrix()[None]
        for t in range(num_attrs):
            entries[:, scenario.critical_index - 1, t] = (value >> t) & 1
        self.entries = entries
        self.planes: dict[tuple[int, bool], np.ndarray] = {}
        self.counts: dict[tuple[int, bool, int, int], np.ndarray] = {}

    def plane(self, query: PropertyQuery) -> np.ndarray:
        """(n x trials) indicators of the entries the query counts."""
        key = (query.attribute, query.negate)
        if key not in self.planes:
            plane = np.ascontiguousarray(self.entries[:, :, query.attribute].T)
            self.planes[key] = ~plane if query.negate else plane
        return self.planes[key]

    def answers(self, query: PropertyQuery, lo: int, hi: int) -> np.ndarray:
        """Per-trial answer of `query` on the block at shuffle places lo..hi-1."""
        key = (query.attribute, query.negate, lo, hi)
        if key not in self.counts:
            in_block = (self.ranks >= lo) & (self.ranks < hi)
            self.counts[key] = np.count_nonzero(self.plane(query) & in_block, axis=0)
        return self.counts[key]

    def histogram(self, spec: CompositionSpec) -> np.ndarray:
        """Empirical law of the spec's flattened answer tuples."""
        sizes = spec.format.sizes
        radix = tuple(s + 1 for s in sizes)
        # entries placed after the last block are left out of the sample
        starts = np.cumsum((0,) + sizes).tolist()

        def get_answers(query: PropertyQuery, rows: np.ndarray, k: int) -> np.ndarray:
            return self.answers(query, starts[k], starts[k + 1])[rows]

        flat = _answer_matrix(spec, get_answers, self.trials) @ _flat_multipliers(radix)
        return np.bincount(flat, minlength=math.prod(radix)) / self.trials


def _mc_histograms(scenario: Scenario, specs: list[CompositionSpec], trials: int,
                   seed: int) -> list[dict[int, np.ndarray]]:
    """Empirical answer-tuple laws of `trials` sampled runs, per spec and critical value.

    A master seed is split into one child stream per critical value, and
    each trial's randomness occupies a fixed slice of that stream, so
    results do not depend on evaluation order and reruns are bit-identical.
    The runs of one critical value are sampled once and histogrammed for
    every spec before the next value is sampled.
    """
    children = np.random.SeedSequence(seed).spawn(scenario.num_values)
    hists: list[dict[int, np.ndarray]] = [{} for _ in specs]
    for v in range(scenario.num_values):
        runs = _McRuns(np.random.default_rng(children[v]), scenario, v, trials)
        for hist, spec in zip(hists, specs):
            hist[v] = runs.histogram(spec)
    return hists


def _mc_estimate(hist: dict[int, np.ndarray], scale: float,
                 trials: int) -> tuple[float, float]:
    """Plug-in divergence of the empirical laws at one e^epsilon, with the
    half-width of its maximizing ordered pair."""
    best, best_pair = -1.0, (0, 1)
    for v in hist:
        for w in hist:
            if v == w:
                continue
            mask = hist[v] > scale * hist[w]
            est = math.fsum(hist[v][mask].tolist()) - scale * math.fsum(hist[w][mask].tolist())
            if est > best:
                best, best_pair = est, (v, w)
    best = max(0.0, best)
    v, w = best_pair
    mask = hist[v] > scale * hist[w]
    pv = math.fsum(hist[v][mask].tolist())
    pw = math.fsum(hist[w][mask].tolist())
    var = (pv * (1.0 - pv) + scale * scale * pw * (1.0 - pw)) / trials
    return best, 1.96 * math.sqrt(max(var, 0.0))


def mc_distinguish(scenario: Scenario, spec: CompositionSpec | Sequence[CompositionSpec],
                   epsilon, trials: int, seed: int) -> McEstimate | list[McEstimate]:
    """Plug-in divergence estimate from sampled mechanism runs.

    Per critical value, samples (template, database, answers) `trials` times
    and histograms the answer tuples; the divergence of each ordered pair of
    empirical laws is evaluated directly. The half-width is the 95% normal
    approximation for the maximizing pair, treating its optimal answer set
    as fixed. The estimator's bias is O(answer-space / trials).

    The histograms are sampled once and evaluated at every point of a 1-D
    epsilon grid, which then gives arrays; each point's estimate equals the
    single-epsilon call with the same seed. Likewise `spec` may be a
    sequence of specs on this scenario: the runs are sampled once and
    histogrammed per spec, giving a list of estimates, each equal to the
    single-spec call with the same seed.
    """
    single = isinstance(spec, CompositionSpec)
    specs = [spec] if single else list(spec)
    if trials < 10**3:
        raise DomainError("need at least 1000 trials")
    if trials > MC_TRIALS_CAP:
        raise CapacityError(
            f"{magnitude(trials)} Monte-Carlo trials exceed the cap of {MC_TRIALS_CAP}")
    for one in specs:
        _require_fits(scenario, one.format)
    scales = [_scale(e) for e in as_grid(epsilon).tolist()]
    estimates = []
    for hist in _mc_histograms(scenario, specs, trials, seed):
        values = np.array([_mc_estimate(hist, scale, trials) for scale in scales])
        estimates.append(McEstimate(per_epsilon(epsilon, values[:, 0]),
                                    per_epsilon(epsilon, values[:, 1])))
    return estimates[0] if single else estimates


@dataclass(frozen=True)
class MatrixInstance:
    name: str
    scenario: Scenario
    spec: CompositionSpec


def verification_matrix() -> list[MatrixInstance]:
    """The built-in tiny-instance matrix used for bound verification:
    n in {2,4,6,8} x m in {1,2} (equal blocks) x p in {0.2,0.5} x
    {nonadaptive, a 2-branch adaptive spec}."""
    instances = []
    for n in (2, 4, 6, 8):
        for p in (0.2, 0.5):
            scenario = Scenario(n, IidEntries((p,)))
            for m in (1, 2):
                sizes = (n,) if m == 1 else (n // 2, n // 2)
                fmt = TemplateFormat(sizes)
                base = f"n={n} p={p} m={m}"
                instances.append(MatrixInstance(
                    f"{base} nonadaptive", scenario,
                    NonadaptiveSpec(fmt, tuple(PropertyQuery() for _ in sizes)),
                ))
                tree = ThresholdTree(PropertyQuery()) if m == 1 else ThresholdTree(
                    PropertyQuery(), (sizes[0] + 1) // 2,
                    low=ThresholdTree(PropertyQuery(negate=True)),
                    high=ThresholdTree(PropertyQuery()))
                instances.append(MatrixInstance(f"{base} adaptive", scenario,
                                                AdaptiveSpec(fmt, tree)))
    return instances
