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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .compose import AdaptiveSpec, CompositionSpec, NonadaptiveSpec, ThresholdTree
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


def _mc_histograms(scenario: Scenario, spec: CompositionSpec, trials: int,
                   seed: int) -> dict[int, np.ndarray]:
    """Empirical answer-tuple laws of `trials` sampled runs, per critical value.

    A master seed is split into one child stream per critical value, and
    each trial's randomness occupies a fixed slice of that stream, so
    results do not depend on evaluation order and reruns are bit-identical.
    """
    fmt = spec.format
    n = scenario.n
    num_values = scenario.num_values
    num_attrs = scenario.num_attributes
    radix = tuple(s + 1 for s in fmt.sizes)
    mult = _flat_multipliers(radix)
    n_answers = math.prod(radix)
    j0 = scenario.critical_index - 1
    probs = scenario.probs_matrix()
    starts = np.cumsum([0] + list(fmt.sizes))

    children = np.random.SeedSequence(seed).spawn(num_values)
    hist: dict[int, np.ndarray] = {}
    for v in range(num_values):
        rng = np.random.default_rng(children[v])
        perm = np.argsort(rng.random((trials, n)), axis=1)
        entries = (rng.random((trials, n, num_attrs)) < probs[None]).astype(np.int8)
        for t in range(num_attrs):
            entries[:, j0, t] = (v >> t) & 1
        plane_for = _plane_lookup(entries)

        def get_answers(query: PropertyQuery, rows: np.ndarray, k: int) -> np.ndarray:
            plane = plane_for(query)
            slots = perm[rows, starts[k]:starts[k + 1]]
            return np.take_along_axis(plane[rows], slots, axis=1).sum(axis=1)

        answers = _answer_matrix(spec, get_answers, trials)
        flat = answers @ mult
        hist[v] = np.bincount(flat, minlength=n_answers) / trials
    return hist


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


def mc_distinguish(scenario: Scenario, spec: CompositionSpec, epsilon,
                   trials: int, seed: int) -> McEstimate:
    """Plug-in divergence estimate from sampled mechanism runs.

    Per critical value, samples (template, database, answers) `trials` times
    and histograms the answer tuples; the divergence of each ordered pair of
    empirical laws is evaluated directly. The half-width is the 95% normal
    approximation for the maximizing pair, treating its optimal answer set
    as fixed. The estimator's bias is O(answer-space / trials).

    The histograms are sampled once and evaluated at every point of a 1-D
    epsilon grid, which then gives arrays; each point's estimate equals the
    single-epsilon call with the same seed.
    """
    if trials < 10**3:
        raise DomainError("need at least 1000 trials")
    if trials > MC_TRIALS_CAP:
        raise CapacityError(
            f"{magnitude(trials)} Monte-Carlo trials exceed the cap of {MC_TRIALS_CAP}")
    scales = [_scale(e) for e in as_grid(epsilon).tolist()]
    hist = _mc_histograms(scenario, spec, trials, seed)
    estimates = np.array([_mc_estimate(hist, scale, trials) for scale in scales])
    return McEstimate(per_epsilon(epsilon, estimates[:, 0]),
                      per_epsilon(epsilon, estimates[:, 1]))


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
