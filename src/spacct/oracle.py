"""Ground truth for the composition bounds on tiny instances.

exact_mechanism_law enumerates every template, every assignment of the
non-critical entries that the entry model leaves random, and every
critical value, and accumulates the exact joint answer laws of the
partition mechanism. It deliberately avoids the convolution machinery used
by the bound computations, so agreement between the two is a genuine
cross-check. mc_distinguish estimates the same
divergence from sampled runs of the mechanism.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .compose import AdaptiveSpec, CompositionSpec, NonadaptiveSpec, ThresholdTree
from .curve import _scales, d_hat, per_epsilon
from .distkit import Pmf
from .errors import CapacityError, DomainError, is_int, magnitude
from .partition import PartitionLaw, TemplateFormat, enumerate_templates, template_count
from .spc import IidEntries, KnownEntries, MonteCarlo, PropertyQuery, Scenario, _others

# Ceiling on 2^(random bits) * template count * answer-tuple count (_random_bits).
ORACLE_CAP = 10**7

# exact_mechanism_law evaluates whole templates at a time, about this many
# runs (template x assignment pairs) per batch, so memory stays bounded.
LAW_CHUNK_RUNS = 1 << 16

# mc_distinguish draws each critical value's sort keys, then its entries,
# this many trials at a time, so that its temporaries stay small.
MC_DRAW_TRIALS = 1 << 14

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


def exact_mechanism_law(scenario: Scenario, spec: CompositionSpec) -> ExactMechanismLaw:
    """Exact joint answer laws by brute-force enumeration.

    Cost is 2^(random bits) * #templates * #answer tuples and is checked
    against ORACLE_CAP before any work happens: an (entry, attribute) bit of
    probability 0 or 1, as every known entry's, takes its one value.
    """
    fmt = spec.format
    n = scenario.n
    num_values = scenario.num_values
    num_attrs = scenario.num_attributes
    law = PartitionLaw(n, fmt)
    n_templates = template_count(law)
    radix = tuple(s + 1 for s in fmt.sizes)
    n_answers = math.prod(radix)
    random_bits, work = _random_bits(scenario), n_templates * n_answers
    # 2^(random bits) can have 10^9 bits, and 2^40 alone is past the cap
    if (work << min(random_bits, 40)) > ORACLE_CAP:
        raise CapacityError(f"exact enumeration needs {magnitude(work, random_bits)} law "
                            f"evaluations, above the cap of {ORACLE_CAP}")
    # every block has at least 2 answers, so the budget leaves at most 5 * 10^6
    # templates; enumerate_templates refuses more than TEMPLATE_CAP
    templates = enumerate_templates(law)
    probs_nc = _others(scenario)

    # assignment r gives the random bits, entry-major and attribute-minor, the
    # binary digits of r; the other bits take their one value at probability 1
    num_rows = 1 << random_bits
    bits = np.broadcast_to(probs_nc == 1.0, (num_rows, *probs_nc.shape)).astype(np.int8)
    bits[:, (probs_nc > 0.0) & (probs_nc < 1.0)] = (
        np.arange(num_rows)[:, None] >> np.arange(random_bits)) & 1
    row_prob = np.prod(np.where(bits == 1, probs_nc[None], 1.0 - probs_nc[None]), axis=(1, 2))

    # each template's places of the entries in the blocks laid end to end,
    # shared by every assignment; entries outside every block go after the last
    places = np.full((n, len(templates)), n, dtype=np.min_scalar_type(n))
    for t, (template, _) in enumerate(templates):
        order = [i - 1 for block in template for i in block]
        places[order, t] = np.arange(len(order))
    per_chunk = max(1, LAW_CHUNK_RUNS // num_rows)
    pairs = _block_ends([spec], num_attrs)
    hist = {v: np.zeros(n_answers) for v in range(num_values)}
    for v in range(num_values):
        planes = np.insert(bits.T, scenario.critical_index - 1,
                           ((v >> np.arange(num_attrs)) & 1)[:, None], axis=1).astype(bool)
        # template-major runs, accumulated in template order as one template at a
        # time would be; the weights are floats, so every run keeps its own np.add.at
        for first in range(0, len(templates), per_chunk):
            chunk = templates[first : first + per_chunk]
            below = _counts_below(np.repeat(places[:, first : first + len(chunk)], num_rows,
                                            axis=1),
                                  np.tile(planes, len(chunk)), pairs)
            np.add.at(hist[v], _Runs(pairs, below, n, num_attrs).flat_answers(spec),
                      np.concatenate([w * row_prob for _, w in chunk]))
    laws = {v: Pmf(0, h) for v, h in hist.items()}
    return ExactMechanismLaw(laws=laws, radix=radix)


def _random_bits(scenario: Scenario) -> int:
    """The number of (non-critical entry, attribute) bits of probability
    strictly between 0 and 1, read off iid and known entries with no per-entry array."""
    entries = scenario.entries
    if isinstance(entries, IidEntries):
        return (scenario.n - 1) * sum(0.0 < p < 1.0 for p in entries.probs)
    if isinstance(entries, KnownEntries):
        return (scenario.n - 1 - entries.known) * (0.0 < entries.p < 1.0)
    return int(sum(0.0 < p < 1.0 for p in _others(scenario).flat))  # numpy ints overflow


def _count(hits: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Column sums of an (n x runs) boolean array, as `dtype` integers."""
    return hits.view(np.uint8).sum(axis=0, dtype=dtype)


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
    # start each entry at its index, as if every earlier entry sorted before it,
    # and take one off per earlier entry that sorts after it; the unsigned sums
    # may wrap on the way, but every final rank lies in [0, n)
    ranks = np.repeat(np.arange(n, dtype=np.min_scalar_type(n))[:, None], cols.shape[1], axis=1)
    for i in range(n - 1):
        after_i_sorted_before = cols[i + 1 :] < cols[i]
        ranks[i] += _count(after_i_sorted_before, ranks.dtype)
        ranks[i + 1 :] -= after_i_sorted_before.view(np.uint8)
    return ranks


def _block_ends(specs: Sequence[CompositionSpec], num_attrs: int) -> list[tuple[int, int]]:
    """The (attribute, block end) pairs whose counts the specs' answers read,
    sorted: every query of a nonadaptive spec and every node of a tree, at the
    ends of its block (cumulative format sizes above 0). Attributes beyond the
    entries' are left out; a run that reaches such a query refuses it."""
    pairs = set()
    for spec in specs:
        ends = np.cumsum((0,) + spec.format.sizes).tolist()
        if isinstance(spec, NonadaptiveSpec):
            levels = [[query] for query in spec.queries]
        else:
            levels, nodes = [], [spec.tree]
            while nodes:
                levels.append([node.query for node in nodes])
                nodes = [child for node in nodes for child in (node.low, node.high)
                         if child is not None]
        for k, queries in enumerate(levels):
            pairs.update((query.attribute, end) for query in queries
                         if query.attribute < num_attrs for end in ends[k : k + 2] if end)
    return sorted(pairs)


def _counts_below(ranks: np.ndarray, planes: np.ndarray,
                  pairs: list[tuple[int, int]]) -> np.ndarray:
    """P(a, t) of every run for each pair (a, t): the entries with attribute a
    set whose shuffle rank is below t, as a (pairs x runs) array.

    `ranks` is (n x runs) and `planes` holds the runs' attribute values as
    (attributes, n, runs); a rank of n or more leaves an entry out of every
    block.
    """
    n = planes.shape[1]
    below = np.empty((len(pairs), planes.shape[2]), dtype=np.min_scalar_type(n + 1))
    masks: dict[int, np.ndarray] = {}
    for i, (a, t) in enumerate(pairs):
        if t not in masks:
            masks[t] = ranks < t
        below[i] = _count(planes[a] & masks[t], below.dtype)
    return below


class _Runs:
    """Runs of the mechanism, as the counts their answers read.

    Exactly hi - lo entries have a shuffle rank in [lo, hi), so a block's
    answer to a query on attribute a is P(a, hi) - P(a, lo), with P(a, 0) = 0
    (_counts_below), and a negated query's answer is (hi - lo) minus that.
    `below` holds one row of counts per pair of `pairs`, one column per run;
    a column stands for `weights` runs, or for one when that is None.
    """

    def __init__(self, pairs: list[tuple[int, int]], below: np.ndarray, n: int,
                 num_attrs: int, weights: np.ndarray | None = None) -> None:
        self.below = dict(zip(pairs, below))
        self.size = below.shape[1]
        self.n = n
        self.num_attrs = num_attrs
        self.weights = weights
        # answers lie in [0, n] and thresholds are clipped to [0, n + 1]
        self.count_type = below.dtype

    @classmethod
    def distinct(cls, pairs: list[tuple[int, int]], below: np.ndarray, n: int,
                 num_attrs: int) -> _Runs:
        """The distinct columns of `below`, each weighted by its count.

        The columns are keyed by mixed radix with bases t + 1 and counted by
        one np.bincount over the key space. A key space larger than the run
        count would save nothing, so then every run keeps its own column.
        """
        bases = [t + 1 for _, t in pairs]
        space = math.prod(bases)
        if space > below.shape[1]:
            return cls(pairs, below, n, num_attrs)
        # the smallest integer type that holds the space also holds every base
        key = np.zeros(below.shape[1], dtype=np.min_scalar_type(space))
        for column, base in zip(below, bases):
            key *= base
            key += column
        counts = np.bincount(key)
        key = np.flatnonzero(counts)
        weights = counts[key]
        distinct = np.empty((len(pairs), key.size), dtype=below.dtype)
        for i in reversed(range(len(pairs))):
            key, distinct[i] = np.divmod(key, bases[i])
        return cls(pairs, distinct, n, num_attrs, weights)

    def answers(self, query: PropertyQuery, lo: int, hi: int) -> np.ndarray:
        """Each column's answer of `query` on the block at shuffle places lo..hi-1."""
        query.require_attribute(self.num_attrs)
        a = self.below[query.attribute, hi]
        if lo:
            a = a - self.below[query.attribute, lo]
        return (hi - lo) - a if query.negate else a

    def _tree_answers(self, nodes: list[ThresholdTree], node: np.ndarray,
                      lo: int, hi: int) -> np.ndarray:
        """Each column's answer of the query at its node (an index into `nodes`)."""
        queries = list(dict.fromkeys(tree.query for tree in nodes))
        first = self.answers(queries[0], lo, hi)
        which = np.array([queries.index(tree.query) for tree in nodes])[node]
        a = first.copy()
        for i, query in enumerate(queries[1:], start=1):
            # a select by arithmetic: exact, since the wrapped difference is undone
            a += (self.answers(query, lo, hi) - first) * (which == i)
        return a

    def flat_answers(self, spec: CompositionSpec) -> np.ndarray:
        """Each column's answer tuple, flattened by mixed radix with bases n_k + 1
        (the C-order np.ravel_multi_index).

        Adaptive specs carry each column's tree node as an index into the
        nodes that some column reaches at that depth, so the ids stay compact
        however deep the tree is: the high child of node i is 2i + 1 and the
        low one 2i before they are renumbered.
        """
        sizes = spec.format.sizes
        # entries placed after the last block are left out of the sample
        starts = np.cumsum((0,) + sizes).tolist()
        code = np.zeros(self.size, dtype=np.intp)
        if isinstance(spec, NonadaptiveSpec):
            for k, (size, query) in enumerate(zip(sizes, spec.queries)):
                code *= size + 1
                code += self.answers(query, starts[k], starts[k + 1])
            return code
        nodes, node = [spec.tree], np.zeros_like(code)
        for k, size in enumerate(sizes):
            a = self._tree_answers(nodes, node, starts[k], starts[k + 1])
            code *= size + 1
            code += a
            if k + 1 < len(sizes):
                nodes, node = self._descend(nodes, node, a)
        return code

    def _descend(self, nodes: list[ThresholdTree], node: np.ndarray,
                 a: np.ndarray) -> tuple[list[ThresholdTree], np.ndarray]:
        """Each column's child node, numbered among the children some column reaches."""
        # answers lie in [0, n], so clipping the thresholds keeps every comparison
        thresholds = np.array([min(max(tree.threshold, 0), self.n + 1) for tree in nodes],
                              dtype=self.count_type)
        child = 2 * node + (a >= thresholds[node])
        counts = np.bincount(child, minlength=2 * len(nodes))
        reached = np.flatnonzero(counts)
        children = [(nodes[c // 2].low, nodes[c // 2].high)[c % 2] for c in reached.tolist()]
        renumber = np.zeros(counts.size, dtype=np.intp)
        renumber[reached] = np.arange(reached.size)
        return children, renumber[child]


def _mc_stream(rng: np.random.Generator, scenario: Scenario, value: int, trials: int,
               specs: list[CompositionSpec]) -> list[np.ndarray]:
    """One critical value's empirical answer-tuple law per spec, from `trials`
    sampled runs: shuffle keys first, then the entries.

    Both are drawn MC_DRAW_TRIALS trials at a time. A generator fills an
    array in C order from one stream, so the chunks hold the very numbers of
    one draw of all the trials. Each run is reduced to its counts below the
    block ends as its entries are drawn, and every spec is answered once per
    distinct tuple of counts (_Runs.distinct), weighted by its runs.
    """
    n, num_attrs = scenario.n, scenario.num_attributes
    most = min(MC_DRAW_TRIALS, trials)
    chunks = [slice(first, min(first + most, trials)) for first in range(0, trials, most)]
    # every chunk is drawn into the same buffers
    keys = np.empty((most, n))
    ranks = np.empty((n, trials), dtype=np.min_scalar_type(n))
    for chunk in chunks:
        ranks[:, chunk] = _shuffle_ranks(rng.random(out=keys[: chunk.stop - chunk.start]))
    draws = np.empty((most, n, num_attrs))
    planes = np.empty((num_attrs, n, most), dtype=bool)
    probs = scenario.probs_matrix().T[:, :, None]
    critical = ((value >> np.arange(num_attrs)) & 1)[:, None]
    pairs = _block_ends(specs, num_attrs)
    below = np.empty((len(pairs), trials), dtype=np.min_scalar_type(n + 1))
    for chunk in chunks:
        size = chunk.stop - chunk.start
        # the (runs, n, attributes) draw, compared into (attributes, n, runs) planes
        np.less(rng.random(out=draws[:size]).transpose(2, 1, 0), probs,
                out=planes[:, :, :size])
        planes[:, scenario.critical_index - 1, :size] = critical
        below[:, chunk] = _counts_below(ranks[:, chunk], planes[:, :, :size], pairs)
    runs = _Runs.distinct(pairs, below, n, num_attrs)
    return [np.bincount(runs.flat_answers(spec), weights=runs.weights,
                        minlength=math.prod(s + 1 for s in spec.format.sizes)) / trials
            for spec in specs]


def _mc_histograms(scenario: Scenario, specs: list[CompositionSpec], trials: int,
                   seed: int) -> list[dict[int, np.ndarray]]:
    """Empirical answer-tuple laws of `trials` sampled runs, per spec and critical value.

    A master seed is split into one child stream per critical value, and
    each trial's randomness occupies a fixed slice of that stream, so reruns
    are bit-identical. The runs of one critical value are sampled once and
    histogrammed for every spec (_mc_stream); with no spec nothing is
    sampled. The streams run one after another in critical-value order, the
    order of the dicts' keys, so the error of the first failed critical
    value is raised and no later value is drawn.
    """
    if not specs:
        return []
    children = np.random.SeedSequence(seed).spawn(scenario.num_values)
    results = [_mc_stream(np.random.default_rng(child), scenario, v, trials, specs)
               for v, child in enumerate(children)]
    return [{v: result[i] for v, result in enumerate(results)} for i in range(len(specs))]


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
    if is_int(trials) and trials < 10**3:
        raise DomainError("need at least 1000 trials")
    MonteCarlo(trials, seed)  # refuses any other invalid trial count or seed
    for one in specs:
        one.format.require_fits(scenario.n)
    scales = _scales(epsilon).tolist()
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
