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
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .compose import AdaptiveSpec, CompositionSpec, NonadaptiveSpec, ThresholdTree, _require_fits
from .curve import _scales, d_hat, per_epsilon
from .distkit import Pmf
from .errors import CapacityError, DomainError, magnitude
from .partition import PartitionLaw, TemplateFormat, enumerate_templates, template_count
from .spc import MC_TRIALS_CAP, IidEntries, PropertyQuery, Scenario

# Ceiling on |W|^(n-1) * template count * answer-tuple count.
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

    Cost is |W|^(n-1) * #templates * #answer tuples and is checked against
    ORACLE_CAP before any work happens.
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
    if budget > ORACLE_CAP:
        raise CapacityError(
            f"exact enumeration needs {magnitude(budget)} law evaluations, above the cap of "
            f"{ORACLE_CAP}")
    j0 = scenario.critical_index - 1
    probs = scenario.probs_matrix()

    num_rows = num_values ** (n - 1)
    ids = np.arange(num_rows, dtype=np.int64)
    place = num_values ** np.arange(n - 1, dtype=np.int64)
    digits = (ids[:, None] // place[None, :]) % num_values
    bits = ((digits[:, :, None] >> np.arange(num_attrs)) & 1).astype(np.int8)
    probs_nc = np.delete(probs, j0, axis=0)
    row_prob = np.prod(np.where(bits == 1, probs_nc[None], 1.0 - probs_nc[None]), axis=(1, 2))

    # every entry takes at least 2 values and every block 2 answers, so the
    # budget keeps the templates within TEMPLATE_CAP: at most 10^7 / 2^n from
    # n = 4 on, and at most 3! = 6 below
    templates = enumerate_templates(law)
    # each template's places of the entries in the blocks laid end to end,
    # shared by every assignment; entries outside every block go after the last
    places = np.full((n, len(templates)), n, dtype=np.min_scalar_type(n))
    for t, (template, _) in enumerate(templates):
        order = [i - 1 for block in template for i in block]
        places[order, t] = np.arange(len(order))
    per_chunk = max(1, LAW_CHUNK_RUNS // num_rows)
    hist = {v: np.zeros(n_answers) for v in range(num_values)}
    noncrit = [i for i in range(n) if i != j0]
    for v in range(num_values):
        entries = np.empty((num_rows, n, num_attrs), dtype=bool)
        entries[:, noncrit, :] = bits
        entries[:, j0, :] = (v >> np.arange(num_attrs)) & 1
        # template-major runs, accumulated in template order as one template at a time would be
        for first in range(0, len(templates), per_chunk):
            chunk = templates[first : first + per_chunk]
            runs = _McRuns(np.repeat(places[:, first : first + len(chunk)], num_rows, axis=1),
                           np.tile(entries, (len(chunk), 1, 1)))
            np.add.at(hist[v], runs.flat_answers(spec),
                      np.concatenate([w * row_prob for _, w in chunk]))
    laws = {v: Pmf(0, h) for v, h in hist.items()}
    return ExactMechanismLaw(laws=laws, radix=radix)


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
    # the transpose is copied a block of trials at a time, so that both sides
    # of each copy stay in cache
    cols = np.empty(keys.shape[::-1])
    for first in range(0, keys.shape[0], 1024):
        cols[:, first : first + 1024] = keys[first : first + 1024].T
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


class _McRuns:
    """Runs of the mechanism for one critical value: shuffle ranks and entries.

    `ranks` holds each entry's place in each run's shuffle as an (n x runs)
    array (entries ranked at or after the format's total are left out of the
    sample); `entries` holds the runs' attribute values, shaped
    (runs, n, attributes). A block's answer to a query is a count over
    entries, made once per (query, block) for every spec and tree node that
    asks.
    """

    def __init__(self, ranks: np.ndarray, entries: np.ndarray) -> None:
        self.ranks = ranks
        self.entries = entries
        # answers lie in [0, n] and thresholds are clipped to [0, n + 1]
        self.count_type = np.min_scalar_type(entries.shape[1] + 1)
        self.planes: dict[tuple[int, bool], np.ndarray] = {}
        self.counts: dict[tuple[int, bool, int, int], np.ndarray] = {}

    @classmethod
    def sample(cls, rng: np.random.Generator, scenario: Scenario, value: int,
               trials: int) -> _McRuns:
        """`trials` sampled runs: shuffle keys first, then the entries.

        Both are drawn MC_DRAW_TRIALS trials at a time. A generator fills an
        array in C order from one stream, so the chunks hold the very numbers
        of one draw of all the trials.
        """
        n, num_attrs = scenario.n, scenario.num_attributes
        chunks = [slice(first, min(first + MC_DRAW_TRIALS, trials))
                  for first in range(0, trials, MC_DRAW_TRIALS)]
        ranks = np.empty((n, trials), dtype=np.min_scalar_type(n))
        for chunk in chunks:
            ranks[:, chunk] = _shuffle_ranks(rng.random((chunk.stop - chunk.start, n)))
        probs = scenario.probs_matrix()[None]
        entries = np.empty((trials, n, num_attrs), dtype=bool)
        for chunk in chunks:
            np.less(rng.random((chunk.stop - chunk.start, n, num_attrs)), probs,
                    out=entries[chunk])
        entries[:, scenario.critical_index - 1, :] = (value >> np.arange(num_attrs)) & 1
        return cls(ranks, entries)

    def plane(self, query: PropertyQuery) -> np.ndarray:
        """(n x runs) indicators of the entries the query counts."""
        key = (query.attribute, query.negate)
        if key not in self.planes:
            query.require_attribute(self.entries.shape[2])
            plane = np.ascontiguousarray(self.entries[:, :, query.attribute].T)
            self.planes[key] = ~plane if query.negate else plane
        return self.planes[key]

    def answers(self, query: PropertyQuery, lo: int, hi: int) -> np.ndarray:
        """Per-run answer of `query` on the block at shuffle places lo..hi-1."""
        key = (query.attribute, query.negate, lo, hi)
        if key not in self.counts:
            hits = self.plane(query)
            if lo > 0 or hi < self.entries.shape[1]:
                hits = hits & (self.ranks >= lo) & (self.ranks < hi)
            self.counts[key] = _count(hits, self.count_type)
        return self.counts[key]

    def _tree_answers(self, nodes: list[ThresholdTree], node: np.ndarray,
                      lo: int, hi: int) -> np.ndarray:
        """Per-run answer of the query at each run's node (an index into `nodes`)."""
        queries = list(dict.fromkeys(tree.query for tree in nodes))
        first = self.answers(queries[0], lo, hi)
        if len(queries) == 1:
            return first
        which = np.array([queries.index(tree.query) for tree in nodes])[node]
        a = first.copy()
        for i, query in enumerate(queries[1:], start=1):
            # a select by arithmetic: exact, since the wrapped difference is undone
            a += (self.answers(query, lo, hi) - first) * (which == i)
        return a

    def flat_answers(self, spec: CompositionSpec) -> np.ndarray:
        """Every run's answer tuple, flattened by mixed radix with bases n_k + 1
        (the C-order np.ravel_multi_index).

        Adaptive specs carry each run's tree node as an index into the nodes
        that some run reaches at that depth, so the ids stay compact however
        deep the tree is: the high child of node i is 2i + 1 and the low one
        2i before they are renumbered.
        """
        sizes = spec.format.sizes
        # entries placed after the last block are left out of the sample
        starts = np.cumsum((0,) + sizes).tolist()
        code = np.zeros(self.entries.shape[0], dtype=np.intp)
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
        """Each run's child node, numbered among the children some run reaches."""
        n = self.entries.shape[1]
        # answers lie in [0, n], so clipping the thresholds keeps every comparison
        thresholds = np.array([min(max(tree.threshold, 0), n + 1) for tree in nodes],
                              dtype=self.count_type)
        child = 2 * node + (a >= (thresholds if len(nodes) == 1 else thresholds[node]))
        counts = np.bincount(child, minlength=2 * len(nodes))
        reached = np.flatnonzero(counts)
        children = [(nodes[c // 2].low, nodes[c // 2].high)[c % 2] for c in reached.tolist()]
        if reached.size == counts.size:
            return children, child
        renumber = np.zeros(counts.size, dtype=np.intp)
        renumber[reached] = np.arange(reached.size)
        return children, renumber[child]


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _mc_histograms(scenario: Scenario, specs: list[CompositionSpec], trials: int,
                   seed: int) -> list[dict[int, np.ndarray]]:
    """Empirical answer-tuple laws of `trials` sampled runs, per spec and critical value.

    A master seed is split into one child stream per critical value, and
    each trial's randomness occupies a fixed slice of that stream, so
    results do not depend on evaluation order and reruns are bit-identical.
    The runs of one critical value are sampled once and histogrammed for
    every spec.

    The streams run on min(critical values, usable CPUs) threads, the
    calling thread among them, each taking every so-many-th value; numpy
    releases the GIL inside its array work. A stream writes only its own
    slot, so the histograms are those of a serial loop whatever the thread
    count, and the dicts are built in critical-value order. Every thread is
    joined before this returns or raises, and the error of the first failed
    critical value is raised (each thread stops at its first error, so every
    value before it has run).
    """
    children = np.random.SeedSequence(seed).spawn(scenario.num_values)
    bins = [math.prod(s + 1 for s in spec.format.sizes) for spec in specs]
    results: list = [None] * scenario.num_values  # per value: its histograms or its error

    def run(first: int, step: int) -> None:
        for v in range(first, scenario.num_values, step):
            try:
                runs = _McRuns.sample(np.random.default_rng(children[v]), scenario, v, trials)
                results[v] = [np.bincount(runs.flat_answers(spec), minlength=size) / trials
                              for spec, size in zip(specs, bins)]
            except BaseException as exc:  # raised below, in the calling thread
                results[v] = exc
                return

    workers = min(scenario.num_values, _usable_cpus())
    started = []
    try:
        for first in range(1, workers):
            thread = threading.Thread(target=run, args=(first, workers), daemon=True)
            thread.start()
            started.append(thread)
        run(0, workers)
    finally:
        for thread in started:
            thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
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
    if trials < 10**3:
        raise DomainError("need at least 1000 trials")
    if trials > MC_TRIALS_CAP:
        raise CapacityError(
            f"{magnitude(trials)} Monte-Carlo trials exceed the cap of {MC_TRIALS_CAP}")
    for one in specs:
        _require_fits(scenario, one.format)
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
