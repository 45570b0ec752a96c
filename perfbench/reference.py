"""Reference values the benchmark checks the program's outputs against.

Nothing here imports spacct. The iid divergences use the closed threshold
form of the shifted-binomial pair on top of scipy.stats; the general-entry
bounds are recomputed by enumerating co-member subsets rather than whole
templates; the Monte-Carlo bound gets an independent sampled estimate.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy.stats import binom, hypergeom


def shift_pair_delta(u, p: float, eps: float):
    """Two-sided hockey-stick divergence between B + 1 and B, B ~ Bin(u, p).

    The pair has a monotone likelihood ratio b(a-1)/b(a) = a q / ((u-a+1) p),
    so each direction is a single tail difference at a threshold. The
    threshold's neighbours are evaluated too, so a rounding slip in locating
    it cannot lose the maximum. Vectorised over u.
    """
    u = np.asarray(u, dtype=np.float64)
    q = 1.0 - p
    scale = math.exp(eps)
    best = np.zeros_like(u)
    # P = law of B + 1 against Q = law of B: the optimal set is {a >= a*}
    a_star = np.floor(scale * (u + 1.0) * p / (q + scale * p)) + 1.0
    for t in (a_star - 1.0, a_star, a_star + 1.0):
        best = np.maximum(best, binom.sf(t - 2.0, u, p) - scale * binom.sf(t - 1.0, u, p))
    # Q against P: the optimal set is {a <= t*}
    t_star = np.ceil((u + 1.0) * p / (p + scale * q)) - 1.0
    for t in (t_star - 1.0, t_star, t_star + 1.0):
        best = np.maximum(best, binom.cdf(t, u, p) - scale * binom.cdf(t - 1.0, u, p))
    return np.minimum(best, 1.0)


def iid_curve_delta(size: int, p: float, eps: float) -> float:
    """`spacct curve` without known entries: divergence at database size `size`."""
    return float(shift_pair_delta(size - 1, p, eps))


def known_entries_delta(n: int, p: float, known: int, sample_size: int, eps: float,
                        population_adjusted: bool) -> float:
    """Hypergeometric mixture over the number z of known entries in the sample."""
    population = n - 1 if population_adjusted else n
    draws = sample_size - 1
    z = np.arange(max(0, draws - (population - known)), min(draws, known) + 1)
    weights = hypergeom.pmf(z, population, known, draws)
    unknown = draws - z
    terms = np.where(unknown == 0, 1.0, shift_pair_delta(np.maximum(unknown, 1), p, eps))
    return min(1.0, math.fsum((weights * terms).tolist()))


def sigma_increase(n: int, s: int, p: float) -> float:
    return math.sqrt(p * (1.0 - p) / s - p * (1.0 - p) / n)


# --- general entries ------------------------------------------------------

def _success(probs, negate: bool) -> np.ndarray:
    col = np.asarray(probs, dtype=np.float64)
    return 1.0 - col if negate else col


def count_law(success) -> np.ndarray:
    """Law of a sum of independent Bernoulli variables (index = count)."""
    law = np.ones(1)
    for s in success:
        law = np.convolve(law, (1.0 - s, s))
    return law


def _two_sided(law: np.ndarray, eps: float) -> float:
    """Divergence between count + 1 and count, both directions, direct sum."""
    scale = math.exp(eps)
    upper = np.concatenate(([0.0], law))
    lower = np.concatenate((law, [0.0]))
    one = upper - scale * lower
    two = lower - scale * upper
    return min(1.0, max(math.fsum(one[one > 0].tolist()), math.fsum(two[two > 0].tolist())))


def nonadaptive_general(probs, critical: int, sizes, negates, eps: float) -> list[float]:
    """Per-block expected divergence: block k's co-members of the critical
    index are a uniform (n_k - 1)-subset of the other indices."""
    others = [i for i in range(len(probs)) if i != critical - 1]
    terms = []
    for size, negate in zip(sizes, negates):
        values = [
            _two_sided(count_law(_success([probs[i] for i in co], negate)), eps)
            for co in combinations(others, size - 1)
        ]
        terms.append(math.fsum(values) / len(values))
    return terms


def _node_query(node, prefix):
    for answer in prefix:
        branch = node["next"]
        node = branch["low"] if answer < branch["threshold"] else branch["high"]
    return node["query"].get("negate", False)


def adaptive_general(probs, critical: int, sizes, tree, eps: float) -> list[float]:
    """Per-block adaptive bound for explicit entries.

    Block k averages, over the contents of blocks 1..k-1 and block k's
    co-members (uniform when the critical index is conditioned into block
    k), the answer-prefix expectation of the chosen query's divergence.
    """
    others = frozenset(i for i in range(len(probs)) if i != critical - 1)
    law_memo: dict = {}
    delta_memo: dict = {}

    def law(members, negate):
        key = (members, negate)
        if key not in law_memo:
            law_memo[key] = count_law(_success([probs[i] for i in members], negate))
        return law_memo[key]

    def leaf(co, negate):
        key = (co, negate)
        if key not in delta_memo:
            delta_memo[key] = _two_sided(law(co, negate), eps)
        return delta_memo[key]

    def walk(blocks, co, prefix, prob):
        negate = _node_query(tree, prefix)
        if len(prefix) == len(blocks):
            return prob * leaf(co, negate)
        answers = law(blocks[len(prefix)], negate)
        return math.fsum(walk(blocks, co, prefix + (a,), prob * pa)
                         for a, pa in enumerate(answers) if pa > 0.0)

    def layouts(k, avail, blocks):
        if len(blocks) == k:
            for co in combinations(sorted(avail), sizes[k] - 1):
                yield blocks, co
            return
        for block in combinations(sorted(avail), sizes[len(blocks)]):
            yield from layouts(k, avail - set(block), blocks + (block,))

    terms = []
    for k in range(len(sizes)):
        values = [walk(blocks, co, (), 1.0) for blocks, co in layouts(k, others, ())]
        terms.append(math.fsum(values) / len(values))
    return terms


def adaptive_iid(p: float, sizes, tree, eps: float) -> list[float]:
    """Per-block adaptive bound for iid entries via the closed form."""
    def success(negate):
        return 1.0 - p if negate else p

    def walk(k, prefix, prob):
        negate = _node_query(tree, prefix)
        if len(prefix) == k:
            return prob * iid_curve_delta(sizes[k], success(negate), eps)
        a = np.arange(sizes[len(prefix)] + 1)
        answers = binom.pmf(a, sizes[len(prefix)], success(negate))
        return math.fsum(walk(k, prefix + (int(x),), prob * pa)
                         for x, pa in zip(a, answers) if pa > 0.0)

    return [walk(k, (), 1.0) for k in range(len(sizes))]


def monte_carlo_general(probs, critical: int, sizes, negates, epsilons,
                        trials: int, seed: int) -> list[list[tuple[float, float]]]:
    """Independent sampled estimate of each block's expected divergence,
    with its 95% normal-approximation half-width, for every epsilon."""
    rng = np.random.default_rng(seed)
    probs = np.asarray(probs, dtype=np.float64)
    others = np.array([i for i in range(len(probs)) if i != critical - 1])
    out = [[] for _ in epsilons]
    for size, negate in zip(sizes, negates):
        keys = rng.random((trials, others.size))
        co = others[np.argpartition(keys, size - 2, axis=1)[:, :size - 1]]
        success = _success(probs[co], negate)
        law = np.zeros((trials, size))
        law[:, 0] = 1.0
        for col in range(size - 1):
            s = success[:, col:col + 1]
            law[:, 1:] = law[:, 1:] * (1.0 - s) + law[:, :-1] * s
            law[:, 0] *= 1.0 - s[:, 0]
        upper = np.concatenate((np.zeros((trials, 1)), law), axis=1)
        lower = np.concatenate((law, np.zeros((trials, 1))), axis=1)
        for row, eps in zip(out, epsilons):
            scale = math.exp(eps)
            one = np.clip(upper - scale * lower, 0.0, None).sum(axis=1)
            two = np.clip(lower - scale * upper, 0.0, None).sum(axis=1)
            values = np.minimum(np.maximum(one, two), 1.0)
            row.append((float(values.mean()),
                        1.96 * float(values.std(ddof=1)) / math.sqrt(trials)))
    return out
