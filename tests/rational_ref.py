"""Independent reference implementations used as test oracles.

Everything here is deliberately dumb: exact rational arithmetic where
possible, raw enumeration elsewhere, and no reuse of the package's
convolution or log-space machinery. Former evaluation paths are kept at
the end as references for the paths that replaced them: the KOV
composition curve (against the DP search's certified decision), the
row-by-row DP search and its scalar probe `_kov_achieves`, which ran every
gate and the whole sum per row (against the batched probe and its
whole-sum finisher), the scalar KOV term builder `_kov_terms` (bit for bit
against the batched term windows), a block's two indicator answer laws
(against the batched subset divergences), the oracle's masked answer
counts with tree nodes as row groups and its one rank column per template
(bit for bit against its batched run simulator), adaptive composition's
per-template tree walk, which uses the package's own laws and divergences
so that only the order of summation differs, the adaptive iid level loop
(bit for bit against the prefix walk, with the package's binomial tails),
the partition law's two-branch template count, enumeration and sampling,
which spelled out restricted laws separately (exactly against the one
reduction that replaced them), `_block_divergence`, the block
evaluator that evaluates every co-member pool on its own (bit for bit
against the cached, count-keyed one), and the known-entry mixture over
every row of its support (bit for bit against `spc_known_entries`, which
evaluates the light rows only where they can move the rounded sum), and
the oracle's per-run simulator `_McRuns` with its serial histograms (bit
for bit against the histograms of distinct count tuples).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from spacct.baseline import (DELTA0_GRID_POINTS, MAX_QUERIES, DpCalibration, _kov_lanes,
                             _kov_total, _log_factorials, gaussian_sigma_for)
from spacct.compose import NonadaptiveSpec, ThresholdTree
from spacct.curve import (_binomial_above, as_grid, fsum_terms, per_epsilon, shift_pair_delta,
                          shift_pair_rows)
from spacct.distkit import (cdf, point, poisson_binomial, poisson_binomial_rows, shift,
                            sum_bracket)
from spacct.errors import CapacityError, DomainError
from spacct.oracle import MC_DRAW_TRIALS, _count
from spacct.partition import PartitionLaw, TemplateFormat, enumerate_templates
from spacct.spc import (KnownEntries, PropertyQuery, Scenario, _known_weights,
                        _require_sample_size, _subset_values, spc_iid, spc_known_entries,
                        success_prob)


def binom_pmf_exact(n: int, p: Fraction) -> dict[int, Fraction]:
    q = 1 - p
    return {k: math.comb(n, k) * p**k * q ** (n - k) for k in range(n + 1)}


def hyper_pmf_exact(population: int, successes: int, draws: int) -> dict[int, Fraction]:
    lo = max(0, draws - (population - successes))
    hi = min(draws, successes)
    denom = math.comb(population, draws)
    return {
        z: Fraction(math.comb(successes, z) * math.comb(population - successes, draws - z), denom)
        for z in range(lo, hi + 1)
    }


def hockey_stick_dicts(p: dict, q: dict, epsilon: float) -> float:
    scale = math.exp(epsilon)
    support = set(p) | set(q)
    return math.fsum(
        max(0.0, float(p.get(a, 0)) - scale * float(q.get(a, 0))) for a in sorted(support)
    )


def total_variation(p: dict, q: dict) -> float:
    support = set(p) | set(q)
    return 0.5 * math.fsum(abs(float(p.get(a, 0)) - float(q.get(a, 0))) for a in sorted(support))


def dhat_shift_pair(size: int, p: float, epsilon: float) -> float:
    """Two-sided divergence of a size-`size` property query on iid entries,
    by direct summation over both ordered pairs of shifted binomials."""
    base = {k: float(b) for k, b in binom_pmf_exact(size - 1, Fraction(p).limit_denominator(10**9)).items()}
    shifted = {k + 1: v for k, v in base.items()}
    return max(
        hockey_stick_dicts(shifted, base, epsilon),
        hockey_stick_dicts(base, shifted, epsilon),
    )


def enumerate_set_partitions(indices: tuple[int, ...], sizes: tuple[int, ...]):
    """All ways to fill ordered blocks of the given sizes with distinct indices
    (blocks as sorted tuples)."""
    if not sizes:
        yield ()
        return
    first, rest = sizes[0], sizes[1:]
    for combo in combinations(indices, first):
        remaining = tuple(i for i in indices if i not in combo)
        for tail in enumerate_set_partitions(remaining, rest):
            yield (tuple(sorted(combo)),) + tail


def block_answer_law(member_probs: list[float], shift_by: int, negate: bool = False) -> dict[int, float]:
    """Exact answer law of a property count over independent Bernoulli members,
    by enumeration of all value assignments (no convolutions)."""
    law: dict[int, float] = {}
    for values in product((0, 1), repeat=len(member_probs)):
        weight = 1.0
        for v, pr in zip(values, member_probs):
            weight *= pr if v else (1.0 - pr)
        count = sum((1 - v) if negate else v for v in values) + shift_by
        law[count] = law.get(count, 0.0) + weight
    return law


def nonadaptive_theorem_sum(n: int, probs: list[float], j: int,
                            sizes: tuple[int, ...], negates: tuple[bool, ...],
                            epsilon: float) -> float:
    """Independent evaluation of the nonadaptive composition bound:
    sum_k (n_k / n) E_{templates with j in block k}[dhat of block k's laws]."""
    total = 0.0
    indices = tuple(range(1, n + 1))
    for k, size in enumerate(sizes):
        block_terms = []
        for blocks in enumerate_set_partitions(indices, sizes):
            if j not in blocks[k]:
                continue
            members = [probs[i - 1] for i in blocks[k] if i != j]
            law0 = block_answer_law(members, 0, negates[k])
            law1 = block_answer_law(members, 1, negates[k])
            block_terms.append(max(
                hockey_stick_dicts(law1, law0, epsilon),
                hockey_stick_dicts(law0, law1, epsilon),
            ))
        total += (size / n) * (sum(block_terms) / len(block_terms))
    return total


def adaptive_theorem_sum(n: int, probs: list[list[float]], j: int,
                         sizes: tuple[int, ...], choose, epsilon: float) -> float:
    """Independent evaluation of the adaptive composition bound; `choose`
    maps an answer prefix to (attribute, negate)."""
    indices = tuple(range(1, n + 1))
    total = 0.0
    for k, size in enumerate(sizes):
        templates = [b for b in enumerate_set_partitions(indices, sizes) if j in b[k]]
        acc = 0.0
        for blocks in templates:
            def walk(level: int, prefix: tuple[int, ...], weight: float) -> float:
                attribute, negate = choose(prefix)
                if level == k:
                    members = [probs[i - 1][attribute] for i in blocks[k] if i != j]
                    law0 = block_answer_law(members, 0, negate)
                    law1 = block_answer_law(members, 1, negate)
                    return weight * max(
                        hockey_stick_dicts(law1, law0, epsilon),
                        hockey_stick_dicts(law0, law1, epsilon),
                    )
                members = [probs[i - 1][attribute] for i in blocks[level]]
                law = block_answer_law(members, 0, negate)
                return sum(
                    walk(level + 1, prefix + (a,), weight * pa)
                    for a, pa in law.items()
                )

            acc += walk(0, (), 1.0)
        total += (size / n) * (acc / len(templates))
    return total


def tree_choice(tree):
    """The answer-prefix chooser of a threshold tree: descend `low` when the
    answer is below the node's threshold; return (attribute, negate)."""
    def choose(prefix: tuple[int, ...]) -> tuple[int, bool]:
        node = tree
        for answer in prefix:
            node = node.low if answer < node.threshold else node.high
        return node.query.attribute, node.query.negate

    return choose


def adaptive_iid_prefix_sum(n: int, probs: tuple[float, ...], sizes: tuple[int, ...],
                            choose, epsilon: float) -> float:
    """Independent evaluation of the adaptive iid bound: block k's divergence
    averaged over every answer prefix of blocks 1..k-1 under exact rational
    binomial laws; `choose` maps a prefix to (attribute, negate)."""
    def success(prefix) -> Fraction:
        attribute, negate = choose(prefix)
        p = Fraction(probs[attribute]).limit_denominator(10**9)
        return 1 - p if negate else p

    total = 0.0
    for k, size in enumerate(sizes):
        def walk(prefix: tuple[int, ...], weight: Fraction) -> float:
            p = success(prefix)
            if len(prefix) == k:
                return float(weight) * dhat_shift_pair(size, float(p), epsilon)
            law = binom_pmf_exact(sizes[len(prefix)], p)
            return math.fsum(walk(prefix + (a,), weight * pa) for a, pa in law.items() if pa)

        total += (size / n) * walk((), Fraction(1))
    return total


def _kov_terms(epsilon0: float, k: int, i: int) -> np.ndarray:
    """The i summands of the optimal-composition delta component at the
    curve point (k - 2i) * eps0, each one nonnegative:
    C(k,l) e^{(k-2i+l) eps0} (e^{(2i-2l) eps0} - 1) / (1 + e^{eps0})^k for l < i.
    """
    lf = _log_factorials(k + 1)
    log_comb = lf[k] - lf[:i] - lf[k - i + 1:k + 1][::-1]
    reach = np.arange(i, 0, -1)  # i - l
    return _kov_lanes(log_comb, k - i - reach, 2.0 * reach, epsilon0,
                      k * float(np.logaddexp(0.0, epsilon0)))


def kov_dhat(epsilon0: float, k: int, i: int) -> float:
    """Optimal-composition delta component at the curve point (k - 2i) * eps0.

    sum_{l < i} C(k,l) (e^{(k-l) eps0} - e^{(k-2i+l) eps0}) / (1 + e^{eps0})^k,
    evaluated in log space and summed exactly rounded.
    """
    return math.fsum(_kov_terms(epsilon0, k, i).tolist())


def kov_total_delta(epsilon0: float, delta0: float, k: int, i: int) -> float:
    """KOV composed delta at the curve point (k - 2i) eps0, from the fsum of
    its terms."""
    return _kov_total(kov_dhat(epsilon0, k, i), delta0, k)


def kov_compose(epsilon0: float, delta0: float, k: int) -> list[tuple[float, float]]:
    """Optimal homogeneous k-fold composition curve for (eps0, delta0)-DP: the
    floor(k/2) + 1 achievable points ((k - 2i) eps0, delta_i), listed by
    increasing epsilon. O(k^2); intended for moderate k."""
    if k < 1:
        raise DomainError("k must be at least 1")
    if not epsilon0 > 0.0:
        raise DomainError("epsilon0 must be positive")
    if not 0.0 <= delta0 < 1.0:
        raise DomainError("delta0 must lie in [0, 1)")
    return [((k - 2 * i) * epsilon0, kov_total_delta(epsilon0, delta0, k, i))
            for i in range(k // 2, -1, -1)]


def _kov_achieves(epsilon0: float, delta0: float, k: int,
                  target_epsilon: float, target_delta: float) -> bool:
    """Whether some composition curve point has eps <= target and delta <= target.

    delta_i grows with i while eps_i shrinks, so only the smallest i with
    (k - 2i) eps0 <= target_epsilon needs checking.
    """
    if k * epsilon0 <= target_epsilon:
        i = 0
    else:
        i = math.ceil((k - target_epsilon / epsilon0) / 2.0)
        if i > k // 2:
            return False
    if _kov_total(0.0, delta0, k) > target_delta:
        return False  # the delta0 part alone misses; dhat >= 0 only adds to it
    if i == 0:
        return True
    # The decision needs only a bracket around the fsum total: the i terms are
    # nonnegative, so distkit.sum_bracket around their float sum holds fsum's
    # correctly rounded sum. _kov_total is nondecreasing in dhat (math.log1p
    # and math.expm1 are monotone), so the fsum total lies between the totals
    # at the two ends; only a target in between needs fsum.
    terms = _kov_terms(epsilon0, k, i)
    s = float(terms.sum())
    if math.isfinite(s):
        lo, hi = sum_bracket(s, i)
        if _kov_total(lo, delta0, k) > target_delta:
            return False
        if _kov_total(hi, delta0, k) <= target_delta:
            return True
    return _kov_total(math.fsum(terms.tolist()), delta0, k) <= target_delta


def max_dp_queries_rowwise(target_epsilon: float, target_delta: float,
                           sigma_target: float, n: int) -> DpCalibration:
    """max_dp_queries as a loop over the delta0 grid, one scalar _kov_achieves
    per row in grid order, with the same doubling/bisection probes of k.
    Arguments are taken as valid."""
    sensitivity = 1.0 / n
    grid = np.logspace(math.log10(target_delta * 1e-6), math.log10(target_delta * 0.999),
                       DELTA0_GRID_POINTS)
    eps0 = {d0: gaussian_sigma_for(sigma_target, d0, sensitivity) for d0 in grid.tolist()}

    @functools.cache
    def feasible(k: int) -> float | None:
        for d0, e0 in eps0.items():
            if _kov_achieves(e0, d0, k, target_epsilon, target_delta):
                return d0
        return None

    if feasible(1) is None:
        d0 = float(grid[-1])
        return DpCalibration(eps0[d0], d0, sigma_target, sensitivity, 0)
    hi = 2
    while feasible(hi) is not None:
        if hi >= MAX_QUERIES:
            raise CapacityError(f"at least MAX_QUERIES = {MAX_QUERIES} DP queries meet "
                                f"the target; the search stops there")
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid) is not None:
            lo = mid
        else:
            hi = mid
    d0 = feasible(lo)
    return DpCalibration(eps0[d0], d0, sigma_target, sensitivity, lo)


def indicator_laws(query, rows: np.ndarray) -> dict:
    """A block's two conditional answer laws, keyed by the query's predicate
    on the critical entry, for co-members with Bernoulli parameters `rows`:
    critical values with equal indicator give identical laws."""
    base = poisson_binomial(query.success_probs(rows)) if rows.shape[0] else point(0)
    return {0: base, 1: shift(base, 1)}


def masked_count_answers(ranks: np.ndarray, entries: np.ndarray, spec) -> np.ndarray:
    """Flat answer codes of runs, one masked count per (query, block) and
    np.ravel_multi_index; adaptive specs split each tree node's rows on its
    threshold. `ranks` is (n x runs) or an (n x 1) column shared by all runs,
    `entries` is (runs, n, attributes); `spec` is a compose spec."""
    sizes = spec.format.sizes
    starts = np.cumsum((0,) + sizes).tolist()
    num_runs = entries.shape[0]

    def answers(query, k: int) -> np.ndarray:
        plane = entries[:, :, query.attribute].T
        plane = ~plane if query.negate else plane
        in_block = (ranks >= starts[k]) & (ranks < starts[k + 1])
        return np.count_nonzero(plane & in_block, axis=0)

    out = np.zeros((num_runs, len(sizes)), dtype=np.int64)
    if hasattr(spec, "queries"):
        for k, query in enumerate(spec.queries):
            out[:, k] = answers(query, k)
    else:
        groups = [(spec.tree, np.arange(num_runs))]
        for k in range(len(sizes)):
            nxt = []
            for node, rows in groups:
                a = answers(node.query, k)[rows]
                out[rows, k] = a
                if k + 1 < len(sizes):
                    below = a < node.threshold
                    nxt += [(child, part) for child, part in
                            ((node.low, rows[below]), (node.high, rows[~below])) if part.size]
            groups = nxt
    return np.ravel_multi_index(out.T, tuple(s + 1 for s in sizes))


def per_template_exact_hist(probs: np.ndarray, critical_index: int, spec,
                            templates) -> dict[int, np.ndarray]:
    """Exact answer-code masses per critical value, over every assignment of
    the non-critical entries, one template at a time with its own (n x 1)
    rank column, accumulated by np.add.at in template order. `probs` is the
    (n x attributes) Bernoulli matrix; `templates` is the (template, weight)
    list of partition.enumerate_templates, whose order fixes the rounding."""
    n, num_attrs = probs.shape
    num_values = 1 << num_attrs
    j0 = critical_index - 1
    num_rows = num_values ** (n - 1)
    ids = np.arange(num_rows, dtype=np.int64)
    place = num_values ** np.arange(n - 1, dtype=np.int64)
    digits = (ids[:, None] // place[None, :]) % num_values
    bits = ((digits[:, :, None] >> np.arange(num_attrs)) & 1).astype(np.int8)
    probs_nc = np.delete(probs, j0, axis=0)
    row_prob = np.prod(np.where(bits == 1, probs_nc[None], 1.0 - probs_nc[None]), axis=(1, 2))
    n_answers = math.prod(s + 1 for s in spec.format.sizes)
    hist = {v: np.zeros(n_answers) for v in range(num_values)}
    noncrit = [i for i in range(n) if i != j0]
    for v in range(num_values):
        entries = np.empty((num_rows, n, num_attrs), dtype=bool)
        entries[:, noncrit, :] = bits
        entries[:, j0, :] = (v >> np.arange(num_attrs)) & 1
        for template, w in templates:
            order = [i - 1 for block in template for i in block]
            ranks = np.full((n, 1), n)
            ranks[order, 0] = np.arange(len(order))
            np.add.at(hist[v], masked_count_answers(ranks, entries, spec), w * row_prob)
    return hist


def per_template_adaptive_general(scenario, spec, epsilon) -> list[np.ndarray]:
    """Block k's adaptive general delta for each k, one template at a time:
    every template of blocks 1..k under the law restricted to (critical
    index, k), with the tree walked from the root to depth k. A branch's
    probability is a tail of the earlier block's Poisson-binomial answer
    law; a depth-k node adds P(reach node) times the divergence of block
    k's laws on the template's co-members. `spec` is an AdaptiveSpec."""
    probs = scenario.probs_matrix()
    j = scenario.critical_index
    sizes = spec.format.sizes
    grid = as_grid(epsilon)

    def tree_sum(template, k: int) -> np.ndarray:
        terms = []

        def walk(node, level: int, prob: float) -> None:
            if level == k:
                co_members = [i - 1 for i in template[k - 1] if i != j]
                success = node.query.success_probs(probs[co_members])
                divergence = shift_pair_rows(poisson_binomial_rows(success[None]), grid)[:, 0]
                terms.append(prob * divergence)
                return
            members = [i - 1 for i in template[level - 1]]
            law = poisson_binomial(node.query.success_probs(probs[members]))
            below = cdf(law, node.threshold - 1)
            above = 1.0 - below if node.threshold <= law.top else 0.0
            for child, branch in ((node.low, below), (node.high, above)):
                if branch > 0.0:
                    walk(child, level + 1, prob * branch)

        walk(spec.tree, 1, 1.0)
        return fsum_terms(terms)

    deltas = []
    for k in range(1, len(sizes) + 1):
        law = PartitionLaw(scenario.n, TemplateFormat(sizes[:k]), restriction=(j, k))
        deltas.append(fsum_terms([w * tree_sum(t, k) for t, w in enumerate_templates(law)]))
    return deltas


def level_loop_adaptive_iid(scenario, spec, epsilon) -> list[np.ndarray]:
    """Block k's adaptive iid delta for each k, one tree level per block: the
    depth-k nodes with their reach probabilities, each branch probability a
    binomial tail from the package's one tail kernel (P(B < t) = P(B' > u - t)
    with B' ~ Bin(u, q), and P(B >= t) = P(B > t - 1), for B ~ Bin(u, p),
    q = 1 - p, u the earlier block's size; tests/test_curve.py checks the
    kernel against mpmath), and each node's divergence spc_iid at size n_k.
    `spec` is an AdaptiveSpec."""
    sizes = spec.format.sizes
    grid = as_grid(epsilon)
    reach, deltas = [(spec.tree, 1.0)], []
    for k, size in enumerate(sizes):
        if k:
            u, below = sizes[k - 1], []
            for node, prob in reach:
                p, t = success_prob(scenario, node.query), node.threshold
                if t <= 0:
                    tails = (0.0, 1.0)
                elif t > u:
                    tails = (1.0, 0.0)
                else:
                    tails = (float(_binomial_above(u, 1.0 - p, u - t)),
                             float(_binomial_above(u, p, t - 1)))
                below += [(child, prob * branch)
                          for child, branch in zip((node.low, node.high), tails) if branch > 0.0]
            reach = below
        deltas.append(fsum_terms([prob * spc_iid(scenario, size, grid, node.query)
                                  for node, prob in reach]))
    return deltas


def two_branch_template_count(law: PartitionLaw) -> int:
    """partition.template_count with its restricted law as a second branch."""
    sizes = law.format.sizes
    if law.restriction is None:
        count, remaining = 1, law.n
        for s in sizes:
            count *= math.comb(remaining, s)
            remaining -= s
        return count
    _, k = law.restriction
    count, remaining = 1, law.n - 1
    for idx, s in enumerate(sizes, start=1):
        pick = s - 1 if idx == k else s
        count *= math.comb(remaining, pick)
        remaining -= pick
    return count


def two_branch_enumerate_templates(law: PartitionLaw) -> list[tuple[tuple, float]]:
    """partition.enumerate_templates with the restricted block forced in a
    branch of the recursion: (index tuples, weight) in enumeration order."""
    sizes = law.format.sizes
    count = two_branch_template_count(law)
    weight = 1.0 / count
    forced = {}
    if law.restriction is not None:
        j, k = law.restriction
        forced[k - 1] = j
    out = []

    def build(block_idx: int, available: tuple[int, ...], chosen: tuple) -> None:
        if block_idx == len(sizes):
            out.append((chosen, weight))
            return
        size = sizes[block_idx]
        force = forced.get(block_idx)
        if force is None:
            for combo in combinations(available, size):
                rest = tuple(i for i in available if i not in combo)
                build(block_idx + 1, rest, chosen + (combo,))
        else:
            for combo in combinations(available, size - 1):
                block = tuple(sorted(combo + (force,)))
                rest = tuple(i for i in available if i not in combo)
                build(block_idx + 1, rest, chosen + (block,))

    start = tuple(i for i in range(1, law.n + 1) if i not in forced.values())
    build(0, start, ())
    assert len(out) == count
    return out


def two_branch_sample_template(law: PartitionLaw, seed) -> tuple[tuple[int, ...], ...]:
    """partition.sample_template with a separate shuffle for restricted laws."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    sizes = law.format.sizes
    if law.restriction is None:
        perm = rng.permutation(np.arange(1, law.n + 1))
        blocks, pos = [], 0
        for s in sizes:
            blocks.append(tuple(int(i) for i in perm[pos : pos + s]))
            pos += s
        return tuple(blocks)
    j, k = law.restriction
    pool = np.array([i for i in range(1, law.n + 1) if i != j])
    perm = rng.permutation(pool)
    blocks, pos = [], 0
    for idx, s in enumerate(sizes, start=1):
        take = s - 1 if idx == k else s
        block = [int(i) for i in perm[pos : pos + take]]
        pos += take
        if idx == k:
            block.append(j)
        blocks.append(tuple(block))
    return tuple(blocks)


def _block_divergence(scenario, pool, size: int, query, grid: np.ndarray) -> np.ndarray:
    """Exact divergence of a block of `size` holding the critical index, per grid
    point, over co-members drawn uniformly from `pool` (0-based non-critical
    indices): one branch per entry model, known entries at the pool's counts.
    Every pool is evaluated on its own, its known entries counted with np.isin
    and its explicit co-member subsets all evaluated, none of them stored."""
    entries = scenario.entries
    if scenario.is_iid:
        return spc_iid(scenario, size, grid, query)
    if isinstance(entries, KnownEntries):
        known = np.count_nonzero(np.isin(pool, entries.slots(scenario.n, scenario.critical_index)))
        return spc_known_entries(Scenario(len(pool) + 1, KnownEntries(entries.p, known)), size,
                                 grid, query, population_excludes_critical=True)
    count = math.comb(len(pool), size - 1)
    values = _subset_values(query.success_probs(scenario.probs_matrix()),
                            combinations(pool, size - 1), count, grid)
    return np.minimum(1.0, fsum_terms((values * (1.0 / count)).T))


def spc_known_entries_every_row(scenario, sample_size: int, epsilon, query, *,
                                population_excludes_critical: bool = False):
    """spc_known_entries as a sum over every row of the hypergeometric
    support: one shift_pair_delta call and one fsum per epsilon."""
    if not isinstance(scenario.entries, KnownEntries):
        raise DomainError("spc_known_entries requires a known-entries model")
    _require_sample_size(scenario, sample_size)
    v, p = scenario.entries.known, success_prob(scenario, query)
    population = scenario.n - 1 if population_excludes_critical else scenario.n
    weights = _known_weights(population, v, sample_size)
    # float counts: a sample of 10^20 entries overflows int64
    unknown = sample_size - 1 - np.arange(weights.offset, weights.top + 1, dtype=np.float64)
    terms = weights.masses * shift_pair_delta(unknown, p, as_grid(epsilon))
    return per_epsilon(epsilon, np.minimum(1.0, fsum_terms(terms.T)))


class _McRuns:
    """The oracle's former run simulator, for one critical value: shuffle
    ranks and entries, kept per run.

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
        of one draw of all the trials. An entry's rank is its slot in a stable
        argsort of the run's keys, so ties go by index.
        """
        n, num_attrs = scenario.n, scenario.num_attributes
        chunks = [slice(first, min(first + MC_DRAW_TRIALS, trials))
                  for first in range(0, trials, MC_DRAW_TRIALS)]
        ranks = np.empty((n, trials), dtype=np.min_scalar_type(n))
        for chunk in chunks:
            slots = np.argsort(rng.random((chunk.stop - chunk.start, n)), axis=1, kind="stable")
            ranks[slots.T, np.arange(chunk.start, chunk.stop)] = np.arange(n)[:, None]
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


def per_run_histograms(scenario, specs, trials: int, seed: int) -> list[dict[int, np.ndarray]]:
    """oracle._mc_histograms as the former serial loop: per critical value, the
    runs of _McRuns.sample, every run's answer tuple and one np.bincount per spec."""
    children = np.random.SeedSequence(seed).spawn(scenario.num_values)
    hists = [{} for _ in specs]
    for v in range(scenario.num_values):
        runs = _McRuns.sample(np.random.default_rng(children[v]), scenario, v, trials)
        for hist, spec in zip(hists, specs):
            bins = math.prod(s + 1 for s in spec.format.sizes)
            hist[v] = np.bincount(runs.flat_answers(spec), minlength=bins) / trials
    return hists
