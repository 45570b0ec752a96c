"""Independent reference implementations used as test oracles.

Everything here is deliberately dumb: exact rational arithmetic where
possible, raw enumeration elsewhere, and no reuse of the package's
convolution or log-space machinery.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product


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
