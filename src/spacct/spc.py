"""Scenarios, the property-query kernel, and sampling privacy curves.

A sampling privacy curve (SPC) is the expected two-sided divergence of the
queried block's answer laws, taken over the block's co-members when the
critical index is conditioned into it. For iid entries it collapses to a
single divergence at the sample size; with adversary-known entries it
becomes a hypergeometric mixture with a cheap threshold upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import NamedTuple

import numpy as np

from .curve import as_grid, fsum_terms, per_epsilon, shift_pair_delta, shift_pair_rows
from .distkit import Pmf, cdf, hypergeometric, poisson_binomial_rows
from .errors import CapacityError, DomainError, is_int, magnitude
from .partition import TEMPLATE_CAP, PartitionLaw

# Known-entry mixtures refuse hypergeometric supports with more points than this.
KNOWN_SUPPORT_CAP = 10**6

# Monte-Carlo sampling refuses more trials than this, before allocating.
MC_TRIALS_CAP = 10**6

# Co-member subsets (Monte-Carlo trials or enumerated subsets) whose answer
# laws and divergences are built in one batch, so a batch holds MC_CHUNK x n_k
# floats however many subsets there are.
MC_CHUNK = 256


def _row(value) -> tuple:
    """One entry's Bernoulli parameters as a tuple. A number, a numpy scalar
    or a 0-d array is a row of one attribute."""
    return tuple(value) if hasattr(value, "__iter__") and getattr(value, "ndim", 1) else (value,)


@dataclass(frozen=True)
class IidEntries:
    """All entries share one Bernoulli parameter per attribute."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            probs = tuple(float(p) for p in _row(self.probs))
        except (TypeError, ValueError) as exc:
            raise DomainError(f"Bernoulli parameters must be numbers: {exc}") from exc
        if not probs:
            raise DomainError("need at least one attribute")
        if any(not 0.0 <= p <= 1.0 for p in probs):
            raise DomainError("Bernoulli parameters must lie in [0, 1]")
        object.__setattr__(self, "probs", probs)

    @property
    def num_attributes(self) -> int:
        return len(self.probs)

    def matrix(self, n: int) -> np.ndarray:
        return np.tile(np.asarray(self.probs), (n, 1))


@dataclass(frozen=True)
class ExplicitEntries:
    """One Bernoulli parameter per entry (per attribute)."""

    probs: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        rows = [_row(row) for row in self.probs]
        if not rows:
            raise DomainError("need at least one entry")
        width = len(rows[0])
        if width == 0 or any(len(r) != width for r in rows):
            raise DomainError("entries must share the same attribute count")
        try:
            probs = np.fromiter(chain.from_iterable(rows), np.float64, count=len(rows) * width)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"Bernoulli parameters must be numbers: {exc}") from exc
        if not ((probs >= 0.0) & (probs <= 1.0)).all():
            raise DomainError("Bernoulli parameters must lie in [0, 1]")
        object.__setattr__(self, "probs", tuple(map(tuple, probs.reshape(-1, width).tolist())))

    @property
    def num_attributes(self) -> int:
        return len(self.probs[0])

    def matrix(self, n: int) -> np.ndarray:
        if len(self.probs) != n:
            raise DomainError(f"{len(self.probs)} entries given for a database of size {n}")
        return np.asarray(self.probs, dtype=np.float64)


@dataclass(frozen=True)
class KnownEntries:
    """iid Bernoulli(p) entries of which `known` are adversary background
    knowledge, `known_positive` of them positive. The critical entry is
    never among the known ones."""

    p: float
    known: int
    known_positive: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise DomainError("p must lie in [0, 1]")
        if self.known < 0 or self.known_positive < 0:
            raise DomainError("counts must be nonnegative")
        if self.known_positive > self.known:
            raise DomainError("known_positive may not exceed known")

    @property
    def num_attributes(self) -> int:
        return 1

    def matrix(self, n: int, critical_index: int = 1) -> np.ndarray:
        # known entries occupy the first non-critical positions, positives first
        out = np.full((n, 1), self.p)
        slots = np.flatnonzero(np.arange(n) != critical_index - 1)[: self.known]
        out[slots, 0] = np.arange(slots.size) < self.known_positive
        return out


EntryModel = IidEntries | ExplicitEntries | KnownEntries


@dataclass(frozen=True)
class Scenario:
    """Database size, entry model, and the critical index under attack."""

    n: int
    entries: EntryModel
    critical_index: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError("n must be positive")
        if not 1 <= self.critical_index <= self.n:
            raise DomainError(f"critical index {self.critical_index} outside [1, {self.n}]")
        if isinstance(self.entries, ExplicitEntries) and len(self.entries.probs) != self.n:
            raise DomainError("explicit entry list length must equal n")
        if isinstance(self.entries, KnownEntries) and self.entries.known > self.n - 1:
            raise DomainError("at most n - 1 entries can be known")

    @property
    def num_attributes(self) -> int:
        return self.entries.num_attributes

    @property
    def num_values(self) -> int:
        """Size of the entry value space {0,1}^T."""
        return 1 << self.num_attributes

    @property
    def is_iid(self) -> bool:
        """iid entries, or known entries none of which are known."""
        return isinstance(self.entries, IidEntries) or (
            isinstance(self.entries, KnownEntries) and self.entries.known == 0)

    def probs_matrix(self) -> np.ndarray:
        """(n, T) Bernoulli parameters; known entries appear as 0/1 rows."""
        if isinstance(self.entries, KnownEntries):
            return self.entries.matrix(self.n, self.critical_index)
        return self.entries.matrix(self.n)


@dataclass(frozen=True)
class PropertyQuery:
    """Counts block entries whose attribute equals the target.

    negate=False counts ones, negate=True counts zeros. Other mechanisms
    would plug in here as alternative kernels; only exact counting ships.
    """

    attribute: int = 0
    negate: bool = False

    def __post_init__(self) -> None:
        if not is_int(self.attribute) or self.attribute < 0:
            raise DomainError(f"attribute index must be a nonnegative integer, "
                              f"got {self.attribute!r}")
        if not isinstance(self.negate, (bool, np.bool_)):
            raise DomainError(f"negate must be a bool, got {self.negate!r}")

    def require_attribute(self, num_attributes: int) -> None:
        """Refuse an attribute index the entries do not have."""
        if self.attribute >= num_attributes:
            raise DomainError(
                f"query targets attribute {self.attribute} but entries have {num_attributes}")

    def success_probs(self, rows: np.ndarray) -> np.ndarray:
        self.require_attribute(rows.shape[1])
        col = rows[:, self.attribute]
        return 1.0 - col if self.negate else col


class SpcEstimate(NamedTuple):
    """Floats for one epsilon; arrays over the grid when given one."""

    value: float | np.ndarray
    half_width: float | np.ndarray | None = None


@dataclass(frozen=True)
class Enumerate:
    """Exact expectation over the critical index's co-members.

    Explicit entries enumerate C(n - 1, n_k - 1) co-member subsets, refused
    above TEMPLATE_CAP before any work; iid and known entries are exact
    without enumerating subsets, so the cap does not apply to them.
    """


@dataclass(frozen=True)
class MonteCarlo:
    """Sampled expectation; reports a 95% normal-approximation half-width.

    The seed may be an int or a tuple of ints (entropy for a SeedSequence).
    """

    trials: int
    seed: int | tuple[int, ...] = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise DomainError("trials must be positive")
        if self.trials > MC_TRIALS_CAP:
            raise CapacityError(
                f"{magnitude(self.trials)} Monte-Carlo trials exceed the cap of {MC_TRIALS_CAP}")


def success_prob(scenario: Scenario, query: PropertyQuery) -> float:
    """The probability that the query counts one unknown entry of an iid or
    known-entries scenario."""
    query.require_attribute(scenario.num_attributes)
    entries = scenario.entries
    p = entries.probs[query.attribute] if isinstance(entries, IidEntries) else entries.p
    return 1.0 - p if query.negate else p


def spc_iid(scenario: Scenario, sample_size: int, epsilon,
            query: PropertyQuery = PropertyQuery()):
    """SPC of an iid scenario, conditioned on the critical entry being sampled.

    Identical for every template of a given size, so it equals the two-sided
    divergence at database size `sample_size`. A 1-D epsilon grid gives an
    array; a scalar gives a float.
    """
    if not scenario.is_iid:
        raise DomainError("spc_iid requires iid entries; known entries take spc_known_entries")
    if not 1 <= sample_size <= scenario.n:
        raise DomainError(f"sample size must lie in [1, {scenario.n}]")
    return shift_pair_delta(sample_size - 1, success_prob(scenario, query), epsilon)


def _known_weights(n: int, v: int, s: int, population_excludes_critical: bool) -> Pmf:
    population = n - 1 if population_excludes_critical else n
    draws = s - 1
    support = min(draws, v) - max(0, draws - (population - v)) + 1
    if support > KNOWN_SUPPORT_CAP:
        raise CapacityError(
            f"the known-entry mixture has {support} terms, over the cap of {KNOWN_SUPPORT_CAP}")
    return hypergeometric(population, v, draws)


def spc_known_entries(scenario: Scenario, sample_size: int, epsilon,
                      query: PropertyQuery = PropertyQuery(), *,
                      population_excludes_critical: bool = False):
    """SPC with v adversary-known entries: hypergeometric mixture over the
    number z of known entries drawn into the sample.

    Only the count z matters; the known values shift every answer law by the
    same constant. The default weights use hypergeometric(n, v, s-1); the
    flag switches to population n - 1, which excludes the critical entry
    from the draw (the two differ by O(s/n)) and is the exact law of the
    co-members under a partition restricted to the critical index. The
    weights are built once for a 1-D epsilon grid, which gives an array; a
    scalar gives a float.
    """
    if not isinstance(scenario.entries, KnownEntries):
        raise DomainError("spc_known_entries requires a known-entries model")
    if not 1 <= sample_size <= scenario.n:
        raise DomainError(f"sample size must lie in [1, {scenario.n}]")
    v, p = scenario.entries.known, success_prob(scenario, query)
    weights = _known_weights(scenario.n, v, sample_size, population_excludes_critical)
    # float counts: a sample of 10^20 entries overflows int64
    unknown = sample_size - 1 - np.arange(weights.offset, weights.top + 1, dtype=np.float64)
    terms = weights.masses * shift_pair_delta(unknown, p, as_grid(epsilon))
    return per_epsilon(epsilon, np.minimum(1.0, fsum_terms(terms.T)))


def spc_known_entries_threshold_bound(scenario: Scenario, sample_size: int, epsilon, phi: int,
                                      *, population_excludes_critical: bool = False):
    """Upper bound on spc_known_entries from a single divergence evaluation.

    Replaces the mixture terms above a threshold phi by 1 and those below by
    the value at phi (the terms are nondecreasing in z), giving
    (1 - cdf(phi)) + cdf(phi) * delta(phi). A 1-D epsilon grid gives an
    array; a scalar gives a float.
    """
    if not isinstance(scenario.entries, KnownEntries):
        raise DomainError("threshold bound requires a known-entries model")
    if not 0 <= phi < sample_size - 1:
        raise DomainError(f"phi must lie in [0, {sample_size - 2}]")
    weights = _known_weights(scenario.n, scenario.entries.known, sample_size,
                             population_excludes_critical)
    head = cdf(weights, phi)
    delta_phi = shift_pair_delta(sample_size - 1 - phi, scenario.entries.p, as_grid(epsilon))
    return per_epsilon(epsilon, np.minimum(1.0, (1.0 - head) + head * delta_phi))


def spc_general(scenario: Scenario, law: PartitionLaw, query: PropertyQuery,
                epsilon, mode: Enumerate | MonteCarlo = Enumerate()) -> SpcEstimate:
    """Expected divergence of block k's answer laws under a law restricted to (j, k).

    Block k's answer laws are Poisson-binomial counts of the critical
    index's n_k - 1 co-members (shifted by the critical value), and under
    the restricted law those co-members are a uniform subset of the other
    n - 1 indices; the other blocks never enter. Enumerate mode takes that
    average exactly: in closed form for iid entries (spc_iid), as the
    hypergeometric mixture over the n - 1 non-critical entries for known
    entries (spc_known_entries), and over every co-member subset for
    explicit entries. MonteCarlo averages over subsets drawn by the same
    seeded shuffle as partition.sample_template, whatever the entry model.
    Both modes take subsets MC_CHUNK at a time: one batched recurrence
    builds their answer laws and one batched divergence
    (curve.shift_pair_rows) evaluates them over the whole epsilon grid.
    """
    if law.restriction is None:
        raise DomainError("spc_general requires a law restricted to (critical index, block)")
    j, k = law.restriction
    if j != scenario.critical_index:
        raise DomainError("law restriction does not match the scenario's critical index")
    if law.n != scenario.n:
        raise DomainError("law and scenario disagree on n")
    query.require_attribute(scenario.num_attributes)
    size = law.format.sizes[k - 1]
    if isinstance(mode, Enumerate) and isinstance(scenario.entries, IidEntries):
        return SpcEstimate(spc_iid(scenario, size, epsilon, query))
    if isinstance(mode, Enumerate) and isinstance(scenario.entries, KnownEntries):
        return SpcEstimate(spc_known_entries(scenario, size, epsilon, query,
                                             population_excludes_critical=True))
    others = np.delete(np.arange(law.n), j - 1)
    picks = size - 1
    grid = as_grid(epsilon)
    success = query.success_probs(scenario.probs_matrix())
    if isinstance(mode, Enumerate):
        count = math.comb(law.n - 1, picks)
        if count > TEMPLATE_CAP:
            raise CapacityError(
                f"{magnitude(count)} co-member subsets exceed the cap of {TEMPLATE_CAP}; "
                "use Monte-Carlo sampling")
        mean = _subset_mean(success, others.tolist(), picks, grid)
        return SpcEstimate(per_epsilon(epsilon, mean))
    rng = np.random.default_rng(np.random.SeedSequence(mode.seed))
    # block k's co-members follow the blocks before it in sample_template's shuffle
    start = sum(law.format.sizes[: k - 1])
    draws = (rng.permutation(others)[start : start + picks] for _ in range(mode.trials))
    values = _subset_values(success, draws, mode.trials, grid)
    # one contiguous row per epsilon, reduced exactly as a 1-D sample
    means = np.array([row.mean() for row in values])
    spreads = np.array([row.std(ddof=1) if mode.trials > 1 else 0.0 for row in values])
    return SpcEstimate(per_epsilon(epsilon, means),
                       per_epsilon(epsilon, 1.96 * spreads / math.sqrt(mode.trials)))


def _subset_values(success: np.ndarray, subsets, count: int, grid: np.ndarray) -> np.ndarray:
    """The divergence of {B, B + 1}, B a subset's Poisson-binomial count, for
    each of `count` subsets (index sequences into `success`, drawn from the
    iterable in order), as a (grid x count) array; MC_CHUNK subsets at a time."""
    values = np.empty((grid.size, count))
    for first in range(0, count, MC_CHUNK):
        chunk = np.array(list(islice(subsets, MC_CHUNK)), dtype=np.intp)
        values[:, first : first + len(chunk)] = shift_pair_rows(
            poisson_binomial_rows(success[chunk]), grid)
    return values


def _subset_mean(success: np.ndarray, pool, picks: int, grid: np.ndarray) -> np.ndarray:
    """Mean over every `picks`-subset of `pool` (indices into `success`) of
    the divergence of {B, B + 1}, per grid point and capped at 1."""
    count = math.comb(len(pool), picks)
    values = _subset_values(success, combinations(pool, picks), count, grid)
    return np.minimum(1.0, fsum_terms((values * (1.0 / count)).T))
