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
from functools import cache
from itertools import chain, combinations, islice
from typing import NamedTuple

import numpy as np

from .curve import as_grid, fsum_terms, per_epsilon, shift_pair_delta, shift_pair_rows
from .distkit import Pmf, cdf, hypergeometric, poisson_binomial_rows
from .errors import CapacityError, DomainError, is_int, magnitude
from .partition import TEMPLATE_CAP, TemplateFormat

# Known-entry mixtures refuse hypergeometric supports with more points than this.
KNOWN_SUPPORT_CAP = 10**6

# A known-entry mixture first evaluates the central run of weights of at least
# this; the lighter rows are evaluated only at the epsilons where they could
# move the correctly rounded sum.
_WEIGHT_FLOOR = 2.0**-80

# Rows are skipped only while no tail window of the support can reach
# curve._WINDOW_TERMS (2^20): a window holds at most 9 standard deviations
# plus 25 terms, rounded up by at most 1/8 (curve._windows), under 2^20
# while u p (1 - p) <= 2^33. The other refusal of _windows, u above 2^53,
# cannot occur, as hypergeometric refuses such populations.
_SKIP_VARIANCE_CAP = 2.0**33

# Monte-Carlo sampling refuses more trials than this, before allocating.
MC_TRIALS_CAP = 10**6

# Co-member subsets (Monte-Carlo trials or enumerated subsets) whose answer
# laws and divergences are built in one batch, so a batch holds MC_CHUNK x n_k
# floats however many subsets there are.
MC_CHUNK = 256

# An explicit-entry evaluator (_block_divergences) keeps the divergence rows
# of at most this many co-member subsets, about 20 MB at a few epsilons; a
# subset past them is evaluated again in each pool that holds it.
STORED_ROWS = 2**16


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
        if not (is_int(self.known) and is_int(self.known_positive)):
            raise DomainError("counts must be integers")
        if self.known < 0 or self.known_positive < 0:
            raise DomainError("counts must be nonnegative")
        if self.known_positive > self.known:
            raise DomainError("known_positive may not exceed known")

    @property
    def num_attributes(self) -> int:
        return 1

    def slots(self, n: int, critical_index: int = 1) -> np.ndarray:
        """0-based indices of the known entries: the first `known` non-critical places."""
        return np.flatnonzero(np.arange(n) != critical_index - 1)[: self.known]

    def matrix(self, n: int, critical_index: int = 1) -> np.ndarray:
        out = np.full((n, 1), self.p)
        slots = self.slots(n, critical_index)
        out[slots, 0] = np.arange(slots.size) < self.known_positive  # positives first
        return out


EntryModel = IidEntries | ExplicitEntries | KnownEntries


@dataclass(frozen=True)
class Scenario:
    """Database size, entry model, and the critical index under attack."""

    n: int
    entries: EntryModel
    critical_index: int = 1

    def __post_init__(self) -> None:
        if not is_int(self.n) or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n!r}")
        if not is_int(self.critical_index) or not 1 <= self.critical_index <= self.n:
            raise DomainError(f"critical index {self.critical_index!r} outside [1, {self.n}]")
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
    """Sampled expectation for explicit entries, with a 95% normal-approximation half-width.

    The seed is the entropy of a SeedSequence: an int >= 0 that is not a
    bool, or a tuple of such seeds, nested tuples included.
    """

    trials: int
    seed: int | tuple = 0

    def __post_init__(self) -> None:
        if not is_int(self.trials) or self.trials < 1:
            raise DomainError(f"trials must be a positive integer, got {self.trials!r}")
        if self.trials > MC_TRIALS_CAP:
            raise CapacityError(
                f"{magnitude(self.trials)} Monte-Carlo trials exceed the cap of {MC_TRIALS_CAP}")
        require_seed(self.seed)


def _is_seed(seed) -> bool:
    return all(map(_is_seed, seed)) if isinstance(seed, tuple) else is_int(seed) and seed >= 0


def require_seed(seed, what: str = "seed") -> None:
    """The one seed rule, behind MonteCarlo, `verify --seed` and scenario
    files: refuse anything but an int >= 0 that is not a bool, or a tuple of
    such seeds. `what` names the seed in the message."""
    if not _is_seed(seed):
        raise DomainError(f"{what} must be a nonnegative integer or a tuple of such seeds, "
                          f"got {seed!r}")


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
    _require_sample_size(scenario, sample_size)
    return shift_pair_delta(sample_size - 1, success_prob(scenario, query), epsilon)


def _require_sample_size(scenario: Scenario, sample_size) -> None:
    if not is_int(sample_size) or not 1 <= sample_size <= scenario.n:
        raise DomainError(f"sample size must be an integer in [1, {scenario.n}], "
                          f"got {sample_size!r}")


def _known_weights(population: int, v: int, s: int) -> Pmf:
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
    _require_sample_size(scenario, sample_size)
    population = scenario.n - 1 if population_excludes_critical else scenario.n
    return per_epsilon(epsilon, _known_mixture(success_prob(scenario, query), population,
                                               scenario.entries.known, sample_size,
                                               as_grid(epsilon)))


def _known_mixture(p: float, population: int, known: int, sample_size: int,
                   grid: np.ndarray) -> np.ndarray:
    """The hypergeometric(population, known, sample_size - 1) mixture of the
    divergences at each count of unknown co-members, success probability p,
    per grid point and capped at 1: the one body behind spc_known_entries
    and the known-entry block terms of _block_divergences."""
    weights = _known_weights(population, known, sample_size)
    masses = weights.masses
    # float counts: a sample of 10^20 entries overflows int64
    unknown = sample_size - 1 - np.arange(weights.offset, weights.top + 1, dtype=np.float64)
    lo, hi = _heavy_run(masses, unknown[0] * p * (1.0 - p))
    rows = (masses[lo:hi] * shift_pair_delta(unknown[lo:hi], p, grid)).tolist()
    sums = [math.fsum(row) for row in rows]
    rest = np.r_[:lo, hi:masses.size]
    if rest.size:
        # every term is w * delta, delta in [0, 1], so the skipped ones add up
        # to at most `bound`; where the sum rounds alike with and without it
        # (or reaches the cap of 1), fsum over every row is the kept rows' sum
        bound = math.nextafter(math.fsum(masses[rest].tolist()), math.inf)
        open_ = [i for i, (row, low) in enumerate(zip(rows, sums))
                 if low < 1.0 and math.fsum([*row, bound]) != low]
        if open_:
            extra = masses[rest] * shift_pair_delta(unknown[rest], p, grid[open_])
            for i, tail in zip(open_, extra.tolist()):
                sums[i] = math.fsum(rows[i] + tail)
    return np.minimum(1.0, sums)


def _heavy_run(masses: np.ndarray, widest_variance: float) -> tuple[int, int]:
    """The slice of mixture rows _known_mixture evaluates first: the run
    from the first to the last weight of at least _WEIGHT_FLOOR, or every row
    where a skipped row's tail window could be refused (the variance of the
    support's largest binomial above _SKIP_VARIANCE_CAP), so that a refusal
    names the same u as the sum over every row."""
    if widest_variance > _SKIP_VARIANCE_CAP:
        return 0, masses.size
    heavy = np.flatnonzero(masses >= _WEIGHT_FLOOR)  # never empty: the masses sum to 1
    return int(heavy[0]), int(heavy[-1]) + 1


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
    _require_sample_size(scenario, sample_size)
    if not is_int(phi) or not 0 <= phi < sample_size - 1:
        raise DomainError(f"phi must lie in [0, {sample_size - 2}]")
    population = scenario.n - 1 if population_excludes_critical else scenario.n
    weights = _known_weights(population, scenario.entries.known, sample_size)
    head = cdf(weights, phi)
    delta_phi = shift_pair_delta(sample_size - 1 - phi, scenario.entries.p, as_grid(epsilon))
    return per_epsilon(epsilon, np.minimum(1.0, (1.0 - head) + head * delta_phi))


def spc_general(scenario: Scenario, fmt: TemplateFormat, block: int, query: PropertyQuery,
                epsilon, mode: Enumerate | MonteCarlo = Enumerate()) -> SpcEstimate:
    """Expected divergence of block k = `block` of `fmt`'s answer laws under
    the partition law restricted to (j, k), j the scenario's critical index.

    Block k's answer laws are Poisson-binomial counts of the critical
    index's n_k - 1 co-members (shifted by the critical value), and under
    the restricted law those co-members are a uniform subset of the other
    n - 1 indices; the other blocks never enter. Enumerate mode takes that
    average exactly (_block_divergences). MonteCarlo samples it for explicit
    entries only, over subsets drawn by the same seeded shuffle as
    partition.sample_template, MC_CHUNK at a time (_subset_values); iid and
    known entries are exact in either mode.
    """
    fmt.require_fits(scenario.n)
    if not is_int(block) or not 1 <= block <= len(fmt.sizes):
        raise DomainError(f"block must be an integer in [1, {len(fmt.sizes)}], got {block!r}")
    query.require_attribute(scenario.num_attributes)
    size = fmt.sizes[block - 1]
    grid = as_grid(epsilon)
    if isinstance(mode, Enumerate) or not isinstance(scenario.entries, ExplicitEntries):
        return SpcEstimate(per_epsilon(epsilon, _block_divergences(scenario, grid)(
            _root_pool(scenario), size, query)))
    others = np.delete(np.arange(scenario.n), scenario.critical_index - 1)
    success = query.success_probs(scenario.probs_matrix())
    rng = np.random.default_rng(np.random.SeedSequence(mode.seed))
    # block k's co-members follow the blocks before it in sample_template's shuffle
    start = sum(fmt.sizes[: block - 1])
    draws = (rng.permutation(others)[start : start + size - 1] for _ in range(mode.trials))
    values = _subset_values(success, draws, mode.trials, grid)
    # one contiguous row per epsilon, reduced exactly as a 1-D sample
    means = np.array([row.mean() for row in values])
    spreads = np.array([row.std(ddof=1) if mode.trials > 1 else 0.0 for row in values])
    return SpcEstimate(per_epsilon(epsilon, means),
                       per_epsilon(epsilon, 1.96 * spreads / math.sqrt(mode.trials)))


def _root_pool(scenario: Scenario) -> tuple[int, ...] | None:
    """The co-member pool of a block with no block before it: the 0-based
    non-critical indices, or None for iid entries, which read no pool."""
    j0 = scenario.critical_index - 1
    return None if scenario.is_iid else (*range(j0), *range(j0 + 1, scenario.n))


def _block_divergences(scenario: Scenario, grid: np.ndarray):
    """The exact divergence of a block of `size` holding the critical index,
    per grid point, over co-members drawn uniformly from `pool` (_root_pool,
    or what earlier blocks leave of it), as a cached function of (pool, size,
    query): one branch per entry model. Known entries are cached by the
    pool's size and the known entries in it, so pools that share those counts
    share one evaluation. Explicit entries keep the rows of up to STORED_ROWS
    (query, subset) pairs: a stored subset is evaluated once (_subset_mean)."""
    entries = scenario.entries
    if scenario.is_iid:
        return cache(lambda pool, size, query: spc_iid(scenario, size, grid, query))
    if isinstance(entries, KnownEntries):
        slots = set(entries.slots(scenario.n, scenario.critical_index).tolist())
        by_counts = cache(lambda population, known, size, query: _known_mixture(
            success_prob(scenario, query), population, known, size, grid))
        return lambda pool, size, query: by_counts(len(pool), len(slots.intersection(pool)),
                                                   size, query)
    probs = scenario.probs_matrix()
    rows: dict[tuple[PropertyQuery, int], dict] = {}

    def divergence(pool, size: int, query: PropertyQuery) -> np.ndarray:
        room = STORED_ROWS - sum(map(len, rows.values()))
        return _subset_mean(query.success_probs(probs), pool, size - 1, grid,
                            rows.setdefault((query, size), {}), room)
    return cache(divergence)


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


def _subset_mean(success: np.ndarray, pool, picks: int, grid: np.ndarray,
                 rows: dict, room: int) -> np.ndarray:
    """Mean over every `picks`-subset of `pool` (indices into `success`) of
    the divergence of {B, B + 1}, per grid point and capped at 1; more than
    TEMPLATE_CAP subsets are refused before any work.

    `rows` maps the subsets evaluated so far to their divergence rows. The
    subsets are read MC_CHUNK at a time; a chunk's others are evaluated in
    one _subset_values call, and the first `room` of all those evaluated are
    stored. A row does not depend on the batch it was evaluated in, and fsum
    is exactly rounded, so the mean has the same bits however many rows are
    stored and in whatever order its terms come.
    """
    count = math.comb(len(pool), picks)
    if count > TEMPLATE_CAP:
        raise CapacityError(f"{magnitude(count)} co-member subsets exceed the cap of "
                            f"{TEMPLATE_CAP}; use Monte-Carlo sampling")
    # a pool's subsets are distinct, so only rows stored before this call can match
    earlier = bool(rows)
    values = np.empty((grid.size, count))
    subsets = combinations(pool, picks)
    for first in range(0, count, MC_CHUNK):
        chunk = list(islice(subsets, MC_CHUNK))
        new = [subset for subset in chunk if subset not in rows] if earlier else chunk
        # the chunk's evaluated columns first, then its stored ones
        stop = first + len(new)
        values[:, first:stop] = _subset_values(success, iter(new), len(new), grid)
        if len(new) < len(chunk):
            values[:, stop : first + len(chunk)] = np.transpose(
                [rows[subset] for subset in chunk if subset in rows])
        keep = min(room, len(new))
        rows.update(zip(new[:keep], values[:, first : first + keep].T.copy()))
        room -= keep
    return np.minimum(1.0, fsum_terms((values * (1.0 / count)).T))
