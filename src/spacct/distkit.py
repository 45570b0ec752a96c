"""Finite integer-support probability mass functions.

All laws handled by the accountant (entry counts, query answers, sampling
weights) are finite discrete distributions over a contiguous integer range.
Masses are stored in linear space as float64; constructors that involve
factorials work in log space (log-gamma) so that supports of size 2^15 do
not overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import DomainError

# End masses below this floor are trimmed; chosen so trimming never moves a
# normalized sum by more than ~1e-300 * support size.
SUPPORT_FLOOR = 1e-300

# |fsum(masses) - 1| must stay below this for every constructed Pmf.
NORMALIZATION_TOL = 1e-9


def _check_masses(masses: list[float], negative: bool) -> None:
    """Refuse masses with a negative entry or a compensated sum off 1."""
    if negative:
        raise DomainError("masses must be nonnegative")
    total = math.fsum(masses)
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise DomainError(f"masses sum to {total!r}, expected 1 +- {NORMALIZATION_TOL}")


@dataclass(frozen=True, eq=False)
class Pmf:
    """A probability mass function on {offset, offset+1, ..., offset+len-1}.

    Invariants: masses are nonnegative, compensated-sum to 1 within 1e-9,
    and the support is contiguous (interior zeros allowed; end points below
    SUPPORT_FLOOR are trimmed at construction).
    """

    offset: int
    masses: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.masses, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("masses must be a nonempty 1-D sequence")
        _check_masses(arr.tolist(), bool(np.any(arr < 0.0)))
        lo, hi = 0, arr.size
        while hi - lo > 1 and arr[lo] < SUPPORT_FLOOR:
            lo += 1
        while hi - lo > 1 and arr[hi - 1] < SUPPORT_FLOOR:
            hi -= 1
        arr = arr[lo:hi].copy()
        arr.setflags(write=False)
        object.__setattr__(self, "offset", int(self.offset) + lo)
        object.__setattr__(self, "masses", arr)

    @property
    def top(self) -> int:
        """Largest support point."""
        return self.offset + self.masses.size - 1

    def mass(self, a: int) -> float:
        if self.offset <= a <= self.top:
            return float(self.masses[a - self.offset])
        return 0.0

    def total(self) -> float:
        return math.fsum(self.masses.tolist())

    def mean(self) -> float:
        pts = np.arange(self.offset, self.top + 1, dtype=np.float64)
        return math.fsum((pts * self.masses).tolist())

    def variance(self) -> float:
        mu = self.mean()
        pts = np.arange(self.offset, self.top + 1, dtype=np.float64) - mu
        return math.fsum((pts * pts * self.masses).tolist())

    def items(self):
        """Iterate (support point, mass) pairs."""
        for i, m in enumerate(self.masses):
            yield self.offset + i, float(m)


def point(value: int) -> Pmf:
    """Point mass at an integer value."""
    return Pmf(int(value), np.ones(1))


def binomial(trials: int, p: float) -> Pmf:
    """Binomial(trials, p) with masses computed via log-gamma.

    For p = 1/2 the upper half of the support is mirrored from the lower
    half, so mass(k) == mass(trials - k) holds bit-identically.
    """
    if trials < 0:
        raise DomainError("trials must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p={p!r} outside [0, 1]")
    if trials == 0 or p == 0.0:
        return point(0)
    if p == 1.0:
        return point(trials)
    if p == 0.5:
        half = trials // 2
        k = np.arange(half + 1, dtype=np.float64)
        logpmf = (
            gammaln(trials + 1.0) - gammaln(k + 1.0) - gammaln(trials - k + 1.0)
            + trials * math.log(0.5)
        )
        masses = np.empty(trials + 1)
        masses[: half + 1] = np.exp(logpmf)
        for j in range(half + 1, trials + 1):
            masses[j] = masses[trials - j]
        return Pmf(0, masses)
    k = np.arange(trials + 1, dtype=np.float64)
    logpmf = (
        gammaln(trials + 1.0) - gammaln(k + 1.0) - gammaln(trials - k + 1.0)
        + k * math.log(p) + (trials - k) * math.log1p(-p)
    )
    return Pmf(0, np.exp(logpmf))


def hypergeometric(population: int, successes: int, draws: int) -> Pmf:
    """Law of the number of successes among `draws` taken without replacement.

    Support is {max(0, draws - (population - successes)) .. min(draws, successes)},
    embedded in a contiguous range.
    """
    if population < 0 or successes < 0 or draws < 0:
        raise DomainError("parameters must be nonnegative")
    if successes > population:
        raise DomainError("successes may not exceed population")
    if draws > population:
        raise DomainError("draws may not exceed population")
    if successes == 0 or draws == 0:
        return point(0)
    lo = max(0, draws - (population - successes))
    hi = min(draws, successes)
    if lo == hi:
        return point(lo)
    z = np.arange(lo, hi + 1, dtype=np.float64)
    logpmf = (
        gammaln(successes + 1.0) - gammaln(z + 1.0) - gammaln(successes - z + 1.0)
        + gammaln(population - successes + 1.0)
        - gammaln(draws - z + 1.0) - gammaln(population - successes - draws + z + 1.0)
        - gammaln(population + 1.0)
        + gammaln(draws + 1.0) + gammaln(population - draws + 1.0)
    )
    try:
        return Pmf(lo, np.exp(logpmf))
    except DomainError as exc:
        # the log-gamma terms grow like population * log(population), and their
        # float64 rounding is what the masses miss by
        raise DomainError(
            f"the hypergeometric law of {draws} draws from a population of {population} "
            f"does not normalize ({exc}): float64 log-gamma is too coarse at populations "
            "of about 10^6 and above") from exc


def poisson_binomial(probs) -> Pmf:
    """Sum of independent Bernoulli(p_i) variables: row 0 of poisson_binomial_rows.

    O(len(probs)^2); intended for desk-scale blocks. An empty sequence
    yields a point mass at 0.
    """
    return Pmf(0, poisson_binomial_rows(np.asarray(probs, dtype=np.float64).reshape(1, -1))[0])


def poisson_binomial_rows(probs) -> np.ndarray:
    """Raw Poisson-binomial masses for every row of a (rows x s) array.

    Iterated convolution, one Bernoulli factor at a time on all rows at
    once, so row r's masses do not depend on the other rows. One buffer is
    updated in place, top point first, with the products and sums of the
    textbook update nxt[:-1] += acc * (1 - q); nxt[1:] += acc * q. Returns a
    (rows x s+1) array; s = 0 gives a column of ones.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise DomainError("probabilities must form a (rows x s) array")
    if not np.all((probs >= 0.0) & (probs <= 1.0)):
        bad = float(probs[~((probs >= 0.0) & (probs <= 1.0))][0])
        raise DomainError(f"Bernoulli parameter {bad!r} outside [0, 1]")
    # point-major, so each support point is one contiguous row over the batch
    q_cols, p_cols = np.ascontiguousarray(probs.T), np.ascontiguousarray(1.0 - probs.T)
    acc = np.empty((probs.shape[1] + 1, probs.shape[0]))
    acc[0] = 1.0
    for i, (q, p) in enumerate(zip(q_cols, p_cols)):
        up = acc[:i] * q
        acc[i + 1] = acc[i] * q
        acc[: i + 1] *= p
        acc[1 : i + 1] += up
    return acc.T


def checked_rows(masses: np.ndarray) -> np.ndarray:
    """Each row of a (rows x points) array checked as the masses of a Pmf at
    offset 0, with the end masses a Pmf would trim set to zero.

    The first row that fails raises the DomainError its Pmf would raise.
    Interior masses are kept, as in Pmf.
    """
    for row, negative in zip(masses.tolist(), np.any(masses < 0.0, axis=1).tolist()):
        _check_masses(row, negative)
    keep = ~(masses < SUPPORT_FLOOR)
    inside = np.logical_or.accumulate(keep, axis=1)
    inside &= np.logical_or.accumulate(keep[:, ::-1], axis=1)[:, ::-1]
    return np.where(inside, masses, 0.0)


def cdf(d: Pmf, x: int) -> float:
    """P(D <= x); 0 below the support, ~1 at or above its top."""
    if x < d.offset:
        return 0.0
    if x >= d.top:
        return d.total()
    return math.fsum(d.masses[: x - d.offset + 1].tolist())


def shift(d: Pmf, k: int) -> Pmf:
    """Translate the support by k; masses are unchanged.

    The masses were validated and trimmed when `d` was built and translation
    keeps both, so the (read-only) array is shared, not checked again.
    """
    out = object.__new__(Pmf)
    object.__setattr__(out, "offset", d.offset + int(k))
    object.__setattr__(out, "masses", d.masses)
    return out


def mixture(components) -> Pmf:
    """Pointwise weighted sum of (weight, Pmf) components over the union support."""
    components = list(components)
    if not components:
        raise DomainError("mixture needs at least one component")
    weights = [w for w, _ in components]
    if any(w < 0 for w in weights):
        raise DomainError("weights must be nonnegative")
    wsum = math.fsum(weights)
    if abs(wsum - 1.0) > NORMALIZATION_TOL:
        raise DomainError(f"weights sum to {wsum!r}, expected 1 +- {NORMALIZATION_TOL}")
    lo = min(d.offset for _, d in components)
    hi = max(d.top for _, d in components)
    out = np.zeros(hi - lo + 1)
    for w, d in components:
        out[d.offset - lo : d.offset - lo + d.masses.size] += w * d.masses
    return Pmf(lo, out)
