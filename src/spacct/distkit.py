"""Finite integer-support probability mass functions.

All laws handled by the accountant (entry counts, query answers, sampling
weights) are finite discrete distributions over a contiguous integer range.
Masses are stored in linear space as float64. Binomial and hypergeometric
masses come from Loader's saddle-point form (C. Loader, "Fast and Accurate
Computation of Binomial Probabilities", 2000; the method behind R's dbinom
and dhyper): each mass is accurate relative to its own size, so supports of
size 2^24 and populations up to 2^53 neither overflow nor lose their
normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, is_int

# End masses below this floor are trimmed; chosen so trimming never moves a
# normalized sum by more than ~1e-300 * support size.
SUPPORT_FLOOR = 1e-300

# |fsum(masses) - 1| must stay below this for every constructed Pmf.
NORMALIZATION_TOL = 1e-9

# Counts are carried as float64, which holds every integer up to here exactly.
FLOAT_INT_LIMIT = 2**53

_LOG_2PI = 1.8378770664093456
# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n / e)^n) for n = 0..15, correctly
# rounded (n = 0 is a placeholder); above 15 the Stirling series takes over.
_STIRLERR_SMALL = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])
_LOG_FACTORIAL_SMALL = np.array([math.log(math.factorial(n)) for n in range(16)])
# 1/(2j+1) for j = 1..8, the coefficients of the series in _bd0
_BD0_COEFFS = tuple(1.0 / (2 * j + 1) for j in range(1, 9))


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """log(n!) - log(sqrt(2 pi n) (n / e)^n) for integer-valued n >= 0: a
    table up to 15 and the Stirling series 1/12n - 1/360n^3 + ... above."""
    small = n <= 15.0
    big = np.maximum(n, 16.0)
    nn = big * big
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / big
    if not small.any():
        return series
    return np.where(small, _STIRLERR_SMALL[np.minimum(n, 15.0).astype(np.intp)], series)


def _log_factorial(n) -> np.ndarray:
    """log(n!) for integer-valued n >= 0: exact logs up to 15, then
    n (log n - 1) + log(2 pi n) / 2 + stirlerr(n), within 2 ulp of the
    correctly rounded value."""
    n = np.asarray(n, dtype=np.float64)
    big = np.maximum(n, 16.0)
    log_n = np.log(big)
    out = big * (log_n - 1.0) + (0.5 * log_n + (0.5 * _LOG_2PI + _stirlerr(big)))
    return np.where(n <= 15.0, _LOG_FACTORIAL_SMALL[np.minimum(n, 15.0).astype(np.intp)], out)


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x log(x / m) + m - x for x >= 0, m > 0 (the deviance term of Loader's
    form). Near x = m, where that difference cancels, it is the series
    (x - m) v + 2 x sum_j v^(2j+1) / (2j+1), v = (x - m) / (x + m), |v| < 0.1,
    cut after j = 8 (the next term is below 2^-60 of the first)."""
    d, s = x - m, x + m
    near = np.abs(d) < 0.1 * s
    if near.any():
        v = d / s
        w = v * v
        poly = _BD0_COEFFS[-1]
        for c in _BD0_COEFFS[-2::-1]:
            poly = poly * w + c
        series = d * v + 2.0 * x * v * w * poly
        if near.all():
            return series
    # x = 0 gives x log(x / m) = 0, as the placeholder makes the quotient 1;
    # x / m is held below 2^1000, where the mass has underflowed anyway
    direct = x * np.log(np.where(x > 0.0, x, m) / np.maximum(m, x * 2.0**-1000)) - d
    return np.where(near, series, direct) if near.any() else direct


def _dbinom(k, n, p, q=None) -> np.ndarray:
    """Binomial masses b(k; n, p) for integer-valued k and n that broadcast
    (0 <= n <= FLOAT_INT_LIMIT) and 0 < p < 1, each within about 1e-11 of its
    own size (Loader's saddle-point form):

        log b(k) = stirlerr(n) - stirlerr(k) - stirlerr(n - k)
                   - log(2 pi k (n - k) / n) / 2 - bd0(k, n p) - bd0(n - k, n q),

    where the first line is 0 for k = 0 and k = n, so nothing cancels at
    large n. `q` defaults to 1 - p; a caller that knows q more exactly
    passes it. A rounding of p + q off 1 enters every mass as the same
    factor e^(n (1 - p - q)), which a ratio of masses cancels. k outside
    [0, n] gives 0.
    """
    if q is None:
        q = 1.0 - np.asarray(p, dtype=np.float64)
    k, n, p, q = np.broadcast_arrays(*(np.asarray(x, dtype=np.float64) for x in (k, n, p, q)))
    shape = k.shape
    k, n, p, q = (x.ravel() for x in (k, n, p, q))
    inner = (k > 0.0) & (k < n)
    interior = inner.all()  # as for every window anchor: no placeholders needed
    # placeholders keep every operation finite outside the interior
    kk, nn = (k, n) if interior else (np.where(inner, k, 1.0), np.where(inner, n, 2.0))
    rest = nn - kk
    err = _stirlerr(np.concatenate((nn, kk, rest))).reshape(3, -1)
    # log(2 pi k (n - k) / n), with n - k exact so that k near n keeps its digits
    corr = err[0] - err[1] - err[2] - 0.5 * (_LOG_2PI + np.log(kk * (rest / nn)))
    if interior:
        dev = _bd0(np.concatenate((k, rest)), np.concatenate((n * p, n * q))).reshape(2, -1)
        return np.exp(corr - dev[0] - dev[1]).reshape(shape)
    kin = np.minimum(np.maximum(k, 0.0), n)
    mean = np.concatenate((n * p, n * q))
    dev = _bd0(np.concatenate((kin, n - kin)), np.where(mean > 0.0, mean, 1.0)).reshape(2, -1)
    out = np.where((k == kin) & (n > 0.0), np.exp(np.where(inner, corr, 0.0) - dev[0] - dev[1]),
                   (k == 0.0) * 1.0)
    return out.reshape(shape)


def sum_bracket(total: float, count: int) -> tuple[float, float]:
    """An interval that holds the exact sum S of `count` nonnegative floats
    whose float sum, in any order, is `total` (finite).

    The float sum is within gamma_(count-1) S ~ (count - 1) 2^-53 S of S
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 4.2), and
    a sum that underflows is exact. The slack count 2^-50 total covers that
    and the rounding of the two ends, so math.fsum's correctly rounded S
    lies in the interval too.
    """
    slack = count * 2.0**-50 * total
    return total - slack, total + slack


def _normalized(total: float) -> bool:
    return abs(total - 1.0) <= NORMALIZATION_TOL


def _check_masses(masses: list[float], negative: bool) -> None:
    """Refuse masses with a negative entry or a compensated sum off 1 (a NaN
    mass makes the sum NaN, which is off 1)."""
    if negative:
        raise DomainError("masses must be nonnegative")
    total = math.fsum(masses)
    if not _normalized(total):
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
        # checked_rows zeroes the trimmed ends; the kept ones are >= SUPPORT_FLOOR
        row = checked_rows(arr[None, :])[0]
        kept = np.flatnonzero(row)
        lo, hi = int(kept[0]), int(kept[-1]) + 1
        arr = row[lo:hi].copy()
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

    def items(self):
        """Iterate (support point, mass) pairs."""
        for i, m in enumerate(self.masses):
            yield self.offset + i, float(m)


def point(value: int) -> Pmf:
    """Point mass at an integer value."""
    return Pmf(int(value), np.ones(1))


def binomial(trials: int, p: float) -> Pmf:
    """Binomial(trials, p) with masses from Loader's form (_dbinom).

    For p = 1/2 the upper half of the support is mirrored from the lower
    half, so mass(k) == mass(trials - k) holds bit-identically.
    """
    if not is_int(trials) or trials < 0:
        raise DomainError(f"trials must be a nonnegative integer, got {trials!r}")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p={p!r} outside [0, 1]")
    if trials == 0 or p == 0.0:
        return point(0)
    if p == 1.0:
        return point(trials)
    if trials > FLOAT_INT_LIMIT:
        raise DomainError(f"{trials} trials exceed 2^53, the float64 integer limit")
    if p == 0.5:
        lower = _dbinom(np.arange(trials // 2 + 1, dtype=np.float64), trials, 0.5)
        return Pmf(0, np.concatenate((lower, lower[: trials - trials // 2][::-1])))
    return Pmf(0, _dbinom(np.arange(trials + 1, dtype=np.float64), trials, p))


def hypergeometric(population: int, successes: int, draws: int) -> Pmf:
    """Law of the number of successes among `draws` taken without replacement.

    Support is {max(0, draws - (population - successes)) .. min(draws, successes)},
    embedded in a contiguous range. Each mass is the ratio
    b(z; successes, f) b(draws - z; population - successes, f) / b(draws; population, f)
    of binomial masses at f = draws / population (as in R's dhyper), so it is
    accurate relative to its own size at any population up to 2^53; larger
    ones raise DomainError unless the support is a single point.
    """
    for name, count in (("population", population), ("successes", successes), ("draws", draws)):
        if not is_int(count):
            raise DomainError(f"{name} must be an integer, got {count!r}")
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
    if population > FLOAT_INT_LIMIT:
        raise DomainError(
            f"the hypergeometric law of {draws} draws from a population of {population} "
            f"needs exact float64 counts, which end at 2^53 = {FLOAT_INT_LIMIT}")
    z = np.arange(lo, hi + 1, dtype=np.float64)
    # f and 1 - f each from exact integers, so a tiny 1 - f keeps its digits
    f, g = draws / population, (population - draws) / population
    masses = (_dbinom(z, successes, f, g) * _dbinom(draws - z, population - successes, f, g)
              / _dbinom(draws, population, f, g))
    return Pmf(lo, masses)


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

    A row is accepted without math.fsum when the bracket of sum_bracket
    around its float sum lies inside 1 +- NORMALIZATION_TOL, where fsum
    would accept it too; every other row takes fsum's decision. The first
    row that fails raises the DomainError its Pmf would raise. Interior
    masses are kept, as in Pmf.
    """
    negative = np.any(masses < 0.0, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = sum_bracket(masses.sum(axis=1), masses.shape[1])
        certain = ~negative & _normalized(lo) & _normalized(hi)
    for i in np.flatnonzero(~certain).tolist():
        _check_masses(masses[i].tolist(), bool(negative[i]))
    keep = ~(masses < SUPPORT_FLOOR)
    inside = np.logical_or.accumulate(keep, axis=1)
    inside &= np.logical_or.accumulate(keep[:, ::-1], axis=1)[:, ::-1]
    return np.where(inside, masses, 0.0)


def cdf(d: Pmf, x: int) -> float:
    """P(D <= x); 0 below the support, ~1 at or above its top."""
    if x < d.offset:
        return 0.0
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
