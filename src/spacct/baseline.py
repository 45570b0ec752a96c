"""Accuracy model and the differential-privacy comparison baseline.

The DP side answers fraction-valued property queries on the full database
(sensitivity 1/n) with Gaussian noise calibrated by the classical
sigma = sens * sqrt(2 ln(1.25/delta0)) / eps0 formula, and composes queries
with the optimal homogeneous composition theorem of Kairouz, Oh and
Viswanath. max_dp_queries searches for the largest query count whose
composed guarantee still meets a target (epsilon, delta) while adding noise
matching a target accuracy loss.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distkit import _log_factorial, sum_bracket
from .errors import CapacityError, DomainError

# Hard ceiling for the query-count search: max_dp_queries raises
# CapacityError when this many queries meet the target. A power of two, so
# the doubling phase of the search lands on it.
MAX_QUERIES = 1 << 20

# Number of per-query delta values probed between target_delta * 1e-6 and
# target_delta * 0.999 (log spacing).
DELTA0_GRID_POINTS = 64

# Number of KOV terms next to l = i - 1 that the batched probe sums for every
# open grid row. Enough to reject almost every infeasible row; a row whose sum
# has more terms and is not rejected is finished on its whole sum.
KOV_WINDOW = 64

# Relative distance from the target inside which the numpy twin of _kov_total
# does not decide a comparison and the math-module _kov_total does. The twin
# is within a few ulp of it (np.log1p, np.expm1 against math's).
_TWIN_TOL = 1e-12


@dataclass(frozen=True)
class AccuracyFigure:
    """Accuracy loss of answering from a subsample instead of the full
    database, in squared answer units (mse) and answer units (sigma)."""

    mse_increase: float
    sigma_increase: float


@dataclass(frozen=True)
class DpCalibration:
    per_query_epsilon: float
    per_query_delta: float
    gaussian_sigma: float
    sensitivity: float
    k_max: int


def mse_increase(n: int, s: int, p: float) -> AccuracyFigure:
    """MSE increase p(1-p)/s - p(1-p)/n of the fraction estimate from a
    size-s sample of a size-n database of Bernoulli(p) entries."""
    if not 1 <= s <= n:
        raise DomainError(f"sample size must lie in [1, {n}]")
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")
    mse = p * (1.0 - p) / s - p * (1.0 - p) / n
    return AccuracyFigure(mse_increase=mse, sigma_increase=math.sqrt(mse))


def _log_125_over(delta0: float) -> float:
    """log(1.25 / delta0) in float arithmetic. The quotient overflows for
    delta0 below about 7e-309, and only there is the log taken as a
    difference, so every other value keeps its rounding."""
    quotient = 1.25 / delta0
    return math.log(quotient) if math.isfinite(quotient) else math.log(1.25) - math.log(delta0)


def gaussian_sigma_for(epsilon0: float, delta0: float, sensitivity: float) -> float:
    """Noise scale of the (epsilon0, delta0) Gaussian mechanism."""
    if not epsilon0 > 0.0:
        raise DomainError("epsilon0 must be positive")
    if not 0.0 < delta0 < 1.0:
        raise DomainError("delta0 must lie in (0, 1)")
    if not sensitivity > 0.0:
        raise DomainError("sensitivity must be positive")
    return sensitivity * math.sqrt(2.0 * _log_125_over(float(delta0))) / epsilon0


_log_factorial_table = np.zeros(0)


def _log_factorials(n: int) -> np.ndarray:
    """A read-only table whose entry j is log(j!) (distkit._log_factorial, within
    2 ulp), for j < n at least. The table grows by doubling on first use, not
    at import."""
    global _log_factorial_table
    if len(_log_factorial_table) < n:
        size = max(1024, 1 << (n - 1).bit_length())
        _log_factorial_table = _log_factorial(np.arange(size, dtype=np.float64))
        _log_factorial_table.flags.writeable = False
    return _log_factorial_table


def _kov_terms(epsilon0: float, k: int, i: int) -> np.ndarray:
    """The i summands of the optimal-composition delta component at the
    curve point (k - 2i) * eps0, each one nonnegative:
    C(k,l) e^{(k-2i+l) eps0} (e^{(2i-2l) eps0} - 1) / (1 + e^{eps0})^k for l < i.
    """
    lf = _log_factorials(k + 1)
    log_comb = lf[k] - lf[:i] - lf[k - i + 1:k + 1][::-1]
    return _kov_lanes(k, i, np.arange(i, dtype=np.float64), log_comb, epsilon0,
                      k * float(np.logaddexp(0.0, epsilon0)))


def _kov_lanes(k: int, i: int | np.ndarray, l: np.ndarray, log_comb: np.ndarray,
               epsilon0: float | np.ndarray, log_denom: float | np.ndarray) -> np.ndarray:
    """The KOV term of index l at curve index i, from log C(k, l) and
    log_denom = k log(1 + e^eps0); i, epsilon0 and log_denom broadcast
    against l."""
    log_low = log_comb + (k - 2.0 * i + l) * epsilon0 - log_denom
    gap = (2.0 * i - 2.0 * l) * epsilon0
    # e^x rounds to 0.0 below x = -745.2; numpy's exp is slow on such lanes, so
    # they are left at 0.0 instead of computed.
    base = np.zeros(log_low.shape)
    np.exp(log_low, out=base, where=log_low > -750.0)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = base * np.expm1(gap)
    bad = ~np.isfinite(terms)
    if bad.any():
        # Beyond gap ~ 709 expm1 overflows while e^{log_low} underflows to 0, and
        # 0 * inf is NaN. Factor out the larger exponent log_low + gap <= 0 instead.
        terms[bad] = np.exp(log_low[bad] + gap[bad]) * -np.expm1(-gap[bad])
    return terms


def _kov_total(dhat: float, delta0: float, k: int) -> float:
    """Composed delta 1 - (1 - delta0)^k (1 - dhat); nondecreasing in dhat."""
    if dhat >= 1.0:
        return 1.0
    log_keep = k * math.log1p(-delta0) if delta0 > 0.0 else 0.0
    return min(1.0, -math.expm1(log_keep + math.log1p(-dhat)))


def _kov_sum_meets(epsilon0: float, delta0: float, k: int, i: int,
                   target_delta: float) -> bool:
    """Whether the composed delta at curve index i >= 1 meets the target, for a
    row _kov_verdicts left open. distkit.sum_bracket around the float sum of
    its i nonnegative terms holds their fsum, and _kov_total is nondecreasing
    in dhat, so only a target between the totals at the two ends needs fsum."""
    terms = _kov_terms(epsilon0, k, i)
    s = float(terms.sum())
    if math.isfinite(s):
        lo, hi = sum_bracket(s, i)
        if _kov_total(lo, delta0, k) > target_delta:
            return False
        if _kov_total(hi, delta0, k) <= target_delta:
            return True
    return _kov_total(math.fsum(terms.tolist()), delta0, k) <= target_delta


class _DeltaGrid(NamedTuple):
    """The delta0 grid of one search, with its per-query epsilons and the two
    per-row constants of every probe: log1p(-delta0) and logaddexp(0, eps0)."""

    delta0: np.ndarray
    epsilon0: np.ndarray
    log_keep: np.ndarray
    log_norm: np.ndarray

    @classmethod
    def of(cls, delta0: list[float], epsilon0: list[float]) -> _DeltaGrid:
        d0, e0 = np.array(delta0), np.array(epsilon0)
        return cls(d0, e0, np.log1p(-d0), np.logaddexp(0.0, e0))


def _kov_exceeds(dhat: np.ndarray, grid: _DeltaGrid, rows: np.ndarray, k: int,
                 target_delta: float) -> np.ndarray:
    """Whether _kov_total(dhat[j], delta0[rows[j]], k) > target_delta, for each j.

    A numpy twin of _kov_total decides every row whose twin total lies more
    than _TWIN_TOL relative from the target; the rows within it take the
    math-module _kov_total, so each answer is the scalar one.
    """
    below = dhat < 1.0  # _kov_total is 1.0 from dhat = 1 on, above any target
    log_rest = np.log1p(-dhat, out=np.zeros(len(dhat)), where=below)
    twin = -np.expm1(k * grid.log_keep[rows] + log_rest)
    out = (twin > target_delta) | ~below
    for j in np.flatnonzero(np.abs(twin - target_delta) <= _TWIN_TOL * target_delta).tolist():
        out[j] = _kov_total(float(dhat[j]), float(grid.delta0[rows[j]]), k) > target_delta
    return out


def _kov_window(grid: _DeltaGrid, rows: np.ndarray, k: int, i: np.ndarray) -> np.ndarray:
    """The KOV_WINDOW terms l in [i - KOV_WINDOW, i) of each row, one row per
    entry of `rows` with its own i >= 1; a slot with l < 0 holds 0.0. Each term
    is bit for bit the same-index entry of _kov_terms(epsilon0, k, i)."""
    lf = _log_factorials(k + 1)
    l = i[:, None] - KOV_WINDOW + np.arange(KOV_WINDOW)
    inside = l >= 0
    l = np.maximum(l, 0)
    terms = _kov_lanes(k, i[:, None], l.astype(np.float64), lf[k] - lf[l] - lf[k - l],
                       grid.epsilon0[rows][:, None], (k * grid.log_norm[rows])[:, None])
    terms[~inside] = 0.0
    return terms


def _kov_verdicts(grid: _DeltaGrid, k: int, target_epsilon: float,
                  target_delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Each grid row's verdict at query count k, decided in one batched pass,
    and its curve index i: 1 where some curve point has eps <= target and
    delta <= target, 0 where none has, -1 where only _kov_sum_meets can tell.

    delta_i grows with i, so only the least i with (k - 2i) eps0 <= target
    counts. The gates fail i > k // 2 and a delta0 part alone above the
    target (dhat >= 0 only adds to it), then pass i = 0. Then the
    KOV_WINDOW terms nearest l = i - 1 of every open row are summed: they are
    nonnegative, so the low end of sum_bracket around their float sum is at
    most fsum of all i terms, and a total above the target there rejects the
    row. When i <= KOV_WINDOW the window is the whole sum, and a total at or
    below the target at the high end accepts it. _kov_total is nondecreasing
    in dhat, so each verdict equals the fsum decision.
    """
    verdicts = np.zeros(len(grid.delta0), dtype=np.int8)
    wide = k * grid.epsilon0 > target_epsilon
    i = np.zeros(len(verdicts), dtype=np.int64)
    i[wide] = np.ceil((k - target_epsilon / grid.epsilon0[wide]) / 2.0)
    rows = np.flatnonzero(i <= k // 2)
    rows = rows[~_kov_exceeds(np.zeros(len(rows)), grid, rows, k, target_delta)]
    verdicts[rows[i[rows] == 0]] = 1
    rows = rows[i[rows] > 0]
    if not len(rows):
        return verdicts, i
    s = _kov_window(grid, rows, k, i[rows]).sum(axis=1)
    finite = np.isfinite(s)
    verdicts[rows[~finite]] = -1  # only fsum decides these
    rows, s = rows[finite], s[finite]
    lo, hi = sum_bracket(s, np.minimum(i[rows], KOV_WINDOW))
    open_ = ~_kov_exceeds(lo, grid, rows, k, target_delta)
    whole = open_ & (i[rows] <= KOV_WINDOW)
    verdicts[rows[whole]] = np.where(
        _kov_exceeds(hi[whole], grid, rows[whole], k, target_delta), -1, 1)
    verdicts[rows[open_ & ~whole]] = -1
    return verdicts, i


def _kov_first_feasible(grid: _DeltaGrid, k: int, target_epsilon: float,
                        target_delta: float) -> int | None:
    """Index of the first grid row whose k-fold composition meets the target,
    or None. Rows the batched pass leaves open are finished on their whole
    sum (_kov_sum_meets), in grid order, up to the first feasible row."""
    verdicts, i = _kov_verdicts(grid, k, target_epsilon, target_delta)
    for r in np.flatnonzero(verdicts).tolist():
        if verdicts[r] == 1 or _kov_sum_meets(float(grid.epsilon0[r]), float(grid.delta0[r]),
                                              k, int(i[r]), target_delta):
            return r
    return None


def max_dp_queries(target_epsilon: float, target_delta: float,
                   sigma_target: float, n: int) -> DpCalibration:
    """Largest query count k for which some per-query delta0 on the grid
    yields Gaussian noise of scale sigma_target (sensitivity 1/n) whose
    k-fold optimal composition still meets (target_epsilon, target_delta).

    Returns k_max = 0 when not even a single query qualifies.
    """
    if not all(math.isfinite(x) for x in (target_epsilon, target_delta, sigma_target)):
        raise DomainError("targets must be finite")
    if sigma_target <= 0.0:
        raise DomainError("sigma_target must be positive")
    if n < 1:
        raise DomainError("n must be positive")
    if target_epsilon < 0.0 or not 0.0 < target_delta < 1.0:
        raise DomainError("targets out of range")
    if target_delta < sys.float_info.min:
        # the delta0 grid starts at target_delta * 1e-6, which would underflow
        raise DomainError(f"target delta {target_delta!r} is subnormal; the delta0 grid "
                          f"needs at least {sys.float_info.min!r}")
    sensitivity = 1.0 / n
    delta0 = np.logspace(
        math.log10(target_delta * 1e-6),
        math.log10(target_delta * 0.999),
        DELTA0_GRID_POINTS,
    ).tolist()
    # sigma = sens * c(d0) / eps0 solved for eps0: the same formula, sigma in eps0's place
    grid = _DeltaGrid.of(delta0, [gaussian_sigma_for(sigma_target, d0, sensitivity)
                                  for d0 in delta0])

    @functools.cache
    def feasible(k: int) -> int | None:
        return _kov_first_feasible(grid, k, target_epsilon, target_delta)

    def calibration(row: int, k: int) -> DpCalibration:
        return DpCalibration(float(grid.epsilon0[row]), delta0[row], sigma_target,
                             sensitivity, k)

    if feasible(1) is None:
        # report the calibration with the least per-query epsilon tried
        return calibration(-1, 0)
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
    row = feasible(lo)
    assert row is not None
    return calibration(row, lo)
