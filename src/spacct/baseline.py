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

    def to_dict(self) -> dict:
        return {
            "per_query_epsilon": self.per_query_epsilon,
            "per_query_delta": self.per_query_delta,
            "gaussian_sigma": self.gaussian_sigma,
            "sensitivity": self.sensitivity,
            "k_max": self.k_max,
        }


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
    """The i summands of _kov_dhat, each one nonnegative:
    C(k,l) e^{(k-2i+l) eps0} (e^{(2i-2l) eps0} - 1) / (1 + e^{eps0})^k for l < i.
    """
    lf = _log_factorials(k + 1)
    log_denom = k * float(np.logaddexp(0.0, epsilon0))
    l = np.arange(i, dtype=np.float64)
    log_comb = lf[k] - lf[:i] - lf[k - i + 1:k + 1][::-1]
    log_low = log_comb + (k - 2.0 * i + l) * epsilon0 - log_denom
    gap = (2.0 * i - 2.0 * l) * epsilon0
    # e^x rounds to 0.0 below x = -745.2; numpy's exp is slow on such lanes, so
    # they are left at 0.0 instead of computed.
    base = np.zeros(i)
    np.exp(log_low, out=base, where=log_low > -750.0)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = base * np.expm1(gap)
    bad = ~np.isfinite(terms)
    if bad.any():
        # Beyond gap ~ 709 expm1 overflows while e^{log_low} underflows to 0, and
        # 0 * inf is NaN. Factor out the larger exponent log_low + gap <= 0 instead.
        terms[bad] = np.exp(log_low[bad] + gap[bad]) * -np.expm1(-gap[bad])
    return terms


def _kov_dhat(epsilon0: float, k: int, i: int) -> float:
    """Optimal-composition delta component at the curve point (k - 2i) * eps0.

    sum_{l < i} C(k,l) (e^{(k-l) eps0} - e^{(k-2i+l) eps0}) / (1 + e^{eps0})^k,
    evaluated in log space and summed exactly rounded.
    """
    return math.fsum(_kov_terms(epsilon0, k, i).tolist())


def _kov_total(dhat: float, delta0: float, k: int) -> float:
    """Composed delta 1 - (1 - delta0)^k (1 - dhat); nondecreasing in dhat."""
    if dhat >= 1.0:
        return 1.0
    log_keep = k * math.log1p(-delta0) if delta0 > 0.0 else 0.0
    return min(1.0, -math.expm1(log_keep + math.log1p(-dhat)))


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
    grid = np.logspace(
        math.log10(target_delta * 1e-6),
        math.log10(target_delta * 0.999),
        DELTA0_GRID_POINTS,
    )
    # sigma = sens * c(d0) / eps0 solved for eps0: the same formula, sigma in eps0's place
    eps0 = {d0: gaussian_sigma_for(sigma_target, d0, sensitivity) for d0 in grid.tolist()}

    @functools.cache
    def feasible(k: int) -> float | None:
        for d0, e0 in eps0.items():
            if _kov_achieves(e0, d0, k, target_epsilon, target_delta):
                return d0
        return None

    best_d0 = feasible(1)
    if best_d0 is None:
        # report the calibration with the least per-query epsilon tried
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
    assert d0 is not None
    return DpCalibration(eps0[d0], d0, sigma_target, sensitivity, lo)
