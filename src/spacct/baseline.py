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

import math
import sys
from collections.abc import Generator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distkit import _log_factorial, sum_bracket
from .errors import CapacityError, DomainError, is_int

# Hard ceiling for the query-count search: max_dp_queries raises
# CapacityError when this many queries meet the target. A power of two, so
# the doubling phase of the search lands on it.
MAX_QUERIES = 1 << 20

# Number of per-query delta values probed between target_delta * 1e-6 and
# target_delta * 0.999 (log spacing).
DELTA0_GRID_POINTS = 64

# Widths of the KOV term windows next to l = i - 1 that the batched probe sums
# for every open grid row, one batched pass per width. The first rejects most
# infeasible rows; the rows it leaves open take the second, which rejects
# almost all of the rest. A row whose sum has more terms than the last window
# and is not rejected is finished on its whole sum.
KOV_WINDOWS = (64, 256)

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
    if not (is_int(n) and is_int(s)):
        raise DomainError(f"sizes must be integers, got n={n!r} and s={s!r}")
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


def _kov_lanes(log_comb: np.ndarray, tilt: np.ndarray, spread: np.ndarray,
               epsilon0: float | np.ndarray, log_denom: float | np.ndarray) -> np.ndarray:
    """The KOV term of index l at curve index i, from log C(k, l), the integers
    tilt = k - 2i + l and spread = 2i - 2l, and log_denom = k log(1 + e^eps0);
    all of them broadcast together."""
    # an eps0 near the float limit overflows the exponents; such lanes are not
    # finite, and the callers send their rows to the fsum finisher
    with np.errstate(over="ignore", invalid="ignore"):
        log_low = log_comb + tilt * epsilon0 - log_denom
        gap = spread * epsilon0
        # e^x rounds to 0.0 below x = -745.2, and numpy's exp is slow on such lanes,
        # so they take e^-750 = 0.0, as do NaN lanes (fmax drops a NaN)
        terms = np.exp(np.fmax(log_low, -750.0)) * np.expm1(gap)
        finite = np.isfinite(terms)
        if not finite.all():
            bad = ~finite
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


class _DeltaGrid(NamedTuple):
    """Rows of delta0 grids, with their per-query epsilons and the two per-row
    constants of every probe: log1p(-delta0) and logaddexp(0, eps0)."""

    delta0: np.ndarray
    epsilon0: np.ndarray
    log_keep: np.ndarray
    log_norm: np.ndarray

    @classmethod
    def of(cls, delta0: list[float], epsilon0: list[float]) -> _DeltaGrid:
        d0, e0 = np.array(delta0), np.array(epsilon0)
        return cls(d0, e0, np.log1p(-d0), np.logaddexp(0.0, e0))


def _kov_exceeds(dhat: np.ndarray, grid: _DeltaGrid, rows: np.ndarray, k: np.ndarray,
                 target_delta: np.ndarray) -> np.ndarray:
    """Whether _kov_total(dhat[j], delta0[r], k[r]) > target_delta[r] for each j,
    r = rows[j]; k and target_delta hold one entry per grid row.

    A numpy twin of _kov_total decides every row whose twin total lies more
    than _TWIN_TOL relative from its target; the rows within it take the
    math-module _kov_total, so each answer is the scalar one.
    """
    below = dhat < 1.0  # _kov_total is 1.0 from dhat = 1 on, above any target
    log_rest = np.log1p(-dhat, out=np.zeros(len(dhat)), where=below)
    k, target = k[rows], target_delta[rows]
    twin = -np.expm1(k * grid.log_keep[rows] + log_rest)
    out = (twin > target) | ~below
    for j in np.flatnonzero(np.abs(twin - target) <= _TWIN_TOL * target).tolist():
        out[j] = _kov_total(float(dhat[j]), float(grid.delta0[rows[j]]),
                            int(k[j])) > float(target[j])
    return out


def _kov_window(grid: _DeltaGrid, rows: np.ndarray, k: np.ndarray, i: np.ndarray,
                skip: int, width: int) -> np.ndarray:
    """The terms l in [i - width, i - skip) of each row, one row per entry of
    `rows` with its own k and i >= 1 (given per entry of `rows`); a slot with
    l < 0 holds 0.0. Each term is bit for bit the same-index entry of the
    scalar term builder tests/rational_ref.py keeps, _kov_terms(epsilon0, k, i):
    C(k,l) e^{(k-2i+l) eps0} (e^{(2i-2l) eps0} - 1) / (1 + e^{eps0})^k."""
    lf = _log_factorials(int(k.max(initial=0)) + 1)
    reach = np.arange(width, skip, -1)  # i - l
    l = np.maximum(i[:, None] - reach, 0)
    k = k[:, None]
    with np.errstate(over="ignore"):  # an infinite log_denom leaves the row non-finite
        log_denom = k * grid.log_norm[rows][:, None]
    # float tilts: k - i is exact in float64, and tilt * eps0 needs no cast
    tilt = (k - i[:, None]).astype(np.float64) - reach
    terms = _kov_lanes(lf[k] - lf[l] - lf[k - l], tilt, 2.0 * reach,
                       grid.epsilon0[rows][:, None], log_denom)
    short = np.flatnonzero(i < width)
    if len(short):
        terms[short] = np.where(reach <= i[short, None], terms[short], 0.0)
    return terms


def _kov_sum_meets(grid: _DeltaGrid, row: int, k: int, i: int, target_delta: float) -> bool:
    """Whether the composed delta of grid row `row` at curve index i >= 1 meets
    the target, for a row _kov_verdicts left open; its i terms are the one
    _kov_window of width i. distkit.sum_bracket around their float sum holds
    their fsum, and _kov_total is nondecreasing in dhat, so only a target
    between the totals at the two ends needs fsum."""
    terms = _kov_window(grid, np.array([row]), np.array([k]), np.array([i]), 0, i)[0]
    delta0 = float(grid.delta0[row])
    s = float(terms.sum())
    if math.isfinite(s):
        lo, hi = sum_bracket(s, i)
        if _kov_total(lo, delta0, k) > target_delta:
            return False
        if _kov_total(hi, delta0, k) <= target_delta:
            return True
    return _kov_total(math.fsum(terms.tolist()), delta0, k) <= target_delta


def _kov_verdicts(grid: _DeltaGrid, k: np.ndarray, target_epsilon: np.ndarray,
                  target_delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each grid row's verdict at its query count k, decided in batched
    passes, and its curve index i: 1 where some curve point has eps <= target
    and delta <= target, 0 where none has, -1 where only _kov_sum_meets can
    tell. k and the targets hold one entry per row.

    delta_i grows with i, so only the least i with (k - 2i) eps0 <= target
    counts. The gates fail i > k // 2 and a delta0 part alone above the
    target (dhat >= 0 only adds to it), then pass i = 0. Then, for each width
    of KOV_WINDOWS, the terms nearest l = i - 1 of every open row are summed:
    they are nonnegative, so the low end of sum_bracket around their float
    sum is at most fsum of all i terms, and a total above the target there
    rejects the row. When i <= width the window is the whole sum, and a
    total at or below the target at the high end accepts it. _kov_total is
    nondecreasing in dhat, so each verdict equals the fsum decision.
    """
    verdicts = np.zeros(len(grid.delta0), dtype=np.int8)
    with np.errstate(over="ignore"):  # k eps0 = inf is above any target
        wide = k * grid.epsilon0 > target_epsilon
    i = np.zeros(len(verdicts), dtype=np.int64)
    i[wide] = np.ceil((k[wide] - target_epsilon[wide] / grid.epsilon0[wide]) / 2.0)
    rows = np.flatnonzero(i <= k // 2)
    rows = rows[~_kov_exceeds(np.zeros(len(rows)), grid, rows, k, target_delta)]
    verdicts[rows[i[rows] == 0]] = 1
    rows = rows[i[rows] > 0]
    # float sums of the terms summed so far, the `near` ones next to l = i - 1
    total, near = np.zeros(len(verdicts)), 0
    for width in KOV_WINDOWS:
        if not len(rows):
            break
        # no row has terms past its longest sum: the window ends there
        longest = min(width, int(i[rows].max()))
        total[rows] += _kov_window(grid, rows, k[rows], i[rows], near, longest).sum(axis=1)
        near, s = width, total[rows]
        finite = np.isfinite(s)
        verdicts[rows[~finite]] = -1  # only fsum decides these
        rows, s = rows[finite], s[finite]
        lo, hi = sum_bracket(s, np.minimum(i[rows], width))
        open_ = ~_kov_exceeds(lo, grid, rows, k, target_delta)
        whole = open_ & (i[rows] <= width)
        verdicts[rows[whole]] = np.where(
            _kov_exceeds(hi[whole], grid, rows[whole], k, target_delta), -1, 1)
        rows = rows[open_ & ~whole]
    verdicts[rows] = -1
    return verdicts, i


def _kov_first_feasible(grid: _DeltaGrid, k: np.ndarray, target_epsilon: np.ndarray,
                        target_delta: np.ndarray) -> list[int | None]:
    """For each cell c, whose delta0 grid is rows c G .. c G + G - 1 of `grid`
    (G = DELTA0_GRID_POINTS), the index in that grid of the first row whose
    k[c]-fold composition meets the cell's target, or None. One batched pass
    decides the rows of every cell; rows it leaves open are finished on their
    whole sum (_kov_sum_meets), in grid order, up to the cell's first
    feasible row."""
    per_row = [np.repeat(x, DELTA0_GRID_POINTS) for x in (k, target_epsilon, target_delta)]
    verdicts, i = _kov_verdicts(grid, *per_row)
    firsts = []
    for c, cell in enumerate(verdicts.reshape(len(k), DELTA0_GRID_POINTS)):
        first = None
        for r in np.flatnonzero(cell).tolist():
            row = c * DELTA0_GRID_POINTS + r
            if cell[r] == 1 or _kov_sum_meets(grid, row, int(k[c]), int(i[row]),
                                              float(target_delta[c])):
                first = r
                break
        firsts.append(first)
    return firsts


def _probe_counts() -> Generator[int, int | None, tuple[int | None, int]]:
    """The query-count search of one cell: it yields each count k to probe,
    is sent the first feasible grid row at k (None when there is none), and
    returns (row, k_max), row None when k_max = 0. Doubling from k = 1 finds
    a count that fails, then bisection the boundary below it."""
    row = yield 1
    if row is None:
        return None, 0
    lo, hi = 1, 2
    while (found := (yield hi)) is not None:
        if hi >= MAX_QUERIES:
            raise CapacityError(f"at least MAX_QUERIES = {MAX_QUERIES} DP queries meet "
                                f"the target; the search stops there")
        lo, hi, row = hi, 2 * hi, found
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (found := (yield mid)) is not None:
            lo, row = mid, found
        else:
            hi = mid
    return row, lo


def _search_grid(target_epsilon: float, target_delta: float, sigma_target: float,
                 n: int) -> _DeltaGrid:
    """The delta0 grid of one target, with its per-query epsilons, after
    checking the target."""
    if not all(math.isfinite(x) for x in (target_epsilon, target_delta, sigma_target)):
        raise DomainError("targets must be finite")
    if sigma_target <= 0.0:
        raise DomainError("sigma_target must be positive")
    if not is_int(n) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
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
    return _DeltaGrid.of(delta0, [gaussian_sigma_for(sigma_target, d0, sensitivity)
                                  for d0 in delta0])


def max_dp_queries(target_epsilon: float, target_delta: float,
                   sigma_target: float, n: int) -> DpCalibration:
    """Largest query count k for which some per-query delta0 on the grid
    yields Gaussian noise of scale sigma_target (sensitivity 1/n) whose
    k-fold optimal composition still meets (target_epsilon, target_delta).

    Returns k_max = 0 when not even a single query qualifies.
    """
    return _max_dp_queries_of([(target_epsilon, target_delta, sigma_target, n)])[0]


def _max_dp_queries_of(cells: list[tuple[float, float, float, int]]) -> list[DpCalibration]:
    """max_dp_queries of each cell (target_epsilon, target_delta, sigma_target,
    n), each equal to the cell's own call: the cells' searches probe their
    query counts in lockstep, one batched pass per round."""
    grids = [_search_grid(*cell) for cell in cells]
    if not grids:
        return []
    stacked = _DeltaGrid(*map(np.concatenate, zip(*grids)))
    targets = np.array([cell[:2] for cell in cells], dtype=np.float64)
    searches = [_probe_counts() for _ in cells]
    counts = [next(search) for search in searches]
    results: list = [None] * len(cells)
    active = list(range(len(cells)))
    while active:
        index = np.array(active)
        rows = (index[:, None] * DELTA0_GRID_POINTS + np.arange(DELTA0_GRID_POINTS)).ravel()
        firsts = _kov_first_feasible(_DeltaGrid(*(a[rows] for a in stacked)),
                                     np.array([counts[c] for c in active]),
                                     targets[index, 0], targets[index, 1])
        still = []
        for c, first in zip(active, firsts):
            try:
                counts[c] = searches[c].send(first)
                still.append(c)
            except StopIteration as done:
                results[c] = done.value
        active = still
    calibrations = []
    for (_, _, sigma, size), grid, (row, k) in zip(cells, grids, results):
        # with k_max = 0, the calibration with the least per-query epsilon tried
        row = -1 if row is None else row
        calibrations.append(DpCalibration(float(grid.epsilon0[row]), float(grid.delta0[row]),
                                          sigma, 1.0 / size, k))
    return calibrations
