"""Hockey-stick divergence between discrete answer laws.

The divergence delta(eps) = sum_a max(0, P(a) - e^eps * Q(a)) is the smallest
delta for which P(S) <= e^eps * Q(S) + delta holds for every event S. The
two-sided maximum over ordered pairs of conditional laws (one per value of
the critical entry) is the quantity the accountant reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .distkit import Pmf, binomial, shift
from .errors import DomainError


@dataclass(frozen=True)
class CurvePoint:
    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if self.epsilon < 0.0:
            raise DomainError("epsilon must be nonnegative")
        if not 0.0 <= self.delta <= 1.0:
            raise DomainError(f"delta={self.delta!r} outside [0, 1]")


@dataclass(frozen=True)
class PrivacyCurve:
    """Sampled (epsilon, delta) pairs with strictly increasing epsilon.

    delta is nonincreasing along the curve; at epsilon = 0 it equals the
    total-variation distance of the underlying pair of laws.
    """

    points: tuple[CurvePoint, ...]

    def __post_init__(self) -> None:
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise DomainError("a privacy curve needs at least one point")
        for a, b in zip(pts, pts[1:]):
            if b.epsilon <= a.epsilon:
                raise DomainError("epsilons must be strictly increasing")
            if b.delta > a.delta + 1e-12:
                raise DomainError("delta must be nonincreasing along the curve")

    def epsilons(self) -> list[float]:
        return [p.epsilon for p in self.points]

    def deltas(self) -> list[float]:
        return [p.delta for p in self.points]

    def delta_at(self, epsilon: float) -> float:
        """Smallest recorded delta among points with epsilon <= the query."""
        best = 1.0
        for p in self.points:
            if p.epsilon <= epsilon:
                best = min(best, p.delta)
        return best


# e^eps saturates here; beyond it any mass above the support floor already
# annihilates its counterpart, so results are unchanged and exp cannot overflow
_EXP_CAP = 700.0


def _scale(epsilon: float) -> float:
    if epsilon < 0.0:
        raise DomainError("epsilon must be nonnegative")
    return math.exp(min(epsilon, _EXP_CAP))


def as_grid(epsilon) -> np.ndarray:
    """An epsilon or a 1-D grid of them as a 1-D array; a scalar is a grid of one."""
    eps = np.asarray(epsilon, dtype=np.float64)
    if eps.ndim > 1:
        raise DomainError("epsilon must be a number or a 1-D grid")
    return eps.reshape(-1)


def per_epsilon(epsilon, values: np.ndarray):
    """Grid results in the shape of the epsilon argument: a float for a scalar."""
    return float(values[0]) if np.ndim(epsilon) == 0 else values


def fsum_terms(terms) -> np.ndarray:
    """Per-epsilon math.fsum of a sequence of grid arrays (one row per term).

    fsum is exactly rounded, so each epsilon's sum does not depend on the
    order of the terms and equals the scalar path's fsum bit for bit.
    """
    return np.array([math.fsum(col) for col in np.asarray(terms).T.tolist()])


def hockey_stick(p: Pmf, q: Pmf, epsilon):
    """sum_a max(0, p(a) - e^eps * q(a)) over the union support (direct sum).

    `epsilon` may be a 1-D grid: the (grid x support) difference is built
    once and each row summed on its own, so every value equals the scalar
    call's (fsum is exact, so the zeros put in for negative terms change
    nothing).
    """
    grid = as_grid(epsilon)
    scales = np.array([_scale(e) for e in grid.tolist()])
    lo = min(p.offset, q.offset)
    diff = np.zeros((grid.size, max(p.top, q.top) - lo + 1))
    diff[:, p.offset - lo : p.offset - lo + p.masses.size] = p.masses
    diff[:, q.offset - lo : q.offset - lo + q.masses.size] -= scales[:, None] * q.masses
    positive = np.where(diff > 0.0, diff, 0.0).tolist()
    return per_epsilon(epsilon, np.array([min(1.0, math.fsum(row)) for row in positive]))


def d_hat(p_by_value: dict, epsilon):
    """Max of hockey_stick over ordered pairs of conditional answer laws,
    at one epsilon or over a 1-D grid."""
    if len(p_by_value) < 2:
        raise DomainError("need at least two critical values")
    laws = list(p_by_value.values())
    grid = as_grid(epsilon)
    best = np.zeros(grid.size)
    for i, pv in enumerate(laws):
        for j, pw in enumerate(laws):
            if i != j:
                best = np.maximum(best, hockey_stick(pv, pw, grid))
    return per_epsilon(epsilon, best)


def _shift_up_delta(u: np.ndarray, p: float, scale: float) -> np.ndarray:
    """Hockey-stick divergence of B + 1 against B, B ~ Bin(u, p).

    The optimal set is {a >= t}, t = floor((u+1) p / (p + q e^-eps)) + 1 (the
    ratio test divided through by e^eps, so nothing overflows), and
    delta(t) = P(B > t-2) - e^eps P(B > t-1) is taken at t and both
    neighbours, with P(B > k) = I_p(k + 1, u - k) for 0 <= k < u.
    """
    t = np.floor((u + 1.0) * p / (p + (1.0 - p) / scale)) + 1.0
    k, u = t[..., None] + np.arange(-3.0, 1.0), u[..., None]
    inside = (k >= 0.0) & (k < u)
    tails = betainc(np.where(inside, k + 1.0, 1.0), np.where(inside, u - k, 1.0), p)
    above = np.where(inside, tails, np.where(k < 0.0, 1.0, 0.0))
    return np.max(above[..., :-1] - scale * above[..., 1:], axis=-1)


def shift_pair_delta(u, p: float, epsilon: float):
    """Two-sided hockey-stick divergence between B + 1 and B, B ~ Bin(u, p).

    d_hat of a property query's answer laws over u iid entries, in closed
    form: the likelihood ratio b(a-1)/b(a) = a q / ((u-a+1) p) is monotone,
    so each direction is one tail difference at a threshold, and the
    reflection a -> u + 1 - a maps B against B + 1 to B' + 1 against B',
    B' ~ Bin(u, q). An array `u` gives the scalar results bit for bit.
    """
    scale = _scale(epsilon)
    u = np.asarray(u, dtype=np.float64)
    if not 0.0 <= p <= 1.0 or np.any(u < 0.0):
        raise DomainError(f"need u >= 0 and p in [0, 1], got p={p!r}")
    both = np.maximum(_shift_up_delta(u, p, scale), _shift_up_delta(u, 1.0 - p, scale))
    delta = np.clip(both, 0.0, 1.0)
    return float(delta) if delta.ndim == 0 else delta


def property_query_answer_law(size: int, p: float, critical_value: int) -> Pmf:
    """Count of positive entries in a database of `size`, given the critical one.

    The critical entry contributes its fixed value; the remaining size - 1
    entries are iid Bernoulli(p).
    """
    if size < 1:
        raise DomainError("size must be at least 1")
    if critical_value not in (0, 1):
        raise DomainError("critical_value must be 0 or 1")
    return shift(binomial(size - 1, p), critical_value)


def epsilon_grid(epsilons) -> tuple[float, ...]:
    """Validate an epsilon grid: nonempty, finite, nonnegative and strictly
    increasing. A NaN epsilon would otherwise report delta = 0."""
    try:
        eps = tuple(float(e) for e in epsilons)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"epsilons must be numbers: {exc}") from exc
    if not eps:
        raise DomainError("epsilon grid must be nonempty")
    if not all(math.isfinite(e) and e >= 0.0 for e in eps):
        raise DomainError("epsilons must be finite and nonnegative")
    if any(b <= a for a, b in zip(eps, eps[1:])):
        raise DomainError("epsilon grid must be strictly increasing")
    return eps


def eval_curve(p_by_value: dict, epsilons) -> PrivacyCurve:
    """Evaluate d_hat on a strictly increasing epsilon grid."""
    eps = epsilon_grid(epsilons)
    deltas = d_hat(p_by_value, eps).tolist()
    return PrivacyCurve(tuple(CurvePoint(e, d) for e, d in zip(eps, deltas)))
