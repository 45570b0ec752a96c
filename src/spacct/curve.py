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


def _aligned(p: Pmf, q: Pmf) -> tuple[np.ndarray, np.ndarray]:
    lo = min(p.offset, q.offset)
    hi = max(p.top, q.top)
    pa = np.zeros(hi - lo + 1)
    qa = np.zeros(hi - lo + 1)
    pa[p.offset - lo : p.offset - lo + p.masses.size] = p.masses
    qa[q.offset - lo : q.offset - lo + q.masses.size] = q.masses
    return pa, qa


def hockey_stick(p: Pmf, q: Pmf, epsilon: float) -> float:
    """sum_a max(0, p(a) - e^eps * q(a)) over the union support (direct sum)."""
    pa, qa = _aligned(p, q)
    diff = pa - _scale(epsilon) * qa
    pos = diff[diff > 0.0]
    if pos.size == 0:
        return 0.0
    return min(1.0, math.fsum(pos.tolist()))


def hockey_stick_threshold(p: Pmf, q: Pmf, epsilon: float) -> float:
    """Threshold evaluation: max over t of P(A >= t) - e^eps * Q(A >= t).

    Equals the direct sum whenever p/q is nondecreasing on the union support
    (monotone likelihood ratio), e.g. for a binomial against its shift. The
    maximization over all suffix sets resolves ties at the threshold: a
    boundary point enters the optimal set iff it increases delta.
    """
    scale = _scale(epsilon)
    pa, qa = _aligned(p, q)
    # suffix sums in extended precision keep the 1e-12 agreement with fsum
    sp = np.cumsum(pa[::-1].astype(np.longdouble))
    sq = np.cumsum(qa[::-1].astype(np.longdouble))
    best = np.max(sp - np.longdouble(scale) * sq)
    return min(1.0, max(0.0, float(best)))


def d_hat(p_by_value: dict, epsilon: float) -> float:
    """Max of hockey_stick over ordered pairs of conditional answer laws."""
    if len(p_by_value) < 2:
        raise DomainError("need at least two critical values")
    laws = list(p_by_value.values())
    best = 0.0
    for i, pv in enumerate(laws):
        for j, pw in enumerate(laws):
            if i != j:
                best = max(best, hockey_stick(pv, pw, epsilon))
    return best


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
    points = (CurvePoint(e, d_hat(p_by_value, e)) for e in epsilon_grid(epsilons))
    return PrivacyCurve(tuple(points))
