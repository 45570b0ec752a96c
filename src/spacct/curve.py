"""Hockey-stick divergence between discrete answer laws.

The divergence delta(eps) = sum_a max(0, P(a) - e^eps * Q(a)) is the smallest
delta for which P(S) <= e^eps * Q(S) + delta holds for every event S. The
two-sided maximum over ordered pairs of conditional laws (one per value of
the critical entry) is the quantity the accountant reports.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc

from .distkit import Pmf, binomial, checked_rows, shift
from .errors import DomainError

# e^eps saturates here; beyond it any mass above the support floor already
# annihilates its counterpart, so results are unchanged and exp cannot overflow
_EXP_CAP = 700.0


def as_grid(epsilon) -> np.ndarray:
    """An epsilon or a 1-D grid of them as a 1-D array; a scalar is a grid of one.
    A NaN or negative epsilon raises DomainError, so it never reads as a delta."""
    eps = np.asarray(epsilon, dtype=np.float64)
    if eps.ndim > 1:
        raise DomainError("epsilon must be a number or a 1-D grid")
    eps = eps.reshape(-1)
    if not (eps >= 0.0).all():
        raise DomainError("epsilon must be nonnegative")
    return eps


def _scales(epsilon) -> np.ndarray:
    """e^eps over the checked grid, saturated at _EXP_CAP (math.exp per point)."""
    return np.array([math.exp(min(e, _EXP_CAP)) for e in as_grid(epsilon).tolist()])


def per_epsilon(epsilon, values: np.ndarray):
    """Grid results in the shape of the epsilon argument: a float for a scalar."""
    return float(values[0]) if np.ndim(epsilon) == 0 else values


def fsum_terms(terms) -> np.ndarray:
    """Per-epsilon math.fsum of a sequence of grid arrays (one row per term).

    fsum is exactly rounded, so each epsilon's sum does not depend on the
    order of the terms and equals the scalar path's fsum bit for bit.
    """
    return np.array([math.fsum(col) for col in np.asarray(terms).T.tolist()])


def _positive_sums(diff: np.ndarray) -> np.ndarray:
    """min(1, math.fsum of the positive entries) along the last axis: every
    hockey-stick value's sum (fsum is exact, so the entries left out change nothing)."""
    positive = diff > 0.0
    flat = diff[positive].tolist()
    ends = positive.sum(axis=-1).ravel().cumsum().tolist()
    sums = [min(1.0, math.fsum(flat[lo:hi])) for lo, hi in zip([0, *ends], ends)]
    return np.array(sums).reshape(diff.shape[:-1])


def _on_union(laws) -> np.ndarray:
    """The laws' masses as rows over the union of their supports."""
    lo = min(d.offset for d in laws)
    rows = np.zeros((len(laws), max(d.top for d in laws) - lo + 1))
    for row, d in zip(rows, laws):
        row[d.offset - lo : d.offset - lo + d.masses.size] = d.masses
    return rows


def hockey_stick(p: Pmf, q: Pmf, epsilon):
    """sum_a max(0, p(a) - e^eps * q(a)) over the union support (direct sum).

    `epsilon` may be a 1-D grid: the (grid x support) difference is built
    once and each row summed on its own, so every value equals the scalar
    call's.
    """
    rows = _on_union((p, q))
    return per_epsilon(epsilon, _positive_sums(rows[0] - _scales(epsilon)[:, None] * rows[1]))


def d_hat(p_by_value: dict, epsilon):
    """Max of hockey_stick over ordered pairs of conditional answer laws, at one
    epsilon or over a 1-D grid; a law against itself adds 0, as e^eps >= 1."""
    if len(p_by_value) < 2:
        raise DomainError("need at least two critical values")
    rows = _on_union(list(p_by_value.values()))
    diff = rows[:, None] - _scales(epsilon)[:, None, None, None] * rows  # (grid, v, w, support)
    return per_epsilon(epsilon, _positive_sums(diff).max(axis=(1, 2)))


def shift_pair_rows(masses: np.ndarray, epsilon) -> np.ndarray:
    """d_hat of every row's law B against B + 1, as a (grid x rows) array.

    `masses` holds raw laws on {0, ..., s}, one per row. Each row is checked
    and end-trimmed as a Pmf would be (distkit.checked_rows), and its value at
    each epsilon equals d_hat of the pair {Pmf(0, row), its shift by one} bit
    for bit: both take the positive-part sum of p(a) - e^eps q(a) over the
    union support per direction.
    """
    rows = checked_rows(masses)
    pair = np.zeros((2, rows.shape[0], rows.shape[1] + 1))  # B, then B + 1
    pair[0, :, :-1], pair[1, :, 1:] = rows, rows
    diff = pair - _scales(epsilon)[:, None, None, None] * pair[::-1]  # (grid, 2, rows, points)
    return _positive_sums(diff).max(axis=1)


def _binomial_above(u, p: float, k):
    """P(B > k) for B ~ Bin(u, p): I_p(k + 1, u - k) for 0 <= k < u, 1 below
    that range and 0 above it. `u` and `k` broadcast against each other."""
    inside = (k >= 0.0) & (k < u)
    tails = betainc(np.where(inside, k + 1.0, 1.0), np.where(inside, u - k, 1.0), p)
    return np.where(inside, tails, np.where(k < 0.0, 1.0, 0.0))


def _shift_up_delta(u: np.ndarray, p: float, scale: np.ndarray) -> np.ndarray:
    """Hockey-stick divergence of B + 1 against B, B ~ Bin(u, p).

    The optimal set is {a >= t}, t = floor((u+1) p / (p + q e^-eps)) + 1 (the
    ratio test divided through by e^eps, so nothing overflows), and
    delta(t) = P(B > t-2) - e^eps P(B > t-1) is taken at t and both
    neighbours. `scale` broadcasts against `u`.
    """
    t = np.floor((u + 1.0) * p / (p + (1.0 - p) / scale)) + 1.0
    above = _binomial_above(u[..., None], p, t[..., None] + np.arange(-3.0, 1.0))
    return np.max(above[..., :-1] - scale[..., None] * above[..., 1:], axis=-1)


def shift_pair_delta(u, p: float, epsilon):
    """Two-sided hockey-stick divergence between B + 1 and B, B ~ Bin(u, p).

    d_hat of a property query's answer laws over u iid entries, in closed
    form: the likelihood ratio b(a-1)/b(a) = a q / ((u-a+1) p) is monotone,
    so each direction is one tail difference at a threshold, and the
    reflection a -> u + 1 - a maps B against B + 1 to B' + 1 against B',
    B' ~ Bin(u, q). An array `u` gives the scalar results bit for bit, and
    a 1-D epsilon grid adds a leading axis: the result is (grid,) + u's shape.
    """
    u = np.asarray(u, dtype=np.float64)
    scale = _scales(epsilon).reshape((-1,) + (1,) * u.ndim)
    if not 0.0 <= p <= 1.0 or np.any(u < 0.0):
        raise DomainError(f"need u >= 0 and p in [0, 1], got p={p!r}")
    both = np.maximum(_shift_up_delta(u, p, scale), _shift_up_delta(u, 1.0 - p, scale))
    delta = np.clip(both, 0.0, 1.0)
    if np.ndim(epsilon) == 0:
        delta = delta[0]
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
