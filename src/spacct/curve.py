"""Hockey-stick divergence between discrete answer laws.

The divergence delta(eps) = sum_a max(0, P(a) - e^eps * Q(a)) is the smallest
delta for which P(S) <= e^eps * Q(S) + delta holds for every event S. The
two-sided maximum over ordered pairs of conditional laws (one per value of
the critical entry) is the quantity the accountant reports.
"""

from __future__ import annotations

import math

import numpy as np

from .distkit import FLOAT_INT_LIMIT, Pmf, _dbinom, binomial, checked_rows, shift
from .errors import CapacityError, DomainError, is_int

# e^eps saturates here; beyond it any mass above the support floor already
# annihilates its counterpart, so results are unchanged and exp cannot overflow
_EXP_CAP = 700.0

# Terms of one batch of binomial tail windows (rows x width), 8 MB; a single
# window longer than this (u above ~10^10 with an epsilon near 0) is refused
# with CapacityError.
_WINDOW_TERMS = 1 << 20


def as_grid(epsilon) -> np.ndarray:
    """An epsilon or a 1-D grid of them as a 1-D array; a scalar is a grid of one.
    A NaN or negative epsilon, or an empty grid, raises DomainError, so it never
    reads as a delta."""
    eps = np.asarray(epsilon, dtype=np.float64)
    if eps.ndim > 1:
        raise DomainError("epsilon must be a number or a 1-D grid")
    eps = eps.reshape(-1)
    if not eps.size:
        raise DomainError("epsilon grid must be nonempty")
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


def _windows(u: np.ndarray, p, q, a: np.ndarray):
    """Masses b(a + i) and tails P(B >= a + i), i < 4, of B ~ Bin(u, p), one
    row per entry of the equally long 1-D arrays u, p, q and a (0 <= a <= u;
    p and q = 1 - p in (0, 1), q given so that a reflected law keeps a tiny
    q exact). Returns two (rows x 4) arrays.

    Each row is one window of masses from a upward: b(a) from Loader's form
    (distkit._dbinom), then the ratio b(j + 1) / b(j) = (u - j) p / ((j + 1) q)
    through a cumulative product, and the tails as sums over the window.
    With a at or above the mean minus 2 the masses fall off like a Gaussian,
    or geometrically once a is z standard deviations out, so min(9, 40.5 / z)
    standard deviations plus 24 terms leave out less than 2^-55 of the tail.
    The width is then rounded up to one of a few sizes, and the rows of each
    size are taken by index and summed together, so each row's terms and sums
    depend on its own (u, p, a) only, not on the other rows.
    """
    if not u.size:
        return np.empty((0, 4)), np.empty((0, 4))
    if u.max() > FLOAT_INT_LIMIT:
        raise DomainError(f"binomial tails need u <= 2^53, the float64 integer limit; "
                          f"got u = {u.max():.17g}")
    var = u * p * q
    reach = np.maximum(a - u * p, 4.5 * np.sqrt(var))
    span = np.divide(40.5 * var, reach, out=np.zeros_like(var), where=reach > 0.0)
    need = np.minimum(u - a + 1.0, np.ceil(span) + 24.0)
    # the next multiple of a power of two at most 1/16 of the width (at least 4)
    grain = np.ldexp(1.0, np.maximum(np.frexp(need)[1] - 4, 2))
    widths = (np.ceil(need / grain) * grain).astype(np.intp)
    widest = int(widths.max())
    if widest > _WINDOW_TERMS:
        raise CapacityError(f"a binomial tail window of {widest} terms exceeds the cap of "
                            f"{_WINDOW_TERMS} (u up to {u.max():.17g})")
    # a q below 1e-300 occurs only with the window at its top point u, where
    # the ratio multiplies 0; the floor keeps it from being 0 * inf
    anchors, ratios = _dbinom(a, u, p, q), p / np.maximum(q, 1e-300)
    above, below = u - a, a + 1.0
    masses, tails = np.empty((u.size, 4)), np.empty((u.size, 4))
    for width in np.unique(widths).tolist():
        offsets = np.arange(width - 1, dtype=np.float64)
        rows = np.flatnonzero(widths == width)
        share = max(1, _WINDOW_TERMS // width)
        for part in (rows[at:at + share] for at in range(0, rows.size, share)):
            terms = np.empty((part.size, width))
            terms[:, 0] = anchors[part]
            # b(j + 1) / b(j) for j = a, a + 1, ...; 0 at j = u and of either sign after
            step = terms[:, 1:]
            np.subtract(above[part, None], offsets, out=step)
            step /= below[part, None] + offsets
            step *= ratios[part, None]
            np.cumprod(terms, axis=1, out=terms)
            # P(B >= a + 3) as one pairwise sum over a row of fixed width, then
            # the three nearer tails added on; adding 0.0 turns a -0.0 past u into 0.0
            masses[part] = terms[:, :4] + 0.0
            head = terms[:, 3::-1].copy()
            head[:, 0] = np.add.reduce(terms[:, 3:], axis=1) + 0.0
            tails[part] = np.cumsum(head, axis=1)[:, ::-1]
    return masses, tails


def _binomial_above(u, p: float, k):
    """P(B > k) for B ~ Bin(u, p): 1 for k < 0 and 0 for k >= u, with `u`
    and `k` broadcast against each other. Inside, the tail on the far side of
    the mean is summed (_windows): P(B >= k + 1) at or above the mean, and
    1 - P(B' >= u - k), B' ~ Bin(u, 1 - p), below it."""
    u, k = np.broadcast_arrays(np.asarray(u, dtype=np.float64), np.asarray(k, dtype=np.float64))
    out = np.where(k < 0.0, 1.0, 0.0)
    inside = (k >= 0.0) & (k < u)
    if p in (0.0, 1.0):
        out[inside] = p  # B is 0 or u
    elif inside.any():
        size, below = u[inside], k[inside]
        upper = below + 1.0 >= size * p
        far = _windows(size, np.where(upper, p, 1.0 - p), np.where(upper, 1.0 - p, p),
                       np.where(upper, below + 1.0, size - below))[1][:, 0]
        out[inside] = np.where(upper, far, 1.0 - far)
    return out


def _shift_up_rows(u: np.ndarray, p: np.ndarray, q: np.ndarray, scale: np.ndarray,
                   growth: np.ndarray):
    """Hockey-stick divergence of B + 1 against B, B ~ Bin(u, p), q = 1 - p,
    per entry of the equally shaped 1-D arrays (growth = e^eps - 1 = scale - 1
    exactly rounded).

    The optimal set is {a >= t}, t = floor((u+1) p / (p + q e^-eps)) + 1 (the
    ratio test divided through by e^eps, so nothing overflows), and
    delta(t) = P(B >= t - 1) - e^eps P(B >= t) = b(t - 1) - (e^eps - 1) P(B >= t)
    (no difference of two tails) is taken at t and both neighbours, all from
    one window anchored at t - 2. At t = 1 the window starts at 0 and the
    neighbour t - 1, whose value is -(e^eps - 1), gives way to t + 2.
    """
    t = np.floor((u + 1.0) * p / (p + q / scale)) + 1.0
    masses, tails = _windows(u, p, q, np.maximum(t - 2.0, 0.0))
    return (masses[:, :3] - growth[:, None] * tails[:, 1:]).max(axis=1)


def shift_pair_delta(u, p: float, epsilon):
    """Two-sided hockey-stick divergence between B + 1 and B, B ~ Bin(u, p).

    d_hat of a property query's answer laws over u iid entries, in closed
    form: the likelihood ratio b(a-1)/b(a) = a q / ((u-a+1) p) is monotone,
    so each direction is one tail expression at a threshold, and the
    reflection a -> u + 1 - a maps B against B + 1 to B' + 1 against B',
    B' ~ Bin(u, q). Every (epsilon, direction, u) is one row of one batch of
    tail windows. An array `u` gives the scalar results bit for bit, and a
    1-D epsilon grid adds a leading axis: the result is (grid,) + u's shape.
    """
    u = np.asarray(u, dtype=np.float64)
    grid = as_grid(epsilon)
    if not 0.0 <= p <= 1.0 or not (u >= 0.0).all() or (u != np.floor(u)).any():
        raise DomainError(f"need integer counts u >= 0 and p in [0, 1], got p={p!r}")
    shape = grid.shape + u.shape
    if p in (0.0, 1.0):
        delta = np.ones(shape)  # B and B + 1 are point masses one apart
    else:
        # (p, q) and the reflection (q, p); p = 1/2 is its own reflection
        sides = [(p, 1.0 - p)] if p == 0.5 else [(p, 1.0 - p), (1.0 - p, p)]
        # one row per (direction, epsilon, u), all in one batch of windows
        eps = [min(e, _EXP_CAP) for e in grid.tolist()]
        sizes, sides, grids = np.broadcast_arrays(
            u.reshape(1, 1, -1, 1), np.array(sides)[:, None, None, :],
            np.array([[math.exp(e), math.expm1(e)] for e in eps])[None, :, None, :])
        values = _shift_up_rows(sizes[..., 0].ravel(), *sides.reshape(-1, 2).T,
                                *grids.reshape(-1, 2).T).reshape((len(sides),) + shape)
        delta = np.minimum(np.maximum(values.max(axis=0), 0.0), 1.0)
    if np.ndim(epsilon) == 0:
        delta = delta[0]
    return float(delta) if delta.ndim == 0 else delta


def property_query_answer_law(size: int, p: float, critical_value: int) -> Pmf:
    """Count of positive entries in a database of `size`, given the critical one.

    The critical entry contributes its fixed value; the remaining size - 1
    entries are iid Bernoulli(p).
    """
    if not is_int(size) or size < 1:
        raise DomainError(f"size must be an integer of at least 1, got {size!r}")
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
