import json
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spacct import (
    DomainError,
    ExplicitEntries,
    IidEntries,
    KnownEntries,
    NonadaptiveSpec,
    PartitionLaw,
    Pmf,
    PropertyQuery,
    Scenario,
    TemplateFormat,
    binomial,
    composition_delta,
    d_hat,
    exact_mechanism_law,
    hockey_stick,
    mc_distinguish,
    point,
    property_query_answer_law,
    shift,
    shift_pair_delta,
    spc_general,
    spc_iid,
    spc_known_entries,
    spc_known_entries_threshold_bound,
)
from spacct import CapacityError, curve
from spacct.cli import main
from spacct.curve import _EXP_CAP, _binomial_above, _windows, epsilon_grid, shift_pair_rows
from spacct.distkit import poisson_binomial_rows

from rational_ref import dhat_shift_pair, hockey_stick_dicts, total_variation


def _as_dict(d):
    return dict(d.items())


@st.composite
def random_pmfs(draw):
    """A Pmf on a short support at a small offset, interior zeros allowed."""
    masses = st.sampled_from((0.0, 1e-12, 0.1, 0.3, 1.0, 7.0)) | st.floats(0.0, 1.0)
    weights = draw(st.lists(masses, min_size=1, max_size=12))
    if sum(weights) == 0.0:
        weights[0] = 1.0
    total = math.fsum(weights)
    return Pmf(draw(st.integers(-3, 3)), np.array(weights) / total)


# every grid holds 0 and a point past the e^eps cap
epsilon_grids = st.lists(st.floats(0.0, 5.0) | st.floats(_EXP_CAP, 900.0), max_size=6).map(
    lambda extra: np.array([0.0, *extra, _EXP_CAP + 50.0]))


class TestHockeyStick:
    def test_identical_laws(self):
        d = binomial(6, 0.3)
        for eps in (0.0, 0.1, 2.0):
            assert hockey_stick(d, d, eps) == 0.0

    def test_disjoint_supports(self):
        assert hockey_stick(point(1), point(0), 5.0) == 1.0

    def test_shifted_bernoulli_pair(self):
        p = shift(binomial(1, 0.5), 1)
        q = binomial(1, 0.5)
        assert hockey_stick(p, q, 0.1) == pytest.approx(0.5, abs=1e-15)

    def test_epsilon_zero_is_total_variation(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            t = int(rng.integers(1, 40))
            p, q = rng.uniform(0.05, 0.95, size=2)
            a, b = binomial(t, p), shift(binomial(t, q), int(rng.integers(0, 2)))
            tv = total_variation(_as_dict(a), _as_dict(b))
            assert hockey_stick(a, b, 0.0) == pytest.approx(tv, abs=1e-12)

    def test_rejects_negative_epsilon(self):
        with pytest.raises(DomainError):
            hockey_stick(point(0), point(0), -0.1)

    @given(st.integers(1, 60), st.floats(0.05, 0.95), st.floats(0.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_monotonicity(self, t, p, eps):
        a = shift(binomial(t, p), 1)
        b = binomial(t, p)
        lo = hockey_stick(a, b, eps)
        hi = hockey_stick(a, b, eps + 0.25)
        assert 0.0 <= hi <= lo <= 1.0

    def test_convex_in_exp_epsilon(self):
        a = shift(binomial(30, 0.4), 1)
        b = binomial(30, 0.4)
        lam = np.linspace(1.0, 3.0, 41)
        vals = [hockey_stick(a, b, math.log(x)) for x in lam]
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-12)

    def test_symmetry_at_half(self):
        p1 = property_query_answer_law(64, 0.5, 1)
        p0 = property_query_answer_law(64, 0.5, 0)
        for eps in (0.0, 0.05, 0.4):
            assert hockey_stick(p1, p0, eps) == pytest.approx(
                hockey_stick(p0, p1, eps), abs=1e-12
            )


class TestThresholdForm:
    def test_agrees_with_direct_sum_on_random_binomials(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            t = int(rng.integers(1, 200))
            p = float(rng.uniform(0.02, 0.98))
            eps = float(rng.uniform(0.0, 1.5))
            a = shift(binomial(t, p), 1)
            b = binomial(t, p)
            direct = d_hat({0: b, 1: a}, eps)
            thresh = shift_pair_delta(t, p, eps)
            assert thresh == pytest.approx(direct, abs=1e-12)


def _binom_tail_reference(u: int, p: float, eps: float) -> float:
    """Both directions from scipy.stats.binom tails at the likelihood-ratio
    thresholds (located in the e^eps form) and their neighbours."""
    from scipy.stats import binom

    scale, q = math.exp(eps), 1.0 - p
    a = math.floor(scale * (u + 1) * p / (q + scale * p)) + 1
    up = max(binom.sf(t - 2, u, p) - scale * binom.sf(t - 1, u, p) for t in (a - 1, a, a + 1))
    b = math.ceil((u + 1) * p / (p + scale * q)) - 1
    down = max(binom.cdf(t, u, p) - scale * binom.cdf(t - 1, u, p) for t in (b - 1, b, b + 1))
    return max(up, down)


_KERNEL_PS = (0.0, 1e-9, 0.02, 0.3, 0.5, 0.98, 1.0 - 1e-9, 1.0,
              *np.random.default_rng(41).uniform(0.0, 1.0, size=3).tolist())


class TestShiftPairDelta:
    @given(st.integers(0, 40), st.integers(0, 10**6), st.floats(0.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_rational_reference(self, u, p_millionths, eps):
        p = p_millionths / 10**6
        assert shift_pair_delta(u, p, eps) == pytest.approx(
            dhat_shift_pair(u + 1, p, eps), abs=1e-13)

    @pytest.mark.parametrize("p", _KERNEL_PS)
    def test_matches_d_hat(self, p):
        rng = np.random.default_rng(int(p * 1e6))
        sizes = (0, 1, 2, 3, 17, 40, 255, 1000, 4096, *rng.integers(0, 4097, size=3).tolist())
        grid = (0.0, 0.01, 5.0, 50.0, 700.0, 800.0, *rng.uniform(0.0, 5.0, size=3).tolist())
        for u in sizes:
            base = binomial(u, p)
            for eps in grid:
                direct = d_hat({0: base, 1: shift(base, 1)}, eps)
                assert abs(shift_pair_delta(u, p, eps) - direct) <= 1e-12, (u, p, eps)

    @pytest.mark.parametrize("u,p", [(0, 0.3), (1, 0.3), (5, 0.5), (40, 0.02),
                                     (1000, 0.999), (4096, 1e-4), (31514, 0.99979)])
    def test_huge_epsilon_leaves_only_disjoint_mass(self, u, p):
        # only mass without a counterpart survives; for the last case a threshold
        # written as e^eps (u + 1) p / (q + e^eps p) overflows and would report 0
        expected = max(p**u, (1.0 - p) ** u)
        assert shift_pair_delta(u, p, 800.0) == pytest.approx(expected, rel=1e-12)

    def test_disjoint_supports_give_one(self):
        cases = [(0, 0.3)] + [(u, p) for u in (0, 1, 1 << 24) for p in (0.0, 1.0)]
        for u, p in cases:
            for eps in (0.0, 0.5, 800.0):
                assert shift_pair_delta(u, p, eps) == 1.0, (u, p, eps)

    def test_array_matches_scalar_calls_bit_for_bit(self):
        us = np.concatenate((np.arange(0, 300), [1023, 4095, 32767, 1 << 20]))
        grid = (0.0, 0.1, 3.0, 800.0)
        for p in (0.02, 0.5, 0.77):
            table = shift_pair_delta(us, p, grid)
            assert table.shape == (len(grid), us.size)
            for e, eps in enumerate(grid):
                values = shift_pair_delta(us, p, eps)
                assert values.shape == us.shape
                assert all(values[i] == shift_pair_delta(int(u), p, eps)
                           for i, u in enumerate(us))
                assert table[e].tolist() == values.tolist()
            # a scalar u over the grid gives the grid's values, a 2-D u one row per epsilon
            assert shift_pair_delta(7, p, grid).tolist() == table[:, 7].tolist()
            assert shift_pair_delta(us[:6].reshape(2, 3), p, grid).shape == (len(grid), 2, 3)

    def test_rejects_bad_arguments(self):
        for args in ((4, 1.5, 0.1), (4, float("nan"), 0.1), (-1, 0.5, 0.1), (4, 0.5, -0.1),
                     (2.5, 0.5, 0.1), (float("nan"), 0.5, 0.1)):
            with pytest.raises(DomainError):
                shift_pair_delta(*args)

    # expected: 40-digit sums. scipy's tails lose digits here (5.7e-10 relative
    # at 2^20, 2.8e-7 at 2^24), so they are a coarse cross-check only. abs=0:
    # pytest.approx's default abs=1e-12 would accept any delta below 1e-12.
    # The ids keep the case names these had when they pinned scipy's values.
    @pytest.mark.parametrize("n,expected", [
        pytest.param(1 << 20, 5.478390057137e-11, id="1048576-5.4783900602e-11"),
        pytest.param(1 << 24, 3.881566958177e-98, id="16777216-3.881568031e-98")])
    def test_curve_beyond_the_normalization_ceiling(self, capsys, n, expected):
        code = main(["curve", "--n", str(n), "--p", "0.5", "--eps", "0.01", "--format", "json"])
        assert code == 0
        delta = json.loads(capsys.readouterr().out)["points"][0]["delta"]
        assert delta == pytest.approx(expected, abs=0, rel=1e-12)
        assert delta == pytest.approx(_binom_tail_reference(n - 1, 0.5, 0.01), abs=0, rel=1e-6)


def _mp_above(u: int, p: float, k: int):
    """P(B > k), B ~ Bin(u, p), at 40 digits: the far side of the mean summed
    term by term from its nearest point until the terms stop counting."""
    with mpmath.workdps(40):
        P = mpmath.mpf(p)
        upper = k + 1 >= u * p
        j, step = (k + 1, 1) if upper else (k, -1)
        term = mpmath.binomial(u, j) * P**j * (1 - P) ** (u - j)
        total = mpmath.mpf(0)
        while 0 <= j <= u and term > total * mpmath.mpf(10) ** -30:
            total += term
            term *= (u - j) * P / ((j + 1) * (1 - P)) if step > 0 else j * (1 - P) / ((u - j + 1) * P)
            j += step
        return total if upper else 1 - total


def _window_width(monkeypatch, u, p, a):
    """The width _windows gives the row (u, p, a), read off its capacity
    refusal at a cap of 0 terms."""
    with monkeypatch.context() as patch:
        patch.setattr(curve, "_WINDOW_TERMS", 0)
        with pytest.raises(CapacityError) as info:
            _windows(np.array([u]), np.array([p]), np.array([1.0 - p]), np.array([a]))
    return int(re.search(r"window of (\d+) terms", str(info.value)).group(1))


class TestWindows:
    # u = 6, 1000 and 10^6 in turn, so neighbouring rows differ in width, at
    # p = 0.3 and 0.5 and a at or just above the mean: 12 rows, each four times
    U = np.tile([6.0, 1000.0, 1e6], 16)
    P = np.tile(np.repeat([0.3, 0.5], 3), 8)
    A = np.floor(U * P) + np.repeat([0.0, 2.0], 24)

    @pytest.mark.parametrize("cap", [curve._WINDOW_TERMS, 1 << 13],
                             ids=["one part per width", "several parts per width"])
    def test_interleaved_widths_equal_per_row_calls(self, monkeypatch, cap):
        widths = [_window_width(monkeypatch, *row) for row in zip(self.U, self.P, self.A)]
        assert len(set(widths)) >= 3
        assert all(w != v for w, v in zip(widths, widths[1:]))
        assert 2 * max(widths) > 1 << 13  # so at a cap of 2^13 the widest class takes parts
        monkeypatch.setattr(curve, "_WINDOW_TERMS", cap)
        masses, tails = _windows(self.U, self.P, 1.0 - self.P, self.A)
        for r in range(self.U.size):
            one = [x[r:r + 1] for x in (self.U, self.P, 1.0 - self.P, self.A)]
            mass, tail = _windows(*one)
            assert masses[r].tobytes() == mass[0].tobytes(), r
            assert tails[r].tobytes() == tail[0].tobytes(), r


class TestBinomialTails:
    """_binomial_above against 40-digit sums: within 1e-11 of each tail >= 1e-280."""

    @pytest.mark.parametrize("u", [1, 2, 17, 40, 1000, 4097, 32767, (1 << 20) + 3,
                                   (1 << 24) - 1])
    def test_tails_match_mpmath(self, u):
        rng = np.random.default_rng(u)
        for p in (1e-9, 0.02, 0.3, 0.5, 0.77, 0.999):
            mean, sd = u * p, math.sqrt(u * p * (1 - p))
            ks = np.round(mean + sd * rng.uniform(-40.0, 40.0, 6 if u > 10**5 else 16))
            ks = np.unique(np.clip(np.concatenate((ks, [0, u - 1])), 0, u - 1)).astype(int)
            got = _binomial_above(u, p, ks)
            for k, g in zip(ks.tolist(), got.tolist()):
                want = _mp_above(u, p, k)
                if want >= 1e-280:
                    assert abs(g - want) <= 1e-11 * want, (u, p, k, g, want)

    def test_outside_the_support(self):
        assert _binomial_above(5, 0.3, np.array([-3, -1, 5, 9])).tolist() == [1.0, 1.0, 0.0, 0.0]
        assert _binomial_above(5, 0.0, 0) == 0.0 and _binomial_above(5, 1.0, 4) == 1.0

    def test_agrees_with_betainc(self):
        from scipy.special import betainc

        for u, p in ((30, 0.3), (1000, 0.5), (4096, 0.02)):
            k = np.arange(u)
            want = betainc(k + 1.0, u - k, p)
            np.testing.assert_allclose(_binomial_above(u, p, k), want, rtol=1e-11,
                                       atol=1e-300)


class TestDhat:
    def test_identical_laws(self):
        d = binomial(8, 0.3)
        assert d_hat({0: d, 1: d}, 0.2) == 0.0

    def test_needs_two_values(self):
        with pytest.raises(DomainError):
            d_hat({0: point(0)}, 0.1)

    def test_table1_row32_cell(self):
        laws = {c: property_query_answer_law(1024, 0.5, c) for c in (0, 1)}
        assert d_hat(laws, 0.005) == pytest.approx(0.0225, abs=5e-4)

    def test_table1_row64_cell(self):
        laws = {c: property_query_answer_law(512, 0.5, c) for c in (0, 1)}
        assert d_hat(laws, 0.005) == pytest.approx(0.0329, abs=5e-4)

    @given(laws=st.lists(random_pmfs(), min_size=2, max_size=4),
           eps=st.floats(0.0, 5.0) | st.just(_EXP_CAP + 50.0))
    @example(laws=[binomial(3, 0.2), binomial(3, 0.7)], eps=0.1)
    @settings(max_examples=100, deadline=None)
    def test_asymmetric_pair_takes_max(self, laws, eps):
        # every ordered pair in one batched difference against one call per pair
        expected = max(hockey_stick(a, b, eps)
                       for i, a in enumerate(laws) for j, b in enumerate(laws) if i != j)
        assert d_hat(dict(enumerate(laws)), eps) == expected


class TestPropertyQueryAnswerLaw:
    def test_single_entry(self):
        law = property_query_answer_law(1, 0.7, 1)
        assert law.mass(1) == 1.0

    def test_two_entries_half(self):
        law = property_query_answer_law(2, 0.5, 0)
        np.testing.assert_allclose(law.masses, [0.5, 0.5])

    def test_hand_expansion(self):
        law = property_query_answer_law(4, 0.5, 1)
        assert law.mass(2) == pytest.approx(0.375, abs=1e-15)

    def test_rejects_empty_database(self):
        with pytest.raises(DomainError):
            property_query_answer_law(0, 0.5, 1)


class TestAgainstDirectReference:
    """hockey_stick against the dict-based direct sum of rational_ref, which
    shares no code with the package's positive-part kernel."""

    @given(p=random_pmfs(), q=random_pmfs(), eps=st.floats(0.0, _EXP_CAP))
    @settings(max_examples=200, deadline=None)
    def test_hockey_stick_equals_reference_bit_for_bit(self, p, q, eps):
        assert hockey_stick(p, q, eps) == min(1.0, hockey_stick_dicts(
            dict(p.items()), dict(q.items()), eps))


class TestEpsilonGridEvaluation:
    """An epsilon grid gives, at every point, the scalar call's value bit for bit."""

    @given(p=random_pmfs(), q=random_pmfs(), grid=epsilon_grids)
    @settings(max_examples=150, deadline=None)
    def test_hockey_stick_grid_equals_scalar_calls(self, p, q, grid):
        got = hockey_stick(p, q, grid)
        assert isinstance(got, np.ndarray) and got.shape == grid.shape
        for eps, value in zip(grid.tolist(), got.tolist()):
            assert value == hockey_stick(p, q, eps)

    @given(laws=st.lists(random_pmfs(), min_size=2, max_size=4), grid=epsilon_grids)
    @settings(max_examples=100, deadline=None)
    def test_d_hat_grid_equals_scalar_calls(self, laws, grid):
        by_value = dict(enumerate(laws))
        got = d_hat(by_value, grid)
        for eps, value in zip(grid.tolist(), got.tolist()):
            assert value == d_hat(by_value, eps)

    def test_scalar_epsilon_gives_a_float(self):
        a, b = shift(binomial(5, 0.4), 1), binomial(5, 0.4)
        assert type(hockey_stick(a, b, 0.1)) is float
        assert type(d_hat({0: a, 1: b}, 0.1)) is float
        assert hockey_stick(a, b, [0.1]).shape == (1,)

    def test_rejects_bad_grids(self):
        a = binomial(3, 0.5)
        with pytest.raises(DomainError):
            hockey_stick(a, a, [[0.1, 0.2]])
        with pytest.raises(DomainError):
            d_hat({0: a, 1: shift(a, 1)}, [0.1, -0.2])


def _shift_pair_d_hat(masses, grid):
    base = Pmf(0, masses)
    return d_hat({0: base, 1: shift(base, 1)}, grid)


class TestShiftPairRows:
    """The row-batched divergence against a Pmf and d_hat per row, bit for bit."""

    grid = (0.0, 0.05, 0.3, 1.0, 750.0)

    @given(st.integers(0, 10).flatmap(lambda s: st.lists(
        st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 1.0, 1e-160, 1e-155))),
                 min_size=s, max_size=s),
        min_size=1, max_size=6).map(lambda rows: np.array(rows).reshape(len(rows), s))))
    @settings(max_examples=100, deadline=None)
    def test_equals_d_hat_per_row(self, probs):
        masses = poisson_binomial_rows(probs)
        got = shift_pair_rows(masses, self.grid)
        assert got.shape == (len(self.grid), probs.shape[0])
        for r, row in enumerate(masses):
            assert got[:, r].tolist() == _shift_pair_d_hat(row, self.grid).tolist()

    def test_trimmed_ends_and_interior_zeros(self):
        # ends below SUPPORT_FLOOR are trimmed by Pmf; interior zeros and tiny
        # interior masses are kept
        masses = np.array([[1e-310, 0.25, 0.0, 1e-320, 0.75, 1e-305],
                           [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
                           [1e-301, 0.5, 0.0, 0.0, 0.0, 0.5]])
        got = shift_pair_rows(masses, self.grid)
        for r, row in enumerate(masses):
            assert got[:, r].tolist() == _shift_pair_d_hat(row, self.grid).tolist()
        assert shift_pair_rows(masses, 0.3).shape == (1, 3)

    def test_rows_failing_a_pmf_check_raise(self):
        good = poisson_binomial_rows(np.array([[0.3, 0.6]]))[0]
        with pytest.raises(DomainError, match="sum to"):
            shift_pair_rows(np.array([good, [0.5, 0.4, 0.0]]), 0.1)
        with pytest.raises(DomainError, match="nonnegative"):
            shift_pair_rows(np.array([good, [1.1, -0.1, 0.0]]), 0.1)
        # the first row that fails raises, as a Pmf per row in order would
        with pytest.raises(DomainError, match="sum to"):
            shift_pair_rows(np.array([[0.5, 0.4, 0.0], [1.1, -0.1, 0.0]]), 0.1)


class TestEvalCurve:
    """A privacy curve is d_hat over a strictly increasing epsilon grid."""

    def test_single_point(self):
        laws = {c: property_query_answer_law(16, 0.5, c) for c in (0, 1)}
        assert d_hat(laws, [0.3])[0] == d_hat(laws, 0.3)

    def test_table1_row32_grid(self):
        laws = {c: property_query_answer_law(1024, 0.5, c) for c in (0, 1)}
        deltas = d_hat(laws, epsilon_grid([0.005, 0.01, 0.02]))
        for got, expected in zip(deltas, (0.0225, 0.0203, 0.0163)):
            assert got == pytest.approx(expected, abs=5e-4)

    def test_monotone_deltas(self):
        laws = {c: property_query_answer_law(32, 0.3, c) for c in (0, 1)}
        deltas = d_hat(laws, epsilon_grid([0.0, 0.5, 10.0]))
        assert deltas[-1] <= deltas[0]

    def test_rejects_unsorted_grid(self):
        with pytest.raises(DomainError, match="strictly increasing"):
            epsilon_grid([0.2, 0.1])
        with pytest.raises(DomainError, match="strictly increasing"):
            epsilon_grid([0.1, 0.1])


_IID = Scenario(10, IidEntries(0.5))
_KNOWN = Scenario(10, KnownEntries(0.5, 3, 1))
_EXPLICIT = Scenario(4, ExplicitEntries(((0.2,), (0.8,), (0.5,), (0.3,))), critical_index=2)
_RESTRICTED = PartitionLaw(4, TemplateFormat((2, 2)), restriction=(2, 1))
_SPLIT = NonadaptiveSpec(TemplateFormat((5, 5)), (PropertyQuery(), PropertyQuery()))
_TINY = Scenario(2, IidEntries(0.5))
_TINY_SPEC = NonadaptiveSpec(TemplateFormat((2,)), (PropertyQuery(),))
_B4 = binomial(4, 0.5)

# every library entry point that takes an epsilon; the grid-capable ones also
# get a grid with one bad point
EPSILON_ENTRY_POINTS = {
    "spc_iid": (lambda e: spc_iid(_IID, 5, e), True),
    "composition_delta": (lambda e: composition_delta(_IID, _SPLIT, e), True),
    "hockey_stick": (lambda e: hockey_stick(shift(_B4, 1), _B4, e), True),
    "d_hat": (lambda e: d_hat({0: _B4, 1: shift(_B4, 1)}, e), True),
    "shift_pair_rows": (lambda e: shift_pair_rows(
        poisson_binomial_rows(np.array([[0.5] * 4])), e), True),
    "shift_pair_delta": (lambda e: shift_pair_delta(4, 0.5, e), True),
    "exact_mechanism_law.delta": (lambda e: exact_mechanism_law(_TINY, _TINY_SPEC).delta(e), True),
    "mc_distinguish": (lambda e: mc_distinguish(_TINY, _TINY_SPEC, e, 1000, 0), True),
    "spc_known_entries": (lambda e: spc_known_entries(_KNOWN, 5, e), True),
    "spc_known_entries_threshold_bound": (
        lambda e: spc_known_entries_threshold_bound(_KNOWN, 5, e, 1), True),
    "spc_general": (lambda e: spc_general(_EXPLICIT, _RESTRICTED, PropertyQuery(), e), True),
}


class TestEpsilonGate:
    """A NaN or negative epsilon raises DomainError at every entry point; it
    never reads as a delta."""

    @pytest.mark.parametrize("name,bad", [
        pytest.param(name, bad, id=f"{name}-{label}")
        for name, (_, grid_ok) in EPSILON_ENTRY_POINTS.items()
        for label, bad in (("nan", math.nan), ("negative", -0.5),
                           *([("nan-in-grid", [0.1, math.nan])] if grid_ok else []))])
    def test_invalid_epsilon_raises(self, name, bad):
        call = EPSILON_ENTRY_POINTS[name][0]
        call(0.1)  # the same call with a valid epsilon goes through
        with pytest.raises(DomainError, match="epsilon must be nonnegative"):
            call(bad)

    @pytest.mark.parametrize("name", [name for name, (_, grid_ok) in EPSILON_ENTRY_POINTS.items()
                                      if grid_ok])
    def test_empty_grid_raises(self, name):
        # a grid of no points used to end in an IndexError or an empty result
        with pytest.raises(DomainError, match="epsilon grid must be nonempty"):
            EPSILON_ENTRY_POINTS[name][0]([])
