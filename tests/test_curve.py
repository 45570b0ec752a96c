import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacct import (
    DomainError,
    Pmf,
    binomial,
    d_hat,
    eval_curve,
    hockey_stick,
    point,
    property_query_answer_law,
    shift,
    shift_pair_delta,
)
from spacct.cli import main
from spacct.curve import _EXP_CAP, CurvePoint, PrivacyCurve, shift_pair_rows
from spacct.distkit import poisson_binomial_rows

from rational_ref import dhat_shift_pair, total_variation


def _as_dict(d):
    return dict(d.items())


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
        for p in (0.02, 0.5, 0.77):
            for eps in (0.0, 0.1, 3.0, 800.0):
                values = shift_pair_delta(us, p, eps)
                assert values.shape == us.shape
                assert all(values[i] == shift_pair_delta(int(u), p, eps)
                           for i, u in enumerate(us))

    def test_rejects_bad_arguments(self):
        for args in ((4, 1.5, 0.1), (4, float("nan"), 0.1), (-1, 0.5, 0.1), (4, 0.5, -0.1)):
            with pytest.raises(DomainError):
                shift_pair_delta(*args)

    @pytest.mark.parametrize("n,expected", [(1 << 20, 5.4783900602e-11),
                                            (1 << 24, 3.881568031e-98)])
    def test_curve_beyond_the_normalization_ceiling(self, capsys, n, expected):
        code = main(["curve", "--n", str(n), "--p", "0.5", "--eps", "0.01", "--format", "json"])
        assert code == 0
        delta = json.loads(capsys.readouterr().out)["points"][0]["delta"]
        assert delta == pytest.approx(expected, rel=1e-10)
        assert delta == pytest.approx(_binom_tail_reference(n - 1, 0.5, 0.01), rel=1e-9)


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

    def test_asymmetric_pair_takes_max(self):
        a, b = binomial(3, 0.2), binomial(3, 0.7)
        expected = max(hockey_stick(a, b, 0.1), hockey_stick(b, a, 0.1))
        assert d_hat({0: a, 1: b}, 0.1) == expected


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
    def test_single_point(self):
        laws = {c: property_query_answer_law(16, 0.5, c) for c in (0, 1)}
        curve = eval_curve(laws, [0.3])
        assert curve.points[0].delta == d_hat(laws, 0.3)

    def test_table1_row32_grid(self):
        laws = {c: property_query_answer_law(1024, 0.5, c) for c in (0, 1)}
        curve = eval_curve(laws, [0.005, 0.01, 0.02])
        for got, expected in zip(curve.deltas(), (0.0225, 0.0203, 0.0163)):
            assert got == pytest.approx(expected, abs=5e-4)

    def test_monotone_deltas(self):
        laws = {c: property_query_answer_law(32, 0.3, c) for c in (0, 1)}
        curve = eval_curve(laws, [0.0, 0.5, 10.0])
        assert curve.deltas()[-1] <= curve.deltas()[0]

    def test_rejects_unsorted_grid(self):
        laws = {c: property_query_answer_law(8, 0.5, c) for c in (0, 1)}
        with pytest.raises(DomainError):
            eval_curve(laws, [0.2, 0.1])


class TestCurveTypes:
    def test_point_validation(self):
        with pytest.raises(DomainError):
            CurvePoint(-1.0, 0.5)
        with pytest.raises(DomainError):
            CurvePoint(0.0, 1.5)

    def test_curve_validation(self):
        with pytest.raises(DomainError):
            PrivacyCurve((CurvePoint(0.0, 0.2), CurvePoint(1.0, 0.5)))
        with pytest.raises(DomainError):
            PrivacyCurve((CurvePoint(1.0, 0.2), CurvePoint(1.0, 0.1)))

    def test_delta_at(self):
        curve = PrivacyCurve((CurvePoint(0.0, 0.5), CurvePoint(1.0, 0.1)))
        assert curve.delta_at(0.5) == 0.5
        assert curve.delta_at(1.5) == 0.1
