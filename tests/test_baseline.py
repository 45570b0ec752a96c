import functools
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from spacct import (
    CapacityError,
    DomainError,
    gaussian_sigma_for,
    max_dp_queries,
    mse_increase,
)
from spacct import baseline
from spacct.baseline import (
    KOV_WINDOWS,
    MAX_QUERIES,
    _DeltaGrid,
    _kov_first_feasible,
    _kov_sum_meets,
    _kov_total,
    _kov_verdicts,
    _kov_window,
    _log_factorials,
)
from spacct.distkit import _log_factorial
from spacct.tables import TABLE1, TABLE2, compute_table

from rational_ref import (_kov_achieves, _kov_terms, kov_compose, kov_dhat, kov_total_delta,
                          max_dp_queries_rowwise)


class TestMseIncrease:
    def test_full_sample_is_zero(self):
        fig = mse_increase(100, 100, 0.3)
        assert fig.mse_increase == 0.0 and fig.sigma_increase == 0.0

    def test_table1_sigma(self):
        assert mse_increase(32768, 1024, 0.5).sigma_increase == pytest.approx(0.0153, abs=1e-4)

    def test_table2_sigma(self):
        assert mse_increase(1024, 32, 0.5).sigma_increase == pytest.approx(0.0869, abs=1e-4)

    def test_sigma_is_sqrt_mse(self):
        fig = mse_increase(50, 10, 0.4)
        assert fig.sigma_increase == math.sqrt(fig.mse_increase)

    def test_rejects_oversized_sample(self):
        with pytest.raises(DomainError):
            mse_increase(10, 11, 0.5)

    @pytest.mark.parametrize("n, s", [(10, 2.5), (True, True), (math.inf, 3), (10.0, 2),
                                      (10, np.float64(4.0))],
                             ids=["fractional s", "bools", "infinite n", "float n", "numpy float s"])
    def test_sizes_must_be_counts(self, n, s):
        with pytest.raises(DomainError, match="integers"):
            mse_increase(n, s, 0.3)

    def test_numpy_integer_sizes_are_taken(self):
        assert mse_increase(np.int64(1024), np.int64(32), 0.5) == mse_increase(1024, 32, 0.5)


class TestGaussianSigma:
    def test_formula_value(self):
        assert gaussian_sigma_for(1.0, 0.05, 1.0) == pytest.approx(math.sqrt(2 * math.log(25)), rel=1e-12)

    def test_linear_in_sensitivity(self):
        a = gaussian_sigma_for(0.5, 0.01, 1.0)
        b = gaussian_sigma_for(0.5, 0.01, 2.0)
        assert b == pytest.approx(2 * a, rel=1e-12)

    @pytest.mark.parametrize("delta0", [5e-324, 1e-310, 7e-309])
    def test_delta_below_the_overflow_of_its_reciprocal(self, delta0):
        # 1.25 / delta0 overflows here; the noise scale is still finite
        want = float(mpmath.sqrt(2 * mpmath.log(mpmath.mpf(1.25) / mpmath.mpf(delta0))))
        assert gaussian_sigma_for(1.0, delta0, 1.0) == pytest.approx(want, rel=1e-15)

    def test_decreasing_in_epsilon_and_delta(self):
        base = gaussian_sigma_for(0.5, 0.01, 1.0)
        assert gaussian_sigma_for(1.0, 0.01, 1.0) < base
        assert gaussian_sigma_for(0.5, 0.05, 1.0) < base

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            gaussian_sigma_for(0.0, 0.01, 1.0)
        with pytest.raises(DomainError):
            gaussian_sigma_for(0.5, 1.0, 1.0)
        for args in ((math.nan, 0.01, 0.1), (0.5, math.nan, 0.1), (0.5, 0.01, math.nan)):
            with pytest.raises(DomainError):
                gaussian_sigma_for(*args)


class TestKovCompose:
    """The test reference's KOV curve, whose points the DP search decides on."""

    def test_single_query(self):
        curve = kov_compose(0.3, 0.01, 1)
        assert len(curve) == 1
        eps, delta = curve[0]
        assert eps == pytest.approx(0.3) and delta == pytest.approx(0.01, rel=1e-12)

    def test_top_point_is_pure_delta_union(self):
        for k in (1, 3, 8):
            eps, delta = kov_compose(0.2, 0.02, k)[-1]
            assert eps == pytest.approx(k * 0.2)
            assert delta == pytest.approx(1 - (1 - 0.02) ** k, rel=1e-12)

    def test_two_fold_closed_form_at_zero(self):
        eps, delta = kov_compose(0.1, 0.0, 2)[0]
        assert eps == 0.0
        closed = (math.exp(0.1) - 1) / (math.exp(0.1) + 1)
        assert delta == pytest.approx(closed, rel=1e-12)

    def test_point_count_and_ordering(self):
        curve = kov_compose(0.05, 0.001, 9)
        assert len(curve) == 5
        eps = [e for e, _ in curve]
        assert eps == sorted(eps)
        deltas = [d for _, d in curve]
        assert all(b <= a + 1e-15 for a, b in zip(deltas, deltas[1:]))

    def test_dominated_by_advanced_composition(self):
        # the optimal curve can never sit above the classical advanced
        # composition guarantee at the same epsilon
        for eps0 in (0.01, 0.1, 0.3):
            for delta0 in (0.0, 1e-6, 1e-3):
                for k in (2, 5, 11, 24):
                    for eps, delta in kov_compose(eps0, delta0, k):
                        drift = k * eps0 * (math.exp(eps0) - 1)
                        if eps <= drift:
                            continue  # advanced composition gives nothing here
                        z = (eps - drift) / (eps0 * math.sqrt(2 * k))
                        adv = min(1.0, k * delta0 + math.exp(-z * z))
                        assert delta <= adv + 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            kov_compose(0.1, 0.01, 0)
        with pytest.raises(DomainError):
            kov_compose(0.0, 0.01, 2)
        for args in ((math.nan, 0.01, 3), (0.1, math.nan, 3)):
            with pytest.raises(DomainError):
                kov_compose(*args)


class TestMaxDpQueries:
    def test_table1_zero_cell(self):
        cal = max_dp_queries(0.005, 0.0225, 0.0153, 32768)
        assert cal.k_max == 0
        assert cal.sensitivity == pytest.approx(1 / 32768)
        assert cal.gaussian_sigma == 0.0153

    def test_monotone_in_sigma(self):
        lo = max_dp_queries(0.02, 0.0163, 0.0153, 32768).k_max
        hi = max_dp_queries(0.02, 0.0163, 0.0306, 32768).k_max
        assert hi >= lo

    def test_monotone_in_targets(self):
        strict = max_dp_queries(0.005, 0.0225, 0.0153, 32768).k_max
        loose = max_dp_queries(0.02, 0.0225, 0.0153, 32768).k_max
        assert loose >= strict

    def test_calibration_is_consistent(self):
        cal = max_dp_queries(0.02, 0.0163, 0.0153, 32768)
        assert cal.k_max >= 1
        # the reported per-query epsilon matches the noise formula
        expected = (1 / 32768) * math.sqrt(2 * math.log(1.25 / cal.per_query_delta)) / 0.0153
        assert cal.per_query_epsilon == pytest.approx(expected, rel=1e-12)

    def test_per_query_epsilon_is_the_noise_formula_bit_for_bit(self):
        # gaussian_sigma_for(sigma, d0, sens) is the calibration with eps0 and
        # sigma in each other's place, so the TABLE_DP integers do not move
        for d0 in (0.0163 * 1e-6, 1e-9, 0.0163 * 0.999):
            inline = (1 / 32768) * math.sqrt(2.0 * math.log(1.25 / d0)) / 0.0153
            assert gaussian_sigma_for(0.0153, d0, 1 / 32768) == inline
        cal = max_dp_queries(0.02, 0.0163, 0.0153, 32768)
        assert cal.per_query_epsilon == \
            (1 / 32768) * math.sqrt(2.0 * math.log(1.25 / cal.per_query_delta)) / 0.0153

    def test_diagnostic_against_recorded_cell(self, capsys):
        # the recorded value for this cell is 9; the grid-optimized search is
        # an upper-bounding reading of an under-specified pipeline, so the
        # deviation is reported rather than asserted
        cal = max_dp_queries(0.02, 0.0163, 0.0153, 32768)
        slack = max(2.0, 0.5 * 9)
        agrees = abs(cal.k_max - 9) <= slack
        print(f"dp-queries diagnostic: computed {cal.k_max}, recorded 9, "
              f"within tolerance: {agrees}")
        assert cal.k_max >= 1

    def test_rejects_bad_sigma(self):
        with pytest.raises(DomainError):
            max_dp_queries(0.01, 0.01, 0.0, 100)

    def test_rejects_non_finite_targets(self):
        for args in ((math.nan, 0.01, 0.01), (0.01, math.nan, 0.01), (math.inf, 0.01, 0.01),
                     (0.01, 0.01, math.inf)):
            with pytest.raises(DomainError, match="finite"):
                max_dp_queries(*args, 100)

    @pytest.mark.parametrize("delta", [5e-324, 1e-320, sys.float_info.min / 2])
    def test_rejects_subnormal_target_delta(self, delta):
        # target_delta * 1e-6, the bottom of the delta0 grid, underflows
        with pytest.raises(DomainError, match="subnormal"):
            max_dp_queries(0.0, delta, 1.0, 1)

    def test_smallest_normal_target_delta_is_accepted(self):
        assert max_dp_queries(0.0, sys.float_info.min, 1.0, 1).k_max >= 0

    def test_grid_points_below_the_reciprocal_overflow_calibrate_finitely(self, monkeypatch):
        # the delta0 grid of this target reaches below 7e-309, where 1.25 / delta0
        # overflowed, warned and calibrated with eps0 = inf
        probed = []

        def spy(grid, k, *targets):
            probed.extend(zip(grid.epsilon0.tolist(), grid.delta0.tolist()))
            return _kov_first_feasible(grid, k, *targets)

        monkeypatch.setattr(baseline, "_kov_first_feasible", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cal = max_dp_queries(0.0, 2.2250738585072014e-308, 1.0, 1)
        assert math.isfinite(cal.per_query_epsilon)
        assert any(d0 < 7e-309 for _, d0 in probed)
        assert all(math.isfinite(e0) for e0, _ in probed)

    def test_search_stops_at_the_query_ceiling(self, monkeypatch):
        # every count meets a target this loose; the search must refuse
        # rather than report a count beyond MAX_QUERIES
        probed = []

        def spy(grid, k, *targets):
            probed.extend(k.tolist())
            return _kov_first_feasible(grid, k, *targets)

        monkeypatch.setattr(baseline, "_kov_first_feasible", spy)
        with pytest.raises(CapacityError, match=str(MAX_QUERIES)):
            max_dp_queries(1e7, 0.999, 1.0, 10)
        assert max(probed) == MAX_QUERIES


class TestTableDpColumns:
    """The #DP integers of Tables 1 and 2 as spacct 0.1.0 computed them."""

    @pytest.mark.parametrize("spec, want", [
        (TABLE1, (0, 29, 40, 138, 121, 135, 537, 588, 586, 2063, 2132, 2067, 7891, 7949, 8045)),
        (TABLE2, (39, 50, 50, 155, 175, 175, 676, 685, 721)),
    ], ids=["table1", "table2"])
    def test_k_max_integers(self, spec, want):
        assert tuple(cell.dp_queries for cell in compute_table(spec)) == want


def reference_achieves(epsilon0, delta0, k, target_epsilon, target_delta):
    """The search's decision from the fsum total, as before the certified sum."""
    if k * epsilon0 <= target_epsilon:
        i = 0
    else:
        i = math.ceil((k - target_epsilon / epsilon0) / 2.0)
        if i > k // 2:
            return False
    return kov_total_delta(epsilon0, delta0, k, i) <= target_delta


def inline_gammaln_dhat(epsilon0, k, i, log_factorial=lambda x: gammaln(x + 1.0)):
    """kov_dhat as written before the log-factorial table, with log(x!) from
    `log_factorial` (scipy's gammaln by default)."""
    if i == 0:
        return 0.0
    log_denom = k * float(np.logaddexp(0.0, epsilon0))
    l = np.arange(i, dtype=np.float64)
    log_comb = log_factorial(k + 0.0) - log_factorial(l) - log_factorial(k - l)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        base = np.exp(log_comb + (k - 2.0 * i + l) * epsilon0 - log_denom)
        terms = base * np.expm1((2.0 * i - 2.0 * l) * epsilon0)
    return float(math.fsum(terms.tolist()))


def mpmath_total_delta(epsilon0, delta0, k, i):
    with mpmath.workdps(40):
        e0 = mpmath.mpf(epsilon0)
        dhat = mpmath.fsum(
            mpmath.binomial(k, l) * (mpmath.exp((k - l) * e0) - mpmath.exp((k - 2 * i + l) * e0))
            for l in range(i)) / (1 + mpmath.exp(e0)) ** k
        return float(1 - (1 - mpmath.mpf(delta0)) ** k * (1 - dhat))


class TestKovTerms:
    def test_log_factorial_table_is_gammaln(self):
        # within 4 ulp of 40-digit log(j!) on 0..1999 and 3000 random j < 2^20
        # (scipy's gammaln reaches 2.6 ulp on this sample, math.lgamma 1.7)
        n = (1 << 20) + 3
        table = _log_factorials(n)
        assert len(table) >= n and not table.flags.writeable
        rng = np.random.default_rng(20)
        points = np.concatenate((np.arange(2000), rng.integers(2000, 1 << 20, 3000)))
        with mpmath.workdps(40):
            for j, got in zip(points.tolist(), table[points].tolist()):
                want = mpmath.loggamma(j + 1)
                assert abs(got - want) <= 4 * math.ulp(float(want)), (j, got, want)

    @pytest.mark.parametrize("epsilon0, k", [
        (0.3, 1), (0.2, 8), (0.05, 9), (0.01, 24), (0.02, 400), (0.001, 3000),
        (0.004, 8000), (0.5, 3000), (2.0, 500),
    ])
    def test_dhat_equals_the_inline_gammaln_formula(self, epsilon0, k):
        # bit for bit with the inline formula over the table's log(j!) wherever
        # that formula is finite; where it is NaN (0 * inf beyond
        # (2i - 2l) eps0 ~ 709), the new value is a probability. scipy's gammaln
        # in the same formula agrees to the rounding of log(k!), whose ulp is
        # 7.3e-12 at k = 8000 (6.4e-12 relative is the largest gap seen)
        tol = 16 * math.ulp(math.lgamma(k + 1.0)) + 1e-15
        for i in range(0, k // 2 + 1, max(1, k // 300)):
            old = inline_gammaln_dhat(epsilon0, k, i, _log_factorial)
            new, reference = kov_dhat(epsilon0, k, i), inline_gammaln_dhat(epsilon0, k, i)
            if math.isnan(old):
                assert 0.0 <= new <= 1.0 + 1e-9
            else:
                assert new == old
            if math.isfinite(reference):
                assert abs(new - reference) <= tol * reference

    @pytest.mark.parametrize("i", [710, 760, 850, 1000, 1105, 1200, 1350, 1500])
    def test_overflowing_terms_match_mpmath(self, i):
        # kov_compose(0.5, 1e-6, 3000) read delta = 1.0 at all 791 points from
        # i = 710 on. The log-gamma terms carry a relative error of a few 1e-12
        # at this k: log(3000!) ~ 2.1e4 is itself rounded by up to 1.8e-12.
        got = kov_total_delta(0.5, 1e-6, 3000, i)
        assert got == pytest.approx(mpmath_total_delta(0.5, 1e-6, 3000, i), rel=1e-11)


class TestCertifiedDecision:
    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(1, 30_000),
           epsilon0=st.floats(1e-4, 0.05),
           delta0=st.one_of(st.just(0.0), st.floats(1e-12, 1e-3)),
           point=st.floats(0.0, 1.0),
           rel=st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6,
                                0.1, -0.1]),
           step=st.sampled_from([0, 1, -1]))
    def test_equals_the_fsum_decision(self, k, epsilon0, delta0, point, rel, step):
        target_epsilon = (k - 2 * round(point * (k // 2))) * epsilon0
        i = math.ceil((k - target_epsilon / epsilon0) / 2.0)
        target_delta = kov_total_delta(epsilon0, delta0, k, min(max(i, 0), k // 2)) * (1 + rel)
        if step:
            target_delta = float(np.nextafter(target_delta, step * np.inf))
        assert _kov_achieves(epsilon0, delta0, k, target_epsilon, target_delta) \
            == reference_achieves(epsilon0, delta0, k, target_epsilon, target_delta)

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(2, 30_000),
           epsilon0=st.floats(1e-4, 0.05),
           delta0=st.one_of(st.just(0.0), st.floats(1e-12, 1e-3)),
           point=st.floats(0.0, 1.0),
           rel=st.sampled_from([0.0, 1e-12, -1e-12]),
           step=st.sampled_from([0, 1, -1]))
    def test_finisher_equals_the_scalar_probe(self, k, epsilon0, delta0, point, rel, step):
        # on a row that passes the gates, with the target at the fsum total, one
        # ulp either side of it or 1e-12 relative from it
        target_epsilon = (k - 2 * round(point * (k // 2))) * epsilon0
        i = math.ceil((k - target_epsilon / epsilon0) / 2.0)
        target_delta = kov_total_delta(epsilon0, delta0, k, min(max(i, 0), k // 2)) * (1 + rel)
        if step:
            target_delta = float(np.nextafter(target_delta, step * np.inf))
        i = gated_index(epsilon0, delta0, k, target_epsilon, target_delta)
        assume(i is not None)
        assert _kov_sum_meets(_DeltaGrid.of([delta0], [epsilon0]), 0, k, i, target_delta) \
            == _kov_achieves(epsilon0, delta0, k, target_epsilon, target_delta)

    def test_target_at_the_fsum_total_takes_the_fallback(self, monkeypatch):
        # the curve index of target epsilon 1.0 at this eps0 and k is 490
        epsilon0, delta0, k = 0.05, 1e-6, 1000
        total = kov_total_delta(epsilon0, delta0, k, 490)
        assert 0.1 < total < 0.9
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda xs: calls.append(1) or fsum(xs))
        grid = _DeltaGrid.of([delta0], [epsilon0])
        assert _kov_sum_meets(grid, 0, k, 490, total)
        assert not _kov_sum_meets(grid, 0, k, 490, float(np.nextafter(total, 0.0)))
        assert len(calls) == 2


class TestSearchReading:
    """#DP is the boundary the doubling/bisection search lands on, not the
    largest feasible count: KOV feasibility is not monotone in k."""

    def test_table2_m32_eps005_feasible_set(self):
        cell = next(c for c in compute_table(TABLE2, with_dp=False)
                    if c.m == 32 and c.epsilon == 0.05)
        eps, delta, sigma, n = cell.epsilon, cell.delta_sp, cell.sigma, TABLE2.n
        grid = np.logspace(math.log10(delta * 1e-6), math.log10(delta * 0.999),
                           baseline.DELTA0_GRID_POINTS)

        def feasible(k):
            return any(_kov_achieves((1.0 / n) * math.sqrt(2.0 * math.log(1.25 / d0)) / sigma,
                                     d0, k, eps, delta) for d0 in grid.tolist())

        assert [k for k in range(1, 61) if feasible(k)] == \
            list(range(1, 40)) + [41, 43, 45, 47, 49]
        assert max_dp_queries(eps, delta, sigma, n).k_max == 39


# The table cells' searches and the `dp-compare` points of tests/golden.py:
# the largest count (70,862), a tight target, the query ceiling (exit 3) and
# the smallest normal target delta, whose grid reaches subnormal delta0.
TABLE_SEARCHES = [(c.epsilon, c.delta_sp, c.sigma, spec.n) for spec in (TABLE1, TABLE2)
                  for c in compute_table(spec, with_dp=False)]
DP_COMPARE_SEARCHES = [(5.0, 0.3, 0.5, 1000), (0.1, 1e-5, 0.01, 10000), (1e7, 0.999, 1.0, 10),
                       (0.0, 2.2250738585072014e-308, 1.0, 1)]


def search_grid(target_delta, sigma, n):
    """The delta0 grid max_dp_queries builds for these arguments."""
    delta0 = np.logspace(math.log10(target_delta * 1e-6), math.log10(target_delta * 0.999),
                         baseline.DELTA0_GRID_POINTS).tolist()
    return _DeltaGrid.of(delta0, [gaussian_sigma_for(sigma, d0, 1.0 / n) for d0 in delta0])


def scalar_verdicts(grid, k, target_epsilon, target_delta):
    return [_kov_achieves(e0, d0, k, target_epsilon, target_delta)
            for e0, d0 in zip(grid.epsilon0.tolist(), grid.delta0.tolist())]


def per_row(k, target_epsilon, target_delta, rows=baseline.DELTA0_GRID_POINTS):
    """One search's query count and targets, repeated for every row of its grid."""
    return (np.full(rows, k), np.full(rows, float(target_epsilon)),
            np.full(rows, float(target_delta)))


def gated_index(epsilon0, delta0, k, target_epsilon, target_delta):
    """The curve index i that _kov_achieves sums to, or None when one of its
    gates decides the row before any term is summed."""
    if k * epsilon0 <= target_epsilon:
        return None
    i = math.ceil((k - target_epsilon / epsilon0) / 2.0)
    if i > k // 2 or _kov_total(0.0, delta0, k) > target_delta:
        return None
    return i


class TestBatchedProbe:
    """The one-pass decision over the delta0 grid against the scalar
    _kov_achieves, row by row, and the search against the row-by-row loop."""

    @pytest.mark.parametrize("args", TABLE_SEARCHES + DP_COMPARE_SEARCHES,
                             ids=lambda args: "-".join(map(repr, args)))
    def test_search_equals_the_rowwise_loop(self, args):
        try:
            want = max_dp_queries_rowwise(*args)
        except CapacityError:
            with pytest.raises(CapacityError, match=str(MAX_QUERIES)):
                max_dp_queries(*args)
        else:
            assert max_dp_queries(*args) == want

    def test_overflowing_arguments_warn_nowhere(self):
        # k * eps0 and the KOV exponents overflow at eps0 ~ 2.5e307; those rows
        # go to the fsum finisher, and the suite turns any RuntimeWarning into an error
        args = (1e308, 0.5, 1e-307, 1)
        assert max_dp_queries(*args) == max_dp_queries_rowwise(*args)
        assert max_dp_queries(*args).k_max == 10

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 30_000),
           target_delta=st.floats(1e-9, 0.5),
           sigma=st.floats(1e-3, 1.0),
           n=st.sampled_from([10, 100, 1000, 32768]),
           row=st.integers(0, 63),
           point=st.floats(0.0, 1.0),
           rel=st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9]),
           step=st.sampled_from([0, 1, -1]))
    def test_verdicts_equal_the_scalar_decision(self, k, target_delta, sigma, n, row, point,
                                                rel, step):
        # the target pair sits on the curve of one row, at or within an ulp or
        # a relative 1e-15..1e-9 of its fsum total
        grid = search_grid(target_delta, sigma, n)
        e0, d0 = float(grid.epsilon0[row]), float(grid.delta0[row])
        target_epsilon = (k - 2 * round(point * (k // 2))) * e0
        i = math.ceil((k - target_epsilon / e0) / 2.0)
        target = kov_total_delta(e0, d0, k, min(max(i, 0), k // 2)) * (1 + rel)
        if step:
            target = float(np.nextafter(target, step * np.inf))
        target = min(target, 0.999)
        want = scalar_verdicts(grid, k, target_epsilon, target)
        got, index = _kov_verdicts(grid, *per_row(k, target_epsilon, target))
        assert all(v == -1 or bool(v) == w for v, w in zip(got.tolist(), want))
        for r in np.flatnonzero(got == -1).tolist():
            # an open row carries the index the scalar probe would have summed to
            assert index[r] == gated_index(float(grid.epsilon0[r]), float(grid.delta0[r]), k,
                                           target_epsilon, target)
        [first] = _kov_first_feasible(grid, np.array([k]), np.array([target_epsilon]),
                                      np.array([target]))
        assert first == (want.index(True) if any(want) else None)

    @pytest.mark.parametrize("epsilon0, k, skip, width", [
        pytest.param(epsilon0, k, skip, width, id=f"{epsilon0!r}-{k}{window}")
        for window, skip, width in [("", 0, KOV_WINDOWS[0]), ("-wide", 0, KOV_WINDOWS[1]),
                                    ("-second", *KOV_WINDOWS)]
        for epsilon0, k in [(0.3, 1), (0.2, 8), (0.05, 130), (0.01, 400), (0.001, 3000),
                            (2.0, 500), (0.5, 3000)]
    ])
    def test_window_terms_are_the_scalar_terms(self, epsilon0, k, skip, width):
        # every count i from 1 to k // 2, in rows of one grid whose epsilons
        # differ, including the lanes past gap ~ 709 (eps0 = 2 and 0.5); the
        # second stage's window holds the terms from i - width up to i - skip
        i = np.arange(1, k // 2 + 1)
        scale = epsilon0 * (1.0 + np.arange(len(i)) / len(i))
        grid = _DeltaGrid.of([1e-6] * len(i), scale.tolist())
        window = _kov_window(grid, np.arange(len(i)), np.full(len(i), k), i, skip, width)
        span = width - skip
        assert window.shape == (len(i), span)
        for row, (e0, ii) in enumerate(zip(scale.tolist(), i.tolist())):
            terms = _kov_terms(e0, k, ii)[max(ii - width, 0):max(ii - skip, 0)]
            assert window[row, :span - len(terms)].tolist() == [0.0] * (span - len(terms))
            assert window[row, span - len(terms):].tobytes() == terms.tobytes()

    def test_every_decision_path_runs(self, monkeypatch):
        # over the table searches: rows each window rejects, rows each window
        # accepts as their whole sum, and rows left open for the whole-sum finisher
        counts = {"gate": 0, "first rejects": 0, "first accepts": 0, "second rejects": 0,
                  "second accepts": 0, "open": 0, "finisher": 0}
        second = set()

        def window_spy(grid, rows, k, i, skip, width):
            if skip:
                second.update(rows.tolist())
            return _kov_window(grid, rows, k, i, skip, width)

        def verdicts_spy(grid, k, target_epsilon, target_delta):
            second.clear()
            got = _kov_verdicts(grid, k, target_epsilon, target_delta)
            rows = zip(grid.epsilon0.tolist(), grid.delta0.tolist(), k.tolist(),
                       target_epsilon.tolist(), target_delta.tolist(), got[0].tolist())
            for r, (e0, d0, kk, te, td, v) in enumerate(rows):
                i = gated_index(e0, d0, kk, te, td)
                stage = "second" if r in second else "first"
                if i is None:
                    counts["gate"] += 1
                elif v == 0:
                    counts[f"{stage} rejects"] += 1
                elif v == 1:
                    assert i <= KOV_WINDOWS[stage == "second"]
                    counts[f"{stage} accepts"] += 1
                else:
                    counts["open"] += 1
            return got

        def finisher_spy(*args):
            counts["finisher"] += 1
            return _kov_sum_meets(*args)

        monkeypatch.setattr(baseline, "_kov_window", window_spy)
        monkeypatch.setattr(baseline, "_kov_verdicts", verdicts_spy)
        monkeypatch.setattr(baseline, "_kov_sum_meets", finisher_spy)
        baseline._max_dp_queries_of(TABLE_SEARCHES)
        assert all(counts.values()), counts
        assert counts["finisher"] <= counts["open"]


OVERFLOW_SEARCH = (1e308, 0.5, 1e-307, 1)
# every search above that finds its count; the third dp-compare point hits the ceiling
BATCH_SEARCHES = [args for args in TABLE_SEARCHES + DP_COMPARE_SEARCHES
                  if args != (1e7, 0.999, 1.0, 10)] + [OVERFLOW_SEARCH]


def batch(cells):
    """The lockstep search over `cells`, as compute_table runs it."""
    return baseline._max_dp_queries_of(cells)


class TestBatchedSearch:
    """One lockstep search for many cells, each cell's calibration equal to
    its own max_dp_queries call."""

    def test_batch_equals_the_rowwise_loop(self):
        got = batch(BATCH_SEARCHES)
        assert len(got) == len(BATCH_SEARCHES) == 28
        assert batch([]) == []
        for args, cal in zip(BATCH_SEARCHES, got):
            assert cal == max_dp_queries_rowwise(*args), args

    def test_a_cell_at_the_query_ceiling_stops_the_batch(self):
        with pytest.raises(CapacityError, match=str(MAX_QUERIES)):
            batch(TABLE_SEARCHES[:3] + [(1e7, 0.999, 1.0, 10)] + TABLE_SEARCHES[3:5])

    @settings(max_examples=25, deadline=None)
    @given(cells=st.lists(st.sampled_from(
        TABLE_SEARCHES + [DP_COMPARE_SEARCHES[1], DP_COMPARE_SEARCHES[3], OVERFLOW_SEARCH]),
        min_size=1, max_size=8))
    def test_a_cell_is_the_same_alone_and_in_any_batch(self, cells):
        # any order, duplicates allowed, with the tight target, the smallest
        # normal target delta and the overflow point among the table cells
        assert batch(cells) == [alone(*args) for args in cells]

    @pytest.mark.parametrize("bad, message", [
        ((math.nan, 0.01, 0.01, 100), "finite"),
        ((0.01, 0.01, 0.0, 100), "sigma_target"),
        ((0.01, 0.01, 0.01, 10.5), "positive integer"),
        ((0.01, 1.0, 0.01, 100), "out of range"),
        ((0.0, 5e-324, 1.0, 1), "subnormal"),
    ])
    def test_each_cell_is_checked_as_alone(self, bad, message):
        with pytest.raises(DomainError, match=message):
            max_dp_queries(*bad)
        with pytest.raises(DomainError, match=message):
            batch(TABLE_SEARCHES[:2] + [bad])


@functools.cache
def alone(*args):
    return max_dp_queries(*args)
