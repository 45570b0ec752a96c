import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacct import (DomainError, binomial, cdf, hypergeometric, point, poisson_binomial,
                    property_query_answer_law, shift)
from spacct.distkit import (
    NORMALIZATION_TOL,
    SUPPORT_FLOOR,
    Pmf,
    _check_masses,
    _dbinom,
    checked_rows,
    poisson_binomial_rows,
)
from spacct.spc import MC_CHUNK

from rational_ref import binom_pmf_exact, hyper_pmf_exact


def _moments(d):
    """Mean and variance of a Pmf, fsummed from its masses."""
    points = np.arange(d.offset, d.top + 1, dtype=np.float64)
    mean = math.fsum((points * d.masses).tolist())
    return mean, math.fsum(((points - mean) ** 2 * d.masses).tolist())


class TestBinomial:
    def test_two_trials_half(self):
        b = binomial(2, 0.5)
        assert b.offset == 0
        np.testing.assert_allclose(b.masses, [0.25, 0.5, 0.25], rtol=0, atol=1e-15)

    def test_zero_trials_is_point_mass(self):
        b = binomial(0, 0.3)
        assert b.offset == 0 and b.masses.size == 1 and b.masses[0] == 1.0

    def test_degenerate_p(self):
        assert binomial(5, 0.0).mass(0) == 1.0
        assert binomial(5, 1.0).mass(5) == 1.0

    def test_large_symmetric_case(self):
        b = binomial(1023, 0.5)
        assert b.mass(511) == b.mass(512)
        assert abs(b.total() - 1.0) <= 1e-9
        # normal approximation at the mode
        pdf = math.exp(-0.5 * (511 - 511.5) ** 2 / 255.75) / math.sqrt(2 * math.pi * 255.75)
        assert abs(b.mass(511) - pdf) < 1e-3

    def test_symmetry_is_bit_identical(self):
        for t in (7, 10, 31, 64):
            b = binomial(t, 0.5)
            for k in range(t + 1):
                assert b.mass(k) == b.mass(t - k)

    @pytest.mark.parametrize("trials,p", [(5, 0.3), (17, 0.05), (64, 0.9), (33, 0.5)])
    def test_against_exact_rationals(self, trials, p):
        exact = binom_pmf_exact(trials, Fraction(p).limit_denominator(10**6))
        b = binomial(trials, p)
        for k, v in exact.items():
            assert b.mass(k) == pytest.approx(float(v), rel=1e-11, abs=1e-300)

    @given(st.integers(0, 400), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_normalized_mean_variance(self, trials, p):
        b = binomial(trials, p)
        assert abs(b.total() - 1.0) <= 1e-9
        mean, variance = _moments(b)
        assert abs(mean - trials * p) <= 1e-9 * max(trials, 1)
        assert abs(variance - trials * p * (1 - p)) <= 1e-9 * max(trials, 1)

    def test_rejects_bad_p(self):
        with pytest.raises(DomainError):
            binomial(4, 1.2)
        with pytest.raises(DomainError):
            binomial(4, -0.1)


class TestHypergeometric:
    def test_small_case(self):
        h = hypergeometric(4, 2, 2)
        np.testing.assert_allclose(h.masses, [1 / 6, 4 / 6, 1 / 6], rtol=1e-12)

    def test_no_successes(self):
        h = hypergeometric(10, 0, 4)
        assert h.mass(0) == 1.0

    def test_exact_cell(self):
        h = hypergeometric(10, 4, 5)
        assert h.mass(2) == pytest.approx(120 / 252, rel=1e-12)

    def test_support_bounds(self):
        h = hypergeometric(6, 4, 5)
        # at least 3 of 5 draws are successes when only 2 failures exist
        assert h.offset == 3 and h.top == 4

    @pytest.mark.parametrize("pop,succ,draws", [(8, 3, 5), (12, 7, 4), (9, 9, 3), (6, 2, 6)])
    def test_against_exact_rationals(self, pop, succ, draws):
        exact = hyper_pmf_exact(pop, succ, draws)
        h = hypergeometric(pop, succ, draws)
        for z, v in exact.items():
            assert h.mass(z) == pytest.approx(float(v), rel=1e-11)
        assert abs(_moments(h)[0] - draws * succ / pop) <= 1e-9

    @pytest.mark.parametrize("population", [10**12, 10**20])
    def test_log_gamma_precision_limit_is_named(self, population):
        # log-gamma sums used to lose the normalization from populations of
        # about 10^6; the binomial-ratio masses hold up to 2^53, past which
        # the float64 integer limit is named
        if population <= 2**53:
            h = hypergeometric(population, 5, population - 1)
            assert h.offset == 4 and h.top == 5
            assert h.mass(4) == pytest.approx(5 / population, rel=1e-13)
            assert h.mass(5) == pytest.approx((population - 5) / population, rel=1e-15)
        else:
            with pytest.raises(DomainError, match=f"population of {population} .*2\\^53"):
                hypergeometric(population, 5, population - 1)

    @pytest.mark.parametrize("pop,succ,draws", [
        (10**6, 250_000, 1023), (32768, 4000, 1023), (2**40 + 7, 2**39, 5000),
        (2**53, 3, 2**52), (999_999, 1, 500_000)])
    def test_matches_mpmath_at_large_populations(self, pop, succ, draws):
        h = hypergeometric(pop, succ, draws)
        assert abs(h.total() - 1.0) <= 1e-12
        mpmath.mp.dps = 40
        total = mpmath.binomial(pop, draws)
        points = np.linspace(h.offset, h.top, min(h.masses.size, 60)).round().astype(int)
        for z in sorted(set(points.tolist())):
            want = mpmath.binomial(succ, z) * mpmath.binomial(pop - succ, draws - z) / total
            if want >= 1e-280:
                assert abs(h.mass(z) - want) <= 1e-11 * want, (z, h.mass(z), want)

    def test_point_masses_past_the_float64_integer_limit(self):
        assert hypergeometric(10**20, 1, 10**20).mass(1) == 1.0
        assert hypergeometric(10**20, 10**20, 5).mass(5) == 1.0
        assert hypergeometric(10**20, 0, 10**19).mass(0) == 1.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            hypergeometric(4, 5, 2)
        with pytest.raises(DomainError):
            hypergeometric(4, 2, 5)


class TestCountsAreIntegers:
    """A count that is not an integer is refused where it enters, by name,
    not later by the normalization check (or a slice, on the p = 1/2 mirror)."""

    @pytest.mark.parametrize("call, name", [
        (lambda: binomial(2.5, 0.3), "trials"),
        (lambda: binomial(3.0000001, 0.5), "trials"),
        (lambda: binomial(4.0, 0.5), "trials"),
        (lambda: hypergeometric(10.5, 3, 2), "population"),
        (lambda: hypergeometric(10, 3.5, 2), "successes"),
        (lambda: hypergeometric(10, 3, 2.5), "draws"),
        (lambda: property_query_answer_law(2.5, 0.3, 1), "size"),
    ], ids=["binomial", "binomial mirror", "binomial integral float", "population",
            "successes", "draws", "answer law"])
    def test_non_integer_count_is_refused_by_name(self, call, name):
        with pytest.raises(DomainError, match=f"{name} must be"):
            call()

    def test_numpy_integers_are_counts(self):
        n = np.int64
        assert binomial(n(7), 0.5).masses.tobytes() == binomial(7, 0.5).masses.tobytes()
        assert hypergeometric(n(10), n(3), n(4)).masses.tobytes() == \
            hypergeometric(10, 3, 4).masses.tobytes()
        assert property_query_answer_law(n(5), 0.3, 1).masses.tobytes() == \
            property_query_answer_law(5, 0.3, 1).masses.tobytes()


class TestCdf:
    def test_binomial_midpoint(self):
        assert cdf(binomial(2, 0.5), 1) == pytest.approx(0.75, abs=1e-15)

    def test_below_support(self):
        assert cdf(binomial(3, 0.4), -1) == 0.0

    def test_hypergeometric_sum(self):
        assert cdf(hypergeometric(4, 2, 2), 1) == pytest.approx(5 / 6, rel=1e-12)

    def test_at_top(self):
        assert cdf(binomial(20, 0.3), 20) == pytest.approx(1.0, abs=1e-9)


class TestShift:
    def test_point(self):
        assert shift(point(0), 3).offset == 3

    def test_binomial(self):
        b = shift(binomial(2, 0.5), 1)
        assert b.offset == 1
        np.testing.assert_allclose(b.masses, [0.25, 0.5, 0.25])

    def test_inverse(self):
        d = binomial(5, 0.3)
        back = shift(shift(d, 2), -2)
        assert back.offset == d.offset
        np.testing.assert_array_equal(back.masses, d.masses)

    @pytest.mark.parametrize("k", [-4, 0, 7])
    @pytest.mark.parametrize("d", [
        binomial(5, 0.3),
        point(2),
        Pmf(3, np.array([1e-310, 0.5, 0.5, 1e-310])),  # trimmed at construction
    ], ids=["binomial", "point", "trimmed"])
    def test_moves_offset_and_keeps_masses(self, d, k):
        out = shift(d, k)
        assert out.offset == d.offset + k
        assert out.masses.size == d.masses.size
        assert np.all(out.masses == d.masses)

    def test_does_not_validate_again(self, monkeypatch):
        d = binomial(4, 0.5)

        def refuse(self):
            raise AssertionError("shift must not re-run the Pmf checks")

        monkeypatch.setattr(Pmf, "__post_init__", refuse)
        assert shift(d, 2).offset == 2


class TestPoissonBinomial:
    def test_empty_is_point(self):
        assert poisson_binomial([]).mass(0) == 1.0

    def test_equal_probs_match_binomial(self):
        pb = poisson_binomial([0.3] * 6)
        b = binomial(6, 0.3)
        for k in range(7):
            assert pb.mass(k) == pytest.approx(b.mass(k), rel=1e-12)

    def test_heterogeneous_hand_case(self):
        pb = poisson_binomial([0.2, 0.8])
        np.testing.assert_allclose(pb.masses, [0.8 * 0.2, 0.2 * 0.2 + 0.8 * 0.8, 0.2 * 0.8])


def _one_row_recurrence(probs) -> np.ndarray:
    """The one-row convolution loop poisson_binomial used before it took row 0
    of poisson_binomial_rows."""
    acc = np.ones(1)
    for q in probs:
        nxt = np.zeros(acc.size + 1)
        nxt[:-1] += acc * (1.0 - q)
        nxt[1:] += acc * q
        acc = nxt
    return acc


class TestPoissonBinomialOneRow:
    @given(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 1.0))), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_equals_the_one_row_recurrence(self, probs):
        want, got = Pmf(0, _one_row_recurrence(probs)), poisson_binomial(probs)
        assert got.offset == want.offset
        assert got.masses.tolist() == want.masses.tolist()

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_rejects_probabilities_outside_unit_interval(self, bad):
        with pytest.raises(DomainError, match="outside"):
            poisson_binomial([0.5, bad])


def _assert_rows_equal_poisson_binomial(probs: np.ndarray) -> None:
    rows = poisson_binomial_rows(probs)
    assert rows.shape == (probs.shape[0], probs.shape[1] + 1)
    for row_probs, masses in zip(probs, rows):
        want, got = poisson_binomial(row_probs), Pmf(0, masses)
        assert got.offset == want.offset
        assert got.masses.size == want.masses.size
        assert np.all(got.masses == want.masses)


class TestPoissonBinomialRows:
    """The batched recurrence against one poisson_binomial per row, bit for bit."""

    @given(st.integers(0, 12).flatmap(lambda s: st.lists(
        st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 1.0))),
                 min_size=s, max_size=s),
        min_size=1, max_size=8).map(lambda rows: np.array(rows).reshape(len(rows), s))))
    @settings(max_examples=100, deadline=None)
    def test_rows_equal_poisson_binomial(self, probs):
        _assert_rows_equal_poisson_binomial(probs)

    @pytest.mark.parametrize("rows", [MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1])
    def test_row_counts_around_the_chunk(self, rows):
        probs = np.random.default_rng(rows).random((rows, 9))
        probs[::7, 2] = 0.0
        probs[::5, 4] = 1.0
        _assert_rows_equal_poisson_binomial(probs)

    def test_empty_blocks_are_point_masses(self):
        np.testing.assert_array_equal(poisson_binomial_rows(np.empty((3, 0))), np.ones((3, 1)))
        assert poisson_binomial_rows(np.empty((0, 4))).shape == (0, 5)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_rejects_probabilities_outside_unit_interval(self, bad):
        probs = np.full((2, 3), 0.5)
        probs[1, 2] = bad
        with pytest.raises(DomainError, match="outside"):
            poisson_binomial_rows(probs)

    def test_rejects_a_flat_sequence(self):
        with pytest.raises(DomainError):
            poisson_binomial_rows([0.5, 0.5])


class TestPmfInvariants:
    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            Pmf(0, np.array([0.5, 0.4]))
        # a NaN mass makes the compensated sum NaN, which is not within the tolerance
        for masses in ([math.nan, 1.0], [math.nan], [0.5, math.nan, 0.5]):
            with pytest.raises(DomainError, match="sum to nan"):
                Pmf(0, np.array(masses))

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            Pmf(0, np.array([1.1, -0.1]))

    def test_trims_subnormal_tails(self):
        masses = np.array([1e-310, 0.5, 0.5, 1e-310])
        d = Pmf(3, masses)
        assert d.offset == 4 and d.masses.size == 2

    def test_keeps_interior_zeros(self):
        d = Pmf(0, np.array([0.5, 0.0, 0.5]))
        assert d.masses.size == 3

    @given(st.lists(st.sampled_from((0.0, 1e-320, 1e-301, 1e-300, 0.25, 1.0)), min_size=1,
                    max_size=8).filter(lambda m: max(m) >= 0.25), st.integers(-5, 5))
    @settings(max_examples=150, deadline=None)
    def test_trimming_matches_an_end_loop(self, raw, offset):
        # reference: drop end masses below SUPPORT_FLOOR one at a time, keeping one point
        masses = np.array(raw) / math.fsum(raw)
        lo, hi = 0, masses.size
        while hi - lo > 1 and masses[lo] < SUPPORT_FLOOR:
            lo += 1
        while hi - lo > 1 and masses[hi - 1] < SUPPORT_FLOOR:
            hi -= 1
        d = Pmf(offset, masses)
        assert d.offset == offset + lo
        assert d.masses.tolist() == masses[lo:hi].tolist()
        assert not d.masses.flags.writeable


class TestLoaderKernel:
    """_dbinom against 40-digit mpmath: within 1e-11 of each mass >= 1e-280."""

    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 100, 4097, 32768, (1 << 20) + 3,
                                   (1 << 24) - 1, 1 << 24])
    def test_masses_match_mpmath(self, n):
        mpmath.mp.dps = 40
        rng = np.random.default_rng(n)
        for p in (1e-9, 0.001, 0.02, 0.3, 0.5, 0.77, 0.999, 1 - 1e-9):
            mean, sd = n * p, math.sqrt(n * p * (1 - p))
            ks = np.round(mean + sd * rng.uniform(-40.0, 40.0, 24))
            ks = np.unique(np.clip(np.concatenate((ks, [0, 1, n - 1, n])), 0, n))
            got = _dbinom(ks, n, p)
            exact_p = mpmath.mpf(p)
            for k, g in zip(ks.astype(int).tolist(), got.tolist()):
                want = mpmath.binomial(n, k) * exact_p**k * (1 - exact_p) ** (n - k)
                if want >= 1e-280:
                    assert abs(g - want) <= 1e-11 * want, (n, p, k, g, want)

    def test_outside_the_support_and_empty_trials(self):
        np.testing.assert_array_equal(_dbinom(np.array([-1.0, 6.0]), 5, 0.3), [0.0, 0.0])
        assert _dbinom(0, 0, 0.3) == 1.0 and _dbinom(1, 0, 0.3) == 0.0

    def test_shapes_broadcast(self):
        got = _dbinom(np.arange(6.0).reshape(2, 3), np.array([[5.0], [7.0]]), 0.4)
        assert got.shape == (2, 3)
        assert got[1, 2] == _dbinom(5.0, 7.0, 0.4)


def _fsum_accepts(row: np.ndarray) -> bool:
    return abs(math.fsum(row.tolist()) - 1.0) <= NORMALIZATION_TOL


class TestNormalizationDecision:
    """checked_rows accepts a row from a certified bracket around its float sum
    and leaves every other row to fsum; the decision must equal fsum's."""

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=400).filter(lambda m: sum(m) > 0),
           st.sampled_from((1.0, -1.0)), st.integers(-300, 300))
    @settings(max_examples=300, deadline=None)
    def test_rows_at_the_edge_of_the_tolerance(self, raw, side, ulps):
        row = np.array(raw) / math.fsum(raw)
        # scale the row so that its sum lands within a few hundred ulp of 1 +- TOL
        target = 1.0 + side * NORMALIZATION_TOL + ulps * 2.0**-52
        row = row * (target / math.fsum(row.tolist()))
        accepted = _fsum_accepts(row)
        if accepted:
            checked_rows(row[None, :])
        else:
            with pytest.raises(DomainError, match="masses sum to"):
                checked_rows(row[None, :])

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=12), st.integers(1, 50))
    @settings(max_examples=100, deadline=None)
    def test_first_failing_row_raises_its_own_error(self, offsets, width):
        rows = np.full((len(offsets), width), 1.0 / width)
        rows *= (1.0 + np.array(offsets, dtype=np.float64) * NORMALIZATION_TOL / 2)[:, None]
        want = None
        for row in rows:
            try:
                _check_masses(row.tolist(), False)
            except DomainError as exc:
                want = str(exc)
                break
        if want is None:
            checked_rows(rows)
        else:
            with pytest.raises(DomainError) as err:
                checked_rows(rows)
            assert str(err.value) == want
