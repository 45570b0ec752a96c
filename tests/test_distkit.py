import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacct import DomainError, binomial, cdf, hypergeometric, mixture, point, poisson_binomial, shift
from spacct.distkit import Pmf, poisson_binomial_rows
from spacct.spc import MC_CHUNK

from rational_ref import binom_pmf_exact, hyper_pmf_exact


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
        assert abs(b.mean() - trials * p) <= 1e-9 * max(trials, 1)
        assert abs(b.variance() - trials * p * (1 - p)) <= 1e-9 * max(trials, 1)

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
        assert abs(h.mean() - draws * succ / pop) <= 1e-9

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            hypergeometric(4, 5, 2)
        with pytest.raises(DomainError):
            hypergeometric(4, 2, 5)


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


class TestMixture:
    def test_single_component(self):
        d = binomial(3, 0.4)
        m = mixture([(1.0, d)])
        assert m.offset == d.offset
        np.testing.assert_allclose(m.masses, d.masses)

    def test_two_points_make_bernoulli(self):
        m = mixture([(0.5, point(0)), (0.5, point(1))])
        np.testing.assert_allclose(m.masses, [0.5, 0.5])

    def test_hand_sum(self):
        m = mixture([(0.3, binomial(3, 0.2)), (0.7, binomial(3, 0.8))])
        assert m.mass(0) == pytest.approx(0.3 * 0.512 + 0.7 * 0.008, rel=1e-12)

    def test_rejects_bad_weights(self):
        with pytest.raises(DomainError):
            mixture([(0.5, point(0)), (0.4, point(1))])
        with pytest.raises(DomainError):
            mixture([(-0.2, point(0)), (1.2, point(1))])

    @given(
        st.lists(
            st.tuples(st.floats(0.01, 1.0), st.integers(0, 12), st.floats(0.0, 1.0)),
            min_size=1, max_size=5,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_flattening_is_associative(self, raw):
        total = sum(w for w, _, _ in raw)
        comps = [(w / total, binomial(t, p)) for w, t, p in raw]
        flat = mixture(comps)
        if len(comps) >= 2:
            w_head = comps[0][0] + comps[1][0]
            inner = mixture([(comps[0][0] / w_head, comps[0][1]),
                             (comps[1][0] / w_head, comps[1][1])])
            nested = mixture([(w_head, inner)] + comps[2:])
            lo = min(flat.offset, nested.offset)
            hi = max(flat.top, nested.top)
            for a in range(lo, hi + 1):
                assert flat.mass(a) == pytest.approx(nested.mass(a), abs=1e-12)


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
