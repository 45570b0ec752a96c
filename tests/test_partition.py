import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacct import (
    CapacityError,
    DomainError,
    PartitionLaw,
    Template,
    TemplateFormat,
    enumerate_templates,
    sample_template,
    template_count,
)


def law(n, sizes, restriction=None):
    return PartitionLaw(n, TemplateFormat(tuple(sizes)), restriction=restriction)


class TestTypes:
    def test_format_rejects_zero_block(self):
        with pytest.raises(DomainError):
            TemplateFormat((2, 0))

    def test_template_rejects_repeats(self):
        with pytest.raises(DomainError):
            Template(((1, 2), (2, 3)))

    def test_law_rejects_oversized_format(self):
        with pytest.raises(DomainError):
            law(3, (2, 2))

    def test_partial_formats_allowed(self):
        assert law(10, (2, 3)).format.total == 5


class TestEnumeration:
    def test_two_singletons(self):
        templates = enumerate_templates(law(2, (1, 1)))
        assert len(templates) == 2
        assert all(w == 0.5 for _, w in templates)

    def test_restricted_hand_case(self):
        templates = enumerate_templates(law(3, (1, 1), restriction=(1, 2)))
        got = sorted(t.index_lists for t, _ in templates)
        assert got == [((2,), (1,)), ((3,), (1,))]

    def test_unordered_blocks_count(self):
        templates = enumerate_templates(law(4, (2, 2)))
        assert len(templates) == math.comb(4, 2)

    def test_weights_sum_to_one(self):
        templates = enumerate_templates(law(6, (2, 2, 1)))
        assert math.fsum(w for _, w in templates) == pytest.approx(1.0, abs=1e-9)

    def test_count_formula(self):
        l = law(7, (2, 3))
        assert template_count(l) == math.comb(7, 2) * math.comb(5, 3)
        r = law(7, (2, 3), restriction=(4, 2))
        assert template_count(r) == math.comb(6, 2) * math.comb(4, 2)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            enumerate_templates(law(30, (10, 10, 10)), cap=1000)

    def test_capacity_message_prints_a_magnitude(self):
        with pytest.raises(CapacityError, match=r"about 10\^1231 templates") as info:
            enumerate_templates(law(4096, (2048, 2048)))
        assert len(str(info.value)) < 200

    def test_membership_marginal_is_exact_rational(self):
        l = law(6, (2, 3))
        templates = enumerate_templates(l)
        for k, size in ((1, 2), (2, 3)):
            hits = sum(1 for t, _ in templates if 2 in t.block(k))
            assert Fraction(hits, len(templates)) == Fraction(size, 6)

    def test_restriction_equals_filter_and_renormalize(self):
        full = enumerate_templates(law(5, (2, 2)))
        restricted = enumerate_templates(law(5, (2, 2), restriction=(3, 2)))
        filtered = sorted(t.index_lists for t, _ in full if 3 in t.block(2))
        assert sorted(t.index_lists for t, _ in restricted) == filtered

    def test_injectivity(self):
        for t, _ in enumerate_templates(law(6, (2, 2), restriction=(1, 1))):
            flat = [i for block in t.index_lists for i in block]
            assert len(set(flat)) == len(flat)


class TestSampling:
    def test_full_coverage_single_block(self):
        for seed in (0, 1, 99):
            t = sample_template(law(5, (5,)), seed)
            assert sorted(t.block(1)) == [1, 2, 3, 4, 5]

    def test_deterministic(self):
        l = law(8, (3, 3))
        assert sample_template(l, 42).index_lists == sample_template(l, 42).index_lists

    def test_restricted_placement(self):
        l = law(8, (2, 2), restriction=(5, 2))
        for seed in range(20):
            assert 5 in sample_template(l, seed).block(2)

    def test_membership_frequency(self):
        l = law(8, (2, 2))
        rng = np.random.default_rng(314)
        hits = np.zeros(2)
        trials = 10**5
        for _ in range(trials):
            t = sample_template(l, rng)
            for k in (1, 2):
                if 3 in t.block(k):
                    hits[k - 1] += 1
        np.testing.assert_allclose(hits / trials, [0.25, 0.25], atol=0.01)

    @given(st.integers(2, 7), st.integers(0, 3), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_sampled_templates_are_injective_and_sized(self, n, extra, seed):
        sizes = (1, min(1 + extra, n - 1))
        l = law(n, sizes)
        t = sample_template(l, seed)
        assert tuple(len(b) for b in t.index_lists) == sizes
