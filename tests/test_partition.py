import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacct import (
    AdaptiveSpec,
    CapacityError,
    DomainError,
    IidEntries,
    NonadaptiveSpec,
    PartitionLaw,
    PropertyQuery,
    Scenario,
    TemplateFormat,
    ThresholdTree,
    composition_delta,
    enumerate_templates,
    exact_mechanism_law,
    mc_distinguish,
    sample_template,
    template_count,
)
from spacct.scenario_io import parse_scenario

from rational_ref import (two_branch_enumerate_templates, two_branch_sample_template,
                          two_branch_template_count)


def law(n, sizes, restriction=None):
    return PartitionLaw(n, TemplateFormat(tuple(sizes)), restriction=restriction)


class TestFormatFits:
    """One rule, TemplateFormat.require_fits, behind every entry point that
    places a format on a database."""

    FMT = TemplateFormat((3, 2))
    SCENARIO = Scenario(4, IidEntries((0.5,)))
    NONADAPTIVE = NonadaptiveSpec(FMT, (PropertyQuery(), PropertyQuery()))
    ADAPTIVE = AdaptiveSpec(FMT, ThresholdTree(PropertyQuery(), 1,
                                               low=ThresholdTree(PropertyQuery()),
                                               high=ThresholdTree(PropertyQuery())))

    def test_a_format_that_fits_is_taken(self):
        self.FMT.require_fits(5)
        assert PartitionLaw(5, self.FMT).n == 5

    @pytest.mark.parametrize("call", [
        lambda: TestFormatFits.FMT.require_fits(4),
        lambda: PartitionLaw(4, TestFormatFits.FMT),
        lambda: composition_delta(TestFormatFits.SCENARIO, TestFormatFits.NONADAPTIVE, 0.1),
        lambda: composition_delta(TestFormatFits.SCENARIO, TestFormatFits.ADAPTIVE, 0.1),
        lambda: mc_distinguish(TestFormatFits.SCENARIO, TestFormatFits.NONADAPTIVE, 0.1,
                               trials=1000, seed=0),
        lambda: exact_mechanism_law(TestFormatFits.SCENARIO, TestFormatFits.NONADAPTIVE),
    ], ids=["format", "law", "nonadaptive", "adaptive", "monte carlo", "exact oracle"])
    def test_every_entry_point_gives_one_message(self, call):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == "format uses 5 indices but n=4"

    def test_scenario_files_prefix_the_message(self):
        doc = {"schema_version": 1, "n": 4, "entry_model": {"kind": "iid", "p": 0.5},
               "format": [3, 2], "epsilons": [0.1],
               "queries": {"mode": "nonadaptive", "list": [{"attribute": 0}] * 2}}
        with pytest.raises(DomainError) as info:
            parse_scenario(doc)
        assert str(info.value) == "scenario file: format uses 5 indices but n=4"


class TestTypes:
    def test_format_rejects_zero_block(self):
        with pytest.raises(DomainError):
            TemplateFormat((2, 0))

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
        got = sorted(t for t, _ in templates)
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
            enumerate_templates(law(30, (10, 10, 10)))

    def test_capacity_message_prints_a_magnitude(self):
        with pytest.raises(CapacityError, match=r"about 10\^1231 templates") as info:
            enumerate_templates(law(4096, (2048, 2048)))
        assert len(str(info.value)) < 200

    def test_membership_marginal_is_exact_rational(self):
        l = law(6, (2, 3))
        templates = enumerate_templates(l)
        for k, size in ((1, 2), (2, 3)):
            hits = sum(1 for t, _ in templates if 2 in t[k - 1])
            assert Fraction(hits, len(templates)) == Fraction(size, 6)

    def test_restriction_equals_filter_and_renormalize(self):
        full = enumerate_templates(law(5, (2, 2)))
        restricted = enumerate_templates(law(5, (2, 2), restriction=(3, 2)))
        filtered = sorted(t for t, _ in full if 3 in t[1])
        assert sorted(t for t, _ in restricted) == filtered

    def test_injectivity(self):
        for t, _ in enumerate_templates(law(6, (2, 2), restriction=(1, 1))):
            flat = [i for block in t for i in block]
            assert len(set(flat)) == len(flat)


class TestSampling:
    def test_full_coverage_single_block(self):
        for seed in (0, 1, 99):
            t = sample_template(law(5, (5,)), seed)
            assert sorted(t[0]) == [1, 2, 3, 4, 5]

    def test_deterministic(self):
        l = law(8, (3, 3))
        assert sample_template(l, 42) == sample_template(l, 42)

    def test_restricted_placement(self):
        l = law(8, (2, 2), restriction=(5, 2))
        for seed in range(20):
            assert 5 in sample_template(l, seed)[1]

    def test_membership_frequency(self):
        l = law(8, (2, 2))
        rng = np.random.default_rng(314)
        hits = np.zeros(2)
        trials = 10**5
        for _ in range(trials):
            t = sample_template(l, rng)
            for k in (1, 2):
                if 3 in t[k - 1]:
                    hits[k - 1] += 1
        np.testing.assert_allclose(hits / trials, [0.25, 0.25], atol=0.01)

    @given(st.integers(2, 7), st.integers(0, 3), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_sampled_templates_are_injective_and_sized(self, n, extra, seed):
        sizes = (1, min(1 + extra, n - 1))
        l = law(n, sizes)
        t = sample_template(l, seed)
        assert tuple(len(b) for b in t) == sizes


def small_laws():
    """Every law on n <= 7 indices with 1-3 blocks, unrestricted and under
    every restriction (j, k)."""
    for n in range(1, 8):
        for m in (1, 2, 3):
            for sizes in product(range(1, n + 1), repeat=m):
                if sum(sizes) > n:
                    continue
                yield law(n, sizes)
                for j, k in product(range(1, n + 1), range(1, m + 1)):
                    yield law(n, sizes, restriction=(j, k))


class TestTwoBranchReference:
    """The one reduction against the two-branch functions it replaced."""

    def test_counts_and_enumerations_are_equal(self):
        for l in small_laws():
            assert template_count(l) == two_branch_template_count(l)
            assert enumerate_templates(l) == two_branch_enumerate_templates(l)

    def test_seeded_draws_are_equal(self):
        shared, reference = np.random.default_rng(2024), np.random.default_rng(2024)
        for l in small_laws():
            for seed in (0, 7):
                assert sample_template(l, seed) == two_branch_sample_template(l, seed)
            assert sample_template(l, shared) == two_branch_sample_template(l, reference)
