import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spacct.spc
from spacct import (
    CapacityError,
    DomainError,
    Enumerate,
    ExplicitEntries,
    IidEntries,
    KnownEntries,
    MonteCarlo,
    NonadaptiveSpec,
    PartitionLaw,
    PropertyQuery,
    Scenario,
    TemplateFormat,
    d_hat,
    enumerate_templates,
    nonadaptive_general,
    sample_template,
    spc_general,
    spc_iid,
    spc_known_entries,
    spc_known_entries_threshold_bound,
)

from spacct.baseline import max_dp_queries
from spacct.curve import fsum_terms
from spacct.distkit import hypergeometric
from spacct.spc import MC_CHUNK, MC_TRIALS_CAP, _block_divergences

from rational_ref import (
    _block_divergence,
    block_answer_law,
    dhat_shift_pair,
    hockey_stick_dicts,
    hyper_pmf_exact,
    indicator_laws,
    spc_known_entries_every_row,
)


class TestScenario:
    def test_rejects_bad_critical_index(self):
        with pytest.raises(DomainError):
            Scenario(4, IidEntries((0.5,)), critical_index=5)

    def test_rejects_known_count_equal_n(self):
        with pytest.raises(DomainError):
            Scenario(4, KnownEntries(0.5, known=4))

    def test_rejects_mismatched_explicit_length(self):
        with pytest.raises(DomainError):
            Scenario(3, ExplicitEntries(((0.5,), (0.5,))))

    def test_known_probs_matrix_skips_critical(self):
        sc = Scenario(5, KnownEntries(0.5, known=3, known_positive=2), critical_index=2)
        col = sc.probs_matrix()[:, 0]
        assert col[1] == 0.5  # the critical entry stays unknown
        assert sorted(col[[0, 2, 3]]) == [0.0, 1.0, 1.0]
        assert col[4] == 0.5

    def test_iid_probs_are_a_row_of_floats(self):
        for given_probs, want in ((0.5, (0.5,)), (np.float32(0.5), (0.5,)), (np.int64(1), (1.0,)),
                                  (np.array(0.25), (0.25,)), (np.array([0.2, 1.0]), (0.2, 1.0))):
            probs = IidEntries(given_probs).probs
            assert probs == want and all(type(p) is float for p in probs)
        for bad in ("a", ["a"], None):
            with pytest.raises(DomainError, match="must be numbers"):
                IidEntries(bad)

    def test_value_encoding(self):
        sc = Scenario(3, IidEntries((0.5, 0.2)))
        assert sc.num_attributes == 2 and sc.num_values == 4

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=100, deadline=None)
    def test_known_matrix_matches_a_slot_loop(self, n, data):
        known = data.draw(st.integers(0, n - 1))
        entries = KnownEntries(0.3, known, data.draw(st.integers(0, known)))
        critical = data.draw(st.integers(1, n))
        want = np.full((n, 1), 0.3)
        slots = [i for i in range(n) if i != critical - 1]
        for pos, slot in enumerate(slots[:known]):
            want[slot, 0] = 1.0 if pos < entries.known_positive else 0.0
        assert entries.matrix(n, critical).tolist() == want.tolist()

    @pytest.mark.parametrize("call", [
        lambda: TemplateFormat((2.7,)),
        lambda: spc_iid(Scenario(8, IidEntries((0.3,))), 2.5, 0.1),
        lambda: Scenario(8.5, IidEntries((0.3,))),
        lambda: KnownEntries(0.3, 2.5),
        lambda: MonteCarlo(1000.5),
        lambda: max_dp_queries(0.1, 0.01, 0.1, 10.5),
        lambda: PartitionLaw(8.5, TemplateFormat((2,))),
        lambda: PartitionLaw(8, TemplateFormat((2,)), restriction=(2.7, 1)),
    ], ids=["format", "sample size", "n", "known", "trials", "dp n", "law n", "restriction"])
    def test_non_integer_counts_are_refused(self, call):
        # each of these used to be truncated or taken as it stood, giving a delta
        with pytest.raises(DomainError, match="integer"):
            call()

    def test_numpy_integer_counts_are_taken(self):
        assert TemplateFormat((np.int64(3),)).sizes == (3,)
        sc = Scenario(np.int64(8), KnownEntries(0.3, np.int64(2)), np.int64(2))
        assert spc_known_entries(sc, np.int64(3), 0.1) == spc_known_entries(
            Scenario(8, KnownEntries(0.3, 2), 2), 3, 0.1)
        assert MonteCarlo(np.int64(10)).trials == 10


class TestExplicitEntries:
    def test_rows_are_tuples_of_floats(self):
        for given_probs in ([0.2, 1], ((0.2,), (1,)), [np.float64(0.25), [True]],
                            np.array([[0.2], [1.0]]), [np.float32(0.5), 0.5],
                            [np.int64(1), np.array(0.25)], np.array([0.2, 1.0])):
            probs = ExplicitEntries(given_probs).probs
            assert isinstance(probs, tuple) and all(isinstance(r, tuple) for r in probs)
            assert all(type(p) is float for r in probs for p in r)
        assert ExplicitEntries([0.2, 1]).probs == ((0.2,), (1.0,))
        assert ExplicitEntries(((0.1, 0.9), (0.0, 0.5))).probs == ((0.1, 0.9), (0.0, 0.5))

    @pytest.mark.parametrize("probs,message", [
        ((), "need at least one entry"),
        (((),), "same attribute count"),
        (((0.1, 0.2), (0.3,)), "same attribute count"),
        (((0.1,), 0.2, (0.3, 0.4)), "same attribute count"),
        (((0.1,), (1.5,)), "must lie in \\[0, 1\\]"),
        (((0.1, -0.2),), "must lie in \\[0, 1\\]"),
        ((0.5, math.nan), "must lie in \\[0, 1\\]"),
        ([["a"], [0.5]], "must be numbers"),
        (("a", 0.5), "must be numbers"),
    ])
    def test_refusals_keep_their_messages(self, probs, message):
        with pytest.raises(DomainError, match=message):
            ExplicitEntries(probs)


class TestPropertyQuery:
    @pytest.mark.parametrize("kwargs", [
        {"attribute": True}, {"attribute": 0.5}, {"attribute": -1}, {"negate": "yes"},
        {"negate": 1},
    ], ids=["bool attribute", "float attribute", "negative attribute", "string negate",
            "int negate"])
    def test_refuses_what_is_not_an_index_or_a_bool(self, kwargs):
        # PropertyQuery(True) used to read attribute 1 and PropertyQuery(0.5)
        # to end in a raw TypeError inside spc_iid
        with pytest.raises(DomainError):
            PropertyQuery(**kwargs)

    def test_numpy_integers_and_bools_are_taken(self):
        scenario = Scenario(6, IidEntries((0.05, 0.5)))
        assert spc_iid(scenario, 3, 0.1, PropertyQuery(np.int64(1), np.True_)) == \
            spc_iid(scenario, 3, 0.1, PropertyQuery(1, True))


class TestSpcIid:
    def test_full_sample_equals_whole_database(self):
        sc = Scenario(16, IidEntries((0.3,)))
        assert spc_iid(sc, 16, 0.1) == pytest.approx(dhat_shift_pair(16, 0.3, 0.1), abs=1e-12)

    def test_table1_cell(self):
        sc = Scenario(32768, IidEntries((0.5,)))
        assert spc_iid(sc, 1024, 0.01) == pytest.approx(0.0203, abs=5e-4)

    def test_direct_summation_and_monotonicity_in_s(self):
        sc = Scenario(32768, IidEntries((0.5,)))
        small = spc_iid(sc, 64, 0.005)
        big = spc_iid(sc, 1024, 0.005)
        assert small == pytest.approx(dhat_shift_pair(64, 0.5, 0.005), abs=1e-12)
        assert small > big

    def test_rejects_bad_sample_size(self):
        sc = Scenario(8, IidEntries((0.5,)))
        with pytest.raises(DomainError):
            spc_iid(sc, 0, 0.1)
        with pytest.raises(DomainError):
            spc_iid(sc, 9, 0.1)


class TestEpsilonGrids:
    GRID = (0.0, 0.01, 0.1, 1.0, 800.0)

    def test_iid_grid_equals_scalar_calls(self):
        sc = Scenario(300, IidEntries((0.3, 0.8)))
        query = PropertyQuery(1, negate=True)
        grid = spc_iid(sc, 77, self.GRID, query)
        assert grid.tolist() == [spc_iid(sc, 77, eps, query) for eps in self.GRID]
        assert type(spc_iid(sc, 77, 0.1, query)) is float

    @pytest.mark.parametrize("adjusted", [False, True])
    def test_known_entries_grid_builds_the_weights_once(self, monkeypatch, adjusted):
        sc = Scenario(300, KnownEntries(0.4, known=90, known_positive=20))
        scalars = [spc_known_entries(sc, 60, eps, population_excludes_critical=adjusted)
                   for eps in self.GRID]
        calls = []
        weights = spacct.spc._known_weights

        def counting(*args):
            calls.append(args)
            return weights(*args)

        monkeypatch.setattr(spacct.spc, "_known_weights", counting)
        grid = spc_known_entries(sc, 60, self.GRID, population_excludes_critical=adjusted)
        assert len(calls) == 1
        assert grid.tolist() == scalars
        assert type(spc_known_entries(sc, 60, 0.1)) is float

    def test_negative_epsilon_in_a_grid_is_refused(self):
        sc = Scenario(30, KnownEntries(0.4, known=9))
        with pytest.raises(DomainError):
            spc_known_entries(sc, 6, (0.1, -0.1))
        with pytest.raises(DomainError):
            spc_iid(Scenario(30, IidEntries((0.4,))), 6, (0.1, -0.1))


class TestMonteCarloTrialsCap:
    def test_cap_is_inclusive(self):
        assert MonteCarlo(trials=MC_TRIALS_CAP).trials == MC_TRIALS_CAP
        with pytest.raises(CapacityError, match="cap"):
            MonteCarlo(trials=MC_TRIALS_CAP + 1)

    def test_huge_count_message_is_short(self):
        with pytest.raises(CapacityError) as info:
            MonteCarlo(trials=10**5000)
        assert len(str(info.value)) < 200


class TestMonteCarloSeed:
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", [1, 2], (0, -1), ((0, 1), 2.5),
                                      (False,)],
                             ids=["negative", "float", "bool", "string", "list",
                                  "negative in tuple", "float nested", "bool in tuple"])
    def test_invalid_seeds_are_refused_at_construction(self, seed):
        with pytest.raises(DomainError, match="seed"):
            MonteCarlo(10, seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, np.int64(3), 10**30, (1, 2), ((0, 1), 2), ()],
                             ids=["zero", "int", "numpy int", "huge", "tuple", "nested", "empty"])
    def test_valid_seeds_are_taken(self, seed):
        assert MonteCarlo(10, seed=seed).seed == seed

    def test_message_is_the_one_seed_rule(self):
        with pytest.raises(DomainError) as info:
            MonteCarlo(10, seed=-1)
        assert str(info.value) == ("seed must be a nonnegative integer or a tuple of such "
                                   "seeds, got -1")

    def test_nonadaptive_block_seeds_nest_the_given_seed(self):
        # compose derives block k's stream from (seed, k); a tuple seed nests
        sc = Scenario(6, ExplicitEntries(tuple((0.1 * i,) for i in range(1, 7))))
        spec = NonadaptiveSpec(TemplateFormat((2, 2)), (PropertyQuery(),) * 2)
        report = nonadaptive_general(sc, spec, 0.1, MonteCarlo(50, seed=(4, 5)))
        assert report.total_half_width is not None


class TestSpcKnownEntries:
    def test_v_zero_collapses_to_iid(self):
        sck = Scenario(16, KnownEntries(0.4, known=0))
        sci = Scenario(16, IidEntries((0.4,)))
        for eps in (0.0, 0.1, 1.0):
            assert spc_known_entries(sck, 6, eps) == spc_iid(sci, 6, eps)

    def test_hand_mixture(self):
        # n=8, v=4, s=4: weights C(4,z) C(4,3-z) / C(8,3)
        sc = Scenario(8, KnownEntries(0.5, known=4))
        eps = 0.1
        expected = 0.0
        for z in range(4):
            w = Fraction(math.comb(4, z) * math.comb(4, 3 - z), math.comb(8, 3))
            delta_z = 1.0 if z == 3 else dhat_shift_pair(3 - z + 1, 0.5, eps)
            expected += float(w) * delta_z
        assert spc_known_entries(sc, 4, eps) == pytest.approx(expected, abs=1e-12)

    def test_weights_sum_to_one(self):
        for n, v, s in ((8, 4, 4), (12, 5, 7), (30, 29, 10), (9, 3, 9)):
            for flag in (False, True):
                pop = n - 1 if flag else n
                weights = hyper_pmf_exact(pop, v, s - 1)
                assert sum(weights.values()) == 1

    def test_fully_known_sample_under_adjusted_population(self):
        # with n = v + 1 and s = n every non-critical slot is known, so the
        # divergence is 1; the unadjusted weights mix in impossible draws
        sc = Scenario(6, KnownEntries(0.5, known=5))
        adjusted = spc_known_entries(sc, 6, 0.2, population_excludes_critical=True)
        printed = spc_known_entries(sc, 6, 0.2)
        assert adjusted == 1.0
        assert printed < adjusted

    def test_population_conventions_differ_slightly(self):
        sc = Scenario(20, KnownEntries(0.5, known=6))
        a = spc_known_entries(sc, 8, 0.1)
        b = spc_known_entries(sc, 8, 0.1, population_excludes_critical=True)
        assert a != b
        assert abs(a - b) < 0.05

    @given(st.integers(2, 40), st.data())
    @settings(max_examples=150, deadline=None)
    def test_default_population_is_never_above_the_adjusted_one(self, n, data):
        # hypergeometric(n, v, s-1) draws stochastically fewer known entries
        # than the exact law at n - 1, and the mixture terms rise with that count
        v, s = data.draw(st.integers(0, n - 1)), data.draw(st.integers(1, n))
        sc = Scenario(n, KnownEntries(data.draw(st.floats(0.0, 1.0)), v))
        grid = sorted(data.draw(st.sets(st.sampled_from([0.0, 0.05, 0.3, 1.0, 4.0]), min_size=1)))
        default = spc_known_entries(sc, s, grid)
        adjusted = spc_known_entries(sc, s, grid, population_excludes_critical=True)
        assert (adjusted >= default - 1e-12).all()


@st.composite
def known_entry_cases(draw):
    """(n, v, s, p, population adjusted, epsilon grid) of a known-entry mixture."""
    n = draw(st.integers(2, 3000))
    v, s = draw(st.integers(0, n - 1)), draw(st.integers(1, n))
    p = draw(st.sampled_from([0.5, 0.3]) | st.floats(0.0, 1.0))
    grid = draw(st.sets(st.sampled_from([0.0, 0.01, 0.3, 1.0, 5.0, 40.0, 700.0]), min_size=1))
    return n, v, s, p, draw(st.booleans()), sorted(grid)


# The two known-entry points of the benchmark's curves workload: n = 32768,
# (p, known, known_positive, sample size, population adjusted).
CURVES_KNOWN_POINTS = ((0.5, 4000, 2000, 1024, False), (0.3, 1000, 300, 1000, True))


class TestKnownEntriesSkippedRows:
    """spc_known_entries evaluates the light weights only at the epsilons
    where they can move the rounded sum; every value must be the every-row
    sum's, bit for bit."""

    @given(known_entry_cases())
    @settings(max_examples=120, deadline=None)
    @example((32768, 4000, 1024, 0.5, False, [0.0, 0.01, 5.0, 700.0]))  # the fallback runs
    @example((32768, 1000, 1000, 0.3, True, [0.02, 5.0]))
    @example((5, 2, 3, 0.3, True, [0.0, 1.0]))  # nothing to skip
    def test_equals_the_every_row_sum(self, case):
        n, v, s, p, adjusted, grid = case
        sc = Scenario(n, KnownEntries(p, v))
        got = spc_known_entries(sc, s, grid, population_excludes_critical=adjusted)
        want = spc_known_entries_every_row(sc, s, grid, PropertyQuery(),
                                           population_excludes_critical=adjusted)
        assert got.tobytes() == want.tobytes()
        assert spc_known_entries(sc, s, grid[-1], population_excludes_critical=adjusted) == \
            want[-1]

    @pytest.mark.parametrize("p, known, positive, size, adjusted", CURVES_KNOWN_POINTS)
    def test_curves_points_evaluate_only_the_heavy_rows(self, monkeypatch, p, known, positive,
                                                        size, adjusted):
        weights = hypergeometric(32767 if adjusted else 32768, known, size - 1).masses
        heavy = np.flatnonzero(weights >= 2.0**-80)
        received = []
        evaluate = spacct.spc.shift_pair_delta

        def counting(u, p, epsilon):
            received.append(np.size(u))
            return evaluate(u, p, epsilon)

        monkeypatch.setattr(spacct.spc, "shift_pair_delta", counting)
        sc = Scenario(32768, KnownEntries(p, known, positive))
        spc_known_entries(sc, size, (0.01, 0.02), population_excludes_critical=adjusted)
        assert sum(received) <= heavy[-1] - heavy[0] + 1 < weights.size

    @pytest.mark.parametrize("p, known, positive, size, adjusted", CURVES_KNOWN_POINTS)
    def test_tiny_deltas_take_the_skipped_rows_once(self, monkeypatch, p, known, positive,
                                                   size, adjusted):
        # at epsilon 5 and 700 the kept sum is far below the skipped weights'
        # bound, so the skipped rows are evaluated, in one more call
        calls = []
        evaluate = spacct.spc.shift_pair_delta

        def counting(u, p, epsilon):
            calls.append(np.size(epsilon))
            return evaluate(u, p, epsilon)

        monkeypatch.setattr(spacct.spc, "shift_pair_delta", counting)
        sc = Scenario(32768, KnownEntries(p, known, positive))
        grid = [0.01, 5.0, 700.0]
        got = spc_known_entries(sc, size, grid, population_excludes_critical=adjusted)
        assert calls[0] == 3 and len(calls) == 2 and calls[1] >= 1
        want = spc_known_entries_every_row(sc, size, grid, PropertyQuery(),
                                           population_excludes_critical=adjusted)
        assert got.tobytes() == want.tobytes()


class TestThresholdBound:
    def test_dominates_exact_for_all_phi(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(4, 65))
            v = int(rng.integers(1, n))
            s = int(rng.integers(2, n + 1))
            p = float(rng.uniform(0.1, 0.9))
            eps = float(rng.uniform(0.0, 1.0))
            sc = Scenario(n, KnownEntries(p, known=min(v, n - 1)))
            exact = spc_known_entries(sc, s, eps)
            for phi in range(0, s - 1):
                bound = spc_known_entries_threshold_bound(sc, s, eps, phi)
                assert bound >= exact - 1e-12

    def test_v_zero_phi_zero_equals_exact(self):
        sc = Scenario(10, KnownEntries(0.3, known=0))
        exact = spc_known_entries(sc, 5, 0.2)
        assert spc_known_entries_threshold_bound(sc, 5, 0.2, 0) == pytest.approx(exact, abs=1e-12)

    def test_grid_equals_scalar_calls(self):
        grid = np.array([0.0, 0.1, 0.2, 1.5, 800.0])
        for adjusted in (False, True):
            sc = Scenario(10, KnownEntries(0.5, 3, 1))
            got = spc_known_entries_threshold_bound(sc, 6, grid, 2,
                                                    population_excludes_critical=adjusted)
            assert got.tolist() == [spc_known_entries_threshold_bound(
                sc, 6, eps, 2, population_excludes_critical=adjusted) for eps in grid.tolist()]

    def test_rejects_phi_out_of_range(self):
        sc = Scenario(10, KnownEntries(0.3, known=2))
        with pytest.raises(DomainError):
            spc_known_entries_threshold_bound(sc, 5, 0.2, 4)
        with pytest.raises(DomainError):
            spc_known_entries_threshold_bound(sc, 5, 0.2, -1)


class TestSpcGeneral:
    def test_iid_entries_collapse(self):
        probs = tuple(((0.35,),) * 5)
        sc = Scenario(5, ExplicitEntries(probs), critical_index=2)
        est = spc_general(sc, TemplateFormat((3,)), 1, PropertyQuery(), 0.1)
        iid = spc_iid(Scenario(5, IidEntries((0.35,)), critical_index=2), 3, 0.1)
        assert est.value == pytest.approx(iid, abs=1e-12)
        assert est.half_width is None

    def test_hand_enumeration(self):
        # block of 2 containing j=3 plus one of entries {1, 2, 4}
        sc = Scenario(4, ExplicitEntries(((0.2,), (0.8,), (0.5,), (0.5,))), critical_index=3)
        eps = 0.1
        expected = np.mean([
            max(
                _pair_delta(pm, eps, shifted_first=True),
                _pair_delta(pm, eps, shifted_first=False),
            )
            for pm in (0.2, 0.8, 0.5)
        ])
        est = spc_general(sc, TemplateFormat((2,)), 1, PropertyQuery(), eps)
        assert est.value == pytest.approx(float(expected), abs=1e-12)

    def test_monte_carlo_consistency(self):
        sc = Scenario(4, ExplicitEntries(((0.2,), (0.8,), (0.5,), (0.5,))), critical_index=3)
        fmt = TemplateFormat((2,))
        exact = spc_general(sc, fmt, 1, PropertyQuery(), 0.1).value
        mc = spc_general(sc, fmt, 1, PropertyQuery(), 0.1, MonteCarlo(trials=10**4, seed=11))
        assert mc.half_width is not None
        assert abs(mc.value - exact) <= 3 * mc.half_width + 1e-12

    def test_monte_carlo_deterministic(self):
        sc = Scenario(6, ExplicitEntries(((0.2,), (0.8,), (0.5,), (0.5,), (0.1,), (0.9,))),
                      critical_index=1)
        fmt = TemplateFormat((3,))
        a = spc_general(sc, fmt, 1, PropertyQuery(), 0.3, MonteCarlo(trials=2000, seed=5))
        b = spc_general(sc, fmt, 1, PropertyQuery(), 0.3, MonteCarlo(trials=2000, seed=5))
        assert a == b

    def test_requires_a_block_of_a_format_that_fits(self):
        sc = Scenario(4, ExplicitEntries(((0.5,),) * 4))
        for block in (0, 3, 1.5, True):
            with pytest.raises(DomainError, match=r"block must be an integer in \[1, 2\]"):
                spc_general(sc, TemplateFormat((2, 1)), block, PropertyQuery(), 0.1)
        with pytest.raises(DomainError, match="format uses 5 indices but n=4"):
            spc_general(sc, TemplateFormat((2, 3)), 1, PropertyQuery(), 0.1)

    def test_values_in_unit_interval_and_monotone_in_eps(self):
        sc = Scenario(5, ExplicitEntries(((0.2,), (0.4,), (0.6,), (0.8,), (0.5,))),
                      critical_index=5)
        vals = [spc_general(sc, TemplateFormat((2, 2)), 2, PropertyQuery(), e).value
                for e in (0.0, 0.5, 2.0)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert vals == sorted(vals, reverse=True)

    @pytest.mark.parametrize("entries", [IidEntries((0.3,)), KnownEntries(0.3, 3, 1)],
                             ids=["iid", "known"])
    def test_monte_carlo_mode_is_exact_for_iid_and_known_entries(self, entries):
        # only explicit entries are sampled; the others take the exact evaluator
        sc = Scenario(9, entries, critical_index=4)
        fmt, eps = TemplateFormat((3, 4)), [0.0, 0.3]
        sampled = spc_general(sc, fmt, 2, PropertyQuery(negate=True), eps, MonteCarlo(50, seed=2))
        exact = spc_general(sc, fmt, 2, PropertyQuery(negate=True), eps, Enumerate())
        assert sampled.half_width is None and exact.half_width is None
        assert sampled.value.tolist() == exact.value.tolist()


# exact 0 and 1, and probabilities whose products fall below SUPPORT_FLOOR, so
# that answer laws have zero and trimmed end masses
EDGE_PROBS = st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 1.0, 1e-160, 1e-155)))


@st.composite
def restricted_explicit_cases(draw):
    """Explicit scenario (n <= 8), 1-3 block format, the critical index's block and a query."""
    n = draw(st.integers(1, 8))
    sizes, left = [], n
    for _ in range(draw(st.integers(1, 3))):
        if left == 0:
            break
        size = draw(st.integers(1, left))
        sizes.append(size)
        left -= size
    probs = draw(st.lists(EDGE_PROBS, min_size=n, max_size=n))
    j = draw(st.integers(1, n))
    k = draw(st.integers(1, len(sizes)))
    scenario = Scenario(n, ExplicitEntries(tuple((p,) for p in probs)), critical_index=j)
    return scenario, TemplateFormat(tuple(sizes)), k, PropertyQuery(negate=draw(st.booleans()))


def _restricted_law(scenario, fmt, k):
    return PartitionLaw(scenario.n, fmt, restriction=(scenario.critical_index, k))


def _template_block_delta(scenario, template, law, query, eps):
    j, k = law.restriction
    members = [i - 1 for i in template[k - 1] if i != j]
    return d_hat(indicator_laws(query, scenario.probs_matrix()[members, :]), eps)


class TestSpcGeneralSubsets:
    """The co-member subset evaluation against whole-template references."""

    @given(case=restricted_explicit_cases(), eps=st.sampled_from((0.0, 0.3, 1.0)))
    @settings(max_examples=40, deadline=None)
    def test_enumerate_matches_template_average(self, case, eps):
        scenario, fmt, k, query = case
        law = _restricted_law(scenario, fmt, k)
        expected = math.fsum(
            w * _template_block_delta(scenario, tpl, law, query, eps)
            for tpl, w in enumerate_templates(law)
        )
        got = spc_general(scenario, fmt, k, query, eps)
        assert got.value == pytest.approx(expected, abs=1e-12)

    @given(case=restricted_explicit_cases(), trials=st.integers(2, 30),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_monte_carlo_equals_sample_template_loop(self, case, trials, seed):
        scenario, fmt, k, query = case
        law = _restricted_law(scenario, fmt, k)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        values = np.array([
            _template_block_delta(scenario, sample_template(law, rng), law, query, 0.3)
            for _ in range(trials)
        ])
        got = spc_general(scenario, fmt, k, query, 0.3, MonteCarlo(trials, seed=seed))
        assert got.value == float(values.mean())
        assert got.half_width == 1.96 * float(values.std(ddof=1)) / math.sqrt(trials)

    def test_sixteen_entries_four_blocks_of_four(self):
        # 15.8M restricted templates per block, but only C(15, 3) = 455 subsets
        probs = [float(p) for p in np.random.default_rng(16).uniform(0.05, 0.95, 16)]
        j, eps = 5, 0.3
        scenario = Scenario(16, ExplicitEntries(tuple((p,) for p in probs)), critical_index=j)
        others = [p for i, p in enumerate(probs, start=1) if i != j]
        for negate in (False, True):
            deltas = []
            for co in combinations(others, 3):
                law0 = block_answer_law(list(co), 0, negate)
                law1 = block_answer_law(list(co), 1, negate)
                deltas.append(max(hockey_stick_dicts(law1, law0, eps),
                                  hockey_stick_dicts(law0, law1, eps)))
            assert len(deltas) == 455
            for k in (1, 4):
                got = spc_general(scenario, TemplateFormat((4, 4, 4, 4)), k,
                                  PropertyQuery(negate=negate), eps)
                assert got.value == pytest.approx(math.fsum(deltas) / 455, abs=1e-12)

    @given(case=restricted_explicit_cases(), trials=st.integers(2, 30),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_epsilon_grid_equals_scalar_calls(self, case, trials, seed):
        scenario, fmt, k, query = case
        grid = (0.0, 0.05, 0.3, 1.0, 750.0)
        for mode in (Enumerate(), MonteCarlo(trials, seed=seed)):
            got = spc_general(scenario, fmt, k, query, grid, mode)
            for i, eps in enumerate(grid):
                one = spc_general(scenario, fmt, k, query, eps, mode)
                assert got.value[i] == one.value
                if one.half_width is None:
                    assert got.half_width is None
                else:
                    assert got.half_width[i] == one.half_width

    def test_cap_counts_co_member_subsets(self, monkeypatch):
        # C(9, 2) = 36 subsets for a block of 3 among 10 entries
        scenario = Scenario(10, ExplicitEntries(((0.5,),) * 10))
        fmt = TemplateFormat((3, 3, 3))
        monkeypatch.setattr(spacct.spc, "TEMPLATE_CAP", 10)
        with pytest.raises(CapacityError, match="36"):
            spc_general(scenario, fmt, 2, PropertyQuery(), 0.1, Enumerate())
        monkeypatch.setattr(spacct.spc, "TEMPLATE_CAP", 36)
        assert spc_general(scenario, fmt, 2, PropertyQuery(), 0.1, Enumerate()).value > 0.0


def _per_trial_monte_carlo(scenario, fmt, k, query, grid, trials, seed):
    """MonteCarlo spc_general with one poisson_binomial and indicator_laws per trial."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    others = np.delete(np.arange(scenario.n), scenario.critical_index - 1)
    start, picks = sum(fmt.sizes[: k - 1]), fmt.sizes[k - 1] - 1
    probs = scenario.probs_matrix()
    values = np.array([
        d_hat(indicator_laws(query, probs[rng.permutation(others)[start : start + picks], :]),
              grid)
        for _ in range(trials)
    ]).T
    means = np.array([row.mean() for row in values])
    spreads = np.array([row.std(ddof=1) if trials > 1 else 0.0 for row in values])
    return means, 1.96 * spreads / math.sqrt(trials)


class TestMonteCarloBatches:
    """Batched answer laws give the per-trial values exactly."""

    grid = (0.0, 0.3, 1.0)

    @given(case=restricted_explicit_cases(), trials=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_per_trial_loop(self, case, trials, seed):
        scenario, fmt, k, query = case
        got = spc_general(scenario, fmt, k, query, self.grid, MonteCarlo(trials, seed=seed))
        means, half_widths = _per_trial_monte_carlo(scenario, fmt, k, query, self.grid,
                                                    trials, seed)
        assert got.value.tolist() == means.tolist()
        assert got.half_width.tolist() == half_widths.tolist()

    @pytest.mark.parametrize("trials", [MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1, 2 * MC_CHUNK + 3])
    def test_trial_counts_around_the_chunk(self, trials):
        probs = np.random.default_rng(trials).uniform(0.0, 1.0, 12)
        probs[3], probs[8] = 0.0, 1.0
        scenario = Scenario(12, ExplicitEntries(tuple((p,) for p in probs)), critical_index=4)
        fmt = TemplateFormat((5, 4, 2))
        for k, negate in ((1, False), (2, True), (3, False)):
            query = PropertyQuery(negate=negate)
            got = spc_general(scenario, fmt, k, query, self.grid, MonteCarlo(trials, seed=trials))
            means, half_widths = _per_trial_monte_carlo(scenario, fmt, k, query, self.grid,
                                                        trials, trials)
            assert got.value.tolist() == means.tolist()
            assert got.half_width.tolist() == half_widths.tolist()


def _per_subset_enumerate(scenario, fmt, k, query, grid):
    """Enumerate spc_general on explicit entries with one poisson_binomial,
    indicator_laws and d_hat per co-member subset."""
    others = [i for i in range(scenario.n) if i != scenario.critical_index - 1]
    picks = fmt.sizes[k - 1] - 1
    probs = scenario.probs_matrix()
    weight = 1.0 / math.comb(scenario.n - 1, picks)
    terms = [weight * d_hat(indicator_laws(query, probs[list(co), :]), grid)
             for co in combinations(others, picks)]
    return np.minimum(1.0, fsum_terms(terms))


class TestEnumerateBatches:
    """Subsets enumerated MC_CHUNK at a time give the per-subset values exactly."""

    grid = (0.0, 0.3, 1.0)

    @given(case=restricted_explicit_cases())
    @settings(max_examples=60, deadline=None)
    def test_equals_per_subset_loop(self, case):
        scenario, fmt, k, query = case
        got = spc_general(scenario, fmt, k, query, self.grid)
        assert got.half_width is None
        assert got.value.tolist() == _per_subset_enumerate(scenario, fmt, k, query,
                                                           self.grid).tolist()

    @pytest.mark.parametrize("subsets", [MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1, 2 * MC_CHUNK + 1])
    def test_subset_counts_around_the_chunk(self, subsets):
        # blocks of two: one co-member out of the n - 1 = `subsets` other entries
        n = subsets + 1
        probs = np.random.default_rng(subsets).uniform(0.0, 1.0, n)
        probs[1], probs[5], probs[9] = 0.0, 1.0, 1e-160
        scenario = Scenario(n, ExplicitEntries(tuple((p,) for p in probs)), critical_index=3)
        fmt = TemplateFormat((2, 2))
        for k, negate in ((1, False), (2, True)):
            query = PropertyQuery(negate=negate)
            got = spc_general(scenario, fmt, k, query, self.grid)
            assert got.value.tolist() == _per_subset_enumerate(scenario, fmt, k, query,
                                                               self.grid).tolist()

    def test_single_member_block_has_no_co_members(self):
        scenario = Scenario(5, ExplicitEntries(((0.2,), (0.0,), (1.0,), (0.7,), (0.4,))),
                            critical_index=2)
        fmt = TemplateFormat((1, 3))
        got = spc_general(scenario, fmt, 1, PropertyQuery(), self.grid)
        # a point mass against its shift: total variation 1, and 1 at every epsilon
        assert got.value.tolist() == [1.0, 1.0, 1.0]
        assert got.value.tolist() == _per_subset_enumerate(scenario, fmt, 1, PropertyQuery(),
                                                           self.grid).tolist()


@st.composite
def block_pool_cases(draw):
    """A scenario (n <= 9) of any entry model, a pool of co-member candidates
    (a random increasing subset of the positions among the non-critical
    entries, so S < n is covered), a block size that fits it, and a query
    that may be negated."""
    n = draw(st.integers(2, 9))
    kind = draw(st.sampled_from(("iid", "known", "explicit")))
    if kind == "iid":
        entries = IidEntries(tuple(draw(st.lists(EDGE_PROBS, min_size=1, max_size=2))))
    elif kind == "known":
        known = draw(st.integers(0, n - 1))
        entries = KnownEntries(draw(EDGE_PROBS), known, draw(st.integers(0, known)))
    else:
        width = draw(st.integers(1, 2))
        entries = ExplicitEntries(tuple(tuple(draw(st.lists(EDGE_PROBS, min_size=width,
                                                            max_size=width)))
                                        for _ in range(n)))
    scenario = Scenario(n, entries, critical_index=draw(st.integers(1, n)))
    order = draw(st.permutations(range(n - 1)))
    pool = tuple(sorted(order[:draw(st.integers(0, n - 1))]))
    query = PropertyQuery(draw(st.integers(0, scenario.num_attributes - 1)),
                          negate=draw(st.booleans()))
    return scenario, pool, draw(st.integers(1, len(pool) + 1)), query


class TestOneBlockEvaluator:
    """The cached block evaluator against the reference that evaluates every
    pool on its own, maps its positions to indices and counts known entries
    with np.isin."""

    grid = np.array([0.0, 0.3, 1.0])

    @given(case=block_pool_cases())
    @example(case=(Scenario(9, KnownEntries(0.3, 5, 2), critical_index=2), (1, 2, 5, 6, 7), 3,
                   PropertyQuery(negate=True)))
    @example(case=(Scenario(6, ExplicitEntries(((0.1, 0.9), (0.5, 0.2), (0.7, 0.0), (1.0, 0.4),
                                                (0.3, 0.6), (0.2, 0.8))), critical_index=4),
                   (0, 2, 3, 4), 3, PropertyQuery(1, negate=True)))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_every_pool_reference(self, case):
        scenario, pool, size, query = case
        divergence = _block_divergences(scenario, self.grid)
        got = divergence(pool, size, query)
        want = _block_divergence(scenario, pool, size, query, self.grid)
        assert got.tobytes() == want.tobytes()
        # a second call is served from the cache, with the same bits
        assert divergence(pool, size, query).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bound", [0, 300, 10**4])
    def test_overlapping_pools_past_one_chunk(self, monkeypatch, bound):
        # the first pool's 495 subsets take two chunks, and a bound of 300 stops
        # storing in the second; the later pools' subsets are all among them, so
        # their chunks take stored rows, fresh rows or both
        monkeypatch.setattr(spacct.spc, "STORED_ROWS", bound)
        probs = np.random.default_rng(bound).random((13, 2))
        scenario = Scenario(13, ExplicitEntries(tuple(map(tuple, probs))), critical_index=5)
        others = tuple(range(12))
        divergence = _block_divergences(scenario, self.grid)
        for pool in (others, others[1:], others[:-1], others[3:]):
            for query in (PropertyQuery(1), PropertyQuery(0, negate=True)):
                want = _block_divergence(scenario, pool, 5, query, self.grid)
                assert divergence(pool, 5, query).tobytes() == want.tobytes()


def _pair_delta(member_p: float, eps: float, shifted_first: bool) -> float:
    """Hockey stick for a single-member block: Bernoulli(p) + shift vs base."""
    base = {0: 1 - member_p, 1: member_p}
    shifted = {1: 1 - member_p, 2: member_p}
    hi, lo = (shifted, base) if shifted_first else (base, shifted)
    scale = math.exp(eps)
    support = set(hi) | set(lo)
    return sum(max(0.0, hi.get(a, 0.0) - scale * lo.get(a, 0.0)) for a in support)
