import math
from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spacct.oracle
from spacct import (
    AdaptiveSpec,
    CapacityError,
    DomainError,
    ExplicitEntries,
    IidEntries,
    NonadaptiveSpec,
    PartitionLaw,
    Pmf,
    PropertyQuery,
    Scenario,
    TemplateFormat,
    ThresholdTree,
    composition_delta,
    enumerate_templates,
    exact_mechanism_law,
    mc_distinguish,
    verification_matrix,
)
from spacct.oracle import (MATRIX_EPSILONS, _block_ends, _counts_below, _mc_histograms,
                           _mc_stream, _Runs, _shuffle_ranks)
from spacct.spc import MC_TRIALS_CAP

from rational_ref import (
    _McRuns,
    block_answer_law,
    enumerate_set_partitions,
    masked_count_answers,
    per_run_histograms,
    per_template_exact_hist,
)


def single_query(n: int, size: int) -> NonadaptiveSpec:
    return NonadaptiveSpec(TemplateFormat((size,)), (PropertyQuery(),))


class TestExactMechanismLaw:
    def test_reveal_half_the_time(self):
        # one singleton sample out of two entries: the answer equals the
        # critical entry whenever it is drawn (probability 1/2)
        sc = Scenario(2, IidEntries((0.5,)))
        law = exact_mechanism_law(sc, single_query(2, 1))
        assert law.delta(0.0) == pytest.approx(0.5, abs=1e-12)
        bound = composition_delta(sc, single_query(2, 1), 0.0).total_delta
        assert law.delta(0.0) <= bound + 1e-12

    def test_identical_conditionals_diverge_zero(self):
        # critical values that differ only in an unqueried attribute induce
        # identical conditional laws, and identical laws have divergence 0
        from spacct import hockey_stick

        sc = Scenario(3, IidEntries((0.4, 0.7)))
        spec = NonadaptiveSpec(TemplateFormat((2,)), (PropertyQuery(attribute=0),))
        law = exact_mechanism_law(sc, spec)
        v00, v10 = 0b00, 0b10  # attribute 1 flips, attribute 0 fixed
        np.testing.assert_allclose(law.laws[v00].masses, law.laws[v10].masses, atol=1e-15)
        assert hockey_stick(law.laws[v00], law.laws[v10], 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_laws_normalized_and_radix(self):
        sc = Scenario(4, IidEntries((0.2,)))
        spec = NonadaptiveSpec(TemplateFormat((2, 2)), (PropertyQuery(), PropertyQuery()))
        law = exact_mechanism_law(sc, spec)
        assert law.radix == (3, 3)
        assert set(law.laws) == {0, 1}
        for pmf in law.laws.values():
            assert abs(pmf.total() - 1.0) <= 1e-9

    def test_matches_independent_enumeration(self):
        # joint law assembled from scratch with dict arithmetic
        probs = [0.3, 0.6, 0.5, 0.8]
        sc = Scenario(4, ExplicitEntries(tuple((p,) for p in probs)), critical_index=2)
        spec = NonadaptiveSpec(TemplateFormat((2, 2)), (PropertyQuery(), PropertyQuery()))
        law = exact_mechanism_law(sc, spec)
        for v in (0, 1):
            assigned = list(probs)
            assigned[1] = float(v)
            joint: dict[tuple[int, int], float] = {}
            partitions = list(enumerate_set_partitions((1, 2, 3, 4), (2, 2)))
            for blocks in partitions:
                law1 = block_answer_law([assigned[i - 1] for i in blocks[0]], 0)
                law2 = block_answer_law([assigned[i - 1] for i in blocks[1]], 0)
                for a1, p1 in law1.items():
                    for a2, p2 in law2.items():
                        key = (a1, a2)
                        joint[key] = joint.get(key, 0.0) + p1 * p2 / len(partitions)
            for (a1, a2), p in joint.items():
                flat = a1 * 3 + a2
                assert law.laws[v].mass(flat) == pytest.approx(p, abs=1e-12)

    def test_capacity_error(self, monkeypatch):
        monkeypatch.setattr(spacct.oracle, "ORACLE_CAP", 100)
        sc = Scenario(8, IidEntries((0.5,)))
        spec = NonadaptiveSpec(TemplateFormat((4, 4)), (PropertyQuery(), PropertyQuery()))
        with pytest.raises(CapacityError):
            exact_mechanism_law(sc, spec)

    def test_capacity_message_prints_a_magnitude(self):
        # the budget 2^16383 * C(16384, 8192) * 8193^2 has over 9,000 digits
        sc = Scenario(16384, IidEntries((0.5,)))
        spec = NonadaptiveSpec(TemplateFormat((8192, 8192)), (PropertyQuery(), PropertyQuery()))
        with pytest.raises(CapacityError, match=r"about 10\^9869 law evaluations") as info:
            exact_mechanism_law(sc, spec)
        assert len(str(info.value)) < 200

    def test_capacity_is_refused_before_any_per_entry_array(self, monkeypatch):
        def refuse(self):
            raise AssertionError("no per-entry array may be built")

        monkeypatch.setattr(Scenario, "probs_matrix", refuse)
        sc = Scenario(10**9, IidEntries((0.5,)))
        spec = NonadaptiveSpec(TemplateFormat((2, 2)), (PropertyQuery(), PropertyQuery()))
        with pytest.raises(CapacityError, match="law evaluations"):
            exact_mechanism_law(sc, spec)

    def test_rebuilt_law_gives_the_same_delta(self):
        sc = Scenario(4, IidEntries((0.5,)))
        spec = single_query(4, 2)
        law = exact_mechanism_law(sc, spec)
        assert exact_mechanism_law(sc, spec).delta(0.1) == law.delta(0.1)


class TestDomination:
    @pytest.mark.parametrize("instance", verification_matrix(), ids=lambda i: i.name)
    def test_bound_dominates_exact(self, instance):
        law = exact_mechanism_law(instance.scenario, instance.spec)
        for eps in MATRIX_EPSILONS:
            exact = law.delta(eps)
            bound = composition_delta(instance.scenario, instance.spec, eps).total_delta
            assert exact <= bound + 1e-9

    def test_multi_attribute_adaptive_domination(self):
        sc = Scenario(4, IidEntries((0.5, 0.3)))
        tree = ThresholdTree(PropertyQuery(0), 1, low=ThresholdTree(PropertyQuery(1)),
                             high=ThresholdTree(PropertyQuery(0)))
        spec = AdaptiveSpec(TemplateFormat((2, 2)), tree)
        law = exact_mechanism_law(sc, spec)
        for eps in MATRIX_EPSILONS:
            assert law.delta(eps) <= composition_delta(sc, spec, eps).total_delta + 1e-9


class TestAttributeOutOfRange:
    """A query on an attribute the entries lack is refused by the bound and
    by both oracles, which read every block answer through one accessor."""

    SCENARIO = Scenario(4, IidEntries((0.5,)))
    NONADAPTIVE = NonadaptiveSpec(TemplateFormat((2, 2)),
                                  (PropertyQuery(), PropertyQuery(attribute=1)))
    # no query reads an attribute the entries have, so the runs hold no count
    NO_COUNT = NonadaptiveSpec(TemplateFormat((2,)), (PropertyQuery(attribute=1),))
    # the root's two children are both reached, so the bad node is evaluated
    ADAPTIVE = AdaptiveSpec(TemplateFormat((2, 2)), ThresholdTree(
        PropertyQuery(), 1, low=ThresholdTree(PropertyQuery()),
        high=ThresholdTree(PropertyQuery(attribute=1, negate=True))))

    @pytest.mark.parametrize("spec", [NONADAPTIVE, ADAPTIVE, NO_COUNT],
                             ids=["nonadaptive", "adaptive", "no count"])
    def test_bound_and_both_oracles_refuse(self, spec):
        with pytest.raises(DomainError, match="attribute 1"):
            composition_delta(self.SCENARIO, spec, 0.1)
        with pytest.raises(DomainError, match="attribute 1"):
            exact_mechanism_law(self.SCENARIO, spec)
        with pytest.raises(DomainError, match="attribute 1"):
            mc_distinguish(self.SCENARIO, spec, 0.1, trials=1000, seed=0)


class TestMcDistinguish:
    def test_requires_enough_trials(self):
        sc = Scenario(2, IidEntries((0.5,)))
        with pytest.raises(DomainError):
            mc_distinguish(sc, single_query(2, 1), 0.1, trials=10, seed=0)

    def test_negative_epsilon_is_refused(self):
        instance = next(i for i in verification_matrix()
                        if i.name == "n=2 p=0.2 m=1 nonadaptive")
        for epsilon in (-1.0, (0.0, -1.0)):
            with pytest.raises(DomainError, match="nonnegative"):
                mc_distinguish(instance.scenario, instance.spec, epsilon, trials=1000, seed=0)

    @pytest.mark.parametrize("trials, seed", [(1000.5, 0), (2000.0, 0), (True, 0), (1000, -1),
                                              (1000, 1.5), (1000, True), (1000, (1, -2))],
                             ids=["fractional trials", "float trials", "bool trials",
                                  "negative seed", "float seed", "bool seed",
                                  "negative seed in tuple"])
    def test_invalid_trials_and_seeds_are_refused_before_sampling(self, monkeypatch, trials,
                                                                    seed):
        def refuse(*args, **kwargs):
            raise AssertionError("no trial may be sampled")

        monkeypatch.setattr(spacct.oracle, "_mc_histograms", refuse)
        sc = Scenario(2, IidEntries((0.5,)))
        with pytest.raises(DomainError):
            mc_distinguish(sc, single_query(2, 1), 0.1, trials=trials, seed=seed)

    def test_trials_above_the_cap_are_refused_before_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no trial may be sampled")

        monkeypatch.setattr(spacct.oracle, "_mc_histograms", refuse)
        sc = Scenario(2, IidEntries((0.5,)))
        with pytest.raises(CapacityError, match="cap"):
            mc_distinguish(sc, single_query(2, 1), 0.1, trials=MC_TRIALS_CAP + 1, seed=0)

    def test_no_spec_draws_nothing(self, monkeypatch):
        # every number a stream draws passes through its generator's random()
        drawn, default_rng = [], np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def random(self, *args, **kwargs):
                numbers = self.rng.random(*args, **kwargs)
                drawn.append(numbers.size)
                return numbers

        monkeypatch.setattr(spacct.oracle.np.random, "default_rng", Counting)
        sc = Scenario(5, IidEntries((0.3,)))
        assert mc_distinguish(sc, [], 0.1, trials=1000, seed=0) == []
        assert drawn == []
        # one spec: per critical value, one sort key and one entry draw per (trial, entry)
        mc_distinguish(sc, [single_query(5, 2)], 0.1, trials=1000, seed=0)
        assert sum(drawn) == sc.num_values * 1000 * 5 * 2

    def test_deterministic(self):
        sc = Scenario(4, IidEntries((0.2,)))
        spec = single_query(4, 2)
        a = mc_distinguish(sc, spec, 0.1, trials=2000, seed=9)
        b = mc_distinguish(sc, spec, 0.1, trials=2000, seed=9)
        assert a == b

    def test_converges_to_exact(self):
        sc = Scenario(4, IidEntries((0.2,)))
        spec = NonadaptiveSpec(TemplateFormat((2, 2)), (PropertyQuery(), PropertyQuery()))
        exact = exact_mechanism_law(sc, spec).delta(0.1)
        mc = mc_distinguish(sc, spec, 0.1, trials=10**5, seed=4)
        assert abs(mc.estimate - exact) <= 3 * mc.half_width + 1e-12

    def test_small_leak_scenario_consistency(self):
        # a partial format samples the critical entry rarely, so the exact
        # divergence is small; the estimate must track it within its error bar
        sc = Scenario(4, IidEntries((0.5,)))
        spec = NonadaptiveSpec(TemplateFormat((1,)), (PropertyQuery(),))
        exact = exact_mechanism_law(sc, spec).delta(1.0)
        mc = mc_distinguish(sc, spec, 1.0, trials=50000, seed=2)
        assert abs(mc.estimate - exact) <= 3 * mc.half_width + 1e-12

    @pytest.mark.parametrize("name", ["n=8 p=0.2 m=2 nonadaptive", "n=4 p=0.5 m=2 adaptive"])
    def test_epsilon_grid_equals_scalar_calls(self, name):
        instance = next(i for i in verification_matrix() if i.name == name)
        grid = mc_distinguish(instance.scenario, instance.spec, MATRIX_EPSILONS,
                              trials=1000, seed=31)
        for i, eps in enumerate(MATRIX_EPSILONS):
            one = mc_distinguish(instance.scenario, instance.spec, eps, trials=1000, seed=31)
            assert (grid.estimate[i], grid.half_width[i]) == one
        law = exact_mechanism_law(instance.scenario, instance.spec)
        assert law.delta(MATRIX_EPSILONS).tolist() == [law.delta(e) for e in MATRIX_EPSILONS]

    def test_half_width_shrinks_with_trials(self):
        sc = Scenario(4, IidEntries((0.5,)))
        spec = single_query(4, 2)
        small = mc_distinguish(sc, spec, 0.1, trials=2000, seed=1)
        large = mc_distinguish(sc, spec, 0.1, trials=50000, seed=1)
        assert large.half_width < small.half_width


def _as_lists(estimate):
    return estimate.estimate.tolist(), estimate.half_width.tolist()


class TestMultiSpecSampling:
    """One sampling shared by several specs gives each spec's own call exactly."""

    def test_matrix_scenarios(self):
        matrix = verification_matrix()
        for scenario, group in groupby(matrix, key=lambda instance: instance.scenario):
            group = list(group)
            together = mc_distinguish(scenario, [i.spec for i in group], MATRIX_EPSILONS,
                                      trials=1000, seed=17)
            assert len(together) == len(group)
            for instance, estimate in zip(group, together):
                alone = mc_distinguish(scenario, instance.spec, MATRIX_EPSILONS,
                                       trials=1000, seed=17)
                assert _as_lists(estimate) == _as_lists(alone), instance.name
        assert len(matrix) == 32

    def test_subsampled_two_attribute_and_adaptive_specs(self):
        probs = ((0.2, 0.7), (0.5, 0.5), (0.9, 0.1), (0.3, 0.6), (0.6, 0.4))
        scenario = Scenario(5, ExplicitEntries(probs), critical_index=3)
        tree = ThresholdTree(PropertyQuery(1), 1, low=ThresholdTree(PropertyQuery(0)),
                             high=ThresholdTree(PropertyQuery(1, negate=True)))
        leaf = ThresholdTree(PropertyQuery(1))
        specs = [
            # formats with fewer indices than n leave entries out of the sample
            NonadaptiveSpec(TemplateFormat((2, 1)), (PropertyQuery(0), PropertyQuery(1))),
            NonadaptiveSpec(TemplateFormat((3,)), (PropertyQuery(1, negate=True),)),
            AdaptiveSpec(TemplateFormat((2, 2)), tree),
            AdaptiveSpec(TemplateFormat((2, 2, 1)), ThresholdTree(
                PropertyQuery(0), 2, low=ThresholdTree(PropertyQuery(1), 1, low=leaf, high=leaf),
                high=ThresholdTree(PropertyQuery(0, negate=True), 2, low=leaf, high=leaf))),
        ]
        together = mc_distinguish(scenario, specs, (0.0, 0.5), trials=2000, seed=3)
        for spec, estimate in zip(specs, together):
            alone = mc_distinguish(scenario, spec, (0.0, 0.5), trials=2000, seed=3)
            assert _as_lists(estimate) == _as_lists(alone)
        # a single spec in a sequence still gives a list
        (one,) = mc_distinguish(scenario, specs[:1], 0.5, trials=2000, seed=3)
        assert one == mc_distinguish(scenario, specs[0], 0.5, trials=2000, seed=3)

    def test_subsampled_estimate_tracks_exact(self):
        scenario = Scenario(5, ExplicitEntries(((0.3,), (0.6,), (0.5,), (0.8,), (0.2,))),
                            critical_index=2)
        spec = NonadaptiveSpec(TemplateFormat((2, 1)), (PropertyQuery(), PropertyQuery()))
        exact = exact_mechanism_law(scenario, spec).delta(0.1)
        mc = mc_distinguish(scenario, spec, 0.1, trials=10**5, seed=8)
        assert abs(mc.estimate - exact) <= 3 * mc.half_width + 1e-12

    def test_format_larger_than_n_is_refused(self):
        scenario = Scenario(3, IidEntries((0.5,)))
        spec = NonadaptiveSpec(TemplateFormat((2, 2)), (PropertyQuery(), PropertyQuery()))
        with pytest.raises(DomainError, match="format"):
            mc_distinguish(scenario, [spec], 0.1, trials=1000, seed=0)


class TestShuffleRanks:
    def test_ranks_invert_argsort_on_tie_free_keys(self):
        for trials in (500, 2500):
            keys = np.random.default_rng(5).random((trials, 7))
            ranks = _shuffle_ranks(keys)
            assert ranks.shape == (7, trials)
            perm = np.argsort(keys, axis=1)
            for t in range(trials):
                assert ranks[perm[t], t].tolist() == list(range(7))

    def test_ties_are_broken_by_index(self):
        keys = np.array([[0.5, 0.5, 0.1, 0.5], [0.2, 0.2, 0.2, 0.2]])
        assert _shuffle_ranks(keys).T.tolist() == [[1, 2, 0, 3], [0, 1, 2, 3]]

    def test_block_answers_equal_argsort_slots(self):
        # the former sampler: argsort the keys, take each block's slots
        scenario = Scenario(6, ExplicitEntries(((0.3, 0.8), (0.6, 0.1), (0.5, 0.5),
                                                (0.9, 0.4), (0.2, 0.7), (0.4, 0.6))),
                            critical_index=4)
        trials = 3000
        rng = np.random.default_rng(21)
        keys = rng.random((trials, 6))
        perm = np.argsort(keys, axis=1)
        entries = rng.random((trials, 6, 2)) < scenario.probs_matrix()[None]
        entries[:, 3, :] = (0, 1)
        pairs = [(a, t) for a in (0, 1) for t in (2, 3, 6)]
        runs = _Runs(pairs, _counts_below(_shuffle_ranks(keys), entries.T, pairs), 6, 2)
        for query in (PropertyQuery(0), PropertyQuery(1, negate=True)):
            plane = entries[:, :, query.attribute].astype(np.int8)
            plane = 1 - plane if query.negate else plane
            for lo, hi in ((0, 2), (2, 3), (3, 6), (0, 6)):
                slots = np.take_along_axis(plane, perm[:, lo:hi], axis=1).sum(axis=1)
                assert runs.answers(query, lo, hi).tolist() == slots.tolist()


@st.composite
def oracle_cases(draw):
    """Explicit scenario with n <= 8 (n <= 5 on two attributes), a format of
    1-3 blocks whose total may be below n, and a nonadaptive spec or a random
    threshold tree (thresholds beyond the answer range included)."""
    num_attrs = draw(st.integers(1, 2))
    most = 8 if num_attrs == 1 else 5
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)
                 .filter(lambda sizes: sum(sizes) <= most))
    n = draw(st.integers(sum(sizes), most))
    probs = draw(st.lists(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 1.0))),
                                   min_size=num_attrs, max_size=num_attrs),
                          min_size=n, max_size=n))
    scenario = Scenario(n, ExplicitEntries(tuple(tuple(row) for row in probs)),
                        critical_index=draw(st.integers(1, n)))
    queries = st.builds(PropertyQuery, st.integers(0, num_attrs - 1), st.booleans())
    fmt = TemplateFormat(tuple(sizes))
    if draw(st.booleans()):
        return scenario, NonadaptiveSpec(fmt, tuple(draw(queries) for _ in sizes))

    def tree(depth: int) -> ThresholdTree:
        if depth == len(sizes):
            return ThresholdTree(draw(queries))
        return ThresholdTree(draw(queries), draw(st.integers(-1, n + 2)),
                             low=tree(depth + 1), high=tree(depth + 1))

    return scenario, AdaptiveSpec(fmt, tree(1))


class TestBatchedRunsAgainstFormerLoops:
    """The batched run simulator against the masked-count loops it replaced, bit for bit."""

    @given(case=oracle_cases(), trials=st.sampled_from((1000, 1001)),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_histograms_equal_masked_counts(self, case, trials, seed):
        scenario, spec = case
        (got,) = _mc_histograms(scenario, [spec], trials, seed)
        n, num_attrs = scenario.n, scenario.num_attributes
        bins = math.prod(s + 1 for s in spec.format.sizes)
        children = np.random.SeedSequence(seed).spawn(scenario.num_values)
        for v in range(scenario.num_values):
            rng = np.random.default_rng(children[v])
            slots = np.argsort(rng.random((trials, n)), axis=1, kind="stable")
            ranks = np.empty((n, trials), dtype=np.int64)
            ranks[slots.T, np.arange(trials)] = np.arange(n)[:, None]
            entries = rng.random((trials, n, num_attrs)) < scenario.probs_matrix()[None]
            entries[:, scenario.critical_index - 1, :] = (v >> np.arange(num_attrs)) & 1
            want = np.bincount(masked_count_answers(ranks, entries, spec), minlength=bins)
            assert np.array_equal(got[v], want / trials)

    def test_unreached_children_are_renumbered(self):
        # the root's low child sends every run high (threshold 0), so three of
        # the four depth-3 nodes are reached and their ids are renumbered
        leaves = [ThresholdTree(PropertyQuery(a, neg)) for neg in (False, True) for a in (0, 1)]
        tree = ThresholdTree(PropertyQuery(0), 1,
                             low=ThresholdTree(PropertyQuery(1), 0, low=leaves[0], high=leaves[1]),
                             high=ThresholdTree(PropertyQuery(1, negate=True), 2,
                                                low=leaves[2], high=leaves[3]))
        probs = ((0.2, 0.7), (0.5, 0.5), (0.9, 0.1), (0.3, 0.6), (0.6, 0.4), (0.45, 0.8))
        scenario = Scenario(6, ExplicitEntries(probs), critical_index=2)
        spec = AdaptiveSpec(TemplateFormat((2, 2, 2)), tree)
        runs = _McRuns.sample(np.random.default_rng(0), scenario, 2, 2000)
        want = masked_count_answers(runs.ranks, runs.entries, spec)
        pairs = _block_ends([spec], 2)
        got = _Runs(pairs, _counts_below(runs.ranks, runs.entries.T, pairs), 6, 2)
        assert np.array_equal(got.flat_answers(spec), want)

    @given(case=oracle_cases(), chunk_runs=st.sampled_from((1, 100, 1 << 16)))
    @settings(max_examples=60, deadline=None)
    def test_exact_laws_equal_the_per_template_loop(self, case, chunk_runs):
        scenario, spec = case
        templates = enumerate_templates(PartitionLaw(scenario.n, spec.format))
        want = per_template_exact_hist(scenario.probs_matrix(), scenario.critical_index,
                                       spec, templates)
        with pytest.MonkeyPatch.context() as mp:
            # chunks of one template, of a few, and of all of them
            mp.setattr(spacct.oracle, "LAW_CHUNK_RUNS", chunk_runs)
            got = exact_mechanism_law(scenario, spec)
        assert sorted(got.laws) == sorted(want)
        for v, hist in want.items():
            ref = Pmf(0, hist)
            assert got.laws[v].offset == ref.offset
            assert np.array_equal(got.laws[v].masses, ref.masses)


@st.composite
def stream_cases(draw):
    """Explicit scenario with n in [2, 9] and 1-3 attributes (2, 4 or 8
    critical values), and 1-2 specs, each on a format of 1-3 blocks whose total
    may be below n: nonadaptive with negations, or a threshold tree whose
    nodes switch attributes."""
    num_attrs = draw(st.integers(1, 3))
    n = draw(st.integers(2, 9))
    probs = draw(st.lists(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 1.0))),
                                   min_size=num_attrs, max_size=num_attrs),
                          min_size=n, max_size=n))
    scenario = Scenario(n, ExplicitEntries(tuple(tuple(row) for row in probs)),
                        critical_index=draw(st.integers(1, n)))
    queries = st.builds(PropertyQuery, st.integers(0, num_attrs - 1), st.booleans())

    def spec():
        sizes = draw(st.lists(st.integers(1, n), min_size=1, max_size=3)
                     .filter(lambda sizes: sum(sizes) <= n))
        fmt = TemplateFormat(tuple(sizes))
        if draw(st.booleans()):
            return NonadaptiveSpec(fmt, tuple(draw(queries) for _ in sizes))

        def tree(depth: int) -> ThresholdTree:
            if depth == len(sizes):
                return ThresholdTree(draw(queries))
            return ThresholdTree(draw(queries), draw(st.integers(-1, n + 2)),
                                 low=tree(depth + 1), high=tree(depth + 1))

        return AdaptiveSpec(fmt, tree(1))

    return scenario, [spec() for _ in range(draw(st.integers(1, 2)))]


# nine singleton blocks: counts below every end 1..9, a key space of
# 2 x 3 x ... x 10 = 3,628,800 against 16,385 runs, so every run keeps its column
SINGLETONS = (Scenario(9, ExplicitEntries(tuple((0.1 * i,) for i in range(1, 10))),
                       critical_index=5),
              [NonadaptiveSpec(TemplateFormat((1,) * 9),
                               tuple(PropertyQuery(negate=i % 2 == 1) for i in range(9)))])


class TestDistinctCountTuples:
    """The histograms of distinct count tuples against the former per-run pipeline."""

    @given(case=stream_cases(), trials=st.sampled_from((1000, 2**14, 2**14 + 1)),
           seed=st.integers(0, 2**32 - 1))
    @example(case=SINGLETONS, trials=2**14 + 1, seed=3)
    @settings(max_examples=40, deadline=None)
    def test_histograms_equal_the_per_run_pipeline(self, case, trials, seed):
        scenario, specs = case
        got = _mc_histograms(scenario, specs, trials, seed)
        want = per_run_histograms(scenario, specs, trials, seed)
        for got_hist, want_hist in zip(got, want, strict=True):
            assert list(got_hist) == list(want_hist)
            for v in want_hist:
                assert np.array_equal(got_hist[v], want_hist[v])

    def test_a_key_space_above_the_runs_keeps_every_run(self):
        scenario, specs = SINGLETONS
        pairs = _block_ends(specs, 1)
        assert math.prod(t + 1 for _, t in pairs) > 2**14 + 1
        below = np.random.default_rng(0).integers(0, 2, (len(pairs), 2**14 + 1)).cumsum(axis=0)
        runs = _Runs.distinct(pairs, below.astype(np.uint8), 9, 1)
        assert runs.weights is None and runs.size == 2**14 + 1

    def test_a_base_as_large_as_the_key_space(self):
        # 255 entries in one block: one pair (0, 255), whose base 256 is the
        # whole key space, one past the largest uint8
        scenario = Scenario(255, IidEntries((0.5,)))
        specs = [NonadaptiveSpec(TemplateFormat((255,)), (PropertyQuery(),))]
        got = _mc_histograms(scenario, specs, 1000, 0)
        want = per_run_histograms(scenario, specs, 1000, 0)
        assert all(np.array_equal(got[0][v], want[0][v]) for v in range(2))

    def test_distinct_columns_carry_their_run_counts(self):
        # keys P(0, 2) * 5 + P(0, 4) in a space of 15, against 18 runs
        pairs = [(0, 2), (0, 4)]
        below = np.tile(np.array([[0, 1, 0, 2, 1, 0], [1, 3, 1, 2, 3, 0]], dtype=np.uint8), 3)
        runs = _Runs.distinct(pairs, below, 4, 1)
        assert runs.below[0, 2].tolist() == [0, 0, 1, 2]
        assert runs.below[0, 4].tolist() == [0, 1, 3, 2]
        assert runs.weights.tolist() == [3, 6, 6, 3]


class TestConcurrentStreams:
    """The critical values' streams, one after another: the reference loop's
    histograms in critical-value order, and nothing drawn past a failed value."""

    two_values = Scenario(5, IidEntries((0.3,)), critical_index=2)
    four_values = Scenario(5, ExplicitEntries(((0.2, 0.7), (0.5, 0.5), (0.9, 0.1),
                                               (0.3, 0.6), (0.6, 0.4))), critical_index=3)

    def specs(self, scenario):
        fmt = TemplateFormat((2, 2))
        tree = ThresholdTree(PropertyQuery(0), 1, low=ThresholdTree(PropertyQuery(0, True)),
                             high=ThresholdTree(PropertyQuery(scenario.num_attributes - 1)))
        return [NonadaptiveSpec(fmt, (PropertyQuery(), PropertyQuery(negate=True))),
                AdaptiveSpec(fmt, tree)]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", ["two_values", "four_values"])
    def test_equal_to_the_serial_loop(self, name, seed):
        scenario = getattr(self, name)
        specs = self.specs(scenario)
        want = per_run_histograms(scenario, specs, 3001, seed)
        got = _mc_histograms(scenario, specs, 3001, seed)
        for got_hist, want_hist in zip(got, want, strict=True):
            assert list(got_hist) == list(range(scenario.num_values))
            for v in want_hist:
                assert np.array_equal(got_hist[v], want_hist[v])

    @pytest.mark.parametrize("failing,raised", [((1,), 1), ((3, 2), 2), ((0, 3), 0)])
    def test_first_error_in_value_order_reaches_the_caller(self, monkeypatch, failing, raised):
        stream = _mc_stream
        drawn = []

        def refuse(rng, scenario, value, trials, specs):
            drawn.append(value)
            if value in failing:
                raise DomainError(f"stream {value} refused")
            return stream(rng, scenario, value, trials, specs)

        monkeypatch.setattr(spacct.oracle, "_mc_stream", refuse)
        with pytest.raises(DomainError, match=f"stream {raised} refused"):
            mc_distinguish(self.four_values, self.specs(self.four_values), 0.1, trials=1000,
                           seed=5)
        # no value after the failed one is drawn
        assert drawn == list(range(raised + 1))

    @pytest.mark.parametrize("trials", [1000, 2**14, 2**14 + 1, 40000])
    def test_chunked_draws_equal_one_draw(self, monkeypatch, trials):
        scenario = self.four_values
        rng = np.random.default_rng(9)
        ranks = _shuffle_ranks(rng.random((trials, scenario.n)))
        entries = rng.random((trials, scenario.n, 2)) < scenario.probs_matrix()[None]
        entries[:, scenario.critical_index - 1, :] = (1, 0)
        specs = self.specs(scenario)
        seen_ranks, seen_planes = [], []

        def spy(chunk_ranks, planes, pairs):
            # the stream reuses its buffers chunk to chunk, so keep copies
            seen_ranks.append(chunk_ranks.copy())
            seen_planes.append(planes.copy())
            return _counts_below(chunk_ranks, planes, pairs)

        monkeypatch.setattr(spacct.oracle, "_counts_below", spy)
        got = _mc_stream(np.random.default_rng(9), scenario, 1, trials, specs)
        assert all(r.dtype == np.uint8 for r in seen_ranks)
        assert np.array_equal(np.concatenate(seen_ranks, axis=1), ranks)
        assert np.array_equal(np.concatenate(seen_planes, axis=2), entries.T)
        for hist, spec in zip(got, specs, strict=True):
            bins = math.prod(s + 1 for s in spec.format.sizes)
            want = np.bincount(masked_count_answers(ranks, entries, spec), minlength=bins)
            assert np.array_equal(hist, want / trials)


class TestVerificationMatrix:
    def test_size_and_labels(self):
        matrix = verification_matrix()
        assert len(matrix) == 32  # 4 sizes x 2 probs x 2 block counts x 2 spec kinds
        names = [i.name for i in matrix]
        assert len(set(names)) == len(names)

    def test_instances_within_oracle_budget(self):
        for instance in verification_matrix():
            exact_mechanism_law(instance.scenario, instance.spec)
