import math
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spacct.compose
import spacct.spc
from spacct import (
    AdaptiveSpec,
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
    ThresholdTree,
    adaptive_general,
    adaptive_iid,
    composition_delta,
    d_hat,
    nonadaptive_general,
    nonadaptive_iid,
    property_query_answer_law,
    spc_general,
    spc_iid,
    spc_known_entries,
)
from spacct.tables import TABLE1, TABLE2, compute_table

from rational_ref import (
    _block_divergence,
    adaptive_iid_prefix_sum,
    adaptive_theorem_sum,
    dhat_shift_pair,
    level_loop_adaptive_iid,
    nonadaptive_theorem_sum,
    per_template_adaptive_general,
    tree_choice,
)


# two-block trees: one query throughout, and attribute 0 first, then attribute
# 0 again when the first answer is at least 1 and attribute 1 otherwise
UNIFORM_2x2 = ThresholdTree(PropertyQuery(), 1, low=ThresholdTree(PropertyQuery()),
                            high=ThresholdTree(PropertyQuery()))
SWITCH_AT_1 = ThresholdTree(PropertyQuery(0), 1, low=ThresholdTree(PropertyQuery(1)),
                            high=ThresholdTree(PropertyQuery(0)))


def equal_spec(n: int, m: int) -> NonadaptiveSpec:
    return NonadaptiveSpec(
        TemplateFormat((n // m,) * m), tuple(PropertyQuery() for _ in range(m))
    )


class TestNonadaptiveIid:
    def test_table1_cell(self):
        sc = Scenario(32768, IidEntries((0.5,)))
        report = nonadaptive_iid(sc, equal_spec(32768, 32), 0.02)
        assert report.total_delta == pytest.approx(0.0163, abs=5e-4)

    def test_table2_cell(self):
        sc = Scenario(1024, IidEntries((0.5,)))
        report = nonadaptive_iid(sc, equal_spec(1024, 128), 0.2)
        assert report.total_delta == pytest.approx(0.2232, abs=5e-4)

    def test_single_block_equals_full_dhat(self):
        sc = Scenario(12, IidEntries((0.3,)))
        spec = NonadaptiveSpec(TemplateFormat((12,)), (PropertyQuery(),))
        report = nonadaptive_iid(sc, spec, 0.1)
        assert report.total_delta == pytest.approx(dhat_shift_pair(12, 0.3, 0.1), abs=1e-12)

    def test_equal_blocks_collapse_to_single_dhat(self):
        sc = Scenario(64, IidEntries((0.5,)))
        report = nonadaptive_iid(sc, equal_spec(64, 4), 0.05)
        laws = {c: property_query_answer_law(16, 0.5, c) for c in (0, 1)}
        assert abs(report.total_delta - d_hat(laws, 0.05)) <= 1e-12

    def test_report_structure(self):
        sc = Scenario(12, IidEntries((0.4,)))
        spec = NonadaptiveSpec(TemplateFormat((4, 6)), (PropertyQuery(), PropertyQuery()))
        report = nonadaptive_iid(sc, spec, 0.1)
        assert [t.weight for t in report.per_block] == [4 / 12, 6 / 12]
        recomputed = math.fsum(t.weight * t.delta for t in report.per_block)
        assert abs(report.raw_delta - recomputed) <= 1e-12
        assert report.total_delta == min(1.0, report.raw_delta)
        assert report.mode == "nonadaptive-iid"

    def test_partial_partition_weights_below_one(self):
        sc = Scenario(10, IidEntries((0.5,)))
        spec = NonadaptiveSpec(TemplateFormat((2, 2)), (PropertyQuery(), PropertyQuery()))
        report = nonadaptive_iid(sc, spec, 0.0)
        assert sum(t.weight for t in report.per_block) == pytest.approx(0.4)

    def test_rejects_non_iid(self):
        sc = Scenario(4, ExplicitEntries(((0.5,), (0.2,), (0.5,), (0.5,))))
        with pytest.raises(DomainError):
            nonadaptive_iid(sc, equal_spec(4, 2), 0.1)

    def test_rejects_oversized_format(self):
        sc = Scenario(6, IidEntries((0.5,)))
        with pytest.raises(DomainError):
            nonadaptive_iid(sc, equal_spec(8, 2), 0.1)

    def test_delta_clamped_to_one(self):
        sc = Scenario(4, IidEntries((0.5,)))
        spec = NonadaptiveSpec(TemplateFormat((1, 1, 1, 1)), tuple(PropertyQuery() for _ in range(4)))
        report = nonadaptive_iid(sc, spec, 0.0)
        assert report.total_delta == 1.0
        assert report.raw_delta == pytest.approx(1.0, abs=1e-12)

    def test_delta_nondecreasing_as_m_doubles(self):
        sc = Scenario(32768, IidEntries((0.5,)))
        for eps in (0.005, 0.01, 0.02):
            deltas = [
                nonadaptive_iid(sc, equal_spec(32768, m), eps).total_delta
                for m in (32, 64, 128, 256, 512)
            ]
            assert deltas == sorted(deltas)


class TestNonadaptiveGeneral:
    def test_iid_collapse(self):
        sc_exp = Scenario(6, ExplicitEntries(((0.3,),) * 6), critical_index=4)
        sc_iid = Scenario(6, IidEntries((0.3,)), critical_index=4)
        spec = equal_spec(6, 2)
        general = nonadaptive_general(sc_exp, spec, 0.1)
        iid = nonadaptive_iid(sc_iid, spec, 0.1)
        assert general.total_delta == pytest.approx(iid.total_delta, abs=1e-12)

    def test_matches_independent_theorem_sum(self):
        probs = [0.2, 0.8, 0.5, 0.5]
        sc = Scenario(4, ExplicitEntries(tuple((p,) for p in probs)), critical_index=3)
        spec = NonadaptiveSpec(TemplateFormat((2, 2)), (PropertyQuery(), PropertyQuery()))
        for eps in (0.0, 0.3):
            mine = nonadaptive_general(sc, spec, eps).total_delta
            ref = nonadaptive_theorem_sum(4, probs, 3, (2, 2), (False, False), eps)
            assert mine == pytest.approx(ref, abs=1e-12)

    def test_monte_carlo_mode(self):
        probs = [0.2, 0.8, 0.5, 0.5, 0.4, 0.6]
        sc = Scenario(6, ExplicitEntries(tuple((p,) for p in probs)), critical_index=2)
        spec = equal_spec(6, 2)
        exact = nonadaptive_general(sc, spec, 0.1).total_delta
        mc = nonadaptive_general(sc, spec, 0.1, MonteCarlo(trials=4000, seed=3))
        assert mc.total_half_width is not None
        assert abs(mc.total_delta - exact) <= 4 * mc.total_half_width + 5e-3


class TestSharedEnumeratedBlocks:
    """Enumerated blocks with the same size and query are evaluated once."""

    def test_repeated_query_makes_one_spc_call(self, monkeypatch):
        probs = [0.1 + 0.05 * i for i in range(16)]
        sc = Scenario(16, ExplicitEntries(tuple((p,) for p in probs)), critical_index=7)
        fmt = TemplateFormat((4, 4, 4, 4))
        query = PropertyQuery()
        eps = (0.0, 0.3)
        # the block terms as evaluated one by one
        per_block = [spc_general(sc, PartitionLaw(16, fmt, restriction=(7, k)), query, eps).value
                     for k in range(1, 5)]
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return spc_general(*args, **kwargs)

        monkeypatch.setattr(spacct.compose, "spc_general", counting)
        report = nonadaptive_general(sc, NonadaptiveSpec(fmt, (query,) * 4), eps)
        assert len(calls) == 1
        for i, one in enumerate(report.split()):
            assert [t.delta for t in one.per_block] == [float(d[i]) for d in per_block]
            raw = math.fsum(0.25 * float(d[i]) for d in per_block)
            assert one.raw_delta == raw and one.total_delta == min(1.0, raw)

    def test_negation_and_size_are_part_of_the_key(self, monkeypatch):
        sc = Scenario(9, ExplicitEntries(tuple((0.1 * i,) for i in range(1, 10))),
                      critical_index=2)
        spec = NonadaptiveSpec(TemplateFormat((2, 3, 2, 2)), (
            PropertyQuery(), PropertyQuery(), PropertyQuery(negate=True), PropertyQuery()))
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return spc_general(*args, **kwargs)

        unshared = nonadaptive_general(sc, spec, 0.2)
        monkeypatch.setattr(spacct.compose, "spc_general", counting)
        assert nonadaptive_general(sc, spec, 0.2) == unshared
        assert len(calls) == 3  # (2, ones), (3, ones), (2, zeros)

    def test_monte_carlo_blocks_keep_their_own_streams(self, monkeypatch):
        sc = Scenario(8, ExplicitEntries(tuple((0.1 * i,) for i in range(1, 9))))
        spec = NonadaptiveSpec(TemplateFormat((2, 2)), (PropertyQuery(), PropertyQuery()))
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return spc_general(*args, **kwargs)

        monkeypatch.setattr(spacct.compose, "spc_general", counting)
        nonadaptive_general(sc, spec, 0.2, MonteCarlo(trials=50, seed=4))
        assert len(calls) == 2


@st.composite
def known_entry_cases(draw):
    """Small known-entries scenarios with a nonadaptive spec of up to 3 blocks."""
    n = draw(st.integers(1, 14))
    known = draw(st.integers(0, n - 1))
    entries = KnownEntries(draw(st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0))),
                           known, draw(st.integers(0, known)))
    sizes, left = [], n
    while left and len(sizes) < 3 and (not sizes or draw(st.booleans())):
        sizes.append(draw(st.integers(1, left)))
        left -= sizes[-1]
    queries = tuple(PropertyQuery(negate=draw(st.booleans())) for _ in sizes)
    scenario = Scenario(n, entries, critical_index=draw(st.integers(1, n)))
    return scenario, NonadaptiveSpec(TemplateFormat(tuple(sizes)), queries)


class TestKnownEntriesMixture:
    """Nonadaptive known entries take the hypergeometric mixture; the subset
    enumeration over the same entries as explicit rows is the slow path."""

    @given(known_entry_cases())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_subset_enumeration(self, case):
        scenario, spec = case
        rows = scenario.entries.matrix(scenario.n, scenario.critical_index)
        slow_scenario = Scenario(scenario.n, ExplicitEntries(tuple(map(tuple, rows.tolist()))),
                                 critical_index=scenario.critical_index)
        eps = (0.0, 0.3, 1.0)
        fast = composition_delta(scenario, spec, eps)
        slow = nonadaptive_general(slow_scenario, spec, eps)
        for mine, ref in zip(fast.per_block, slow.per_block):
            np.testing.assert_allclose(mine.delta, ref.delta, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(fast.total_delta, slow.total_delta, rtol=0.0, atol=1e-13)

    def test_block_terms_are_the_population_adjusted_mixture(self):
        sc = Scenario(300, KnownEntries(0.4, known=90, known_positive=20), critical_index=7)
        spec = NonadaptiveSpec(TemplateFormat((60, 30)), (PropertyQuery(negate=True),
                                                          PropertyQuery()))
        report = nonadaptive_general(sc, spec, (0.0, 0.2))
        want = [spc_known_entries(sc, size, (0.0, 0.2), query, population_excludes_critical=True)
                for size, query in zip(spec.format.sizes, spec.queries)]
        for term, delta in zip(report.per_block, want):
            assert term.delta.tolist() == delta.tolist()

    def test_subset_cap_does_not_apply(self, monkeypatch):
        monkeypatch.setattr(spacct.spc, "TEMPLATE_CAP", 1)
        sc = Scenario(32768, KnownEntries(0.5, known=16000))
        spec = equal_spec(2048, 2)
        report = nonadaptive_general(sc, spec, 0.1, Enumerate())
        assert 0.0 < report.total_delta < 1.0

    def test_iid_block_terms_equal_spc_iid(self, monkeypatch):
        sc = Scenario(40, IidEntries((0.3, 0.65)), critical_index=5)
        spec = NonadaptiveSpec(TemplateFormat((8, 8, 12)), (
            PropertyQuery(1), PropertyQuery(0, negate=True), PropertyQuery(1, negate=True)))
        eps = (0.0, 0.1, 2.0)
        report = nonadaptive_iid(sc, spec, eps)
        for term, size, query in zip(report.per_block, spec.format.sizes, spec.queries):
            assert term.delta.tolist() == spc_iid(sc, size, eps, query).tolist()
        monkeypatch.setattr(spacct.spc, "TEMPLATE_CAP", 1)
        general = nonadaptive_general(sc, spec, eps, Enumerate())
        assert general.total_delta.tolist() == report.total_delta.tolist()
        assert general.mode == "nonadaptive-general" and report.mode == "nonadaptive-iid"


GRID = (0.0, 0.1, 0.5, 1.0, 750.0)


def _grid_cases():
    explicit = Scenario(7, ExplicitEntries(((0.2,), (0.8,), (0.5,), (0.35,), (0.6,), (0.1,),
                                            (0.9,))), critical_index=3)
    iid = Scenario(7, IidEntries((0.3,)), critical_index=3)
    ones, zeros = PropertyQuery(), PropertyQuery(negate=True)
    # the first answer picks the query of both later blocks
    low = ThresholdTree(zeros, 1, low=ThresholdTree(zeros), high=ThresholdTree(zeros))
    high = ThresholdTree(ones, 1, low=ThresholdTree(ones), high=ThresholdTree(ones))
    flat = NonadaptiveSpec(TemplateFormat((3, 2, 2)),
                           (PropertyQuery(), PropertyQuery(negate=True), PropertyQuery()))
    tree = AdaptiveSpec(TemplateFormat((2, 2, 2)), ThresholdTree(ones, 1, low=low, high=high))
    return [
        ("nonadaptive-iid", iid, flat, Enumerate()),
        ("nonadaptive-general", explicit, flat, Enumerate()),
        ("nonadaptive-general", explicit, flat, MonteCarlo(trials=300, seed=(5, 6))),
        ("adaptive-iid", iid, tree, Enumerate()),
        ("adaptive-general", explicit, tree, Enumerate()),
    ]


class TestEpsilonGrid:
    @pytest.mark.parametrize("mode_name, scenario, spec, mode", _grid_cases(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_grid_report_splits_into_scalar_reports(self, mode_name, scenario, spec, mode):
        report = composition_delta(scenario, spec, GRID, mode)
        assert report.mode == mode_name
        assert len(report.per_block) == spec.format.num_blocks
        singles = [composition_delta(scenario, spec, eps, mode) for eps in GRID]
        assert list(report.split()) == singles
        assert [r.to_dict() for r in report.split()] == [r.to_dict() for r in singles]

    def test_scalar_report_is_unchanged(self):
        sc = Scenario(12, IidEntries((0.4,)))
        report = nonadaptive_iid(sc, equal_spec(12, 2), 0.1)
        assert type(report.total_delta) is float and type(report.per_block[0].delta) is float
        assert report.split() == (report,)


class TestTables:
    @pytest.mark.parametrize("table", [TABLE1, TABLE2], ids=["table1", "table2"])
    def test_row_grid_equals_per_cell_calls(self, table):
        sc = Scenario(table.n, IidEntries((table.p,)))
        for cell in compute_table(table, with_dp=False):
            report = nonadaptive_iid(sc, equal_spec(table.n, cell.m), cell.epsilon)
            assert cell.delta_sp == report.total_delta

    def test_one_block_per_row_equals_nonadaptive_iid_bit_for_bit(self):
        # compute_table evaluates a row's one distinct block once; the m-block
        # composition over the row's grid must give the same 24 cells
        got, want = [], []
        for table in (TABLE1, TABLE2):
            sc = Scenario(table.n, IidEntries((table.p,)))
            got += [c.delta_sp for c in compute_table(table, with_dp=False)]
            for row in table.rows:
                want += nonadaptive_iid(sc, equal_spec(table.n, row.m),
                                        table.epsilons).total_delta.tolist()
        assert len(got) == 24
        assert np.array(got).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


class TestAdaptiveIid:
    def test_degenerate_tree_equals_nonadaptive(self):
        sc = Scenario(8, IidEntries((0.4,)))
        spec = AdaptiveSpec(TemplateFormat((4, 4)), UNIFORM_2x2)
        flat = nonadaptive_iid(sc, equal_spec(8, 2), 0.1)
        adaptive = adaptive_iid(sc, spec, 0.1)
        assert adaptive.total_delta == pytest.approx(flat.total_delta, abs=1e-15)

    def test_two_branch_hand_sum(self):
        # block 1 queries attribute 0; block 2 queries attribute 0 when the
        # first answer is >= 2 and attribute 1 otherwise
        sc = Scenario(8, IidEntries((0.5, 0.3)))
        tree = ThresholdTree(PropertyQuery(0), 2, low=ThresholdTree(PropertyQuery(1)),
                             high=ThresholdTree(PropertyQuery(0)))
        spec = AdaptiveSpec(TemplateFormat((4, 4)), tree)
        eps = 0.1
        d_a = dhat_shift_pair(4, 0.5, eps)
        d_b = dhat_shift_pair(4, 0.3, eps)
        p_high = sum(math.comb(4, a) * 0.5**4 for a in (2, 3, 4))
        expected = 0.5 * d_a + 0.5 * (p_high * d_a + (1 - p_high) * d_b)
        report = adaptive_iid(sc, spec, eps)
        assert report.total_delta == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("sizes", [(64, 64, 64, 64), (512, 512, 512)])
    def test_deep_trees_with_one_query_per_depth_equal_nonadaptive(self, sizes):
        # every depth-k node asks the same query, so the reach probabilities of
        # each depth sum to one whatever the thresholds
        sc = Scenario(4096, IidEntries((0.3, 0.6)))
        queries = [PropertyQuery(k % 2, negate=k == 1) for k in range(len(sizes))]

        def tree(depth: int, threshold: int) -> ThresholdTree:
            if depth == len(sizes):
                return ThresholdTree(queries[depth - 1])
            return ThresholdTree(queries[depth - 1], threshold, low=tree(depth + 1, threshold - 5),
                                 high=tree(depth + 1, threshold + 7))

        eps = (0.0, 0.01, 0.1, 1.0)
        fmt = TemplateFormat(sizes)
        adaptive = adaptive_iid(sc, AdaptiveSpec(fmt, tree(1, sizes[0] // 2)), eps)
        flat = nonadaptive_iid(sc, NonadaptiveSpec(fmt, tuple(queries)), eps)
        for a, f in zip(adaptive.per_block, flat.per_block):
            assert a.weight == f.weight
            assert np.max(np.abs(a.delta - f.delta)) <= 1e-12
        assert np.max(np.abs(adaptive.total_delta - flat.total_delta)) <= 1e-12

    def test_rejects_non_iid(self):
        sc = Scenario(4, ExplicitEntries(((0.5,), (0.2,), (0.5,), (0.5,))))
        with pytest.raises(DomainError):
            adaptive_iid(sc, AdaptiveSpec(TemplateFormat((2, 2)), UNIFORM_2x2), 0.1)


class TestAdaptiveGeneral:
    def test_iid_collapse(self):
        sc_exp = Scenario(6, ExplicitEntries(((0.4, 0.7),) * 6), critical_index=2)
        sc_iid = Scenario(6, IidEntries((0.4, 0.7)), critical_index=2)
        spec = AdaptiveSpec(TemplateFormat((2, 2)), SWITCH_AT_1)
        for eps in (0.0, 0.2, 1.0):
            general = adaptive_general(sc_exp, spec, eps)
            iid = adaptive_iid(sc_iid, spec, eps)
            assert general.total_delta == pytest.approx(iid.total_delta, abs=1e-12)

    def test_single_block_has_no_prefix_integral(self):
        probs = ((0.2,), (0.7,), (0.5,), (0.6,))
        sc = Scenario(4, ExplicitEntries(probs), critical_index=1)
        spec_a = AdaptiveSpec(TemplateFormat((2,)), ThresholdTree(PropertyQuery()))
        spec_n = NonadaptiveSpec(TemplateFormat((2,)), (PropertyQuery(),))
        a = adaptive_general(sc, spec_a, 0.15).total_delta
        n = nonadaptive_general(sc, spec_n, 0.15).total_delta
        assert a == pytest.approx(n, abs=1e-15)

    def test_matches_independent_theorem_sum(self):
        probs = [[0.2, 0.6], [0.8, 0.4], [0.5, 0.5], [0.5, 0.3], [0.3, 0.9], [0.7, 0.1]]
        sc = Scenario(6, ExplicitEntries(tuple(tuple(r) for r in probs)), critical_index=5)

        def choose_ref(prefix):
            if not prefix:
                return (0, False)
            return (0, False) if prefix[0] >= 1 else (1, False)

        spec = AdaptiveSpec(TemplateFormat((2, 2)), SWITCH_AT_1)
        for eps in (0.0, 0.4):
            mine = adaptive_general(sc, spec, eps).total_delta
            ref = adaptive_theorem_sum(6, probs, 5, (2, 2), choose_ref, eps)
            assert mine == pytest.approx(ref, abs=1e-12)


class TestDispatcher:
    def test_routes_by_model_and_spec(self):
        sc_iid = Scenario(4, IidEntries((0.5,)))
        sc_exp = Scenario(4, ExplicitEntries(((0.5,), (0.2,), (0.5,), (0.5,))))
        flat = equal_spec(4, 2)
        tree = AdaptiveSpec(TemplateFormat((2, 2)), UNIFORM_2x2)
        assert composition_delta(sc_iid, flat, 0.1).mode == "nonadaptive-iid"
        assert composition_delta(sc_exp, flat, 0.1).mode == "nonadaptive-general"
        assert composition_delta(sc_iid, tree, 0.1).mode == "adaptive-iid"
        assert composition_delta(sc_exp, tree, 0.1).mode == "adaptive-general"

    @pytest.mark.parametrize("entries,mode", [
        (IidEntries((0.3,)), "nonadaptive-iid"), (KnownEntries(0.3, 0, 0), "nonadaptive-iid"),
        (KnownEntries(0.3, 3, 1), "nonadaptive-general")], ids=["iid", "none known", "known"])
    def test_nonadaptive_iid_is_exact_in_monte_carlo_mode(self, entries, mode):
        # the mode only samples explicit entries: iid entries take the closed
        # form and known ones the mixture, with no sampling and no half-width
        sc, spec = Scenario(8, entries), equal_spec(8, 2)
        sampled = composition_delta(sc, spec, [0.0, 0.5], MonteCarlo(trials=50))
        exact = composition_delta(sc, spec, [0.0, 0.5])
        assert sampled.mode == mode
        assert sampled.total_half_width is None
        assert all(term.half_width is None for term in sampled.per_block)
        assert sampled.total_delta.tolist() == exact.total_delta.tolist()

    def test_adaptive_monte_carlo_rejected(self):
        sc = Scenario(4, IidEntries((0.5,)))
        tree = AdaptiveSpec(TemplateFormat((2, 2)), UNIFORM_2x2)
        with pytest.raises(DomainError):
            composition_delta(sc, tree, 0.1, MonteCarlo(trials=1000))


@st.composite
def threshold_trees(draw, sizes: tuple[int, ...], depth: int = 1) -> ThresholdTree:
    """Random trees over two attributes and both negations; thresholds run
    from -1 to n_l + 2, so some branches are certain and some impossible."""
    query = PropertyQuery(draw(st.integers(0, 1)), draw(st.booleans()))
    if depth == len(sizes):
        return ThresholdTree(query)
    return ThresholdTree(query, draw(st.integers(-1, sizes[depth - 1] + 2)),
                         low=draw(threshold_trees(sizes, depth + 1)),
                         high=draw(threshold_trees(sizes, depth + 1)))


PROBS = st.sampled_from([0.0, 0.15, 0.3, 0.5, 0.77, 1.0])
EPSILONS = st.sampled_from([0.0, 0.05, 0.4, 2.0])


class TestTreeWalkAgainstPrefixWalks:
    """The tree walk against the answer-prefix walks of rational_ref."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_general_matches_theorem_sum(self, data):
        n = data.draw(st.integers(2, 6))
        sizes = []
        while len(sizes) < 3 and sum(sizes) < n:
            sizes.append(data.draw(st.integers(1, n - sum(sizes))))
            if data.draw(st.booleans()):
                break
        sizes = tuple(sizes)
        probs = [[data.draw(PROBS), data.draw(PROBS)] for _ in range(n)]
        j = data.draw(st.integers(1, n))
        tree = data.draw(threshold_trees(sizes))
        eps = data.draw(EPSILONS)
        sc = Scenario(n, ExplicitEntries(tuple(tuple(r) for r in probs)), critical_index=j)
        mine = adaptive_general(sc, AdaptiveSpec(TemplateFormat(sizes), tree), eps).raw_delta
        ref = adaptive_theorem_sum(n, probs, j, sizes, tree_choice(tree), eps)
        assert abs(mine - ref) <= 1e-12

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=3), st.integers(0, 5),
           PROBS, PROBS, EPSILONS, st.data())
    @settings(max_examples=60, deadline=None)
    def test_iid_matches_prefix_walk(self, sizes, spare, p0, p1, eps, data):
        sizes = tuple(sizes)
        n = sum(sizes) + spare
        tree = data.draw(threshold_trees(sizes))
        sc = Scenario(n, IidEntries((p0, p1)))
        mine = adaptive_iid(sc, AdaptiveSpec(TemplateFormat(sizes), tree), eps).raw_delta
        ref = adaptive_iid_prefix_sum(n, (p0, p1), sizes, tree_choice(tree), eps)
        assert abs(mine - ref) <= 1e-12


# the README's two-block tree: zeros counted after fewer than 2 ones, else ones
README_TREE = ThresholdTree(PropertyQuery(), 2, low=ThresholdTree(PropertyQuery(negate=True)),
                            high=ThresholdTree(PropertyQuery()))


class TestExchangeableWalk:
    """iid entries take one prefix per level through the prefix walk."""

    @given(st.lists(st.integers(1, 1024), min_size=1, max_size=4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_the_level_loop_bit_for_bit(self, sizes, data):
        sizes = tuple(sizes)
        n = sum(sizes) + data.draw(st.integers(0, 4096 - sum(sizes)))
        sc = Scenario(n, IidEntries((data.draw(PROBS), data.draw(PROBS))))
        spec = AdaptiveSpec(TemplateFormat(sizes), data.draw(threshold_trees(sizes)))
        eps = sorted(data.draw(st.sets(EPSILONS, min_size=1)))
        report = adaptive_iid(sc, spec, eps)
        want = level_loop_adaptive_iid(sc, spec, eps)
        assert [t.delta.tolist() for t in report.per_block] == [d.tolist() for d in want]

    def test_general_takes_the_exchangeable_walk_on_iid_entries(self):
        sc = Scenario(4096, IidEntries((0.5,)))
        spec = AdaptiveSpec(TemplateFormat((64, 64)), README_TREE)
        eps = [0.1, 0.5, 1.0]
        general, iid = adaptive_general(sc, spec, eps), adaptive_iid(sc, spec, eps)
        assert general.mode == "adaptive-general"
        assert [t.delta.tolist() for t in general.per_block] == [
            t.delta.tolist() for t in iid.per_block]

    def test_known_entries_with_none_known_are_iid(self):
        spec = AdaptiveSpec(TemplateFormat((64, 64)), README_TREE)
        known = Scenario(4096, KnownEntries(0.3, 0), critical_index=7)
        iid = adaptive_iid(Scenario(4096, IidEntries((0.3,))), spec, 0.2)
        assert known.is_iid and not Scenario(4096, KnownEntries(0.3, 1)).is_iid
        for report in (adaptive_iid(known, spec, 0.2), composition_delta(known, spec, 0.2)):
            assert report.mode == "adaptive-iid"
            assert [t.delta for t in report.per_block] == [t.delta for t in iid.per_block]


class TestPrefixWalkAgainstTemplateLoop:
    """adaptive_general's walk over prefix blocks against the per-template
    loop it replaced (rational_ref.per_template_adaptive_general)."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_template_loop(self, data):
        n = data.draw(st.integers(1, 7))
        sizes = []
        while len(sizes) < 3 and sum(sizes) < n:
            sizes.append(data.draw(st.integers(1, min(3, n - sum(sizes)))))
            if data.draw(st.booleans()):
                break
        sizes = tuple(sizes)
        if data.draw(st.booleans()):
            known = data.draw(st.integers(0, n - 1))
            entries = KnownEntries(data.draw(PROBS), known, data.draw(st.integers(0, known)))
        else:
            width = data.draw(st.integers(1, 2))
            entries = ExplicitEntries(tuple(tuple(data.draw(PROBS) for _ in range(width))
                                            for _ in range(n)))
        sc = Scenario(n, entries, critical_index=data.draw(st.integers(1, n)))
        # queries reach attribute 1, which one-attribute entries lack
        spec = AdaptiveSpec(TemplateFormat(sizes), data.draw(threshold_trees(sizes)))
        eps = sorted(data.draw(st.sets(EPSILONS, min_size=1)))
        try:
            want = per_template_adaptive_general(sc, spec, eps)
        except (DomainError, CapacityError) as exc:
            with pytest.raises(type(exc)):
                adaptive_general(sc, spec, eps)
            return
        report = adaptive_general(sc, spec, eps)
        for term, block in zip(report.per_block, want, strict=True):
            assert np.max(np.abs(term.delta - block)) <= 1e-15


class TestOneBlockEvaluator:
    """Both composition paths take block divergences from spc._block_divergences;
    only explicit entries average over co-member subsets."""

    @pytest.mark.parametrize("entries,subset_means", [
        (KnownEntries(0.3, 3, 1), False),
        (ExplicitEntries(tuple((0.1 * i,) for i in range(1, 8))), True)],
        ids=["known", "explicit"])
    def test_adaptive_walk_averages_subsets_for_explicit_entries_only(
            self, monkeypatch, entries, subset_means):
        calls, subset_mean = [], spacct.spc._subset_mean

        def counting(*args):
            calls.append(args)
            return subset_mean(*args)

        monkeypatch.setattr(spacct.spc, "_subset_mean", counting)
        sc = Scenario(7, entries, critical_index=3)
        report = adaptive_general(sc, AdaptiveSpec(TemplateFormat((2, 3)), README_TREE), [0.0, 0.4])
        assert bool(calls) == subset_means
        assert report.mode == "adaptive-general"

    def test_known_walk_blocks_are_the_mixture_at_the_pool_counts(self):
        # a one-level tree has one block, whose pool is every non-critical index
        sc = Scenario(14, KnownEntries(0.35, 6, 2), critical_index=6)
        spec = AdaptiveSpec(TemplateFormat((5,)), ThresholdTree(PropertyQuery(negate=True)))
        want = spc_known_entries(sc, 5, (0.0, 0.2), PropertyQuery(negate=True),
                                 population_excludes_critical=True)
        assert adaptive_general(sc, spec, (0.0, 0.2)).per_block[0].delta.tolist() == want.tolist()

    def test_known_walk_evaluates_each_pool_count_once(self, monkeypatch):
        # a known-entries divergence reads only the pool size and the known entries
        # in it: 9 distinct keys here, against 1,188 pools; the totals are those of
        # the walk that evaluates every pool
        sc = Scenario(18, KnownEntries(0.3, 8, 3), critical_index=5)
        spec = AdaptiveSpec(TemplateFormat((3, 5)), README_TREE)
        calls, known_entries = [], spacct.spc.spc_known_entries

        def counting(*args, **kwargs):
            calls.append(args)
            return known_entries(*args, **kwargs)

        monkeypatch.setattr(spacct.spc, "spc_known_entries", counting)
        got = adaptive_general(sc, spec, (0.0, 0.2, 0.5))
        assert len(calls) == 9
        monkeypatch.setattr(spacct.compose, "_block_divergences", lambda scenario, grid: cache(
            partial(_block_divergence, scenario, grid=grid)))
        want = adaptive_general(sc, spec, (0.0, 0.2, 0.5))
        assert len(calls) == 9 + 1188
        assert [t.delta.tobytes() for t in got.per_block] == \
            [t.delta.tobytes() for t in want.per_block]
        assert got.total_delta.tobytes() == want.total_delta.tobytes()

    @staticmethod
    def explicit_walk():
        # adaptive-n9's shape: 28 co-member pairs per query at every level, held
        # by the 56 level-1 pools many times over; entries and queries differ, so
        # no two (query, subset) pairs give the same success row
        probs = tuple(map(tuple, np.random.default_rng(7).random((9, 2))))
        tree = ThresholdTree(
            PropertyQuery(0), 1,
            low=ThresholdTree(PropertyQuery(1, negate=True), 2,
                              low=ThresholdTree(PropertyQuery(0)),
                              high=ThresholdTree(PropertyQuery(1))),
            high=ThresholdTree(PropertyQuery(0, negate=True), 1,
                               low=ThresholdTree(PropertyQuery(1, negate=True)),
                               high=ThresholdTree(PropertyQuery(0))))
        return (Scenario(9, ExplicitEntries(probs), critical_index=4),
                AdaptiveSpec(TemplateFormat((3, 3, 3)), tree))

    def test_explicit_walk_evaluates_each_subset_once(self, monkeypatch):
        sc, spec = self.explicit_walk()
        rows, binomial_rows = [], spacct.spc.poisson_binomial_rows

        def counting(success):
            rows.extend(map(tuple, success.tolist()))
            return binomial_rows(success)

        monkeypatch.setattr(spacct.spc, "poisson_binomial_rows", counting)
        got = adaptive_general(sc, spec, (0.0, 0.5))
        evaluated = len(rows)
        assert len(set(rows)) == evaluated
        rows.clear()
        monkeypatch.setattr(spacct.compose, "_block_divergences", lambda scenario, grid: cache(
            partial(_block_divergence, scenario, grid=grid)))
        want = adaptive_general(sc, spec, (0.0, 0.5))
        # every pool on its own evaluates the same pairs, most of them many times
        assert len(set(rows)) == evaluated < len(rows)
        assert [t.delta.tobytes() for t in got.per_block] == \
            [t.delta.tobytes() for t in want.per_block]
        assert got.total_delta.tobytes() == want.total_delta.tobytes()

    @pytest.mark.parametrize("bound", [0, 1, 40])
    def test_explicit_walk_stores_at_most_the_bound(self, monkeypatch, bound):
        # 112 distinct rows against a bound of 0, 1 or 40: past the bound, pools
        # evaluate their other subsets again, some chunks mixing stored and fresh rows
        sc, spec = self.explicit_walk()
        stores, subset_mean = {}, spacct.spc._subset_mean

        def keeping(success, pool, picks, grid, rows, room):
            stores[id(rows)] = rows
            return subset_mean(success, pool, picks, grid, rows, room)

        monkeypatch.setattr(spacct.spc, "STORED_ROWS", bound)
        monkeypatch.setattr(spacct.spc, "_subset_mean", keeping)
        got = adaptive_general(sc, spec, (0.0, 0.5))
        assert sum(map(len, stores.values())) == bound
        monkeypatch.setattr(spacct.compose, "_block_divergences", lambda scenario, grid: cache(
            partial(_block_divergence, scenario, grid=grid)))
        want = adaptive_general(sc, spec, (0.0, 0.5))
        assert [t.delta.tobytes() for t in got.per_block] == \
            [t.delta.tobytes() for t in want.per_block]
        assert got.total_delta.tobytes() == want.total_delta.tobytes()


class TestAdaptiveSpecTree:
    def test_path_lengths_must_match_the_format(self):
        leaf = ThresholdTree(PropertyQuery())
        with pytest.raises(DomainError, match="shorter"):
            AdaptiveSpec(TemplateFormat((2, 2)), leaf)
        with pytest.raises(DomainError, match="shorter"):
            AdaptiveSpec(TemplateFormat((2, 2, 2)),
                         ThresholdTree(PropertyQuery(), 1, low=UNIFORM_2x2, high=leaf))
        with pytest.raises(DomainError, match="deeper"):
            AdaptiveSpec(TemplateFormat((2,)), UNIFORM_2x2)

    @pytest.mark.parametrize("node", [
        ThresholdTree(PropertyQuery(), 1.5, low=ThresholdTree(PropertyQuery()),
                      high=ThresholdTree(PropertyQuery())),
        ThresholdTree(PropertyQuery(), 1, low=ThresholdTree(PropertyQuery())),
        ThresholdTree(PropertyQuery(), None, low=ThresholdTree(PropertyQuery()),
                      high=ThresholdTree(PropertyQuery())),
        ThresholdTree((0, False), 1, low=ThresholdTree(PropertyQuery()),
                      high=ThresholdTree(PropertyQuery())),
        ThresholdTree(PropertyQuery(), 1, low="low", high=ThresholdTree(PropertyQuery())),
        ThresholdTree(PropertyQuery(), True, low=ThresholdTree(PropertyQuery()),
                      high=ThresholdTree(PropertyQuery())),
    ], ids=["float threshold", "missing child", "children without threshold",
            "query not a PropertyQuery", "child not a tree", "bool threshold"])
    def test_malformed_nodes_are_refused(self, node):
        with pytest.raises(DomainError):
            AdaptiveSpec(TemplateFormat((2, 2)), node)

    def test_unreachable_branches_are_not_evaluated(self):
        # every first answer is below 5, so the high child (attribute 7 of
        # one) is never reached and never checked
        bad = ThresholdTree(PropertyQuery(7))
        tree = ThresholdTree(PropertyQuery(), 5, low=ThresholdTree(PropertyQuery()), high=bad)
        spec = AdaptiveSpec(TemplateFormat((2, 2)), tree)
        flat = equal_spec(4, 2)
        sc_iid = Scenario(4, IidEntries((0.4,)))
        sc_exp = Scenario(4, ExplicitEntries(((0.4,),) * 4))
        assert adaptive_iid(sc_iid, spec, 0.1).total_delta == pytest.approx(
            nonadaptive_iid(sc_iid, flat, 0.1).total_delta, abs=1e-15)
        assert adaptive_general(sc_exp, spec, 0.1).total_delta == pytest.approx(
            nonadaptive_general(sc_exp, flat, 0.1).total_delta, abs=1e-15)
