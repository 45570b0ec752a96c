import math

import pytest

import spacct.compose
from spacct import (
    AdaptiveSpec,
    CapacityError,
    DomainError,
    Enumerate,
    ExplicitEntries,
    IidEntries,
    MonteCarlo,
    NonadaptiveSpec,
    PartitionLaw,
    PropertyQuery,
    Scenario,
    TemplateFormat,
    adaptive_general,
    adaptive_iid,
    composition_delta,
    d_hat,
    nonadaptive_general,
    nonadaptive_iid,
    property_query_answer_law,
    spc_general,
)

from rational_ref import adaptive_theorem_sum, dhat_shift_pair, nonadaptive_theorem_sum


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


GRID = (0.0, 0.1, 0.5, 1.0, 750.0)


def _grid_cases():
    explicit = Scenario(7, ExplicitEntries(((0.2,), (0.8,), (0.5,), (0.35,), (0.6,), (0.1,),
                                            (0.9,))), critical_index=3)
    iid = Scenario(7, IidEntries((0.3,)), critical_index=3)

    def choose(prefix):
        if not prefix:
            return PropertyQuery()
        return PropertyQuery() if prefix[0] >= 1 else PropertyQuery(negate=True)

    flat = NonadaptiveSpec(TemplateFormat((3, 2, 2)),
                           (PropertyQuery(), PropertyQuery(negate=True), PropertyQuery()))
    tree = AdaptiveSpec(TemplateFormat((2, 2, 2)), choose)
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


class TestAdaptiveIid:
    def test_degenerate_tree_equals_nonadaptive(self):
        sc = Scenario(8, IidEntries((0.4,)))
        spec = AdaptiveSpec(TemplateFormat((4, 4)), lambda prefix: PropertyQuery())
        flat = nonadaptive_iid(sc, equal_spec(8, 2), 0.1)
        adaptive = adaptive_iid(sc, spec, 0.1)
        assert adaptive.total_delta == pytest.approx(flat.total_delta, abs=1e-15)

    def test_two_branch_hand_sum(self):
        # block 1 queries attribute 0; block 2 queries attribute 0 when the
        # first answer is >= 2 and attribute 1 otherwise
        sc = Scenario(8, IidEntries((0.5, 0.3)))

        def choose(prefix):
            if not prefix:
                return PropertyQuery(0)
            return PropertyQuery(0) if prefix[0] >= 2 else PropertyQuery(1)

        spec = AdaptiveSpec(TemplateFormat((4, 4)), choose)
        eps = 0.1
        d_a = dhat_shift_pair(4, 0.5, eps)
        d_b = dhat_shift_pair(4, 0.3, eps)
        p_high = sum(math.comb(4, a) * 0.5**4 for a in (2, 3, 4))
        expected = 0.5 * d_a + 0.5 * (p_high * d_a + (1 - p_high) * d_b)
        report = adaptive_iid(sc, spec, eps)
        assert report.total_delta == pytest.approx(expected, abs=1e-12)

    def test_prefix_cap(self):
        sc = Scenario(4096, IidEntries((0.5,)))
        spec = AdaptiveSpec(TemplateFormat((2048, 2048)), lambda prefix: PropertyQuery())
        with pytest.raises(CapacityError):
            adaptive_iid(sc, spec, 0.1, prefix_cap=100)

    def test_rejects_non_iid(self):
        sc = Scenario(4, ExplicitEntries(((0.5,), (0.2,), (0.5,), (0.5,))))
        with pytest.raises(DomainError):
            adaptive_iid(sc, AdaptiveSpec(TemplateFormat((2, 2)), lambda p: PropertyQuery()), 0.1)


class TestAdaptiveGeneral:
    def test_iid_collapse(self):
        sc_exp = Scenario(6, ExplicitEntries(((0.4, 0.7),) * 6), critical_index=2)
        sc_iid = Scenario(6, IidEntries((0.4, 0.7)), critical_index=2)

        def choose(prefix):
            if not prefix:
                return PropertyQuery(0)
            return PropertyQuery(0) if prefix[0] >= 1 else PropertyQuery(1)

        spec = AdaptiveSpec(TemplateFormat((2, 2)), choose)
        for eps in (0.0, 0.2, 1.0):
            general = adaptive_general(sc_exp, spec, eps)
            iid = adaptive_iid(sc_iid, spec, eps)
            assert general.total_delta == pytest.approx(iid.total_delta, abs=1e-12)

    def test_single_block_has_no_prefix_integral(self):
        probs = ((0.2,), (0.7,), (0.5,), (0.6,))
        sc = Scenario(4, ExplicitEntries(probs), critical_index=1)
        spec_a = AdaptiveSpec(TemplateFormat((2,)), lambda prefix: PropertyQuery())
        spec_n = NonadaptiveSpec(TemplateFormat((2,)), (PropertyQuery(),))
        a = adaptive_general(sc, spec_a, 0.15).total_delta
        n = nonadaptive_general(sc, spec_n, 0.15).total_delta
        assert a == pytest.approx(n, abs=1e-15)

    def test_matches_independent_theorem_sum(self):
        probs = [[0.2, 0.6], [0.8, 0.4], [0.5, 0.5], [0.5, 0.3], [0.3, 0.9], [0.7, 0.1]]
        sc = Scenario(6, ExplicitEntries(tuple(tuple(r) for r in probs)), critical_index=5)

        def choose(prefix):
            if not prefix:
                return PropertyQuery(0)
            return PropertyQuery(0) if prefix[0] >= 1 else PropertyQuery(1)

        def choose_ref(prefix):
            if not prefix:
                return (0, False)
            return (0, False) if prefix[0] >= 1 else (1, False)

        spec = AdaptiveSpec(TemplateFormat((2, 2)), choose)
        for eps in (0.0, 0.4):
            mine = adaptive_general(sc, spec, eps).total_delta
            ref = adaptive_theorem_sum(6, probs, 5, (2, 2), choose_ref, eps)
            assert mine == pytest.approx(ref, abs=1e-12)


class TestDispatcher:
    def test_routes_by_model_and_spec(self):
        sc_iid = Scenario(4, IidEntries((0.5,)))
        sc_exp = Scenario(4, ExplicitEntries(((0.5,), (0.2,), (0.5,), (0.5,))))
        flat = equal_spec(4, 2)
        tree = AdaptiveSpec(TemplateFormat((2, 2)), lambda prefix: PropertyQuery())
        assert composition_delta(sc_iid, flat, 0.1).mode == "nonadaptive-iid"
        assert composition_delta(sc_exp, flat, 0.1).mode == "nonadaptive-general"
        assert composition_delta(sc_iid, tree, 0.1).mode == "adaptive-iid"
        assert composition_delta(sc_exp, tree, 0.1).mode == "adaptive-general"

    def test_adaptive_monte_carlo_rejected(self):
        sc = Scenario(4, IidEntries((0.5,)))
        tree = AdaptiveSpec(TemplateFormat((2, 2)), lambda prefix: PropertyQuery())
        with pytest.raises(DomainError):
            composition_delta(sc, tree, 0.1, MonteCarlo(trials=1000))
