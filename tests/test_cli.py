import contextlib
import csv
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import spacct.cli
import spacct.compose
import spacct.oracle
from spacct import (
    CapacityError,
    DomainError,
    IidEntries,
    KnownEntries,
    PropertyQuery,
    Scenario,
    composition_delta,
    d_hat,
    exact_mechanism_law,
    mc_distinguish,
    property_query_answer_law,
    spc_iid,
    spc_known_entries,
    verification_matrix,
)
from spacct.cli import _emit_json, main
from spacct.errors import magnitude
from spacct.scenario_io import load_scenario

from rational_ref import spc_known_entries_every_row


def _mp_tails(u: int, lo: int, hi: int) -> list:
    """P(B >= t) for t = lo..hi-1, B ~ Bin(u, 1/2), exactly, as mpmath numbers."""
    tails, total, comb = [], 0, 1  # comb = C(u, j), from j = u down
    for j in range(u, max(lo, 0) - 1, -1):
        total += comb
        if j < hi:
            tails.append(mpmath.mpf(total) / 2**u)
        comb = comb * j // (u - j + 1)
    return tails[::-1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestCurveCommand:
    def test_table1_row(self, capsys):
        code, out, _ = run(capsys, "curve", "--n", "32768", "--p", "0.5",
                           "--sample-size", "1024", "--eps", "0.005,0.01,0.02")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["epsilon", "delta"]
        expected = (0.0225, 0.0203, 0.0163)
        for row, exp in zip(rows[1:], expected):
            assert float(row[1]) == pytest.approx(exp, abs=5e-4)

    def test_eps_zero_is_total_variation(self, capsys):
        code, out, _ = run(capsys, "curve", "--n", "4", "--p", "0.5",
                           "--sample-size", "4", "--eps", "0")
        assert code == 0
        got = float(parse_csv(out)[1][1])
        laws = {c: property_query_answer_law(4, 0.5, c) for c in (0, 1)}
        # total variation of B + 1 against B is the mass at the mode, which the
        # curve reads off directly while d_hat sums rounded differences of the
        # same masses, so the two agree to the last bits
        assert got == laws[0].mass(1)
        assert got == pytest.approx(d_hat(laws, 0.0), rel=1e-15)

    def test_missing_n_exits_2(self, capsys):
        code, _, err = run(capsys, "curve", "--p", "0.5")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("eps", ["", ",", " "])
    def test_empty_eps_grid_exits_2(self, capsys, eps):
        # an empty --eps is a grid with no points, not a request for the default one
        code, out, err = run(capsys, "curve", "--n", "100", "--p", "0.5", "--eps", eps)
        assert (code, out) == (2, "")
        assert "epsilon grid must be nonempty" in err

    def test_scenario_is_an_unknown_argument(self, capsys):
        # scenario files go to `compose --scenario`; curve reads --n and --p only
        with pytest.raises(SystemExit) as info:
            main(["curve", "--scenario", "f.json"])
        assert info.value.code == 2
        assert "unrecognized arguments: --scenario f.json" in capsys.readouterr().err

    def test_known_entries_flag(self, capsys):
        code, out, _ = run(capsys, "curve", "--n", "8", "--p", "0.5",
                           "--sample-size", "4", "--known", "4", "--eps", "0.1")
        assert code == 0
        assert 0.0 <= float(parse_csv(out)[1][1]) <= 1.0

    @pytest.mark.parametrize("known", [[], ["--known", "0"]], ids=["no --known", "--known 0"])
    def test_known_positive_without_known_exits_2(self, capsys, known):
        code, out, err = run(capsys, "curve", "--n", "100", "--p", "0.5", *known,
                             "--known-positive", "5", "--eps", "0.1")
        assert code == 2
        assert out == ""
        assert "known_positive may not exceed known" in err

    def test_oversized_known_entry_mixture_exits_3(self, capsys):
        # 10^11 mixture terms: refused before any array is allocated
        code, out, err = run(capsys, "curve", "--n", str(10**12), "--p", "0.5",
                             "--known", str(10**11), "--sample-size", str(2 * 10**11))
        assert code == 3
        assert out == ""
        assert "cap" in err

    def test_known_entry_window_refusal_names_the_largest_u(self, capsys):
        # every row of this mixture needs a tail window over the cap; the
        # refusal names the largest u of the whole support, as the every-row
        # sum does, although the light rows are otherwise evaluated last
        code, out, err = run(capsys, "curve", "--n", "100000000000", "--p", "0.5",
                             "--known", "1000", "--sample-size", "60000000000",
                             "--eps", "0.000001")
        assert (code, out) == (3, "")
        assert err == ("error: a binomial tail window of 1179648 terms exceeds the cap of "
                       "1048576 (u up to 59999999946)\n")
        sc = Scenario(10**11, KnownEntries(0.5, 1000))
        with pytest.raises(CapacityError) as info:
            spc_known_entries_every_row(sc, 6 * 10**10, (1e-6,), PropertyQuery())
        assert err == f"error: {info.value}\n"

    @pytest.mark.parametrize("extra", [[], ["--population-adjusted"]])
    def test_known_entries_curve_equals_scalar_api_calls(self, capsys, extra):
        code, out, _ = run(capsys, "curve", "--n", "400", "--p", "0.3", "--sample-size", "90",
                           "--known", "120", "--known-positive", "40",
                           "--eps", "0,0.01,0.1,1", *extra)
        assert code == 0
        sc = Scenario(400, KnownEntries(0.3, 120, 40))
        adjusted = bool(extra)
        assert parse_csv(out)[1:] == [
            [repr(eps), repr(spc_known_entries(sc, 90, eps, population_excludes_critical=adjusted))]
            for eps in (0.0, 0.01, 0.1, 1.0)]

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "curve", "--n", "16", "--p", "0.5",
                           "--eps", "0.1,0.2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [p["epsilon"] for p in payload["points"]] == [0.1, 0.2]

    def test_default_grid(self, capsys):
        code, out, _ = run(capsys, "curve", "--n", "64", "--p", "0.5")
        assert code == 0
        assert len(parse_csv(out)) == 1 + 6

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run(capsys, "curve", "--n", "16", "--p", "0.5",
                           "--eps", "0.1", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("epsilon,delta\n")

    def test_nan_epsilon_exits_2_without_delta(self, capsys):
        code, out, err = run(capsys, "curve", "--n", "16", "--p", "0.5", "--eps", "0.1,nan")
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("n", [10**12, 10**20])
    def test_known_entries_past_the_log_gamma_limit_exit_2(self, capsys, n):
        code, out, err = run(capsys, "curve", "--n", str(n), "--p", "0.5", "--known", "5")
        if n <= 2**53:
            # the log-gamma limit near 10^6 is gone: 10^12 - 6 or - 5 unknown
            # entries put every default epsilon tens of thousands of standard
            # deviations inside, where the exact delta underflows to 0
            assert code == 0
            assert [row[1] for row in parse_csv(out)[1:]] == ["0.0"] * 6
        else:
            assert code == 2
            assert out == ""
            assert f"population of {n}" in err and "2^53" in err

    def test_known_entries_at_a_million_match_mpmath(self, capsys):
        # exit 2 when the hypergeometric came from log-gamma sums
        code, out, _ = run(capsys, "curve", "--n", "1000000", "--p", "0.5", "--known",
                           "250000", "--sample-size", "1024", "--eps", "0.1")
        assert code == 0
        got = float(parse_csv(out)[1][1])
        with mpmath.workdps(40):
            growth, half = mpmath.expm1(mpmath.mpf(0.1)), mpmath.mpf(1) / 2
            total = mpmath.binomial(10**6, 1023)
            want = mpmath.mpf(0)
            for z in range(256 - 170, 256 + 170):  # +-12 standard deviations
                u = 1023 - z
                # B ~ Bin(u, 1/2) is its own reflection; t is the optimal threshold
                t = math.floor((u + 1) * 0.5 / (0.5 + 0.5 * math.exp(-0.1))) + 1
                tails = _mp_tails(u, t - 2, t + 3)
                delta = max(tails[c] - tails[c + 1] - growth * tails[c + 1] for c in range(3))
                weight = mpmath.binomial(250000, z) * mpmath.binomial(750000, u) / total
                want += weight * delta
        assert got == pytest.approx(float(want), rel=1e-10)

    def test_iid_curve_past_the_float64_integer_limit_exits_2(self, capsys):
        code, out, err = run(capsys, "curve", "--n", str(10**17), "--p", "0.5", "--eps", "0.01")
        assert code == 2 and out == ""
        assert "2^53" in err

    def test_tail_window_over_the_cap_exits_3(self, capsys):
        # an epsilon of 1e-9 at 10^12 entries puts the threshold at the mean,
        # where the tail needs about 9 standard deviations, 4.5 million terms
        code, out, err = run(capsys, "curve", "--n", str(10**12), "--p", "0.5", "--eps", "1e-9")
        assert code == 3 and out == ""
        assert "cap" in err

    def test_known_entries_sample_past_int64(self, capsys):
        code, out, _ = run(capsys, "curve", "--n", str(10**20), "--p", "0", "--known", "1",
                           "--population-adjusted", "--eps", "0.1")
        assert code == 0
        assert parse_csv(out)[1] == ["0.1", "1.0"]

    def test_csv_uses_linefeeds_and_decimal_points(self, capsys):
        code, out, _ = run(capsys, "curve", "--n", "128", "--p", "0.5", "--eps", "0.1")
        assert code == 0
        assert "\r" not in out and "," in out.splitlines()[1]


class TestTableCommands:
    def test_table2_check_passes(self, capsys):
        code, out, err = run(capsys, "table2", "--check", "--skip-dp")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["m", "sigma", "eps", "delta_sp", "dp_queries"]
        assert len(rows) == 1 + 9
        assert "malformed source cell" in err  # flagged 0.0711 cell

    def test_table1_check_passes_without_dp(self, capsys):
        code, out, _ = run(capsys, "table1", "--check", "--skip-dp")
        assert code == 0
        assert len(parse_csv(out)) == 1 + 15

    def test_table_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "table2", "--skip-dp", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 9
        cell = payload[0]
        assert {"m", "sigma", "eps", "delta_sp", "dp_queries"} <= set(cell)

    def test_strict_dp_is_an_unknown_argument(self, capsys):
        # #DP deviations never gate the check, so there is no flag to gate them
        with pytest.raises(SystemExit) as info:
            main(["table2", "--check", "--skip-dp", "--strict-dp"])
        assert info.value.code == 2
        assert "unrecognized arguments: --strict-dp" in capsys.readouterr().err


class TestComposeCommand:
    def scenario_doc(self):
        return {
            "schema_version": 1,
            "n": 6,
            "entry_model": {"kind": "iid", "p": 0.5},
            "format": [3, 3],
            "queries": {"mode": "nonadaptive",
                        "list": [{"attribute": 0}, {"attribute": 0}]},
            "epsilons": [0.1],
        }

    def test_iid_equal_blocks_collapse(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.scenario_doc()))
        code, out, _ = run(capsys, "compose", "--scenario", str(path))
        assert code == 0
        payload = json.loads(out)
        total = payload["reports"][0]["total_delta"]
        assert total == pytest.approx(
            spc_iid(Scenario(6, IidEntries((0.5,))), 3, 0.1), abs=1e-12)

    def test_verify_flag_asserts_domination(self, capsys, tmp_path):
        doc = self.scenario_doc()
        doc["entry_model"] = {"kind": "explicit", "probs": [0.2, 0.8, 0.5, 0.5, 0.3, 0.7]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "compose", "--scenario", str(path), "--verify")
        assert code == 0
        payload = json.loads(out)
        assert all(check["dominated"] for check in payload["verify"])

    def test_verify_enumerates_only_the_entries_left_random(self, capsys, tmp_path):
        # 8 of the 11 non-critical entries are known: 2^3 assignments, not 2^11
        # (54,743,040 law evaluations, over the oracle's cap of 10^7)
        doc = self.scenario_doc()
        doc.update(n=12, entry_model={"kind": "known", "p": 0.3, "known": 8,
                                      "known_positive": 3},
                   critical_index=5, format=[2, 2], epsilons=[0.0, 0.1, 1.0])
        doc["queries"]["list"][1]["negate"] = True
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "compose", "--scenario", str(path), "--verify")
        assert code == 0
        checks = json.loads(out)["verify"]
        assert [round(c["exact_delta"], 4) for c in checks] == [0.1650, 0.1241, 0.0029]
        assert all(c["dominated"] for c in checks)

    def test_capacity_exit_3(self, capsys, tmp_path):
        doc = self.scenario_doc()
        doc["n"] = 40
        doc["format"] = [20, 20]
        doc["entry_model"] = {"kind": "explicit", "probs": [0.5] * 40}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "compose", "--scenario", str(path))
        assert code == 3
        assert "cap" in err
        # nonadaptive composition has a Monte-Carlo mode, so the advice applies
        assert "Monte-Carlo" in err

    def test_known_entries_capacity_message_is_short(self, capsys, tmp_path, monkeypatch):
        # adaptive known entries are capped by their count states: a first block
        # of 1024 holds 0..1024 known ones and 0..1024 known zeros, 1025^2 states
        def refuse(*args):
            raise AssertionError("no mixture may be evaluated")

        monkeypatch.setattr(spacct.spc, "_known_mixture", refuse)
        doc = self.scenario_doc()
        doc.update(n=32768, format=[1024, 1024],
                   entry_model={"kind": "known", "p": 0.5, "known": 16000,
                                "known_positive": 8000},
                   queries={"mode": "adaptive", "tree": {
                       "query": {"attribute": 0}, "next": {
                           "threshold": 512, "low": {"query": {"attribute": 0}},
                           "high": {"query": {"attribute": 0, "negate": True}}}}})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "compose", "--scenario", str(path))
        assert code == 3
        assert out == ""
        assert "1050625 count states exceed the cap" in err and len(err) < 200
        # adaptive composition refuses Monte-Carlo mode, so it must not be advised
        assert "Monte-Carlo" not in err

    def test_nonadaptive_known_entries_take_the_mixture(self, capsys, tmp_path):
        doc = self.scenario_doc()
        doc.update(n=32768, format=[1024, 1024],
                   entry_model={"kind": "known", "p": 0.5, "known": 16000})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "compose", "--scenario", str(path))
        assert code == 0
        (report,) = json.loads(out)["reports"]
        scenario = Scenario(32768, KnownEntries(0.5, 16000))
        block = spc_known_entries(scenario, 1024, 0.1, population_excludes_critical=True)
        assert report["total_delta"] == math.fsum([1024 / 32768 * block] * 2)

    KNOWN_100 = {"kind": "known", "p": 0.5, "known": 100, "known_positive": 50}

    @pytest.mark.parametrize("n", [2**60, 10**20], ids=["2^60", "10^20"])
    @pytest.mark.parametrize("mode", ["nonadaptive", "adaptive"])
    def test_known_entries_past_float64_counts_exit_2(self, capsys, tmp_path, n, mode):
        # a root pool of n - 1 positions; len() of a range ends at 2^63
        doc = self.scenario_doc()
        doc.update(n=n, format=[4096] * 4 if mode == "nonadaptive" else [4096],
                   queries={"mode": "nonadaptive", "list": [{"attribute": 0}] * 4}
                   if mode == "nonadaptive" else {"mode": "adaptive",
                                                  "tree": {"query": {"attribute": 0}}})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**doc, "entry_model": self.KNOWN_100}))
        code, out, err = run(capsys, "compose", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert "needs exact float64 counts" in err and "Traceback" not in err
        path.write_text(json.dumps({**doc, "entry_model": {"kind": "iid", "p": 0.5}}))
        code, out, _ = run(capsys, "compose", "--scenario", str(path))
        assert code == 0
        assert all(0.0 < r["total_delta"] < 1.0 for r in json.loads(out)["reports"])

    def test_known_entries_build_no_per_entry_array(self, capsys, tmp_path):
        # the block terms read two counts: n = 2^22 peaked at 192 MB when the
        # root pool and the known slots were per-entry arrays
        doc = self.scenario_doc()
        doc.update(n=2**22, format=[4096] * 4, entry_model=self.KNOWN_100,
                   queries={"mode": "nonadaptive", "list": [{"attribute": 0}] * 4})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "compose", "--scenario", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 16 * 2**20
        scenario = Scenario(2**22, KnownEntries(0.5, 100, 50))
        block = spc_known_entries(scenario, 4096, 0.1, population_excludes_critical=True)
        (report,) = json.loads(out)["reports"]
        assert report["total_delta"] == math.fsum([4096 / 2**22 * block] * 4)

    def adaptive_known_doc(self, n):
        # 10 known entries (3 positive) and a first block of 2: C(n - 1, 2) prefixes
        doc = self.scenario_doc()
        doc.update(n=n, critical_index=5, format=[2, 30], epsilons=[0.0, 0.1, 1.0],
                   entry_model={"kind": "known", "p": 0.3, "known": 10, "known_positive": 3},
                   queries={"mode": "adaptive", "tree": {
                       "query": {"attribute": 0}, "next": {
                           "threshold": 1, "low": {"query": {"attribute": 0, "negate": True}},
                           "high": {"query": {"attribute": 0}}}}})
        return doc

    def test_adaptive_known_entries_cap_the_prefixes_only(self, capsys, tmp_path, monkeypatch):
        # 4,851 prefixes at n = 100; counting C(98, 29) co-member subsets as well
        # refused the walk with about 10^28 templates, though known block terms
        # are keyed by counts and enumerate no subsets
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.adaptive_known_doc(100)))
        code, out, _ = run(capsys, "compose", "--scenario", str(path))
        assert code == 0
        config = load_scenario(path)
        monkeypatch.setattr(spacct.compose, "TEMPLATE_CAP", 10**40)
        want = composition_delta(config.scenario, config.spec, config.epsilons)
        # JSON floats round-trip, so this is bit for bit
        assert json.loads(out)["reports"] == [r.to_dict() for r in want.split()]

    def test_adaptive_known_cap_runs_before_any_per_entry_array(self, capsys, tmp_path,
                                                                 monkeypatch):
        # the cap and the walk read counts: n = 2^30 exits 0 with no row per entry
        def refuse(self):
            raise AssertionError("no per-entry array may be built")

        monkeypatch.setattr(Scenario, "probs_matrix", refuse)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.adaptive_known_doc(2**30)))
        code, out, _ = run(capsys, "compose", "--scenario", str(path))
        assert code == 0
        config = load_scenario(path)
        want = composition_delta(config.scenario, config.spec, config.epsilons)
        assert json.loads(out)["reports"] == [r.to_dict() for r in want.split()]

    @pytest.mark.parametrize("zeros,refused", [(999, False), (1000, True)])
    def test_adaptive_known_cap_counts_the_count_states(self, capsys, tmp_path, monkeypatch,
                                                        zeros, refused):
        # a first block of 1024 holds 0..999 known ones and 0..zeros known zeros:
        # 1000 x (zeros + 1) count states, at the cap of 10^6 or just over it
        class Started(Exception):
            pass

        def start(scenario, grid):
            raise Started

        monkeypatch.setattr(spacct.compose, "_block_divergences", start)
        doc = self.adaptive_known_doc(32768)
        doc.update(format=[1024, 1024],
                   entry_model={"kind": "known", "p": 0.5, "known": 999 + zeros,
                                "known_positive": 999})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        if not refused:
            with pytest.raises(Started):
                run(capsys, "compose", "--scenario", str(path))
            return
        code, out, err = run(capsys, "compose", "--scenario", str(path))
        assert (code, out) == (3, "")
        assert f"{magnitude(1000 * 1001)} count states exceed the cap of 1000000" in err

    def test_monte_carlo_trials_over_cap_exit_3(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no evaluation may start")

        monkeypatch.setattr(spacct.cli, "composition_delta", refuse)
        doc = self.scenario_doc()
        doc.update(entry_model={"kind": "explicit", "probs": [0.5] * 6},
                   mode={"monte_carlo": {"trials": 10**15}})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "compose", "--scenario", str(path))
        assert code == 3
        assert out == ""
        assert "cap" in err and len(err) < 200

    @pytest.mark.parametrize("sizes", [[64, 64, 64, 64], [512, 512, 512]])
    def test_deep_iid_trees_at_n_4096(self, capsys, tmp_path, sizes):
        def tree(depth):
            node = {"query": {"attribute": 0, "negate": depth % 2 == 0}}
            if depth < len(sizes):
                node["next"] = {"threshold": sizes[depth - 1] // 2,
                                "low": tree(depth + 1), "high": tree(depth + 1)}
            return node

        doc = self.scenario_doc()
        doc.update(n=4096, format=sizes, epsilons=[0.0, 0.1, 1.0],
                   queries={"mode": "adaptive", "tree": tree(1)})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "compose", "--scenario", str(path))
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [len(r["per_block"]) for r in reports] == [len(sizes)] * 3
        assert all(0.0 < r["total_delta"] <= 1.0 for r in reports)

    def test_known_entries_with_none_known_are_iid(self, capsys, tmp_path):
        # known = 0 takes the iid walk, not an enumeration of about 10^140 templates
        doc = self.scenario_doc()
        doc.update(n=4096, format=[64, 64], epsilons=[0.1, 0.5, 1.0],
                   queries={"mode": "adaptive", "tree": {
                       "query": {"attribute": 0}, "next": {
                           "threshold": 2, "low": {"query": {"attribute": 0, "negate": True}},
                           "high": {"query": {"attribute": 0}}}}})
        totals = []
        for model in ({"kind": "iid", "p": 0.5}, {"kind": "known", "p": 0.5, "known": 0}):
            path = tmp_path / f"{model['kind']}.json"
            path.write_text(json.dumps({**doc, "entry_model": model}))
            code, out, _ = run(capsys, "compose", "--scenario", str(path))
            assert code == 0
            reports = json.loads(out)["reports"]
            assert {r["mode"] for r in reports} == {"adaptive-iid"}
            totals.append([r["total_delta"] for r in reports])
        assert totals[0] == totals[1]
        # Monte-Carlo mode gives the exact value, as it does for iid entries
        path = tmp_path / "mc.json"
        path.write_text(json.dumps({**self.scenario_doc(), "mode": {"monte_carlo": {"trials": 50}},
                                    "entry_model": {"kind": "known", "p": 0.5, "known": 0}}))
        code, out, _ = run(capsys, "compose", "--scenario", str(path))
        (report,) = json.loads(out)["reports"]
        assert code == 0 and report["mode"] == "nonadaptive-iid"
        assert report["total_delta"] == spc_iid(Scenario(6, IidEntries((0.5,))), 3, 0.1)

    def test_sixteen_entries_four_blocks_enumerate(self, capsys, tmp_path):
        # 455 co-member subsets per block; whole templates would exceed the cap
        doc = self.scenario_doc()
        doc.update(n=16, format=[4, 4, 4, 4], critical_index=7,
                   entry_model={"kind": "explicit", "probs": [0.1 + 0.05 * i for i in range(16)]},
                   queries={"mode": "nonadaptive", "list": [{"attribute": 0}] * 4})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "compose", "--scenario", str(path))
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert len(report["per_block"]) == 4
        assert 0.0 < report["total_delta"] <= 1.0

    def test_nan_epsilon_exits_2_without_delta(self, capsys, tmp_path):
        doc = self.scenario_doc()
        doc["epsilons"] = ["nan"]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "compose", "--scenario", str(path))
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("update", [
        {"entry_model": {"kind": "iid", "p": "abc"}},
        {"n": [6]},
        {"n": 6.7},
        {"n": True},
        {"mode": {"monte_carlo": {"trials": "x"}}},
        {"mode": {"monte_carlo": {"trials": 10}}, "seed": -1},
        {"queries": {"mode": "nonadaptive",
                     "list": [{"attribute": 0, "negate": "false"}, {"attribute": 0}]}},
    ])
    def test_wrong_json_types_exit_2_without_delta(self, capsys, tmp_path, update):
        doc = self.scenario_doc()
        doc.update(update)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "compose", "--scenario", str(path))
        assert code == 2
        assert out == ""
        assert "must be" in err

    @pytest.mark.parametrize("update", [
        {"schema_version": True},
        {"schema_version": 1.0},
        {"schema_version": "1"},
        {"epsilons": ["0.1"]},
        {"epsilons": [True]},
        {"epsilons": ["0.1", True]},
        {"epsilons": [0.1, None]},
        {"epsilons": [[0.1]]},
        {"schema_version": True, "epsilons": ["0.1", True]},
    ])
    def test_epsilons_and_schema_version_types_exit_2_without_delta(self, capsys, tmp_path,
                                                                      update):
        doc = self.scenario_doc()
        doc.update(update)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "compose", "--scenario", str(path))
        assert code == 2
        assert out == ""
        assert "must be" in err

    def test_grid_reports_equal_per_epsilon_api_reports(self, capsys, tmp_path):
        doc = self.scenario_doc()
        doc.update(epsilons=[0.0, 0.1, 1.0], n=8, format=[3, 3],
                   entry_model={"kind": "explicit", "probs": [0.1 * i for i in range(1, 9)]},
                   mode={"monte_carlo": {"trials": 40}}, seed=9)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "compose", "--scenario", str(path))
        assert code == 0
        config = load_scenario(path)
        assert json.loads(out)["reports"] == [
            composition_delta(config.scenario, config.spec, eps, config.mode).to_dict()
            for eps in config.epsilons]

    @pytest.mark.parametrize("content", [
        b"[" * 100_000,
        b"\xff\xfe" + '{"schema_version": 1}'.encode("utf-16-le"),
    ], ids=["nested-too-deeply", "utf-16-bom"])
    def test_unreadable_json_exits_2_without_delta(self, capsys, tmp_path, content):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "compose", "--scenario", str(path))
        assert code == 2
        assert out == ""
        assert "scenario file" in err

    def test_invalid_scenario_exit_2(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"schema_version": 1}))
        code, _, err = run(capsys, "compose", "--scenario", str(path))
        assert code == 2
        assert "missing field" in err


class TestVerifyCommand:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 32 * 3
        assert all("ok" in line for line in lines)

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--json")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 96
        assert all(r["dominated"] for r in records)

    def test_monte_carlo_rows(self, capsys):
        code, out, _ = run(capsys, "verify", "--json", "--trials", "2000", "--seed", "3")
        assert code == 0
        records = json.loads(out)
        assert all("mc_estimate" in r for r in records)

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--trials", "1000", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "seed" in err

    def test_negative_seed_without_trials_takes_the_one_seed_rule(self, capsys):
        code, out, err = run(capsys, "verify", "--trials", "0", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == ("error: --seed must be a nonnegative integer or a tuple of such seeds, "
                       "got -1\n")

    def test_trials_over_cap_exit_3(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no trial may be sampled")

        monkeypatch.setattr(spacct.oracle, "_mc_histograms", refuse)
        code, out, err = run(capsys, "verify", "--trials", str(10**15))
        assert code == 3
        assert out == ""
        assert "cap" in err and len(err) < 200

    def test_records_equal_per_epsilon_api_values(self, capsys):
        code, out, _ = run(capsys, "verify", "--json", "--trials", "1000", "--seed", "11")
        assert code == 0
        records = iter(json.loads(out))
        for instance in verification_matrix():
            law = exact_mechanism_law(instance.scenario, instance.spec)
            for eps in (0.0, 0.1, 1.0):
                record = next(records)
                mc = mc_distinguish(instance.scenario, instance.spec, eps, trials=1000, seed=11)
                assert (record["instance"], record["epsilon"]) == (instance.name, eps)
                assert record["exact_delta"] == law.delta(eps)
                assert record["bound_delta"] == composition_delta(
                    instance.scenario, instance.spec, eps).total_delta
                assert (record["mc_estimate"], record["mc_half_width"]) == mc
        assert next(records, None) is None


class TestJsonEmitter:
    def test_numpy_values_print_as_plain_json(self, capsys):
        _emit_json({"x": np.float64(0.1), "ok": np.bool_(True), "grid": np.array([0.0, 1.5]),
                    "n": np.int64(3)}, None)
        out = capsys.readouterr().out
        assert out == json.dumps({"x": 0.1, "ok": True, "grid": [0.0, 1.5], "n": 3},
                                 indent=2) + "\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), np.float64("-inf")])
    def test_non_finite_values_are_refused(self, capsys, value):
        with pytest.raises(DomainError, match="non-finite"):
            _emit_json({"delta": value}, None)
        assert capsys.readouterr().out == ""


class TestUnwritableOut:
    """An --out path that cannot be written is invalid input: exit 2 with one
    error line naming the path, never a traceback with exit 1."""

    COMMANDS = {
        "curve": ["curve", "--n", "10", "--p", "0.5"],
        "table1": ["table1", "--skip-dp"],
        "table2": ["table2", "--check", "--skip-dp"],
        "compose": ["compose", "--scenario", "tiny.json"],
        "verify": ["verify"],
        "dp-compare": ["dp-compare", "--eps", "0.1", "--delta", "0.01", "--sigma", "0.1",
                       "--n", "100"],
    }

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_directory_exits_2(self, capsys, tmp_path, name):
        (tmp_path / "tiny.json").write_text(json.dumps(TINY_SCENARIO))
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in self.COMMANDS[name]]
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 2
        assert out == "" and "Traceback" not in err
        # table2 first flags its malformed source cell on an error line of its own
        lines = [line for line in err.splitlines() if "malformed source cell" not in line]
        assert lines == [f"error: cannot write --out {tmp_path}: Is a directory"]

    def test_missing_directory_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "curve", "--n", "10", "--p", "0.5", "--out", str(target))
        assert code == 2 and out == ""
        assert err == f"error: cannot write --out {target}: No such file or directory\n"
        assert not target.parent.exists()


class TestDpCompareCommand:
    def test_zero_cell(self, capsys):
        code, out, _ = run(capsys, "dp-compare", "--eps", "0.005", "--delta", "0.0225",
                           "--sigma", "0.0153", "--n", "32768", "--format", "json")
        assert code == 0
        assert json.loads(out)["k_max"] == 0

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "dp-compare", "--eps", "0.02", "--delta", "0.0163",
                           "--sigma", "0.0153", "--n", "32768")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0][-1] == "k_max"
        assert int(rows[1][-1]) >= 1

    def test_more_queries_than_the_ceiling_exit_3(self, capsys):
        code, out, err = run(capsys, "dp-compare", "--eps", "1e7", "--delta", "0.999",
                             "--sigma", "1.0", "--n", "10")
        assert code == 3
        assert out == ""
        assert "queries" in err

    def test_overflowing_arguments_exit_0_without_warnings(self, capsys):
        code, out, err = run(capsys, "dp-compare", "--eps", "1e308", "--delta", "0.5",
                             "--sigma", "1e-307", "--n", "1", "--format", "json")
        assert code == 0
        assert err == ""
        assert json.loads(out)["k_max"] == 10

    def test_nan_epsilon_exits_2_without_delta(self, capsys):
        code, out, err = run(capsys, "dp-compare", "--eps", "nan", "--delta", "0.0163",
                             "--sigma", "0.0153", "--n", "32768")
        assert code == 2
        assert out == ""
        assert "finite" in err


# --- fuzzing the scenario-file front end ------------------------------------

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10), st.floats(allow_nan=True),
    st.text(max_size=3), st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1))
PROB = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def scenario_docs(draw):
    """Scenario documents: about half well formed (n <= 8, adaptive trees of
    the format's depth), the rest with fields of random JSON types, out of
    range, or trees of the wrong depth."""
    clean = draw(st.booleans())

    def corrupt() -> bool:
        return not clean and draw(st.integers(0, 2)) == 0

    def field(valid, wild=JUNK):
        return draw(wild if corrupt() else valid)

    n = field(st.integers(1, 8))
    size = n if type(n) is int and 1 <= n <= 8 else 3
    width = field(st.integers(1, 2))
    width = width if type(width) is int and width in (1, 2) else 1
    row = st.lists(PROB, min_size=width, max_size=width)

    def query():
        return field(st.fixed_dictionaries({}, optional={
            "attribute": st.integers(0, width - 1), "negate": st.booleans()}))

    entry_model = field(st.one_of(
        st.fixed_dictionaries({"kind": st.just("iid"), "p": row}),
        st.fixed_dictionaries({"kind": st.just("explicit"),
                               "probs": st.lists(row, min_size=size, max_size=size)}),
        st.fixed_dictionaries({"kind": st.just("known"), "p": PROB,
                               "known": st.integers(0, size - 1)},
                              optional={"known_positive": st.integers(0, size - 1)})))
    sizes = []
    while sum(sizes) < size and len(sizes) < 3 and (not sizes or draw(st.booleans())):
        sizes.append(draw(st.integers(1, size - sum(sizes))))
    fmt = field(st.just(sizes), st.lists(st.integers(0, 5), min_size=1, max_size=3))
    m = len(fmt) if isinstance(fmt, list) and fmt else 1
    depth = field(st.just(m), st.integers(max(1, m - 1), m + 1))

    def tree(level):
        node = {"query": query()}
        if level < depth:
            node["next"] = draw(JUNK) if corrupt() else {
                "threshold": field(st.integers(-1, 6)),
                "low": tree(level + 1), "high": tree(level + 1)}
        return node

    adaptive = draw(st.booleans())
    queries = ({"mode": "adaptive", "tree": tree(1)} if adaptive
               else {"mode": "nonadaptive", "list": [query() for _ in range(m)]})
    mode = field(st.sampled_from(["enumerate", "monte_carlo"]))
    if mode == "monte_carlo":
        mode = {"monte_carlo": {"trials": field(st.integers(1, 30),
                                                st.sampled_from([0, -1, 10**12]))}}
    return {
        "schema_version": field(st.just(1)), "n": n, "entry_model": entry_model,
        "critical_index": field(st.integers(1, size), st.integers(-1, 10)),
        "format": fmt, "queries": queries,
        "epsilons": field(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3,
                                   unique=True).map(sorted)),
        "mode": "enumerate" if clean and adaptive else mode,
        "seed": field(st.integers(0, 5), st.integers(-2, 5)),
    }


class TestComposeFuzz:
    @given(scenario_docs())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_exit_code_contract(self, doc):
        """Every generated document exits 0, 2 or 3 (1 needs --verify), and a
        refused one writes no delta."""
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "scenario.json", Path(tmp) / "out.json"
            path.write_text(json.dumps(doc))
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(["compose", "--scenario", str(path), "--out", str(out)])
            assert code in {0, 1, 2, 3}
            written = out.read_text() if out.exists() else ""
            assert ("total_delta" in written) == (code == 0)


# Numbers that sit on a boundary, overflow a float, or do not parse.
ODD_NUMBERS = ("0", "-1", "nan", "inf", "-inf", "1e400", str(10**20), "", "abc", "1.5",
               "1e-300", "0x10", "--")


def number(valid):
    """A flag value: from `valid` five times in six, else odd or malformed."""
    return st.tuples(st.integers(0, 5), valid, st.sampled_from(ODD_NUMBERS)).map(
        lambda t: t[2] if t[0] == 0 else str(t[1]))


def required(flag, value):
    return value.map(lambda v: [flag, v])


def option(flag, value):
    return st.one_of(st.just([]), required(flag, value))


def switch(flag):
    return st.sampled_from(([], [flag]))


def joined(*parts):
    return st.tuples(*parts).map(lambda lists: [arg for part in lists for arg in part])


EPS_LISTS = st.one_of(
    st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4).map(
        lambda xs: ",".join(repr(x) for x in xs)),
    st.sampled_from(ODD_NUMBERS + ("0.1,0.05", "0.1,,0.2", "-0.1", "0.1,nan", "1,1e400")))

TINY_SCENARIO = {
    "schema_version": 1, "n": 4, "entry_model": {"kind": "iid", "p": 0.3}, "format": [2, 2],
    "queries": {"mode": "nonadaptive", "list": [{"attribute": 0}, {"negate": True}]},
    "epsilons": [0.0, 0.5],
}

ARGVS = st.one_of(
    joined(st.just(["curve"]), required("--n", number(st.integers(1, 5000))),
           required("--p", number(st.floats(0.0, 1.0))),
           option("--sample-size", number(st.integers(1, 5000))), option("--eps", EPS_LISTS),
           option("--known", number(st.integers(0, 5000))),
           option("--known-positive", number(st.integers(0, 5000))),
           switch("--population-adjusted"), option("--format", st.sampled_from(("csv", "json")))),
    joined(st.sampled_from((["table1"], ["table2"])), st.just(["--skip-dp"]),
           switch("--check"), option("--format", st.sampled_from(("csv", "json", "xml")))),
    joined(st.just(["compose", "--scenario"]),
           st.sampled_from((["tiny.json"], ["broken.json"], ["missing.json"], ["."])),
           switch("--verify")),
    joined(st.just(["verify"]),
           option("--trials", number(st.sampled_from((0, 999, 1000, 1200, -5)))),
           option("--seed", number(st.integers(-3, 2**40))), switch("--json")),
    joined(st.just(["dp-compare"]), required("--eps", number(st.floats(0.0, 5.0))),
           required("--delta", number(st.floats(0.0, 1.0))),
           required("--sigma", number(st.floats(1e-3, 10.0))),
           required("--n", number(st.integers(1, 10**6))),
           option("--format", st.sampled_from(("csv", "json")))),
)


class TestArgvFuzz:
    @given(ARGVS)
    # a subnormal target delta used to underflow the delta0 grid (math domain error)
    @example(["dp-compare", "--eps", "0", "--delta", "5e-324", "--sigma", "1.0", "--n", "1"])
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_exit_code_contract(self, argv):
        """Every subcommand exits 0, 1, 2 or 3 on any argv (argparse's own
        refusals exit 2). Output (deltas, table cells, a calibration) is
        written on exit 0, and on exit 1, where a failed check prints the
        values it checked; never on exit 2 or 3."""
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "tiny.json").write_text(json.dumps(TINY_SCENARIO))
            (Path(tmp) / "broken.json").write_text('{"schema_version": 1, "n": ')
            out = Path(tmp) / "out.txt"
            argv = [str(Path(tmp) / a) if a.endswith(".json") or a == "." else a for a in argv]
            try:
                with contextlib.redirect_stderr(io.StringIO()), \
                        contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv + ["--out", str(out)])
            except SystemExit as exc:
                code = exc.code
            assert code in {0, 1, 2, 3}
            written = out.read_text() if out.exists() else ""
            assert bool(written) == (code in {0, 1})
