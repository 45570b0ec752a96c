"""The three workloads: their command lists, generated inputs and output checks.

Each workload function takes the benchmark seed and a work directory,
writes the scenario files it needs there and returns its commands in run
order: a `spacct` argv with an `--out` file, and a check that reads that
file and compares it with values from `reference`, computed once per run
since every pass runs the same commands. Only the scenarios workload has
inputs for the seed to vary (entry probabilities, adaptive trees, critical
index, Monte-Carlo and verify seeds); tables and curves are fixed points.

Why these workloads (see README.md for the predicted layer shares):
- tables: the paper's Table 1 and Table 2 with the #DP column, as users run
  them. The DP baseline search dominates; only a baseline change shows here.
- curves: one huge binomial law per command (n = 2^15 .. 2^24) against about
  a thousand small laws per known-entries mixture, so a change that speeds
  up large n but adds per-call overhead shows. Four of the large points hit
  the binomial normalization ceiling in spacct 0.1.0 and are refused with
  exit 2.
- scenarios: general-entry scenario files (template enumeration, adaptive
  trees, Monte Carlo over templates) plus the brute-force and Monte-Carlo
  oracle; the only workload that reaches partition and oracle.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

# Closed-form comparisons: agreement seen with spacct 0.1.0 is 1.6e-12 at
# worst (the known-entries mixtures); relative slack covers the far tails
# (deltas down to 1e-98) where only relative accuracy means anything.
CURVE_ABS_TOL = 1e-11
CURVE_REL_TOL = 1e-4
# Scenario reports against the subset enumeration: same arithmetic, other order.
REPORT_TOL = 1e-12
# Monte-Carlo totals must lie within this many combined 95% half-widths.
MC_HALF_WIDTHS = 3.0
# Samples per block behind the independent Monte-Carlo reference.
MC_REFERENCE_TRIALS = 1000

CURVE_EPS = (0.01, 0.02)

# #DP column printed by spacct 0.1.0 (`table1/table2 --format json`).
TABLE_DP = {
    "table1": (0, 29, 40, 138, 121, 135, 537, 588, 586, 2063, 2132, 2067, 7891, 7949, 8045),
    "table2": (39, 50, 50, 155, 175, 175, 676, 685, 721),
}
TABLE_LAYOUT = {  # n, p, block counts m, epsilons
    "table1": (32768, 0.5, (32, 64, 128, 256, 512), (0.005, 0.01, 0.02)),
    "table2": (1024, 0.5, (32, 64, 128), (0.05, 0.1, 0.2)),
}

# Curve points where spacct 0.1.0's binomial log-gamma construction
# misses the 1e-9 normalization tolerance. `curve` refuses them with exit 2
# and a "masses sum to" diagnostic, which the check accepts here and
# nowhere else; a delta, if one is printed, must match the closed form.
NORMALIZATION_CEILING = {(1 << 20, 0.5), (1 << 22, 0.5), (1 << 23, 0.3), (1 << 24, 0.5)}

README_TREE = {
    "query": {"attribute": 0},
    "next": {"threshold": 2,
             "low": {"query": {"attribute": 0, "negate": True}},
             "high": {"query": {"attribute": 0}}},
}
README_SCENARIO = {
    "schema_version": 1,
    "n": 6,
    "entry_model": {"kind": "explicit", "probs": [0.2, 0.8, 0.5, 0.5, 0.3, 0.7]},
    "critical_index": 3,
    "format": [2, 2],
    "queries": {"mode": "nonadaptive",
                "list": [{"attribute": 0}, {"attribute": 0, "negate": True}]},
    "epsilons": [0.0, 0.1, 1.0],
    "mode": "enumerate",
    "seed": 0,
}


@dataclass
class Command:
    label: str
    argv: list[str]
    out: Path
    check: Callable[[int, str], str | None]  # (exit code, stderr tail) -> error or None
    refusal_ok: bool = False  # a clean exit 2 is the expected outcome at this commit


def _load(path: Path):
    return json.loads(path.read_text())


def _close(got: float, want: float, what: str, tol: float = REPORT_TOL) -> str | None:
    if not math.isfinite(got) or abs(got - want) > tol:
        return f"{what}: got {got!r}, reference {want!r}"
    return None


def _first(errors) -> str | None:
    return next((e for e in errors if e), None)


# --- tables ------------------------------------------------------------------

def _table_check(name: str, out: Path):
    n, p, rows, epsilons = TABLE_LAYOUT[name]
    want_delta = [ref.iid_curve_delta(n // m, p, eps) for m in rows for eps in epsilons]
    want_sigma = [ref.sigma_increase(n, n // m, p) for m in rows for _ in epsilons]

    def check(rc: int, _stderr: str) -> str | None:
        if rc != 0:
            return f"{name} --check exited {rc}"
        cells = _load(out)
        if len(cells) != len(TABLE_DP[name]):
            return f"{name}: {len(cells)} cells, expected {len(TABLE_DP[name])}"
        got_dp = tuple(c["dp_queries"] for c in cells)
        if got_dp != TABLE_DP[name]:
            return f"{name}: #DP column {got_dp} differs from spacct 0.1.0's {TABLE_DP[name]}"
        return _first(
            _close(c["delta_sp"], d, f"{name} m={c['m']} eps={c['eps']} delta", CURVE_ABS_TOL)
            or _close(c["sigma"], s, f"{name} m={c['m']} sigma", CURVE_ABS_TOL)
            for c, d, s in zip(cells, want_delta, want_sigma))

    return check


def tables(seed: int, workdir: Path) -> list[Command]:
    commands = []
    for name in TABLE_LAYOUT:
        out = workdir / f"{name}.json"
        commands.append(Command(name, [name, "--check", "--format", "json", "--out", str(out)],
                                out, _table_check(name, out)))
    return commands


# --- curves ------------------------------------------------------------------

def _curve_check(label: str, out: Path, want: list[float], refusal_ok: bool):
    def check(rc: int, stderr: str) -> str | None:
        if rc == 2 and refusal_ok and "masses sum to" in stderr:
            return None
        if rc != 0:
            return f"{label}: exit {rc} ({stderr.strip()[-200:]})"
        points = _load(out)["points"]
        if [pt["epsilon"] for pt in points] != list(CURVE_EPS):
            return f"{label}: epsilon grid {[pt['epsilon'] for pt in points]}"
        for pt, w in zip(points, want):
            d = pt["delta"]
            err = abs(d - w)
            if not math.isfinite(d) or err > CURVE_ABS_TOL or err > CURVE_REL_TOL * w + 1e-300:
                return f"{label} eps={pt['epsilon']}: delta {d!r}, reference {w!r}"
        return None

    return check


def _curve_command(label: str, workdir: Path, n: int, p: float, sample_size: int,
                  extra: list[str], want: list[float], refusal_ok: bool = False) -> Command:
    out = workdir / f"{label}.json"
    argv = ["curve", "--n", str(n), "--p", repr(p), "--sample-size", str(sample_size),
            "--eps", ",".join(map(repr, CURVE_EPS)), *extra, "--format", "json",
            "--out", str(out)]
    return Command(label, argv, out, _curve_check(label, out, want, refusal_ok), refusal_ok)


def curves(seed: int, workdir: Path) -> list[Command]:
    commands = []
    for exp in range(15, 25):
        n, p = 1 << exp, (0.5 if exp % 2 == 0 else 0.3)
        want = [ref.iid_curve_delta(n, p, eps) for eps in CURVE_EPS]
        commands.append(_curve_command(f"curve-2^{exp}-p{p}", workdir, n, p, n, [], want,
                                      (n, p) in NORMALIZATION_CEILING))
    for label, p, known, positive, size, adjusted in (
            ("known-4000-p0.5", 0.5, 4000, 2000, 1024, False),
            ("known-1000-p0.3-adjusted", 0.3, 1000, 300, 1000, True)):
        want = [ref.known_entries_delta(32768, p, known, size, eps, adjusted) for eps in CURVE_EPS]
        extra = ["--known", str(known), "--known-positive", str(positive)]
        if adjusted:
            extra.append("--population-adjusted")
        commands.append(_curve_command(label, workdir, 32768, p, size, extra, want))
    return commands


# --- scenarios ---------------------------------------------------------------

def _explicit(rng: random.Random, n: int) -> list[float]:
    return [round(rng.uniform(0.05, 0.95), 4) for _ in range(n)]


def _query(negate: bool) -> dict:
    return {"attribute": 0, "negate": negate}


def _tree(rng: random.Random, depth: int) -> dict:
    node = {"query": _query(rng.random() < 0.5)}
    if depth > 1:
        node["next"] = {"threshold": rng.randint(1, 2),
                        "low": _tree(rng, depth - 1), "high": _tree(rng, depth - 1)}
    return node


def _negates(doc: dict) -> list[bool]:
    return [q.get("negate", False) for q in doc["queries"]["list"]]


def _report_check(label: str, doc: dict, out: Path, want_blocks, expect_verify=False):
    """Compare every report's per-block deltas and total with the reference."""
    weights = [size / doc["n"] for size in doc["format"]]

    def check(rc: int, stderr: str) -> str | None:
        if rc != 0:
            return f"{label}: exit {rc} ({stderr.strip()[-200:]})"
        payload = _load(out)
        reports = payload["reports"]
        if [r["epsilon"] for r in reports] != doc["epsilons"]:
            return f"{label}: report epsilons {[r['epsilon'] for r in reports]}"
        for report, blocks in zip(reports, want_blocks):
            where = f"{label} eps={report['epsilon']}"
            if len(report["per_block"]) != len(blocks):
                return f"{where}: {len(report['per_block'])} block terms, expected {len(blocks)}"
            total = min(1.0, math.fsum(w * d for w, d in zip(weights, blocks)))
            err = _first(_close(b["delta"], d, f"{where} block {b['block']}")
                         for b, d in zip(report["per_block"], blocks))
            err = err or _close(report["total_delta"], total, f"{where} total")
            if err:
                return err
        if expect_verify:
            checks = payload.get("verify", [])
            if len(checks) != len(reports) or not all(c["dominated"] for c in checks):
                return f"{label}: --verify did not confirm domination: {checks}"
        return None

    return check


def _mc_check(label: str, doc: dict, out: Path, want_blocks):
    weights = [size / doc["n"] for size in doc["format"]]

    def check(rc: int, stderr: str) -> str | None:
        if rc != 0:
            return f"{label}: exit {rc} ({stderr.strip()[-200:]})"
        reports = _load(out)["reports"]
        if [r["epsilon"] for r in reports] != doc["epsilons"]:
            return f"{label}: report epsilons {[r['epsilon'] for r in reports]}"
        for report, blocks in zip(reports, want_blocks):
            want = math.fsum(w * m for w, (m, _) in zip(weights, blocks))
            want_hw = math.sqrt(math.fsum((w * h) ** 2 for w, (_, h) in zip(weights, blocks)))
            got, got_hw = report["total_delta"], report["total_half_width"]
            limit = MC_HALF_WIDTHS * math.hypot(got_hw, want_hw)
            if not abs(got - want) <= limit:
                return (f"{label} eps={report['epsilon']}: total {got!r} +- {got_hw!r} vs "
                        f"independent estimate {want!r} +- {want_hw!r}")
        return None

    return check


def _verify_bound(instance: str, eps: float) -> float:
    """Closed-form bound for one instance of the built-in verification matrix."""
    sizes, adaptive, n, p = _matrix_instance(instance)
    if adaptive:
        tree = {"query": _query(False), "next": {
            "threshold": (sizes[0] + 1) // 2,
            "low": {"query": _query(True)}, "high": {"query": _query(False)}}}
        blocks = ref.adaptive_iid(p, sizes, tree, eps)
    else:
        blocks = [ref.iid_curve_delta(s, p, eps) for s in sizes]
    return min(1.0, math.fsum(s / n * d for s, d in zip(sizes, blocks)))


def _verify_check(out: Path):
    """`verify` must exit 0; its iid bounds must match the closed form and
    every Monte-Carlo estimate must lie within 3 half-widths of the exact law."""
    bounds: dict = {}

    def check(rc: int, stderr: str) -> str | None:
        if rc != 0:
            return f"verify: exit {rc} ({stderr.strip()[-200:]})"
        records = _load(out)
        if len(records) != 96:
            return f"verify: {len(records)} records, expected 96"
        for r in records:
            where = f"verify {r['instance']} eps={r['epsilon']}"
            key = (r["instance"], r["epsilon"])
            if key not in bounds:
                bounds[key] = _verify_bound(*key)
            err = _close(r["bound_delta"], bounds[key], f"{where} bound", CURVE_ABS_TOL)
            if err:
                return err
            if not (r["dominated"] and r["mc_consistent"]):
                return f"{where}: {r}"
            if abs(r["mc_estimate"] - r["exact_delta"]) > MC_HALF_WIDTHS * r["mc_half_width"] + 1e-12:
                return f"{where}: MC estimate inconsistent"
        return None

    return check


def _matrix_instance(name: str):
    """Parse 'n=4 p=0.2 m=2 adaptive' into (block sizes, adaptive, n, p)."""
    fields = dict(tok.split("=") for tok in name.split() if "=" in tok)
    n, m = int(fields["n"]), int(fields["m"])
    sizes = (n,) if m == 1 else (n // 2, n // 2)
    return sizes, name.split()[-1] == "adaptive", n, float(fields["p"])


def scenarios(seed: int, workdir: Path) -> list[Command]:
    rng = random.Random(seed)
    commands = []

    def compose(label: str, doc: dict, check_for, *extra: str) -> None:
        path = workdir / f"{label}.scenario.json"
        path.write_text(json.dumps(doc, indent=1))
        out = workdir / f"{label}.json"
        commands.append(Command(label, ["compose", "--scenario", str(path), *extra,
                                        "--out", str(out)], out, check_for(label, doc, out)))

    def general(label, doc, out):
        probs = doc["entry_model"]["probs"]
        blocks = [ref.nonadaptive_general(probs, doc["critical_index"], doc["format"],
                                          _negates(doc), eps) for eps in doc["epsilons"]]
        return _report_check(label, doc, out, blocks, expect_verify=label == "readme-verify")

    def adaptive(label, doc, out):
        tree, fmt = doc["queries"]["tree"], doc["format"]
        if doc["entry_model"]["kind"] == "iid":
            blocks = [ref.adaptive_iid(doc["entry_model"]["p"], fmt, tree, eps)
                      for eps in doc["epsilons"]]
        else:
            blocks = [ref.adaptive_general(doc["entry_model"]["probs"], doc["critical_index"],
                                           fmt, tree, eps) for eps in doc["epsilons"]]
        return _report_check(label, doc, out, blocks)

    def monte_carlo(label, doc, out):
        ref_seed = rng.randrange(1 << 31)
        blocks = ref.monte_carlo_general(doc["entry_model"]["probs"], doc["critical_index"],
                                         doc["format"], _negates(doc), doc["epsilons"],
                                         MC_REFERENCE_TRIALS, ref_seed)
        return _mc_check(label, doc, out, blocks)

    def explicit_doc(n, fmt, queries, epsilons, **more):
        return {"schema_version": 1, "n": n,
                "entry_model": {"kind": "explicit", "probs": _explicit(rng, n)},
                "critical_index": rng.randint(1, n), "format": fmt, "queries": queries,
                "epsilons": epsilons, **more}

    compose("enumerate-n10", explicit_doc(
        10, [3, 3, 3],
        {"mode": "nonadaptive", "list": [_query(rng.random() < 0.5) for _ in range(3)]},
        [0.0, 0.5], mode="enumerate"), general)
    compose("adaptive-n9", explicit_doc(
        9, [3, 3, 3], {"mode": "adaptive", "tree": _tree(rng, 3)}, [0.0, 0.5]), adaptive)
    compose("montecarlo-n2000", explicit_doc(
        2000, [200] * 4,
        {"mode": "nonadaptive", "list": [_query(rng.random() < 0.5) for _ in range(4)]},
        [0.0, 0.1], mode={"monte_carlo": {"trials": 200}}, seed=rng.randrange(1 << 31)),
        monte_carlo)
    compose("adaptive-iid-n4096", {
        "schema_version": 1, "n": 4096, "entry_model": {"kind": "iid", "p": 0.5},
        "format": [64, 64], "queries": {"mode": "adaptive", "tree": README_TREE},
        "epsilons": [0.1, 0.5, 1.0]}, adaptive)
    compose("readme-verify", README_SCENARIO, general, "--verify")

    out = workdir / "verify.json"
    commands.append(Command("verify", ["verify", "--trials", "100000",
                                       "--seed", str(rng.randrange(1 << 31)), "--json",
                                       "--out", str(out)], out, _verify_check(out)))
    return commands


WORKLOADS = {"tables": tables, "curves": curves, "scenarios": scenarios}
