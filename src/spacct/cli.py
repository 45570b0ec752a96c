"""Command-line surface.

Subcommands: curve, table1, table2, compose, verify, dp-compare. All output
goes to stdout (or --out PATH); diagnostics go to stderr. Exit codes:
0 success, 1 check failure, 2 validation error, 3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import asdict
from itertools import groupby
from pathlib import Path

import numpy as np

from .baseline import max_dp_queries
from .compose import composition_delta
from .curve import epsilon_grid
from .errors import CapacityError, DomainError
from .oracle import MATRIX_EPSILONS, exact_mechanism_law, mc_distinguish, verification_matrix
from .scenario_io import load_scenario
from .spc import IidEntries, KnownEntries, Scenario, require_seed, spc_iid, spc_known_entries
from .tables import TABLES, check_table, compute_table

DEFAULT_EPS_GRID = (0.005, 0.01, 0.02, 0.05, 0.1, 0.2)
DOMINATION_TOL = 1e-9


def _diag(message: str) -> None:
    use_color = sys.stderr.isatty() and not os.environ.get("NO_COLOR")
    prefix = "\x1b[31merror:\x1b[0m" if use_color else "error:"
    print(f"{prefix} {message}", file=sys.stderr)


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise DomainError(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _plain(value):
    """numpy scalars and arrays as the Python values json understands."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _emit_json(payload, out: str | None) -> None:
    """The one JSON writer: a non-finite value is refused, never printed."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False, default=_plain)
    except ValueError as exc:
        raise DomainError(f"refusing to print a non-finite value: {exc}") from exc
    _emit(text + "\n", out)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _parse_eps_list(text: str) -> tuple[float, ...]:
    return epsilon_grid(tok for tok in text.split(",") if tok.strip() != "")


def cmd_curve(args) -> int:
    if args.n is None or args.p is None:
        raise DomainError("need both --n and --p")
    entries = (
        KnownEntries(args.p, args.known, args.known_positive)
        if args.known or args.known_positive else IidEntries((args.p,))
    )
    scenario = Scenario(args.n, entries)
    epsilons = _parse_eps_list(args.eps) if args.eps is not None else DEFAULT_EPS_GRID
    size = args.sample_size if args.sample_size is not None else scenario.n

    if isinstance(scenario.entries, KnownEntries):
        deltas = spc_known_entries(scenario, size, epsilons,
                                   population_excludes_critical=args.population_adjusted).tolist()
    else:
        deltas = spc_iid(scenario, size, epsilons).tolist()
    if args.format == "json":
        payload = {"points": [{"epsilon": e, "delta": d} for e, d in zip(epsilons, deltas)]}
        _emit_json(payload, args.out)
    else:
        _emit(_csv_text(["epsilon", "delta"],
                        [[repr(e), repr(d)] for e, d in zip(epsilons, deltas)]), args.out)
    return 0


def cmd_table(args) -> int:
    spec = TABLES[args.table]
    cells = compute_table(spec, with_dp=not args.skip_dp)
    for cell in cells:
        if cell.note:
            _diag(f"{spec.name} m={cell.m} eps={cell.epsilon}: {cell.note}")
    if args.format == "json":
        payload = [
            {
                "m": c.m, "sigma": c.sigma, "eps": c.epsilon, "delta_sp": c.delta_sp,
                "dp_queries": c.dp_queries, "expected_sigma": c.expected_sigma,
                "expected_delta": c.expected_delta, "expected_dp": c.expected_dp,
            }
            for c in cells
        ]
        _emit_json(payload, args.out)
    else:
        rows = [
            [c.m, f"{c.sigma:.6f}", repr(c.epsilon), f"{c.delta_sp:.6f}",
             "" if c.dp_queries is None else c.dp_queries]
            for c in cells
        ]
        _emit(_csv_text(["m", "sigma", "eps", "delta_sp", "dp_queries"], rows), args.out)
    if args.check:
        failures = check_table(cells)
        for c in cells:
            if c.dp_queries is not None and not c.dp_ok:
                _diag(
                    f"{spec.name} m={c.m} eps={c.epsilon}: dp_queries {c.dp_queries} "
                    f"deviates from expected {c.expected_dp} (reported, not gated)"
                )
        if failures:
            for f in failures:
                _diag(f"{spec.name} check: {f}")
            return 1
    return 0


def _domination(exact: float, bound: float) -> dict:
    """A bound checked against the exact delta, as the JSON record's fields."""
    margin = bound - exact
    return {"exact_delta": exact, "bound_delta": bound, "margin": margin,
            "dominated": margin >= -DOMINATION_TOL}


def cmd_compose(args) -> int:
    config = load_scenario(args.scenario)
    grid_report = composition_delta(config.scenario, config.spec, config.epsilons, config.mode)
    reports = [report.to_dict() for report in grid_report.split()]
    payload: dict = {"reports": reports}
    failed = False
    if args.verify:
        exacts = exact_mechanism_law(config.scenario, config.spec).delta(config.epsilons)
        checks = [{"epsilon": report["epsilon"], **_domination(exact, report["total_delta"])}
                  for report, exact in zip(reports, exacts.tolist())]
        failed = not all(check["dominated"] for check in checks)
        payload["verify"] = checks
    _emit_json(payload, args.out)
    return 1 if failed else 0


def cmd_verify(args) -> int:
    require_seed(args.seed, "--seed")  # also with --trials 0, which samples nothing
    failed = False
    lines = []
    records = []
    matrix = verification_matrix()
    estimates = []
    if args.trials:
        # one sampling per scenario, histogrammed for each of its instances' specs
        for scenario, group in groupby(matrix, key=lambda instance: instance.scenario):
            estimates += mc_distinguish(scenario, [instance.spec for instance in group],
                                        MATRIX_EPSILONS, trials=args.trials, seed=args.seed)
    for index, instance in enumerate(matrix):
        # laws and Monte-Carlo histograms are built once for the whole grid
        exacts = exact_mechanism_law(instance.scenario, instance.spec).delta(MATRIX_EPSILONS)
        bounds = composition_delta(instance.scenario, instance.spec, MATRIX_EPSILONS).total_delta
        for i, eps in enumerate(MATRIX_EPSILONS):
            exact, bound = float(exacts[i]), float(bounds[i])
            record = {"instance": instance.name, "epsilon": eps, **_domination(exact, bound)}
            ok = record["dominated"]
            failed = failed or not ok
            if args.trials:
                mc = estimates[index]
                estimate, half_width = float(mc.estimate[i]), float(mc.half_width[i])
                consistent = abs(estimate - exact) <= 3.0 * half_width + 1e-12
                record.update({
                    "mc_estimate": estimate, "mc_half_width": half_width,
                    "mc_consistent": consistent,
                })
                failed = failed or not consistent
            records.append(record)
            line = (f"{instance.name} eps={eps}: exact={exact:.6f} "
                    f"bound={bound:.6f} margin={record['margin']:.2e} "
                    f"{'ok' if ok else 'VIOLATED'}")
            if args.trials:
                line += (f" mc={record['mc_estimate']:.6f}"
                         f"+-{record['mc_half_width']:.6f}"
                         f" {'ok' if record['mc_consistent'] else 'INCONSISTENT'}")
            lines.append(line)
    if args.json:
        _emit_json(records, args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


def cmd_dp_compare(args) -> int:
    d = asdict(max_dp_queries(args.eps, args.delta, args.sigma, args.n))
    if args.format == "json":
        _emit_json(d, args.out)
    else:
        header = list(d)
        _emit(_csv_text(header, [[repr(d[k]) if isinstance(d[k], float) else d[k]
                                  for k in header]]), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spacct",
        description="Statistical-privacy accounting for queries over random partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve", help="privacy curve of a subsampled property query")
    p.add_argument("--n", type=int, help="database size")
    p.add_argument("--p", type=float, help="entry probability")
    p.add_argument("--sample-size", type=int, help="sample size s (default: n)")
    p.add_argument("--eps", help="comma-separated increasing epsilon grid")
    p.add_argument("--known", type=int, default=0, help="number of adversary-known entries")
    p.add_argument("--known-positive", type=int, default=0)
    p.add_argument("--population-adjusted", action="store_true",
                   help="draw the known-entry mixture from the n-1 non-critical entries")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="write output to a file instead of stdout")
    p.set_defaults(func=cmd_curve)

    for name in ("table1", "table2"):
        p = sub.add_parser(name, help=f"recompute benchmark {name}")
        p.add_argument("--check", action="store_true",
                       help="compare against embedded expected values")
        p.add_argument("--skip-dp", action="store_true",
                       help="skip the #DP column (faster)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out")
        p.set_defaults(func=cmd_table, table=name)

    p = sub.add_parser("compose", help="composition report for a scenario file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--verify", action="store_true",
                   help="also enumerate the exact mechanism and check domination")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("verify", help="run the built-in tiny-instance bound verification")
    p.add_argument("--trials", type=int, default=0,
                   help="add Monte-Carlo consistency rows with this many trials")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dp-compare", help="max DP queries matching a target accuracy")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dp_compare)
    return parser


# One parser per process: building it is most of a small command's time, and
# parse_args keeps no state between calls.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        _diag(str(exc))
        return 2
    except CapacityError as exc:
        _diag(str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
