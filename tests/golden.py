"""Golden outputs of the benchmark's commands, for "no change" checks.

    python3 tests/golden.py OUTDIR
    python3 tests/golden.py --compare A B

Runs 40 commands through `spacct.cli.main`, in this process. 32 are
perfbench's workloads: `table1` and `table2 --check --format json`, the 12
`curve` commands, and at seeds 1, 2 and 3 the five `compose` scenario files
and `verify --trials 100000 --json`. perfbench/workloads.py builds their
inputs and is only imported. 4 are `dp-compare` searches outside the
tables (DP_COMPARE), and 4 are known-entry `curve` commands outside the
workload (KNOWN_CURVES). Each command's output file lands under
OUTDIR/<workload>-<seed>/, OUTDIR/dp-compare/ or OUTDIR/known-curves/,
and OUTDIR/status.json records every exit code and stderr. spacct is
imported from the src/ of the checkout holding this file, so to show that
a change alters no output, run the script in a checkout of the parent and
in the change and compare with `diff -r`.
A change that moves digits on purpose is compared with `--compare A B`:
it prints every exit-code or stderr difference, every difference of
non-numeric text, and per file the largest absolute and relative
deviation over the numeric JSON and CSV leaves (relative where both
values are at least 1e-300), then the largest over all files and the
number of leaves that are off by more than both 1e-13 absolute and 1e-10
relative.
The name keeps pytest from collecting it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import spacct.cli  # noqa: E402
import workloads  # noqa: E402

RUNS = (("tables", 1), ("curves", 1), ("scenarios", 1), ("scenarios", 2), ("scenarios", 3))

# The DP baseline beyond the table cells: the largest count (70,862), a tight
# target, the query ceiling (exit 3 at 2^20) and the smallest normal target
# delta, whose delta0 grid reaches subnormal values.
DP_COMPARE = (
    ("eps5-delta0.3", ["--eps", "5", "--delta", "0.3", "--sigma", "0.5", "--n", "1000"]),
    ("eps0.1-delta1e-5", ["--eps", "0.1", "--delta", "1e-5", "--sigma", "0.01", "--n", "10000"]),
    ("ceiling", ["--eps", "1e7", "--delta", "0.999", "--sigma", "1.0", "--n", "10"]),
    ("subnormal-edge", ["--eps", "0", "--delta", "2.2250738585072014e-308", "--sigma", "1.0",
                        "--n", "1"]),
)

# Known-entry mixtures beyond the workload's two points: both points at
# epsilons whose deltas are tiny, so the light rows of the mixture are
# evaluated too; a mixture whose every tail window is over the cap (exit 3);
# and a sample of the whole population.
KNOWN_CURVES = (
    ("known-4000-p0.5-tiny", ["--n", "32768", "--p", "0.5", "--known", "4000",
                              "--known-positive", "2000", "--sample-size", "1024",
                              "--eps", "5,700"]),
    ("known-1000-p0.3-adjusted-tiny", ["--n", "32768", "--p", "0.3", "--known", "1000",
                                       "--known-positive", "300", "--sample-size", "1000",
                                       "--population-adjusted", "--eps", "5,700"]),
    ("window-cap", ["--n", "100000000000", "--p", "0.5", "--known", "1000",
                    "--sample-size", "60000000000", "--eps", "0.000001"]),
    ("whole-population", ["--n", "32768", "--p", "0.3", "--known", "1000",
                          "--known-positive", "300", "--sample-size", "32768",
                          "--eps", "0,0.01,5,700"]),
)


def _run(status: dict, key: str, argv: list[str]) -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = spacct.cli.main(argv)
    status[key] = {"rc": rc, "stderr": err.getvalue()}


def main(outdir: str) -> int:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)  # relative paths keep OUTDIR out of the outputs
    status = {}
    for name, seed in RUNS:
        workdir = Path(f"{name}-{seed}")
        workdir.mkdir(exist_ok=True)
        for command in workloads.WORKLOADS[name](seed, workdir):
            _run(status, f"{workdir}/{command.label}", command.argv)
    workdir = Path("dp-compare")
    workdir.mkdir(exist_ok=True)
    for label, args in DP_COMPARE:
        _run(status, f"{workdir}/{label}",
             ["dp-compare", *args, "--format", "json", "--out", str(workdir / f"{label}.json")])
    workdir = Path("known-curves")
    workdir.mkdir(exist_ok=True)
    for label, args in KNOWN_CURVES:
        _run(status, f"{workdir}/{label}",
             ["curve", *args, "--format", "json", "--out", str(workdir / f"{label}.json")])
    Path("status.json").write_text(json.dumps(status, indent=1) + "\n")
    return 0


def _leaves(path: Path):
    """The file's values in document order: JSON leaves, or CSV cells with
    numbers parsed."""
    text = path.read_text()
    if path.suffix == ".json":
        stack, out = [json.loads(text)], []
        while stack:
            node = stack.pop()
            if isinstance(node, dict):
                stack.extend(reversed([v for kv in node.items() for v in kv]))
            elif isinstance(node, list):
                stack.extend(reversed(node))
            else:
                out.append(node)
        return out
    out = []
    for cell in (c for row in csv.reader(io.StringIO(text)) for c in row):
        try:
            out.append(float(cell))
        except ValueError:
            out.append(cell)
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(a: str, b: str) -> int:
    """Print how the outputs under B differ from those under A; 1 when the
    exit codes, the file sets or any non-numeric value differ."""
    a, b = Path(a), Path(b)
    status_a = json.loads((a / "status.json").read_text())
    status_b = json.loads((b / "status.json").read_text())
    bad = 0
    for key in sorted(set(status_a) | set(status_b)):
        sa, sb = status_a.get(key), status_b.get(key)
        if sa is None or sb is None or sa["rc"] != sb["rc"]:
            print(f"EXIT {key}: {sa and sa['rc']} -> {sb and sb['rc']}")
            bad = 1
        elif sa["stderr"] != sb["stderr"]:
            print(f"STDERR {key}: {sa['stderr']!r} -> {sb['stderr']!r}")
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file() and p.name != "status.json"}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file() and p.name != "status.json"}
    for name in sorted(files_a ^ files_b):
        print(f"ONLY IN {'A' if name in files_a else 'B'}: {name}")
        bad = 1
    worst_abs, worst_rel, beyond = (0.0, None), (0.0, None), 0
    for name in sorted(files_a & files_b):
        va, vb = _leaves(a / name), _leaves(b / name)
        if len(va) != len(vb):
            print(f"SHAPE {name}: {len(va)} -> {len(vb)} values")
            bad = 1
            continue
        dev_abs = dev_rel = 0.0
        for x, y in zip(va, vb):
            if _is_number(x) and _is_number(y):
                gap = abs(y - x)
                rel = gap / abs(x) if min(abs(x), abs(y)) >= 1e-300 else 0.0
                dev_abs, dev_rel = max(dev_abs, gap), max(dev_rel, rel)
                beyond += gap > 1e-13 and (rel > 1e-10 or min(abs(x), abs(y)) < 1e-300)
            elif x != y:
                print(f"TEXT {name}: {x!r} -> {y!r}")
                bad = 1
        if dev_abs:
            print(f"{name}: max abs {dev_abs:.3g}, max rel {dev_rel:.3g}")
        worst_abs = max(worst_abs, (dev_abs, str(name)))
        worst_rel = max(worst_rel, (dev_rel, str(name)))
    print(f"largest absolute deviation {worst_abs[0]:.3g} ({worst_abs[1]}), "
          f"largest relative deviation {worst_rel[0]:.3g} ({worst_rel[1]}); "
          f"{beyond} values beyond both 1e-13 absolute and 1e-10 relative")
    return bad


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
