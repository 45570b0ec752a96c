"""spacct benchmark: end-to-end timings through the CLI, or a traced run per module.

    python3 perfbench/run.py --workload {tables,curves,scenarios} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; spacct is imported from ./src. The seed
generates the workload's inputs. Set-up is timed with fresh interpreters
that import numpy, scipy and spacct and run a tiny command, launched before
and between the passes. Passes run one after another, each in its own
process, until S seconds have gone (at least one; with --trace 1 untraced
and traced passes alternate, at least one of each). Every command's output
is checked against references computed here, independently of spacct.

The last line of stdout is one JSON object: {correct, attempted, failed,
metrics}. Metrics are the `end_to_end` list of BENCHMARK.json with
--trace 0 and the `per_layer` list with --trace 1. The lines before it
print the same metrics for people, plus fail_ratio and per-command times.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import LAYER_FUNCTIONS  # noqa: E402  (stdlib only; spacct is not imported here)

# Timed set-up launches: some before the first pass and some after each
# pass, so that the median samples the host at several moments of the run.
SETUP_FIRST, SETUP_AFTER_PASS, SETUP_MIN = 3, 2, 7
DEADLINE_S = 170.0   # every process is stopped before the run exceeds this


def _env(root: Path) -> dict:
    env = dict(os.environ)
    # bytecode is cached as in a normal install, so set-up does not recompile spacct
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), str(HERE),
                                                      env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _remaining(t0: float) -> float:
    return max(5.0, DEADLINE_S - (time.monotonic() - t0))


class ProbeError(Exception):
    pass


def setup_probe(root: Path, work: Path, env: dict, t0: float, want: float) -> float:
    """Seconds from launching a fresh interpreter until `cli.main` returns on
    the tiny set-up command; raises ProbeError when the probe goes wrong."""
    out = work / "setup.json"
    out.unlink(missing_ok=True)
    launched = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--setup", str(out)],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=_remaining(t0))
    if proc.returncode != 0:
        raise ProbeError(f"set-up probe exited {proc.returncode}: {proc.stderr[-500:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    delta = json.loads(out.read_text())["points"][0]["delta"]
    if report["rc"] != 0 or abs(delta - want) > 1e-12:
        raise ProbeError(f"set-up command returned {report['rc']} with delta {delta!r}")
    return report["monotonic"] - launched


def run_pass(root: Path, work: Path, env: dict, commands, trace: bool, index: int,
             t0: float) -> dict:
    for cmd in commands:
        cmd.out.unlink(missing_ok=True)
    plan, result = work / f"plan-{index}.json", work / f"result-{index}.json"
    plan.write_text(json.dumps({"argv": [c.argv for c in commands], "trace": trace,
                                "spans": str(work / "spans.tsv"),
                                "warmup_out": str(work / "warmup.json")}))
    crashed = None
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--pass",
                               str(plan), str(result)], cwd=root, env=env,
                              capture_output=True, text=True, timeout=_remaining(t0))
        if proc.returncode != 0:
            crashed = f"pass process exited {proc.returncode}: {proc.stderr[-1000:]}"
    except subprocess.TimeoutExpired:
        crashed = "pass process killed at the run deadline"
    if crashed:
        return {"traced": trace, "errors": [crashed] * len(commands), "refused": 0, "ok": 0}
    data = json.loads(result.read_text())
    errors, refused = [], 0
    for cmd, res in zip(commands, data["commands"]):
        if res["error"]:
            error = f"{cmd.label}: raised\n{res['error']}"
        else:
            try:
                error = cmd.check(res["rc"], res["stderr"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                error = f"{cmd.label}: unreadable output ({exc!r})"
        if error:
            errors.append(error)
        elif cmd.refusal_ok and res["rc"] != 0:
            refused += 1
    data.update(traced=trace, errors=errors, refused=refused,
                ok=len(commands) - len(errors) - refused)
    return data


def layer_metrics(traced: list[dict], overhead: float) -> dict[str, float]:
    """Per-layer metrics from the traced passes (medians across passes)."""
    def per_pass(summary: dict) -> dict[str, float]:
        calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
        out = {}
        for layer, functions in LAYER_FUNCTIONS.items():
            for fn in functions:
                name = f"{layer}.{fn}"
                out[f"{name}.calls"] = calls.get(name, 0)
                out[f"{name}.self_s"] = self_s.get(name, 0.0)
        binomial_calls = calls.get("distkit.binomial", 0)
        out["distkit.binomial.distinct_ratio"] = (
            summary["binomial_distinct"] / binomial_calls if binomial_calls else 0.0)
        for name in ("distkit.Pmf.constructed", "distkit.Pmf.errors", "distkit.mass_points",
                     "curve.support_points", "partition.templates", "compose.block_terms",
                     "oracle.mc_trials", "tables.cells"):
            out[name] = counts.get(name, 0)
        subsets = counts.get("partition.subsets", 0)
        out["partition.template_subset_ratio"] = (
            counts.get("partition.restricted_templates", 0) / subsets if subsets else 0.0)
        blocks = counts.get("compose.block_terms", 0)
        out["compose.dhat_per_block"] = counts.get("compose.dhat_calls", 0) / blocks if blocks else 0.0
        return out

    rows = [per_pass(p["trace"]) for p in traced]
    merged = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    merged["trace.overhead_s"] = overhead
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "spacct" / "cli.py").is_file():
        print(f"error: no spacct sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    t0 = time.monotonic()
    base = root / ".perfbench_run"
    work = base / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = _env(root)
    commands = workloads.WORKLOADS[args.workload](args.seed, work)

    import reference as ref

    want = ref.iid_curve_delta(64, 0.5, 0.1)
    setup: list[float] = []
    setup_error = None

    def probe(count: int) -> None:
        nonlocal setup_error
        try:
            for _ in range(count if setup_error is None else 0):
                setup.append(setup_probe(root, work, env, t0, want))
        except (ProbeError, subprocess.TimeoutExpired) as exc:
            setup_error = str(exc)

    probe(1)
    setup.clear()  # the first launch warms the file cache and writes bytecode
    probe(SETUP_FIRST)
    passes: list[dict] = []
    start = time.monotonic()
    while setup_error is None:
        plain = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        elapsed = time.monotonic() - start
        if plain and (traced or not args.trace) and elapsed >= args.seconds:
            break
        trace = bool(args.trace) and len(traced) < len(plain)
        passes.append(run_pass(root, work, env, commands, trace, len(passes), t0))
        if passes[-1]["errors"] and "run_s" not in passes[-1]:
            break  # the pass process itself failed; more passes would too
        probe(SETUP_AFTER_PASS)
    probe(SETUP_MIN - len(setup))

    errors = [e for p in passes for e in p["errors"]]
    if setup_error:
        errors.insert(0, setup_error)
    attempted = len(commands) * max(1, len(passes))
    failed = sum(len(p["errors"]) for p in passes) if passes else attempted
    correct = not errors and bool(passes)
    plain = [p for p in passes if not p["traced"] and "run_s" in p]
    traced = [p for p in passes if p["traced"] and "run_s" in p]

    for e in errors[:10]:
        print(f"CHECK FAILED: {e}")
    print(f"workload {args.workload}  seed {args.seed}  {len(commands)} commands per pass  "
          f"{len(plain)} untraced + {len(traced)} traced passes  {len(setup)} set-up probes")
    if passes:
        refused = sum(p["refused"] for p in passes)
        print(f"fail_ratio  {failed}/{attempted} commands  "
              f"(refused at the known normalization ceiling: {refused}/{attempted})")
    metrics: dict[str, float] = {}
    if plain and setup:
        run_s = statistics.median(p["run_s"] for p in plain)
        metrics = {
            "setup_s": statistics.median(setup),
            "run_s": run_s,
            "ops_per_s": statistics.median(p["ok"] / p["run_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        for i, cmd in enumerate(commands):
            secs = statistics.median(p["commands"][i]["seconds"] for p in plain)
            print(f"  {cmd.label:<28} {secs:9.4f} s  exit {plain[0]['commands'][i]['rc']}")
    if args.trace and traced and "run_s" in metrics:
        overhead = statistics.median(p["run_s"] for p in traced) - metrics["run_s"]
        layers = layer_metrics(traced, overhead)
        traced_run = statistics.median(p["run_s"] for p in traced)
        print(f"traced run_s {traced_run:.4f} s  ({traced[-1]['trace']['spans']} spans per pass)")
        for name in sorted((k for k in layers if k.endswith(".self_s")),
                           key=lambda k: -layers[k]):
            if layers[name] > 0:
                print(f"  {name:<40} {layers[name]:9.4f} s  "
                      f"{100 * layers[name] / traced_run:5.1f}% of traced run_s")
        metrics = layers
    names = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        print(f"NOT MEASURED: {missing}")
        correct = False
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in names if m["name"] in metrics}
    for name, metric in result.items():
        print(f"{name:<44} {metric['value']:.6g} {metric['unit']}")

    if (work / "spans.tsv").exists():
        shutil.move(work / "spans.tsv", base / f"spans-{args.workload}.tsv")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
