"""One benchmark process: a single pass over a workload, or one set-up probe.

    python3 perfbench/worker.py --pass PLAN RESULT
    python3 perfbench/worker.py --setup OUT

A pass reads the plan written by run.py (the argv list, whether to trace,
where to write spans), imports spacct, runs the set-up command once to warm
up, then calls `spacct.cli.main` on each
argv in order, in this process and thread: a closed loop in which each
command starts when the previous one returns. It writes per-command exit
codes, times and captured stderr, the pass's wall time and the process's
peak resident memory to RESULT. run.py checks the outputs afterwards, so
no checking code runs inside the timed region or this process.

The set-up probe runs a tiny `curve` command and prints the monotonic clock
when `cli.main` has returned; run.py subtracts its launch time.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

SETUP_ARGV = ["curve", "--n", "64", "--p", "0.5", "--eps", "0.1", "--format", "json"]


def _run_command(cli, argv):
    err = io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # any raise is a failed command; keep the traceback
            rc, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    return {"rc": rc, "seconds": seconds, "stderr": err.getvalue()[-2000:], "error": error}


def run_pass(plan_path, result_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    import spacct.cli  # set-up, outside the timed region

    _run_command(spacct.cli, SETUP_ARGV + ["--out", plan["warmup_out"]])

    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    start = time.perf_counter()
    for argv in plan["argv"]:
        results.append(_run_command(spacct.cli, argv))
    run_s = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"run_s": run_s, "commands": results, "peak_rss_mb": peak_kb / 1024.0}
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.write(plan["spans"])
    with open(result_path, "w") as fh:
        json.dump(out, fh)


def setup_probe(out_path):
    import spacct.cli

    rc = spacct.cli.main(SETUP_ARGV + ["--out", out_path])
    now = time.monotonic()
    print(json.dumps({"rc": rc, "monotonic": now}))


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--pass":
        run_pass(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 3 and sys.argv[1] == "--setup":
        setup_probe(sys.argv[2])
    else:
        sys.exit(__doc__)
