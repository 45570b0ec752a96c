"""Golden outputs of the benchmark's commands, for "no change" checks.

    python3 tests/golden.py OUTDIR

Runs the 32 commands of perfbench's workloads through `spacct.cli.main`, in
this process: `table1` and `table2 --check --format json`, the 12 `curve`
commands, and at seeds 1, 2 and 3 the five `compose` scenario files and
`verify --trials 100000 --json`. perfbench/workloads.py builds the inputs
and is only imported. Each command's output file lands under
OUTDIR/<workload>-<seed>/, and OUTDIR/status.json records every exit code
and stderr. spacct is imported from the src/ of the checkout holding this
file, so to show that a change alters no output, run the script in a
checkout of the parent and in the change and compare with `diff -r`.
The name keeps pytest from collecting it.
"""

from __future__ import annotations

import contextlib
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


def main(outdir: str) -> int:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)  # relative paths keep OUTDIR out of the outputs
    status = {}
    for name, seed in RUNS:
        workdir = Path(f"{name}-{seed}")
        workdir.mkdir(exist_ok=True)
        for command in workloads.WORKLOADS[name](seed, workdir):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = spacct.cli.main(command.argv)
            status[f"{workdir}/{command.label}"] = {"rc": rc, "stderr": err.getvalue()}
    Path("status.json").write_text(json.dumps(status, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
