"""spacct runs on numpy and the standard library alone: no CLI launch loads
scipy, which used to be most of every launch's import time."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import spacct.cli
rc = spacct.cli.main(["curve", "--n", "64", "--p", "0.5", "--eps", "0.1"])
print(rc, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_launch_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                                     os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_sources_do_not_mention_scipy():
    offenders = [str(path) for path in sorted(SRC.rglob("*.py"))
                 if "scipy" in path.read_text(encoding="utf-8")]
    assert offenders == []
