"""spacct runs on numpy and the standard library alone: no CLI launch loads
scipy, which used to be most of every launch's import time. And every name
a module imports is used there, so deleted code leaves no import behind."""

import ast
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


def test_every_imported_name_is_used():
    # __init__ imports only to re-export; `from __future__ import annotations`
    # binds no name the module reads
    unused = []
    for path in sorted((SRC / "spacct").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name.partition(".")[0], node.lineno)
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert unused == []
