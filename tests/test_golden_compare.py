"""`tests/golden.py --compare A B` on small hand-made trees."""

import importlib.util
import json
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location("golden", Path(__file__).with_name("golden.py"))
golden = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(golden)


def tree(root: Path, files: dict, rcs: dict) -> str:
    """Write `files` (relative name -> text) and a status.json of `rcs`."""
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    status = {key: {"rc": rc, "stderr": ""} for key, rc in rcs.items()}
    (root / "status.json").write_text(json.dumps(status))
    return str(root)


FILES = {
    "curves-1/point.json": json.dumps({"points": [{"epsilon": 0.1, "delta": 0.25}]}),
    "renderings/curve.csv": "epsilon,delta\n0.1,0.25\n",
}
RCS = {"curves-1/point": 0, "renderings/curve.csv": 0}


@pytest.fixture
def a(tmp_path):
    return tree(tmp_path / "a", FILES, RCS)


def test_identical_trees_compare_equal(a, tmp_path, capsys):
    assert golden.compare(a, tree(tmp_path / "b", FILES, RCS)) == 0
    assert "0 values beyond" in capsys.readouterr().out


def test_a_moved_digit_is_reported_and_passes(a, tmp_path, capsys):
    moved = {**FILES, "renderings/curve.csv": "epsilon,delta\n0.1,0.26\n"}
    assert golden.compare(a, tree(tmp_path / "b", moved, RCS)) == 0
    out = capsys.readouterr().out
    assert "renderings/curve.csv: max abs 0.01" in out
    assert "1 values beyond" in out


def test_a_changed_exit_code_fails(a, tmp_path, capsys):
    assert golden.compare(a, tree(tmp_path / "b", FILES, {**RCS, "curves-1/point": 3})) == 1
    assert "EXIT curves-1/point: 0 -> 3" in capsys.readouterr().out


def test_a_file_only_in_b_fails(a, tmp_path, capsys):
    extra = {**FILES, "renderings/verify.txt": "ok\n"}
    assert golden.compare(a, tree(tmp_path / "b", extra, RCS)) == 1
    assert "ONLY IN B: renderings/verify.txt" in capsys.readouterr().out
